"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload runs in-process against the ``tripop`` package, one call at a
time.  A pass times only the program's work (CLI invocations and library
calls); every output is checked afterwards, outside the timed regions.

* ``sweep``      many short RK4 runs, one configuration each (verify, leakage, kick)
* ``long_trace`` one configuration, many steps and dense CSV/JSON output (trace)
* ``analytic``   no RK4: family table and lookups, dressed bases, a tabulated pulse

Only ``analytic`` draws its inputs from the seed; the other two use the fixed
baseline invocations, so the seed changes nothing there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tripop import cli, conditions, dressed, propagate, pulses
from tripop.errors import TripopError

WORKLOADS = ("sweep", "long_trace", "analytic")

# "small" shrinks every workload for the self-tests; "full" is the benchmark.
SIZES = {
    "full": {
        "steps": None, "table_max": 20000, "lookups": 100, "lookup_max": 2000,
        "couplings": 20000, "pop_bases": 2000, "pop_actions": 1000,
        "knots": 5000, "queries": 2000,
    },
    "small": {
        "steps": 8000, "table_max": 2000, "lookups": 10, "lookup_max": 200,
        "couplings": 500, "pop_bases": 50, "pop_actions": 100,
        "knots": 500, "queries": 200,
    },
}

DEFAULT_STEPS_PER_PERIOD = 20000  # the CLI default the baseline rows use
RECORD_EVERY = 10                 # the CLI's trace stride (2,000 samples per period)
ALPHA_1_5 = 2.5298221281347035    # family member (n1, n2) = (1, 5): alpha = r (n2 - n1)
AREA_1_5 = 1.6557                 # its A(t0) = pi / (3 r), rounded as in the ROADMAP rows
ALPHA_1_11 = 4.264014327112209    # member (1, 11)
AREA_1_11 = 2.4558959488905123
TRACE_TOL = 1e-6
ODE_TOL = 1e-6
POP_TOL = 1e-9
EIG_TOL = 1e-9
AREA_RTOL = 1e-12
KICK_AREA = AREA_1_5
MISS_SCALE = 1.0 + 1e-3
# The cubic gauge refuses some valid couplings with these (ROADMAP item 4).
GAUGE_REFUSALS = ("NoConsistentXError", "RepeatedRootError")


@dataclass
class Tally:
    """Operations attempted and failed in a run.

    ``refused`` counts the failed operations where the program raised a
    ``TripopError`` (or a CLI call exited with an error) instead of returning
    a result; every other failure is a wrong or missing output.

    ``known`` counts, by reason, the refusals of a known defect (the cubic
    gauge's, ROADMAP item 4).  They are neither attempted nor failed
    operations: a benchmark workload must have no failing operation, and
    their count depends on the seed and on how many passes fit in a run.
    They are reported on their own, and ``dressed.basis_ok_ratio`` shows them.
    """

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    reasons: dict = field(default_factory=dict)
    known: dict = field(default_factory=dict)

    def check(self, ok: bool, reason: str, refused: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.refused += bool(refused)
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check_many(self, ok: np.ndarray, reason: str) -> None:
        ok = np.asarray(ok, dtype=bool)
        self.attempted += int(ok.size)
        bad = int(ok.size - np.count_nonzero(ok))
        if bad:
            self.failed += bad
            self.reasons[reason] = self.reasons.get(reason, 0) + bad

    def missing(self, count: int, reason: str, refused: bool = False) -> None:
        if count > 0:
            self.attempted += count
            self.failed += count
            self.refused += count if refused else 0
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    def known_defect(self, reason: str) -> None:
        self.known[reason] = self.known.get(reason, 0) + 1

    @property
    def correct(self) -> bool:
        return self.failed == self.refused

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed, "refused": self.refused,
            "correct": self.correct, "reasons": dict(sorted(self.reasons.items())),
            "known_defects": dict(sorted(self.known.items())),
        }


_PROBE_K = np.array([[0.0, 1.3, 1.0], [1.3, 0.0, 1.0], [1.0, 1.0, 0.0]], dtype=complex)
PROBE_ITERS = 500
PROBE_REF_S = 1.35e-3     # probe time on an uncontended core of the reference machine
PROBE_INTERVAL_S = 0.05


def probe() -> float:
    """Seconds for a fixed kernel like one RK4 stage loop: small complex matvecs in Python."""
    a = np.array([1.0 + 0j, 0j, 0j])
    t0 = time.perf_counter()
    for i in range(PROBE_ITERS):
        a = a + 1e-4 * (-1j * math.cos(i * 1e-4) * (_PROBE_K @ a))
    return time.perf_counter() - t0


class Clock:
    """Times stages of program work and samples the core's speed inside them.

    Other tenants of a shared machine slow a process by up to 2x, in
    stretches of seconds to minutes, so the raw time of one pass spreads
    widely between runs.  While a stage runs, SIGALRM fires every
    ``PROBE_INTERVAL_S`` and the handler times ``probe()``; a probe also runs
    at each end of the stage.  ``wall_s`` is the stage's time with the probes
    taken out.  ``norm_s`` scales it by PROBE_REF_S / mean(probe time): the
    stage's time on a core that runs the probe at its reference speed.
    """

    def __init__(self):
        self.sampling = True  # off in traced passes, where probes would land in spans
        self.stages: dict[str, dict] = {}
        self._probes: list[float] = []
        self._probe_total = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self._probes.append(probe())
        self._probe_total += time.perf_counter() - t0

    @contextlib.contextmanager
    def stage(self, name: str):
        self._probes, self._probe_total = [probe()], 0.0
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            wall = elapsed - self._probe_total
            self._probes.append(probe())
            mean_probe = sum(self._probes) / len(self._probes)
            self.stages[name] = {
                "wall_s": wall, "norm_s": wall * PROBE_REF_S / mean_probe,
                "probes": len(self._probes), "probe_mean_s": mean_probe,
            }


def run_cli(argv: list[str]) -> int:
    """One in-process CLI invocation, its printed lines discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def count_output_rows(path: Path) -> int:
    if path.suffix == ".json":
        return len(json.loads(path.read_text())["rows"])
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


class Workload:
    """Base: a work directory, the CLI output files, and their determinism check."""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.size = SIZES[size]
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._digests: dict[str, str] = {}
        self.outputs: list[Path] = []
        self.clock = Clock()

    def steps_args(self) -> list[str]:
        steps = self.size["steps"]
        return [] if steps is None else ["--steps-per-period", str(steps)]

    @property
    def steps_per_period(self) -> int:
        return self.size["steps"] or DEFAULT_STEPS_PER_PERIOD

    def cli_stage(self, argv: list[str], out: str) -> tuple[int, Path]:
        path = self.workdir / out
        if path.exists():
            path.unlink()
        rc = run_cli(argv + ["--out", str(path)] + self.steps_args())
        if path not in self.outputs:
            self.outputs.append(path)
        return rc, path

    def check_determinism(self, path: Path, tally: Tally) -> None:
        """Identical invocations must write byte-identical files (cli.py promise)."""
        if not path.exists():
            return
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self._digests.get(path.name)
        if first is None:
            self._digests[path.name] = digest
        else:
            tally.check(first == digest, f"{path.name}: output differs from the first pass")

    def run_pass(self, tally: Tally) -> dict[str, dict]:
        """One pass: time each stage on ``self.clock``, check its outputs; returns the stage timings."""
        self.clock.stages = {}
        self.stages(tally)
        return self.clock.stages

    def stages(self, tally: Tally) -> None:
        raise NotImplementedError


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


# -- sweep -------------------------------------------------------------------


class Sweep(Workload):
    """17 + 25 + 3 short RK4 configurations: 270,000 configuration-steps per pass."""

    def stages(self, tally: Tally) -> None:
        with self.clock.stage("verify_s"):
            rc, path = self.cli_stage(["verify", "--max-product", "35"], "verify.csv")
        self._check_verify(rc, path, tally)
        with self.clock.stage("leakage_s"):
            rc, path = self.cli_stage(["leakage", "--n-o", "1", "--n-op", "1",
                                       "--grid", "omega12:0:0.1:5,omega13:0:0.1:5"], "leakage.csv")
        self._check_finite(rc, path, 25, ("deficit", "estimate"), tally)
        with self.clock.stage("kick_s"):
            rc, path = self.cli_stage(["kick", "--alpha", repr(ALPHA_1_5), "--area", repr(AREA_1_5)], "kick.csv")
        self._check_finite(rc, path, 4, ("p1", "p2", "p3"), tally)

    def _check_verify(self, rc: int, path: Path, tally: Tally) -> None:
        expected = 17
        if rc == 2 or not path.exists():  # exit code 1 only says some row failed
            tally.missing(expected, "verify: CLI error", refused=True)
            return
        header, rows = _read_csv(path)
        col = {h: i for i, h in enumerate(header)}
        for row in rows:
            ok = row[col["status"]] == "pass" and float(row[col["ode_deviation"]]) < ODE_TOL
            tally.check(ok, "verify: row not pass with ode_deviation < 1e-6")
        tally.missing(expected - len(rows), "verify: missing rows")
        self.check_determinism(path, tally)

    def _check_finite(self, rc: int, path: Path, expected: int, cols, tally: Tally) -> None:
        what = path.stem
        if rc != 0 or not path.exists():
            tally.missing(expected, f"{what}: CLI error", refused=True)
            return
        header, rows = _read_csv(path)
        idx = [header.index(c) for c in cols]
        for row in rows:
            tally.check(all(math.isfinite(float(row[i])) for i in idx), f"{what}: non-finite value")
        tally.missing(expected - len(rows), f"{what}: missing rows")
        self.check_determinism(path, tally)


# -- long_trace --------------------------------------------------------------


class LongTrace(Workload):
    """One configuration over five periods (CSV) and another over two (JSON)."""

    def stages(self, tally: Tally) -> None:
        with self.clock.stage("trace_csv_s"):
            rc, path = self.cli_stage(
                ["trace", "--alpha", repr(ALPHA_1_5), "--area", repr(AREA_1_5), "--periods", "5"], "trace.csv")
        self._check_trace(rc, path, 5, tally)
        with self.clock.stage("trace_json_s"):
            rc, path = self.cli_stage(
                ["trace", "--alpha", repr(ALPHA_1_11), "--area", repr(AREA_1_11),
                 "--periods", "2", "--format", "json"], "trace.json")
        self._check_trace(rc, path, 2, tally)

    def _check_trace(self, rc: int, path: Path, periods: int, tally: Tally) -> None:
        steps = periods * self.steps_per_period
        expected = steps // RECORD_EVERY + 1 + (1 if steps % RECORD_EVERY else 0)
        if rc != 0 or not path.exists():
            tally.missing(expected, f"{path.name}: CLI error", refused=True)
            return
        if path.suffix == ".json":
            rows = json.loads(path.read_text())["rows"]
            cols = ("p1", "p2", "p3", "p1_num", "p2_num", "p3_num")
            data = np.array([[r[c] for c in cols] for r in rows], dtype=float).reshape(-1, 6)
        else:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        analytic, numeric = data[:, :3], data[:, 3:]
        ok = (
            np.all(np.isfinite(data), axis=1)
            & (np.max(np.abs(analytic - numeric), axis=1) < TRACE_TOL)
            & (np.abs(analytic.sum(axis=1) - 1.0) < TRACE_TOL)
            & (np.abs(numeric.sum(axis=1) - 1.0) < TRACE_TOL)
        )
        tally.check_many(ok, f"{path.name}: row off the analytic populations")
        tally.missing(expected - len(data), f"{path.name}: missing rows")
        self.check_determinism(path, tally)


# -- analytic ----------------------------------------------------------------


def family_members(max_product: int) -> list[tuple[int, int]]:
    """(n1, n2) of every transfer-family member with n1*n2 <= max_product.

    Recomputed here from the odd-integer rule, independently of the package:
    n1 = 2 n_o + n_o', n2 = n_o + 2 n_o' with n_o, n_o' odd and n1*n2 > 0.
    """
    members = []
    for n1 in range(1, max_product + 1, 2):
        for n2 in range(1, max_product // n1 + 1, 2):
            if (n1 + n2) % 3:
                continue
            n_o, n_op = (2 * n1 - n2) // 3, (2 * n2 - n1) // 3
            if n_o % 2 and n_op % 2:
                members.append((n1, n2))
    return members


def member_alpha_area(n1: int, n2: int) -> tuple[float, float]:
    r = math.sqrt(2.0 / (n1 * n2))
    return r * (n2 - n1), math.pi / (3.0 * r)


def stratified_draw(rng, members: list[tuple[int, int]], count: int) -> list[tuple[int, int]]:
    """One seeded draw from each of ``count`` equal slices of ``members`` sorted by n1*n2."""
    ordered = sorted(members, key=lambda m: (m[0] * m[1], m))
    edges = np.linspace(0, len(ordered), count + 1).astype(int)
    return [ordered[rng.integers(lo, hi)] for lo, hi in zip(edges[:-1], edges[1:])]


class Analytic(Workload):
    """Family table and lookups, 20,000 random dressed bases, a 5,000-knot pulse."""

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        s = self.size
        rng = np.random.default_rng(seed)

        # Lookups: half exact members (must hit), half with alpha scaled by
        # 1 + 1e-3 (must miss).  Scaling alpha = 0 changes nothing, so the
        # misses are drawn from members with n1 != n2.
        # A lookup's cost grows with n1*n2 (validate_condition enumerates the
        # family up to it), so each half is drawn one member per equal slice of
        # the members sorted by product: the seed changes the members, not the work.
        members = family_members(s["lookup_max"])
        movable = [m for m in members if m[0] != m[1]]
        half = s["lookups"] // 2
        lookups = []
        for n1, n2 in stratified_draw(rng, members, s["lookups"] - half):
            alpha, area = member_alpha_area(n1, n2)
            lookups.append((alpha, area, (n1, n2)))
        for n1, n2 in stratified_draw(rng, movable, half):
            alpha, area = member_alpha_area(n1, n2)
            lookups.append((alpha * MISS_SCALE, area, None))
        self.lookups = [lookups[i] for i in rng.permutation(len(lookups))]

        self.couplings = [(float(a), float(b)) for a, b in rng.uniform(-5.0, 5.0, (s["couplings"], 2))]
        self.pop_actions = np.linspace(0.0, 4.0 * math.pi, s["pop_actions"])

        # A Gaussian envelope with 1% multiplicative noise, round-tripped
        # through CSV so the tabulated-pulse loader is part of set-up.
        knots = np.linspace(-1.0, 11.0, s["knots"])
        values = np.exp(-0.5 * ((knots - 5.0) / 1.5) ** 2) * (1.0 + 0.01 * rng.standard_normal(knots.size))
        pulse_csv = self.workdir / "pulse.csv"
        with open(pulse_csv, "w") as fh:
            fh.write("t,v\n")
            fh.writelines(f"{t!r},{v!r}\n" for t, v in zip(knots.tolist(), values.tolist()))
        self.pulse = pulses.load_tabulated_pulse(pulse_csv)
        self.knots, self.knot_values = knots, values
        self.queries = np.sort(rng.uniform(-1.0, 11.0, s["queries"])).tolist()
        self.shaped_basis = dressed.build_dressed_basis(dressed.CouplingRatios(ALPHA_1_5, 1.0))

    def stages(self, tally: Tally) -> None:
        with self.clock.stage("family_s"):
            rc, table_path = self.cli_stage(["table", "--max-product", str(self.size["table_max"])], "table.csv")
            found, closed = [], []
            for alpha, area, _ in self.lookups:
                try:
                    match = conditions.validate_condition(alpha, 1.0, area)
                except TripopError as exc:
                    match = exc
                found.append(match)
                if isinstance(match, conditions.TransferCondition):
                    acts = np.linspace(0.0, match.action_t0, 2000)
                    closed.append(conditions.populations_closed_form_array(match, acts))
        self._check_table(rc, table_path, tally)
        self._check_lookups(found, closed, tally)

        with self.clock.stage("dressed_map_s"):
            bases, refused = [], []
            for alpha, beta in self.couplings:
                try:
                    bases.append(dressed.build_dressed_basis(dressed.CouplingRatios(alpha, beta)))
                except TripopError as exc:
                    refused.append(type(exc).__name__)
            pops = [dressed.populations_general_array(b, self.pop_actions) for b in bases[: self.size["pop_bases"]]]
            kicks = []
            for b in bases:
                try:
                    kicks.append(propagate.propagate_kick(b, KICK_AREA))
                except TripopError:
                    kicks.append(None)
        self._check_dressed(bases, refused, pops, kicks, tally)

        with self.clock.stage("shaped_pulse_s"):
            pulse = self.pulse
            try:
                areas = [pulse.area(t).a for t in self.queries]
                values = [pulse.value(t) for t in self.queries]
                shaped = dressed.populations_general_array(self.shaped_basis, np.array(areas))
            except TripopError:
                areas = values = shaped = None
        self._check_shaped(areas, values, shaped, tally)

    def _check_table(self, rc: int, path: Path, tally: Tally) -> None:
        if not hasattr(self, "_table_expected"):
            self._table_expected = len(family_members(self.size["table_max"]))
        expected = self._table_expected
        if rc != 0 or not path.exists():
            tally.missing(expected, "table: CLI error", refused=True)
            return
        header, rows = _read_csv(path)
        i1, i2, ia = header.index("n1"), header.index("n2"), header.index("A_t0")
        for row in rows:
            n1, n2, a_t0 = int(row[i1]), int(row[i2]), float(row[ia])
            r = math.sqrt(2.0 / (n1 * n2))
            ok = abs(3.0 * r * a_t0 - math.pi) <= 1e-12 * max(1.0, a_t0) and (n1 + n2) % 6 == 0
            tally.check(ok, "table: row violates 3 r A(t0) = pi or (n1 + n2) % 6 == 0")
        tally.missing(expected - len(rows), "table: missing rows")
        self.check_determinism(path, tally)

    def _check_lookups(self, found, closed, tally: Tally) -> None:
        closed_iter = iter(closed)
        for (_, _, expected), match in zip(self.lookups, found):
            if isinstance(match, TripopError):
                tally.check(False, "lookup: TripopError", refused=True)
            elif expected is None:
                tally.check(match is None, "lookup: scaled alpha did not miss")
            elif match is None:
                tally.check(False, "lookup: exact member missed")
            else:
                p = next(closed_iter)
                ok = (
                    (match.n1, match.n2) == expected
                    and abs(p[-1, 1] - 1.0) < POP_TOL
                    and bool(np.all(np.abs(p.sum(axis=1) - 1.0) < POP_TOL))
                )
                tally.check(ok, "lookup: wrong member or closed form off at A(t0)")

    def _check_dressed(self, bases, refused, pops, kicks, tally: Tally) -> None:
        for name in refused:
            if name in GAUGE_REFUSALS:
                tally.known_defect(f"dressed: {name} on a valid coupling")
            else:
                tally.check(False, f"dressed: {name} on a valid coupling", refused=True)
        for i, basis in enumerate(bases):
            eig = np.linalg.eigvalsh(basis.ratios.coupling_matrix())
            ok = bool(np.max(np.abs(np.sort(basis.z) - eig)) <= EIG_TOL)
            if i < len(pops):
                p = pops[i]
                ok &= bool(np.all(np.isfinite(p)) and np.all(np.abs(p.sum(axis=1) - 1.0) < POP_TOL))
            kick = kicks[i]
            if kick is None:
                tally.check(False, "dressed: TripopError from propagate_kick", refused=True)
                continue
            ok &= math.isfinite(kick.norm()) and abs(kick.norm() - 1.0) < POP_TOL
            tally.check(ok, "dressed: z != eigvalsh(K), or populations/kick not normalised")

    def _check_shaped(self, areas, values, shaped, tally: Tally) -> None:
        n = len(self.queries)
        if areas is None:
            tally.missing(n, "shaped: TripopError", refused=True)
            return
        ts, vs = self.knots, self.knot_values
        q = np.asarray(self.queries)
        cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts))))

        def from_start(u):
            k = np.minimum(np.searchsorted(ts, u, side="right") - 1, len(ts) - 2)
            return cumulative[k] + 0.5 * (vs[k] + np.interp(u, ts, vs)) * (u - ts[k])

        ref_area = from_start(q) - from_start(np.array([0.0]))[0]
        ref_value = np.interp(q, ts, vs)
        areas, values = np.asarray(areas), np.asarray(values)
        ok = (
            (np.abs(areas - ref_area) <= AREA_RTOL * np.maximum(1.0, np.abs(ref_area)))
            & (np.abs(values - ref_value) <= AREA_RTOL * np.maximum(1.0, np.abs(ref_value)))
            & np.all(np.isfinite(shaped), axis=1)
            & (np.abs(shaped.sum(axis=1) - 1.0) < POP_TOL)
        )
        tally.check_many(ok, "shaped: area/value off the trapezoid reference, or populations off")


def make(name: str, seed: int, size: str, workdir: Path) -> Workload:
    cls = {"sweep": Sweep, "long_trace": LongTrace, "analytic": Analytic}[name]
    return cls(seed, size, workdir)

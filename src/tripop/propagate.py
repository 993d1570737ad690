"""Fixed-step RK4 integration of the exact coupled amplitude equations.

This module is the independent numerical oracle for the analytic dressed
solutions.  It integrates

    i da_j/dt = E_j a_j + V(t) sum_k K_jk a_k,      a(0) = (1, 0, 0),

directly in the bare basis (no interaction-picture transformation), for
degenerate or split level energies, and it applies ideal kicks spectrally
since a delta function cannot enter a time stepper.

The right-hand side is -i H(t) a with H = diag(E) + V(t) K real, so one
classical RK4 step of size h is exactly the linear map a <- P a, where H0,
Hh and H1 are H at t, t + h/2 and t + h:

    P = I - h^2/6 (Hh H0 + Hh^2 + H1 Hh) + h^4/24 H1 Hh^2 H0
          - i [h/6 (H0 + 4 Hh + H1) - h^3/12 (Hh^2 H0 + H1 Hh^2)].

This is the four stages k1..k4 multiplied out, not a different scheme: the
same stage times, the same weights and the same fourth-order error, with
no eigen-decomposition, dressed basis or analytic action involved.  Only
the rounding order differs from a stage-by-stage loop.  The core samples V
once on the half-step grid, builds P with real stacked matrix products for
a chunk of steps of N configurations at once, and then applies P step by
step.  ``_CHUNK_CONFIG_STEPS`` bounds the configuration-steps in a chunk,
and so the working memory of the stacked matrices, whatever the run length
or the number of configurations.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dressed import (
    AmplitudeState,
    CouplingRatios,
    DressedBasis,
    amplitudes_at,
    build_dressed_basis,
    populations_general_array,
)
from .errors import InvalidConfigError, NormDriftExceededError
from .pulses import Pulse

DEFAULT_STEPS_PER_PERIOD = 20000
DEFAULT_SAMPLES_PER_PERIOD = 2000
NORM_DRIFT_LIMIT = 1e-6
STEPS_ENV_VAR = "TRIPOP_STEPS"


@dataclass(frozen=True)
class LevelEnergies:
    """Bare level energies E_j (hbar = 1); the degenerate case is (0, 0, 0)."""

    e: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.e) != 3 or not all(math.isfinite(v) for v in self.e):
            raise ValueError(f"need three finite energies, got {self.e}")

    @classmethod
    def degenerate(cls) -> "LevelEnergies":
        return cls((0.0, 0.0, 0.0))

    @classmethod
    def from_splittings(cls, omega12: float, omega13: float) -> "LevelEnergies":
        """Energies with E1 = 0 and the requested splittings E1 - E_j."""
        return cls((0.0, -omega12, -omega13))

    @property
    def omega12(self) -> float:
        return self.e[0] - self.e[1]

    @property
    def omega13(self) -> float:
        return self.e[0] - self.e[2]

    def is_degenerate(self) -> bool:
        return self.e == (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    ``dt`` overrides the step directly; otherwise the step is the drive
    period (or, failing that, the integration window) divided by
    ``steps_per_period``.  Every ``record_every``-th step lands in the trace.
    """

    dt: float | None = None
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
    record_every: int = DEFAULT_STEPS_PER_PERIOD // DEFAULT_SAMPLES_PER_PERIOD

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0:
            raise InvalidConfigError("dt must be positive")
        if self.steps_per_period <= 0 or self.record_every <= 0:
            raise InvalidConfigError("steps_per_period and record_every must be positive")

    def resolve_dt(self, pulse: Pulse, t_end: float) -> float:
        if self.dt is not None:
            return self.dt
        if pulse.shape == "harmonic":
            return pulse.period / self.steps_per_period
        return t_end / self.steps_per_period


def default_steps_per_period() -> int:
    """Integrator default, overridable through the TRIPOP_STEPS variable."""
    raw = os.environ.get(STEPS_ENV_VAR)
    if raw is None:
        return DEFAULT_STEPS_PER_PERIOD
    steps = int(raw)
    if steps <= 0:
        raise InvalidConfigError(f"{STEPS_ENV_VAR} must be a positive integer, got {raw!r}")
    return steps


@dataclass(frozen=True)
class PopulationTrace:
    """Time-sampled populations (and optionally amplitudes) from one run."""

    times: np.ndarray
    populations: np.ndarray  # shape (N, 3)
    norm_drift: float
    amplitudes: np.ndarray | None = None  # shape (N, 3), complex

    def __post_init__(self):
        if len(self.times) != len(self.populations):
            raise ValueError("times and populations length mismatch")
        self.times.setflags(write=False)
        self.populations.setflags(write=False)
        if self.amplitudes is not None:
            self.amplitudes.setflags(write=False)

    @property
    def p1(self) -> np.ndarray:
        return self.populations[:, 0]

    @property
    def p2(self) -> np.ndarray:
        return self.populations[:, 1]

    @property
    def p3(self) -> np.ndarray:
        return self.populations[:, 2]


def integrate(
    ratios: CouplingRatios,
    energies: LevelEnergies,
    pulse: Pulse,
    t_end: float,
    config: IntegratorConfig = IntegratorConfig(),
    *,
    record_amplitudes: bool = False,
) -> PopulationTrace:
    """Classical RK4 propagation from t = 0 to t_end with a fixed step.

    Populations are squared magnitudes taken at sample times, never
    accumulated.  The run is rejected (NormDriftExceededError) when
    max |1 - sum |a_i|^2| exceeds 1e-6 or is not finite.
    """
    run = (ratios.coupling_matrix(), energies, pulse, t_end)
    (trace,) = require_traces(integrate_batch([run], config, record_amplitudes=record_amplitudes))
    return trace


def integrate_batch(
    runs: Sequence[tuple[np.ndarray, LevelEnergies, Pulse, float]],
    config: IntegratorConfig = IntegratorConfig(),
    *,
    record_amplitudes: bool = False,
) -> list[PopulationTrace | NormDriftExceededError]:
    """``integrate`` for several runs at once, advanced together by one RK4 core.

    Each run is (K, energies, pulse, t_end) with K a real symmetric 3x3
    coupling matrix, such as ``CouplingRatios.coupling_matrix()``.  Each run
    resolves its own step from ``config`` as ``integrate`` does, and all of
    them must come to the same number of steps.

    Returns one result per run: its trace, or, when that run's norm drift
    exceeds NORM_DRIFT_LIMIT or is not finite, the NormDriftExceededError
    that ``integrate`` would raise for it.  The other runs are unaffected.
    """
    if not runs:
        return []
    k = np.empty((len(runs), 3, 3))
    e = np.empty((len(runs), 3))
    dt = np.empty(len(runs))
    step_counts = set()
    for i, (coupling, energies, pulse, t_end) in enumerate(runs):
        if pulse.shape == "ideal_kick":
            raise InvalidConfigError("an ideal kick cannot be time-stepped; use propagate_kick")
        if not t_end > 0:
            raise InvalidConfigError("t_end must be positive")
        coupling = np.asarray(coupling, dtype=float)
        if not (
            coupling.shape == (3, 3)
            and np.all(np.isfinite(coupling))
            and np.array_equal(coupling, coupling.T)
        ):
            raise InvalidConfigError(f"coupling must be a finite symmetric 3x3 matrix, got {coupling}")
        k[i] = coupling
        e[i] = energies.e
        # t_end / dt can round to just above a whole count; the guard is
        # relative because an ulp of the count outgrows any absolute one.
        n_steps = max(1, int(math.ceil(t_end / config.resolve_dt(pulse, t_end) * (1.0 - 1e-12))))
        step_counts.add(n_steps)
        dt[i] = t_end / n_steps
    if len(step_counts) != 1:
        raise InvalidConfigError(f"runs in one batch must share a step count, got {sorted(step_counts)}")

    pulses = [run[2] for run in runs]
    record_steps, pops, amps = _rk4(k, e, pulses, dt, n_steps, config.record_every, record_amplitudes)
    drifts = np.max(np.abs(1.0 - pops.sum(axis=2)), axis=1)
    results: list[PopulationTrace | NormDriftExceededError] = []
    for i, drift in enumerate(drifts):
        if not drift <= NORM_DRIFT_LIMIT:
            results.append(NormDriftExceededError(
                f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:g}; reduce the step"
            ))
            continue
        results.append(PopulationTrace(
            times=record_steps * dt[i],
            populations=pops[i],
            norm_drift=float(drift),
            amplitudes=None if amps is None else amps[i],
        ))
    return results


def require_traces(results: list[PopulationTrace | NormDriftExceededError]) -> list[PopulationTrace]:
    """The traces of ``integrate_batch`` results; raises the first run's drift error, if any."""
    for result in results:
        if isinstance(result, NormDriftExceededError):
            raise result
    return results


# Bigger chunks run faster but hold more memory: on the sweep benchmark, 2,048
# configuration-steps took 0.19 s instead of 0.30 s but raised peak RSS by 12%
# over the serial loop (the benchmark allows 10%); 256 raises it by 2.5%.
_CHUNK_CONFIG_STEPS = 256


def _rk4(
    k: np.ndarray,
    e: np.ndarray,
    pulses: Sequence[Pulse],
    dt: np.ndarray,
    n_steps: int,
    record_every: int,
    record_amplitudes: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """RK4 for N runs from a(0) = (1, 0, ..., 0), all taking n_steps steps.

    ``k`` is [N, n, n] and ``e`` is [N, n], both real; run i has step dt[i]
    and drive pulses[i].  Records are taken at steps 0, record_every,
    2 record_every, ... and at the last step.  Returns the record steps, the
    populations [N, n_records, n] and, if asked for, the amplitudes in the
    same shape (None otherwise).
    """
    n_runs, n = e.shape
    record_steps = np.arange(0, n_steps + 1, record_every)
    if record_steps[-1] != n_steps:
        record_steps = np.append(record_steps, n_steps)
    pops = np.empty((len(record_steps), n_runs, n))
    amps = np.empty((len(record_steps), n_runs, n), dtype=complex) if record_amplitudes else None
    a = np.zeros((n_runs, n, 1), dtype=complex)
    a[:, 0] = 1.0
    pops[0] = np.abs(a[..., 0]) ** 2
    if amps is not None:
        amps[0] = a[..., 0]
    next_record = 1

    eye = np.eye(n)
    e_diag = e[:, :, None] * eye
    h = dt[:, None, None]
    half_dt = 0.5 * dt
    chunk = max(1, _CHUNK_CONFIG_STEPS // n_runs)
    # Overflow and NaN propagate into the amplitudes, where the drift gate catches them.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_steps, chunk):
            count = min(chunk, n_steps - first)
            half_steps = np.arange(2 * first, 2 * (first + count) + 1)
            v = np.stack([p.value(half_steps * hd) for p, hd in zip(pulses, half_dt)], axis=1)
            hams = e_diag + v[:, :, None, None] * k  # [2 count + 1, N, n, n]
            h0, hh, h1 = hams[0:-1:2], hams[1::2], hams[2::2]
            hh2 = hh @ hh
            hh_h0 = hh @ h0
            h1_hh = h1 @ hh
            h1_hh2 = h1_hh @ hh
            real = eye - h * h / 6.0 * (hh_h0 + hh2 + h1_hh) + h**4 / 24.0 * (h1_hh2 @ h0)
            imag = h**3 / 12.0 * (hh2 @ h0 + h1_hh2) - h / 6.0 * (h0 + 4.0 * hh + h1)
            for step, p in enumerate(real + 1j * imag, start=first + 1):
                a = p @ a
                if step % record_every == 0 or step == n_steps:
                    pops[next_record] = np.abs(a[..., 0]) ** 2
                    if amps is not None:
                        amps[next_record] = a[..., 0]
                    next_record += 1
    pops = pops.transpose(1, 0, 2)
    return record_steps, pops, None if amps is None else amps.transpose(1, 0, 2)


def propagate_kick(basis: DressedBasis, kick_area: float) -> AmplitudeState:
    """State right after an ideal kick of the given area (spectral result).

    The kick is instantaneous, so level energies accumulate no phase during
    it: the post-kick amplitudes are the dressed evolution evaluated at the
    kick area, regardless of any level splittings.
    """
    return amplitudes_at(basis, kick_area)


def compare_analytic_numeric(
    ratios: CouplingRatios,
    pulse: Pulse,
    t_end: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> float:
    """Max componentwise |P_analytic - P_numeric| over one RK4 run.

    Requires degenerate energies and eps = 0, where the dressed solution is
    exact; the returned deviation is then pure integrator error.
    """
    if ratios.eps != (0.0, 0.0, 0.0):
        raise InvalidConfigError("analytic comparison requires eps = (0, 0, 0)")
    basis = build_dressed_basis(ratios)
    trace = integrate(ratios, LevelEnergies.degenerate(), pulse, t_end, config)
    actions = np.array([pulse.area(t).a for t in trace.times])
    analytic = populations_general_array(basis, actions)
    return float(np.max(np.abs(analytic - trace.populations)))


def dwell_time(trace: PopulationTrace, threshold: float = 0.99) -> float:
    """Total trace time with the target-level population above ``threshold``.

    Plumbing diagnostic for pulse-shaping studies; the value depends on the
    trace sampling and carries no analytic guarantee.
    """
    if len(trace.times) < 2:
        return 0.0
    above = trace.p2 > threshold
    dt_segments = np.diff(trace.times)
    return float(np.sum(dt_segments[above[:-1]]))


def export_trace_csv(trace: PopulationTrace, path) -> None:
    """Write ``t,p1,p2,p3`` rows (plus amplitude columns when recorded)."""
    with open(path, "w", newline="") as fh:
        header = "t,p1,p2,p3"
        if trace.amplitudes is not None:
            header += ",re_a1,im_a1,re_a2,im_a2,re_a3,im_a3"
        fh.write(header + "\n")
        for i, t in enumerate(trace.times):
            row = [t, *trace.populations[i]]
            if trace.amplitudes is not None:
                for c in trace.amplitudes[i]:
                    row.extend((c.real, c.imag))
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

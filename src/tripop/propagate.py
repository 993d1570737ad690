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
the rounding order differs from a stage-by-stage loop.

Each H is diag(E) + V K, so P is a polynomial in the step's three drive
samples: linear in V(t), at most quadratic in V(t + h/2) and linear in
V(t + h).  Over the 12 monomials mu_m of these samples,

    P = I + sum_m mu_m M_m,

where each M_m collects the words in diag(E) and K of the formula above
that carry monomial m, with their powers of h.  The M_m are expanded once
per batch, not fitted to P at sample drives, which would lose the h^4 terms
to cancellation.  I is added after the sum, as in the formula: folding it
into the constant M_m would round the same way in every step, a bias that
grows with the run length.

The core advances N configurations at once, a chunk of steps at a time.  It
samples each run's V on the half-step grid once per block of chunks, and
builds P for every step of a chunk with one stacked product of the chunk's
monomials and the run's M_m.  P acts on (Re a, Im a) as the real block
matrix [[Re P, -Im P], [Im P, Re P]], which numpy multiplies several times
faster than a complex 3x3.  Between two records only the product of the
step maps matters: each record interval's matrices are multiplied by a
pairwise tree, a prefix scan over the chunk's interval products gives the
state at each of its records, and the state is updated once per chunk.
``_CHUNK_CONFIG_STEPS`` bounds the configuration-steps in a chunk and in a
block, and so the working memory of the stacked matrices and drive samples,
whatever the run length or the number of configurations.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral

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
# Runs x records of one batch: 4e7 hold 960 MB of populations, about the
# memory the table cap allows.  verify and leakage put every member or grid
# point in one batch of 501 records at the default step, so about 80,000 fit.
MAX_RUN_RECORDS = 40_000_000

_log = logging.getLogger("tripop")


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


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    The step is the drive period (or, failing that, the integration window)
    divided by ``steps_per_period``.  Every ``record_every``-th step lands
    in the trace.  Both counts are integers of at most 2**53, which floats
    hold exactly.
    """

    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
    record_every: int = DEFAULT_STEPS_PER_PERIOD // DEFAULT_SAMPLES_PER_PERIOD

    def __post_init__(self):
        if not all(isinstance(n, Integral) and 0 < n <= 2**53 for n in (self.steps_per_period, self.record_every)):
            raise InvalidConfigError(f"steps_per_period and record_every must be integers in 1 .. 2**53, got {self}")

    def resolve_dt(self, pulse: Pulse, t_end: float) -> float:
        if pulse.shape == "harmonic":
            return pulse.period / self.steps_per_period
        return t_end / self.steps_per_period

    def step_count(self, pulse: Pulse, t_end: float) -> int:
        """Whole steps of a run to ``t_end``, each of about ``resolve_dt``.

        t / (t / n) can round to either side of n: a ratio within a relative
        1e-12 of a whole count (an ulp outgrows any absolute bound) takes it,
        any other is rounded up, so no whole step is lost.
        """
        if not 0 < t_end < math.inf:
            raise InvalidConfigError(f"t_end must be positive and finite, got {t_end!r}")
        dt_asked = self.resolve_dt(pulse, t_end)
        ratio = t_end / dt_asked if dt_asked > 0.0 else math.inf
        if not ratio < math.inf:
            raise InvalidConfigError(f"t_end {t_end!r} at step {dt_asked!r} needs more steps than a float holds")
        nearest = round(ratio)
        return max(1, nearest if abs(ratio - nearest) <= 1e-12 * ratio else math.ceil(ratio))

    def record_count(self, n_steps: int) -> int:
        """Records of a run of ``n_steps`` steps: step 0, every ``record_every``-th, and the last."""
        return -(-n_steps // self.record_every) + 1


@dataclass(frozen=True)
class PopulationTrace:
    """Time-sampled populations from one run."""

    times: np.ndarray
    populations: np.ndarray  # shape (N, 3)
    norm_drift: float

    def __post_init__(self):
        if len(self.times) != len(self.populations):
            raise ValueError("times and populations length mismatch")
        self.times.setflags(write=False)
        self.populations.setflags(write=False)

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
) -> PopulationTrace:
    """Classical RK4 propagation from t = 0 to t_end with a fixed step.

    Populations are squared magnitudes taken at sample times, never
    accumulated.  The run is rejected (NormDriftExceededError) when
    max |1 - sum |a_i|^2| exceeds 1e-6 or is not finite.
    """
    run = (ratios.coupling_matrix(), energies, pulse, t_end)
    (trace,) = require_traces(integrate_batch([run], config))
    return trace


def integrate_batch(
    runs: Sequence[tuple[np.ndarray, LevelEnergies, Pulse, float]],
    config: IntegratorConfig = IntegratorConfig(),
) -> list[PopulationTrace | NormDriftExceededError]:
    """``integrate`` for several runs at once, advanced together by one RK4 core.

    Each run is (K, energies, pulse, t_end) with K a real symmetric 3x3
    coupling matrix, such as ``CouplingRatios.coupling_matrix()``.  Each run
    resolves its own step from ``config`` as ``integrate`` does, and all of
    them must come to the same number of steps.

    Refuses a batch of more than ``MAX_RUN_RECORDS`` runs x records before
    integrating it.

    Returns one result per run: its trace, or, when that run's norm drift
    exceeds NORM_DRIFT_LIMIT or is not finite, the NormDriftExceededError
    that ``integrate`` would raise for it.  The other runs are unaffected.

    Logs one debug record per batch to the ``tripop`` logger, and a warning
    when a run's drift passes a tenth of NORM_DRIFT_LIMIT.
    """
    if not runs:
        return []
    k = np.empty((len(runs), 3, 3))
    e = np.empty((len(runs), 3))
    dt = np.empty(len(runs))
    step_counts = set()
    for i, (coupling, energies, pulse, t_end) in enumerate(runs):
        n_steps = config.step_count(pulse, t_end)
        coupling = np.asarray(coupling, dtype=float)
        if not (
            coupling.shape == (3, 3)
            and np.all(np.isfinite(coupling))
            and np.array_equal(coupling, coupling.T)
        ):
            raise InvalidConfigError(f"coupling must be a finite symmetric 3x3 matrix, got {coupling}")
        k[i] = coupling
        e[i] = energies.e
        step_counts.add(n_steps)
        dt[i] = t_end / n_steps
    if len(step_counts) != 1:
        raise InvalidConfigError(f"runs in one batch must share a step count, got {sorted(step_counts)}")
    n_records = config.record_count(n_steps)
    if len(runs) * n_records > MAX_RUN_RECORDS:
        raise InvalidConfigError(
            f"{len(runs)} runs of {n_steps} steps, recorded every {config.record_every}, "
            f"make {len(runs) * n_records} records, past the cap of {MAX_RUN_RECORDS:.0e}"
        )

    pulses = [run[2] for run in runs]
    record_steps, pops, _ = _rk4(k, e, pulses, dt, n_steps, config.record_every, False)
    drifts = np.max(np.abs(1.0 - pops.sum(axis=2)), axis=1)
    worst = int(np.argmax(drifts))  # a NaN drift counts as the worst
    _log.debug(
        "RK4 batch: %d runs x %d steps, record every %d, chunks of %d steps, drive blocks of %d steps, "
        "max norm drift %.3e",
        len(runs), n_steps, config.record_every, *_chunk_sizes(len(runs), config.record_every), drifts[worst],
    )
    drifting = np.count_nonzero(~(drifts <= 0.1 * NORM_DRIFT_LIMIT))
    if drifting:
        _log.warning(
            "norm drift past %.0e (a tenth of the limit) in %d of %d RK4 runs; the largest is %.3e, in run %d",
            0.1 * NORM_DRIFT_LIMIT, drifting, len(runs), drifts[worst], worst,
        )
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
        ))
    return results


def require_traces(results: list[PopulationTrace | NormDriftExceededError]) -> list[PopulationTrace]:
    """The traces of ``integrate_batch`` results; raises the first run's drift error, if any."""
    for result in results:
        if isinstance(result, NormDriftExceededError):
            raise result
    return results


# The one bound on the core's working memory: a chunk holds the step
# matrices of at most this many configuration-steps, whatever the run length
# or the number of runs, and a drive block spans at most this many steps, so
# it holds at most 2 x 256 + 1 samples per run.  Bigger chunks run faster but
# hold more: on the benchmark (2-vCPU Xeon VM, medians of three runs against
# six at 256), 1,024 took 12% off long_trace and 29% off sweep but raised
# sweep's peak RSS by 4%; 2,048 took 15% and 32% off and raised it by 6%.
_CHUNK_CONFIG_STEPS = 256


def _chunk_sizes(n_runs: int, record_every: int) -> tuple[int, int]:
    """Steps per chunk of step matrices, and per block of drive samples.

    A chunk is _CHUNK_CONFIG_STEPS // n_runs steps (at least one), cut down
    to whole record intervals when the stride fits in it.  A block is the
    largest whole number of chunks within _CHUNK_CONFIG_STEPS steps.
    """
    chunk = max(1, _CHUNK_CONFIG_STEPS // n_runs)
    if record_every <= chunk:
        chunk -= chunk % record_every
    return chunk, chunk * (_CHUNK_CONFIG_STEPS // chunk)


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

    Each run's step coefficients M [12, (2 n)^2] (``_step_coefficients``)
    are made once.  A chunk's step matrices are then one stacked product,
    the monomials [N, steps, 12] of its drive samples times M, plus I.  A
    chunk (``_chunk_sizes``) holds whole record intervals or lies within
    one, so Python work scales with the number of chunks, not of steps.
    """
    n_runs, n = e.shape
    record_steps = np.arange(0, n_steps + 1, record_every)
    if record_steps[-1] != n_steps:
        record_steps = np.append(record_steps, n_steps)
    eye = np.eye(n)
    pops = np.empty((len(record_steps), n_runs, n))
    pops[0] = eye[0]
    amps = np.empty((len(record_steps), n_runs, n), dtype=complex) if record_amplitudes else None
    if amps is not None:
        amps[0] = eye[0]
    next_record = 1
    a = np.zeros((n_runs, 2 * n, 1))  # (Re a, Im a)
    a[:, 0] = 1.0

    coefficients = _step_coefficients(k, e, dt).reshape(n_runs, len(_MONOMIALS), 4 * n * n)
    half_dt = 0.5 * dt
    chunk, block = _chunk_sizes(n_runs, record_every)
    v_first = v_last = first = 0
    # Overflow and NaN propagate into the amplitudes, where the drift gate catches them.
    with np.errstate(over="ignore", invalid="ignore"):
        while first < n_steps:
            last = min(first + chunk, n_steps)
            if last // record_every > first // record_every:
                last -= last % record_every  # end at the chunk's last record step
            if last > v_last:
                v_first, v_last = first, min(first + block, n_steps)
                half_steps = np.arange(2 * v_first, 2 * v_last + 1)
                v = np.stack([p.value(half_steps * hd) for p, hd in zip(pulses, half_dt)])
            v_chunk = v[:, 2 * (first - v_first) : 2 * (last - v_first) + 1]
            # (1, vh, vh^2) x (1, v1), then the same times v0: the order of _MONOMIALS
            mono = np.empty((n_runs, last - first, len(_MONOMIALS)))
            mono[..., 0] = 1.0
            mono[..., 2] = v_chunk[:, 1::2]
            mono[..., 4] = mono[..., 2] ** 2
            mono[..., 1:6:2] = mono[..., 0:6:2] * v_chunk[:, 2::2, None]
            mono[..., 6:] = mono[..., :6] * v_chunk[:, 0:-1:2, None]
            steps = mono @ coefficients  # P - I, [N, last - first, (2 n)^2]
            steps[..., :: 2 * n + 1] += 1.0
            steps = steps.reshape(n_runs, last - first, 2 * n, 2 * n).swapaxes(0, 1)
            intervals = steps.reshape(-1, min(record_every, last - first), *steps.shape[1:])
            states = _prefix_products(_tree_products(intervals)) @ a  # [intervals, N, 2 n, 1]
            a = states[-1]
            if last % record_every and last != n_steps:
                states = states[:-1]  # the chunk ends between records
            recorded = slice(next_record, next_record + len(states))
            amplitudes = states[..., :n, 0] + 1j * states[..., n:, 0]
            pops[recorded] = np.abs(amplitudes) ** 2
            if amps is not None:
                amps[recorded] = amplitudes
            next_record += len(states)
            first = last
    pops = pops.transpose(1, 0, 2)
    return record_steps, pops, None if amps is None else amps.transpose(1, 0, 2)


# Exponents of (V(t), V(t + h/2), V(t + h)) in the monomials of a step's
# drive samples that P is linear in, in the column order the core uses.
_MONOMIALS = tuple(itertools.product((0, 1), (0, 1, 2), (0, 1)))

# The step formula as P = I + sum of w (-i h)^L H[s_1] ... H[s_L]: the
# weight w and the sample s (0: t, 1: t + h/2, 2: t + h) of each factor H.
_RK4_WORDS = (
    (1 / 6, (0,)), (4 / 6, (1,)), (1 / 6, (2,)),
    (1 / 6, (1, 0)), (1 / 6, (1, 1)), (1 / 6, (2, 1)),
    (1 / 12, (1, 1, 0)), (1 / 12, (2, 1, 1)),
    (1 / 24, (2, 1, 1, 0)),
)


def _step_coefficients(k: np.ndarray, e: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """M [N, 12, 2 n, 2 n], real block form, with P - I = sum_m mu_m M_m.

    mu_m is the monomial _MONOMIALS[m] of the step's drive samples.  Each
    factor H = diag(E) + V K of a word in _RK4_WORDS contributes diag(E) or
    V K, so the word expands into words in diag(E) and K; each goes, with
    its weight and power of h, into the M_m of its V factors.  The identity
    is left out, so the core adds it last.
    """
    n = e.shape[1]
    letters = (e[:, :, None] * np.eye(n), k)  # diag(E), K
    words = {(0,): letters[0], (1,): letters[1]}
    for length in range(2, 5):
        for picks in itertools.product((0, 1), repeat=length):
            words[picks] = words[picks[:-1]] @ letters[picks[-1]]
    parts = np.zeros((2, len(e), len(_MONOMIALS), n, n))  # real, imaginary
    for weight, samples in _RK4_WORDS:
        phase = (-1j) ** len(samples)  # +-1 or +-i
        scale = (phase.real + phase.imag) * weight * dt[:, None, None] ** len(samples)
        for picks in itertools.product((0, 1), repeat=len(samples)):
            exponents = [0, 0, 0]
            for pick, sample in zip(picks, samples):
                exponents[sample] += pick
            parts[len(samples) % 2, :, _MONOMIALS.index(tuple(exponents))] += scale * words[picks]
    real, imag = parts
    m = np.empty((len(e), len(_MONOMIALS), 2 * n, 2 * n))
    m[..., :n, :n] = m[..., n:, n:] = real
    m[..., n:, :n] = imag
    m[..., :n, n:] = -imag
    return m


def _tree_products(p: np.ndarray) -> np.ndarray:
    """p[:, L-1] @ ... @ p[:, 0] for each row of p [M, L, ...], multiplied pairwise."""
    while p.shape[1] > 1:
        even = p.shape[1] - p.shape[1] % 2
        pairs = p[:, 1:even:2] @ p[:, 0:even:2]
        p = np.concatenate((pairs, p[:, even:]), axis=1) if even < p.shape[1] else pairs
    return p[:, 0]


def _prefix_products(q: np.ndarray) -> np.ndarray:
    """s[j] = q[j] @ ... @ q[0] along the first axis, by a log-depth scan."""
    span = 1
    while span < len(q):
        q = np.concatenate((q[:span], q[span:] @ q[:-span]))
        span *= 2
    return q


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
    actions = pulse.area(trace.times).a
    analytic = populations_general_array(basis, actions)
    return float(np.max(np.abs(analytic - trace.populations)))

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

P depends on h only through h H = diag(h E) + h V K, so the core works in
step units: P is a polynomial in the step's drive samples times h, linear
in h V(t), at most quadratic in h V(t + h/2) and linear in h V(t + h).
Over the 12 monomials mu_m of these samples,

    P = I + sum_m mu_m M_m,

where each M_m collects the words in diag(h E) and K of the formula above
that carry monomial m.  No power of h stands apart from its E or V, so a
tiny step on a huge drive cannot make 0 * inf.  The M_m are expanded once
per batch, not fitted to P at sample drives, which would lose the h^4
terms to cancellation.  I is added after the sum, as in the formula:
folding it into the constant M_m would round the same way in every step,
a bias that grows with the run length.

The core advances N configurations at once, a chunk of steps at a time
(``_chunk_sizes``).  It samples each drive times h on the half-step grid a
block of steps at a time (runs with the same pulse and step share the
samples), and builds P for every step of a chunk with one stacked product of
the chunk's monomials and the run's M_m.  P acts on (Re a, Im a) as the real
block matrix [[Re P, -Im P], [Im P, Re P]], which numpy multiplies several
times faster than a complex 3x3.  Between two records only the product of
the step maps matters: each record interval's matrices are multiplied by a
pairwise tree, a prefix scan over the chunk's interval products gives the
state at each of its records, and the state is updated once per chunk.  The
chunks set only how the products are grouped: results at other budgets
differ in rounding alone.

Every level of that work is written into buffers made once per batch, so
the chunk loop allocates no array but a gather of its drive samples, and no
step-sized array is mapped afresh however the allocator is tuned.  At the
RECORD_EVERY stride they take 595 bytes a configuration-step of a chunk:
monomials 96, step matrices 288, the tree's first level 144, the scan 58,
states and amplitudes 10.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .dressed import AmplitudeState, CouplingRatios, DressedBasis, amplitudes_at
from .errors import InvalidInputError, NormDriftExceededError
from .pulses import Pulse

DEFAULT_STEPS_PER_PERIOD = 20000
RECORD_EVERY = 10  # the trace stride: 2,000 samples per drive period at the default step
NORM_DRIFT_LIMIT = 1e-6
# Runs x records of one batch: 4e7 hold 960 MB of populations, about the
# memory the table cap allows.  Beyond its records a batch holds at most
# 0.8 MB, plus 9.9 KB a run and 4.1 KB a distinct drive.
MAX_RUN_RECORDS = 40_000_000

_log = logging.getLogger("tripop")


@dataclass(frozen=True)
class LevelEnergies:
    """Bare level energies E_j (hbar = 1); the degenerate case is (0, 0, 0)."""

    e: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.e) != 3 or not all(math.isfinite(v) for v in self.e):
            raise InvalidInputError(f"need three finite energies, got {self.e}")

    @classmethod
    def degenerate(cls) -> "LevelEnergies":
        return cls((0.0, 0.0, 0.0))

    @classmethod
    def from_splittings(cls, omega12: float, omega13: float) -> "LevelEnergies":
        """Energies with E1 = 0 and the requested splittings E1 - E_j."""
        return cls((0.0, -omega12, -omega13))


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    The step is the drive period (or, failing that, the integration window)
    divided by ``steps_per_period``, an integer of at most 2**53, which
    floats hold exactly.  Every ``RECORD_EVERY``-th step lands in the trace.
    """

    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD

    def __post_init__(self):
        if not (isinstance(self.steps_per_period, Integral) and 0 < self.steps_per_period <= 2**53):
            raise InvalidInputError(f"steps_per_period must be an integer in 1 .. 2**53, got {self.steps_per_period!r}")

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
            raise InvalidInputError(f"t_end must be positive and finite, got {t_end!r}")
        dt_asked = self.resolve_dt(pulse, t_end)
        ratio = t_end / dt_asked if dt_asked > 0.0 else math.inf
        if not ratio < math.inf:
            raise InvalidInputError(f"t_end {t_end!r} at step {dt_asked!r} needs more steps than a float holds")
        nearest = round(ratio)
        return max(1, nearest if abs(ratio - nearest) <= 1e-12 * ratio else math.ceil(ratio))

    def record_count(self, n_steps: int) -> int:
        """Records of a run of ``n_steps`` steps: step 0, every ``RECORD_EVERY``-th, and the last."""
        return -(-n_steps // RECORD_EVERY) + 1


@dataclass(frozen=True)
class PopulationTrace:
    """Time-sampled populations from one run."""

    times: np.ndarray
    populations: np.ndarray  # shape (N, 3)
    norm_drift: float

    def __post_init__(self):
        if len(self.times) != len(self.populations):
            raise InvalidInputError("times and populations length mismatch")
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
    (trace,) = integrate_batch([(ratios.coupling_matrix(), energies, pulse, t_end)], config)
    return trace


def integrate_batch(
    runs: Sequence[tuple[np.ndarray, LevelEnergies, Pulse, float]],
    config: IntegratorConfig = IntegratorConfig(),
) -> list[PopulationTrace]:
    """``integrate`` for several runs at once, advanced together by one RK4 core.

    Each run is (K, energies, pulse, t_end) with K a real symmetric 3x3
    coupling matrix, such as ``CouplingRatios.coupling_matrix()``.  Each run
    resolves its own step from ``config`` as ``integrate`` does, and all of
    them must come to the same number of steps.

    Refuses a batch of more than ``MAX_RUN_RECORDS`` runs x records before
    integrating it.

    Returns one trace per run, in order.  When a run's norm drift exceeds
    NORM_DRIFT_LIMIT or is not finite, the whole batch is still integrated
    and logged, and then the first such run's NormDriftExceededError is
    raised; its ``traces`` holds every run's trace, None for each run that
    drifted.

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
            raise InvalidInputError(f"coupling must be a finite symmetric 3x3 matrix, got {coupling}")
        k[i] = coupling
        e[i] = energies.e
        step_counts.add(n_steps)
        dt[i] = t_end / n_steps
    if len(step_counts) != 1:
        raise InvalidInputError(f"runs in one batch must share a step count, got {sorted(step_counts)}")
    n_records = config.record_count(n_steps)
    if len(runs) * n_records > MAX_RUN_RECORDS:
        raise InvalidInputError(
            f"{len(runs)} runs of {n_steps} steps, recorded every {RECORD_EVERY}, "
            f"make {len(runs) * n_records} records, past the cap of {MAX_RUN_RECORDS:.0e}"
        )

    pulses = [run[2] for run in runs]
    record_steps, pops, _ = _rk4(k, e, pulses, dt, n_steps, False)
    drifts = np.max(np.abs(1.0 - pops.sum(axis=2)), axis=1)
    worst = int(np.argmax(drifts))  # a NaN drift counts as the worst
    _log.debug(
        "RK4 batch: %d runs x %d steps, record every %d, chunks of at most %d steps, "
        "drive blocks of at most %d steps, max norm drift %.3e",
        len(runs), n_steps, RECORD_EVERY, *_chunk_sizes(len(runs), n_steps),
        drifts[worst],
    )
    drifting = np.count_nonzero(~(drifts <= 0.1 * NORM_DRIFT_LIMIT))
    if drifting:
        _log.warning(
            "norm drift past %.0e (a tenth of the limit) in %d of %d RK4 runs; the largest is %.3e, in run %d",
            0.1 * NORM_DRIFT_LIMIT, drifting, len(runs), drifts[worst], worst,
        )
    traces = [
        PopulationTrace(times=record_steps * dt[i], populations=pops[i], norm_drift=float(drift))
        if drift <= NORM_DRIFT_LIMIT else None
        for i, drift in enumerate(drifts)
    ]
    if None in traces:
        drift = drifts[traces.index(None)]
        error = NormDriftExceededError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:g}; reduce the step")
        error.traces = traces
        raise error
    return traces


# Bigger chunks pay the per-chunk numpy calls less often but hold more
# buffer memory; CHANGES.md has the benchmark runs that chose this budget.
_CHUNK_CONFIG_STEPS = 1024
# Sampling the drives a block at a time lets a batch of many runs, whose
# chunks are short, make one Pulse.value call per distinct drive and block.
_DRIVE_BLOCK_STEPS = 256


def _chunk_sizes(n_runs: int, n_steps: int) -> tuple[int, int]:
    """Steps per chunk of step matrices, and per block of drive samples.

    A chunk is the most whole RECORD_EVERY intervals whose configuration-steps
    (runs x steps) fit in _CHUNK_CONFIG_STEPS, and one interval at least.  A
    block is the largest whole number of chunks within _DRIVE_BLOCK_STEPS
    steps, and one chunk at least.  Neither is longer than the run's n_steps.
    """
    chunk = RECORD_EVERY * max(1, _CHUNK_CONFIG_STEPS // (n_runs * RECORD_EVERY))
    block = chunk * max(1, _DRIVE_BLOCK_STEPS // chunk)
    return min(chunk, n_steps), min(block, n_steps)


def _rk4(
    k: np.ndarray,
    e: np.ndarray,
    pulses: Sequence[Pulse],
    dt: np.ndarray,
    n_steps: int,
    record_amplitudes: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """RK4 for N runs from a(0) = (1, 0, ..., 0), all taking n_steps steps.

    ``k`` is [N, n, n] and ``e`` is [N, n], both real; run i has step dt[i]
    and drive pulses[i].  Records are taken at steps 0, RECORD_EVERY,
    2 RECORD_EVERY, ... and at the last step.  Returns the record steps, the
    populations [N, n_records, n] and, if asked for, the amplitudes in the
    same shape (None otherwise).
    """
    n_runs, n = e.shape
    record_steps = np.arange(0, n_steps + 1, RECORD_EVERY)
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

    drives: dict[tuple[Pulse, float], int] = {}
    drive_of_run = np.array([drives.setdefault((p, float(h)), len(drives)) for p, h in zip(pulses, dt)])
    chunk, block = _chunk_sizes(n_runs, n_steps)
    stride = min(RECORD_EVERY, chunk)
    n_intervals = chunk // stride  # in a chunk, at most
    n_mono, n_entries = len(_MONOMIALS), 4 * n * n
    v_first = v_last = first = mono_length = 0
    # Overflow and NaN, in the step coefficients too, propagate into the
    # amplitudes, where the drift gate catches them.
    with np.errstate(over="ignore", invalid="ignore"):
        # one row of samples per drive, made first: after the coefficients it
        # left the peak RSS higher
        drive_buffer = np.empty((len(drives), 2 * block + 1))
        coefficients = _step_coefficients(k, e * dt[:, None]).reshape(n_runs, n_mono, n_entries)
        # made once the coefficients' temporaries are freed, so the two never add up
        mono_buffer = np.empty(n_mono * n_runs * chunk)
        step_buffer = np.empty(n_runs * chunk * n_entries)
        level_buffer = np.empty(n_runs * n_intervals * -(-stride // 2) * n_entries)
        scan_buffers = np.empty((2, n_intervals * n_runs * n_entries))
        state_buffer = np.empty((n_intervals, n_runs, 2 * n, 1))
        amplitude_buffer = np.empty((n_intervals, n_runs, n), dtype=complex)
        while first < n_steps:
            last = min(first + chunk, n_steps)
            if last // RECORD_EVERY > first // RECORD_EVERY:
                last -= last % RECORD_EVERY  # end at the chunk's last record step
            if last > v_last:
                v_first, v_last = first, min(first + block, n_steps)
                half_steps = np.arange(2 * v_first, 2 * v_last + 1)
                v = drive_buffer[:, : len(half_steps)]
                for row, (p, h) in zip(v, drives):
                    np.multiply(h, p.value(half_steps * (0.5 * h)), out=row)  # h V
            length = last - first
            v_chunk = v[drive_of_run, 2 * (first - v_first) : 2 * (last - v_first) + 1]
            # (1, vh, vh^2) x (1, v1), then the same times v0: the order of _MONOMIALS
            mono = mono_buffer[: n_mono * n_runs * length].reshape(n_mono, n_runs, length)
            if length != mono_length:  # no other row is written over the ones
                mono[0] = 1.0
                mono_length = length
            mono[2] = v_chunk[:, 1::2]
            np.square(mono[2], out=mono[4])
            np.multiply(mono[0:6:2], v_chunk[:, 2::2], out=mono[1:6:2])
            np.multiply(mono[:6], v_chunk[:, 0:-1:2], out=mono[6:])
            steps = step_buffer[: n_runs * length * n_entries]
            np.matmul(mono.transpose(1, 2, 0), coefficients, out=steps.reshape(n_runs, length, n_entries))  # P - I
            for diagonal in range(0, n_entries, 2 * n + 1):  # I, one strided pass per entry
                steps[diagonal::n_entries] += 1.0
            intervals = steps.reshape(-1, min(RECORD_EVERY, length), 2 * n, 2 * n)
            products = _tree_products(intervals, level_buffer, step_buffer)
            products = _prefix_products(products.reshape(n_runs, -1, 2 * n, 2 * n).swapaxes(0, 1), scan_buffers)
            states = state_buffer[: len(products)]
            np.matmul(products, a, out=states)  # [intervals, N, 2 n, 1]
            a[...] = states[-1]  # a copy: the next chunk writes over the states
            recorded = slice(next_record, next_record + len(states))
            amplitudes = amplitude_buffer[: len(states)]  # Re a + 1j Im a, then |a| ** 2
            np.multiply(1j, states[..., n:, 0], out=amplitudes)
            np.add(states[..., :n, 0], amplitudes, out=amplitudes)
            np.abs(amplitudes, out=pops[recorded])
            np.square(pops[recorded], out=pops[recorded])
            if amps is not None:
                amps[recorded] = amplitudes
            next_record += len(states)
            first = last
    pops = pops.transpose(1, 0, 2)
    return record_steps, pops, None if amps is None else amps.transpose(1, 0, 2)


# Exponents of (h V(t), h V(t + h/2), h V(t + h)) in the monomials of a
# step's drive samples that P is linear in, in the column order the core uses.
_MONOMIALS = tuple(itertools.product((0, 1), (0, 1, 2), (0, 1)))

# The step formula as P = I + sum of w (-i)^L (h H[s_1]) ... (h H[s_L]): the
# weight w and the sample s (0: t, 1: t + h/2, 2: t + h) of each factor H.
_RK4_WORDS = (
    (1 / 6, (0,)), (4 / 6, (1,)), (1 / 6, (2,)),
    (1 / 6, (1, 0)), (1 / 6, (1, 1)), (1 / 6, (2, 1)),
    (1 / 12, (1, 1, 0)), (1 / 12, (2, 1, 1)),
    (1 / 24, (2, 1, 1, 0)),
)


def _step_coefficients(k: np.ndarray, he: np.ndarray) -> np.ndarray:
    """M [N, 12, 2 n, 2 n], real block form, with P - I = sum_m mu_m M_m.

    ``he`` [N, n] holds each run's energies times its step, h E, and mu_m is
    the monomial _MONOMIALS[m] of the step's drive samples times the step,
    h V.  Each factor h H = diag(h E) + (h V) K of a word in _RK4_WORDS
    contributes diag(h E) or (h V) K, so the word expands into words in
    diag(h E) and K; each goes, with its weight, into the M_m of its h V
    factors.  The identity is left out, so the core adds it last.
    """
    n = he.shape[1]
    letters = (he[:, :, None] * np.eye(n), k)  # diag(h E), K
    m = np.zeros((len(he), len(_MONOMIALS), 2 * n, 2 * n))
    parts = (m[..., :n, :n], m[..., n:, :n])  # the real and imaginary parts, summed in place
    # Only the words of two lengths are held at once: those of the RK4 words
    # of one length, and the shorter ones they are made from.
    words = {(0,): letters[0], (1,): letters[1]}
    for length, group in itertools.groupby(_RK4_WORDS, key=lambda word: len(word[1])):  # lengths 1, 2, 3, 4
        if length > 1:
            words = {picks: words[picks[:-1]] @ letters[picks[-1]]
                     for picks in itertools.product((0, 1), repeat=length)}
        for weight, samples in group:
            phase = (-1j) ** length  # +-1 or +-i
            scale = (phase.real + phase.imag) * weight
            for picks in itertools.product((0, 1), repeat=length):
                exponents = [0, 0, 0]
                for pick, sample in zip(picks, samples):
                    exponents[sample] += pick
                parts[length % 2][:, _MONOMIALS.index(tuple(exponents))] += scale * words[picks]
    m[..., n:, n:] = parts[0]
    m[..., :n, n:] = -parts[1]
    return m


def _tree_products(p: np.ndarray, level: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """p[:, L-1] @ ... @ p[:, 0] for each row of p [M, L, ...], multiplied pairwise.

    Level 1 is written into the flat buffer ``level``, and later levels
    alternately into ``spare`` and ``level``, so ``spare`` may hold p itself,
    spent once level 1 is written.  An odd leftover is copied into the last
    slot of its level.  Returns a view into one of the two buffers.
    """
    while p.shape[1] > 1:
        width = p.shape[1]
        even = width - width % 2
        shape = (len(p), width - even // 2, *p.shape[2:])
        out = level[: math.prod(shape)].reshape(shape)
        np.matmul(p[:, 1:even:2], p[:, 0:even:2], out=out[:, : even // 2])
        if even < width:
            out[:, -1] = p[:, -1]
        p, level, spare = out, spare, level
    return p[:, 0]


def _prefix_products(q: np.ndarray, buffers: np.ndarray) -> np.ndarray:
    """s[j] = q[j] @ ... @ q[0] along the first axis, by a log-depth scan.

    Each level is written into one of the two flat ``buffers`` [2, >= q.size]
    in turn; the result is q itself or a view into one of them.
    """
    span, target = 1, 0
    while span < len(q):
        out = buffers[target, : q.size].reshape(q.shape)
        out[:span] = q[:span]
        np.matmul(q[span:], q[:-span], out=out[span:])
        q, span, target = out, 2 * span, 1 - target
    return q


def propagate_kick(basis: DressedBasis, kick_area: float) -> AmplitudeState:
    """State right after an ideal kick of the given area (spectral result).

    The kick is instantaneous, so level energies accumulate no phase during
    it: the post-kick amplitudes are the dressed evolution evaluated at the
    kick area, regardless of any level splittings.
    """
    return amplitudes_at(basis, kick_area)

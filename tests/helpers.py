"""Shared analysis helpers and the analytic-vs-RK4 oracle harness for the test suite."""

from typing import NamedTuple

import numpy as np

from tripop import (
    CouplingRatios,
    IntegratorConfig,
    InvalidInputError,
    LevelEnergies,
    Pulse,
    build_dressed_basis,
    integrate,
    populations_general_array,
)


def count_returns(values: np.ndarray, threshold: float, below: bool = True) -> int:
    """Number of distinct re-entries of ``values`` into the target region.

    The target region is values < threshold (below=True) or values > threshold.
    Samples before the trajectory first LEAVES the region are ignored, so a
    trace that starts inside the region does not count its departure point.
    """
    inside = values < threshold if below else values > threshold
    outside_idx = np.flatnonzero(~inside)
    if len(outside_idx) == 0:
        return 0
    tail = inside[outside_idx[0] :]
    return int(np.sum(tail[1:] & ~tail[:-1]))


# A dressed state with |u_j[0]| at most this has no (1, x, y) row the tests
# can trust, and a y this small counts as the paper's zero root.
GAUGE_TOL = 1e-9


class PaperGauge(NamedTuple):
    """The paper's view of a dressed basis: row j of ``m`` is (1, x_j, y_j),
    ``z`` and the columns of ``m_inv`` are in the same order, and ``m_inv``
    is the inverse of ``m``."""

    z: np.ndarray
    m: np.ndarray
    m_inv: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.m[:, 1]

    @property
    def y(self) -> np.ndarray:
        return self.m[:, 2]


def paper_gauge(basis) -> PaperGauge:
    """The (1, x, y) gauge of a ``DressedBasis``, M = (m_inv / m_inv[0]).T,
    in the paper's order: descending y, a zero y last.

    Raises ValueError where some level-1 weight m_inv[0, j] is at most
    GAUGE_TOL**2, as at |alpha| = |beta| with equal diagonals.
    """
    if np.min(basis.m_inv[0]) <= GAUGE_TOL**2:
        raise ValueError("a dressed state has no level-1 component; the (1, x, y) gauge does not exist")
    m = (basis.m_inv / basis.m_inv[0]).T
    y = m[:, 2]
    order = sorted(range(3), key=lambda j: (abs(y[j]) < GAUGE_TOL, -y[j]))
    return PaperGauge(np.asarray(basis.z)[order], m[order], basis.m_inv[:, order])


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
        raise InvalidInputError("analytic comparison requires eps = (0, 0, 0)")
    basis = build_dressed_basis(ratios)
    trace = integrate(ratios, LevelEnergies(), pulse, t_end, config)
    actions = pulse.area(trace.times).a
    analytic = populations_general_array(basis, actions)
    return float(np.max(np.abs(analytic - trace.populations)))


def tree_products_reference(p: np.ndarray) -> np.ndarray:
    """p[:, L-1] @ ... @ p[:, 0] for each row of p [M, L, ...], multiplied
    pairwise with a new array per level: the grouping and rounding that the
    RK4 core's buffered tree must keep."""
    while p.shape[1] > 1:
        even = p.shape[1] - p.shape[1] % 2
        pairs = p[:, 1:even:2] @ p[:, 0:even:2]
        p = np.concatenate((pairs, p[:, even:]), axis=1) if even < p.shape[1] else pairs
    return p[:, 0]


def prefix_products_reference(q: np.ndarray) -> np.ndarray:
    """s[j] = q[j] @ ... @ q[0] along the first axis, by a log-depth scan
    with a new array per level: the grouping and rounding that the RK4
    core's buffered scan must keep."""
    span = 1
    while span < len(q):
        q = np.concatenate((q[:span], q[span:] @ q[:-span]))
        span *= 2
    return q


def scalar_rk4(k: np.ndarray, pulse, t_end: float, n_steps: int) -> np.ndarray:
    """Amplitudes [n_steps + 1, 3] after every step of classical RK4 on
    i da/dt = V(t) K a from a(0) = (1, 0, 0), with h = t_end / n_steps.

    Every step matrix is then a polynomial in K, so in K's eigenbasis each
    step multiplies dressed state j by RK4's scalar step factor at
    x = h V z_j, with V at the step's start, midpoint and end, sampled at the
    RK4 core's half-step times."""
    z, u = np.linalg.eigh(k)
    h = t_end / n_steps
    hv = h * pulse.value(np.arange(2 * n_steps + 1) * (0.5 * h))
    x0, xh, x1 = hv[0:-1:2, None] * z, hv[1::2, None] * z, hv[2::2, None] * z
    factors = (1.0 - (xh * x0 + xh**2 + x1 * xh) / 6 + x1 * xh**2 * x0 / 24
               - 1j * ((x0 + 4 * xh + x1) / 6 - (xh**2 * x0 + x1 * xh**2) / 12))
    dressed = np.cumprod(np.vstack((np.ones(3), factors)), axis=0)
    return (dressed * u[0]) @ u.T

"""Dressed-state solution of the degenerate three-level atom.

With all three levels at the same energy and every interaction matrix
element sharing one time profile V(t), the coupled amplitude equations

    i da1/dt = (eps1*a1 + alpha*a2 + beta*a3) V(t)
    i da2/dt = (alpha*a1 + eps2*a2 +      a3) V(t)
    i da3/dt = (beta*a1  +      a2 + eps3*a3) V(t)

are i da/dt = V(t) K a with K the real symmetric coupling-ratio matrix, so
they are solved exactly by the eigenvectors u_j of K (the dressed states):
each evolves by a pure phase exp(-i z_j A(t)), where A(t) is the action
integral of V and z_j the eigenvalue.  ``build_dressed_basis`` takes them
from ``numpy.linalg.eigh``, which gives a real spectrum and an orthonormal
basis for every finite coupling (the Morris-Shore view of the problem:
J. R. Morris and B. W. Shore, Phys. Rev. A 27, 906 (1983)).

The paper reaches the same spectrum another way: it writes each dressed
state as c = a1 + x*a2 + y*a3, the (1, x, y) gauge, whose y are the roots
of a cubic with coefficients in the coupling ratios alone, and x and z
follow from the fixed-point relations

    z = eps1 + alpha*x + beta*y
    x*z = alpha + eps2*x + y
    y*z = beta + x + eps3*y

``solve_cubic`` keeps that derivation.  The gauge is u_j scaled to a unit
first component, so it exists unless a dressed state has no level-1
component; ``DressedBasis`` derives it from the eigenvectors on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RepeatedRootError

ROOT_TOL = 1e-9
RESIDUAL_TOL = 1e-9
# A double root of the cubic (it has one all along beta = 0, eps1 = eps3)
# comes out split by up to 3.3e-7 of max(1, |y|), and roots that close, or
# a cubic that nearly vanishes, are resolved only to about eps over that
# gap; such roots count as repeated.
REPEATED_ROOT_TOL = 1e-5


@dataclass(frozen=True)
class CouplingRatios:
    """Dimensionless shape of the interaction matrix, V_jk(t) = ratio * V(t).

    alpha is V12/V23, beta is V13/V23, and eps holds the diagonal ratios
    V_jj/V23.  The exact analytic transfer conditions assume eps == (0,0,0).
    """

    alpha: float
    beta: float
    eps: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        values = (self.alpha, self.beta, *self.eps)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"coupling ratios must be finite, got {values}")
        if len(self.eps) != 3:
            raise ValueError("eps must hold exactly three diagonal ratios")

    def coupling_matrix(self) -> np.ndarray:
        """Symmetric 3x3 ratio matrix K with K[1,2] = 1 and K[j,j] = eps_j."""
        a, b = self.alpha, self.beta
        e1, e2, e3 = self.eps
        return np.array([[e1, a, b], [a, e2, 1.0], [b, 1.0, e3]])


def _has_gauge(m_inv: np.ndarray) -> bool:
    """Whether every dressed state has a level-1 component, |u_j[0]| > ROOT_TOL.

    m_inv[0, j] = u_j[0]^2, so the test needs no eigenvectors.
    """
    return bool(np.min(m_inv[0]) > ROOT_TOL**2)


@dataclass(frozen=True)
class DressedBasis:
    """Dressed states of the coupling-ratio matrix K.

    ``z`` holds the eigenvalues (phase rates) and ``m_inv[i, j]`` is
    u_j[i] * u_j[0] for the orthonormal eigenvectors u_j, so the bare
    amplitudes at action A, from a(0) = (1, 0, 0), are
    a_i(A) = sum_j m_inv[i, j] * exp(-i z_j A).

    ``m``, ``x``, ``y`` and ``det`` give the paper's (1, x, y) gauge: row j
    of ``m`` is (1, x_j, y_j), and ``m_inv`` is its exact inverse.  They
    raise RepeatedRootError where the gauge does not exist.

    ``max_phase_rate`` is max |z_j|, taken once from ``z`` for the phase
    guard of ``amplitudes_at``.
    """

    z: tuple[float, float, float]
    m_inv: np.ndarray
    ratios: CouplingRatios
    max_phase_rate: float = field(init=False, repr=False)

    def __post_init__(self):
        self.m_inv.setflags(write=False)
        object.__setattr__(self, "max_phase_rate", max(map(abs, self.z)))

    @property
    def m(self) -> np.ndarray:
        if not _has_gauge(self.m_inv):
            raise RepeatedRootError(
                "a dressed state has no level-1 component (as at |alpha| = |beta| with "
                "equal diagonals); the (1, x, y) gauge does not exist"
            )
        return (self.m_inv / self.m_inv[0]).T

    @property
    def x(self) -> tuple[float, float, float]:
        return tuple(float(v) for v in self.m[:, 1])

    @property
    def y(self) -> tuple[float, float, float]:
        return tuple(float(v) for v in self.m[:, 2])

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.m))


@dataclass(frozen=True)
class AmplitudeState:
    """Complex amplitudes of the three bare levels at a given action value."""

    action: float
    a: tuple[complex, complex, complex]

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in self.a)


def _require_finite_phases(actions, rate: float) -> None:
    """Raise ValueError unless every action (an array, or a scalar at scalar
    cost) times ``rate``, the largest phase rate the caller uses, is finite."""
    array = isinstance(actions, np.ndarray)
    largest = float(np.max(np.abs(actions), initial=0.0)) if array else abs(float(actions))
    if not math.isfinite(largest * rate):
        raise ValueError(f"action {largest!r} at phase rate {rate!r} gives a non-finite phase")


def cubic_coefficients(ratios: CouplingRatios) -> tuple[float, float, float, float]:
    """Coefficients (a, b, c, d) of the eigenvalue cubic a*y^3 + b*y^2 + c*y + d = 0.

    Eliminating x and z from the fixed-point relations leaves a cubic in y
    alone; for eps == 0 it reduces to

        (beta^2 - alpha^2) y^3 + alpha (2 - alpha^2 - beta^2) y^2
        + (2 alpha^2 - beta^2 - 1) y + alpha (beta^2 - 1) = 0.
    """
    al, be = ratios.alpha, ratios.beta
    e1, e2, e3 = ratios.eps
    a = (be**2 - al**2) + al * be * (e2 - e3)
    b = al * (2.0 - al**2 - be**2) + be * (2.0 * e1 - e2 - e3) + al * (e1 - e3) * (e2 - e3)
    c = (2.0 * al**2 - be**2 - 1.0) + al * be * (2.0 * e3 - e1 - e2) + (e1 - e2) * (e1 - e3)
    d = al * (be**2 - 1.0) - be * (e1 - e2)
    return a, b, c, d


def _cubic_roots_trig(a: float, b: float, c: float, d: float) -> list[float] | None:
    """Three real roots via the trigonometric method, or None if the
    discriminant is too close to zero to trust the closed form."""
    p = (3.0 * a * c - b * b) / (3.0 * a * a)
    q = (2.0 * b**3 - 9.0 * a * b * c + 27.0 * a * a * d) / (27.0 * a**3)
    disc = -4.0 * p**3 - 27.0 * q * q
    scale = max(abs(4.0 * p**3), 27.0 * q * q, 1e-300)
    if disc / scale < ROOT_TOL:
        return None  # repeated or complex pair; caller decides via companion matrix
    # disc > 0 forces p < 0
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3.0
    shift = b / (3.0 * a)
    return [m * math.cos(theta - 2.0 * math.pi * k / 3.0) - shift for k in range(3)]


def _cubic_roots_companion(a: float, b: float, c: float, d: float) -> list[float]:
    """Roots from numpy's companion-matrix eigensolver.  K is real symmetric, so
    they are real, and a complex pair is a repeated root split by rounding."""
    roots = np.roots([a, b, c, d])
    max_imag = float(np.max(np.abs(roots.imag)))
    if max_imag > ROOT_TOL * (1.0 + float(np.max(np.abs(roots.real)))):
        raise RepeatedRootError(
            f"cubic has a repeated root, split by rounding into a complex pair "
            f"(max |Im| = {max_imag:.3e}); the dressed basis is singular"
        )
    return [float(r) for r in roots.real]


def _polish_root(a: float, b: float, c: float, d: float, y: float) -> float:
    # one or two Newton steps squeeze the closed-form roots to full precision
    for _ in range(2):
        f = ((a * y + b) * y + c) * y + d
        df = (3.0 * a * y + 2.0 * b) * y + c
        if df == 0.0:
            break
        step = f / df
        y -= step
        if abs(step) < 1e-16 * max(1.0, abs(y)):
            break
    return y


def solve_cubic(ratios: CouplingRatios) -> tuple[float, float, float]:
    """Real roots of the eigenvalue cubic, sorted for stable downstream indexing.

    A root with |y| < 1e-9 (present whenever beta = +-1 and eps = 0) is
    placed last; the remaining roots are sorted in descending order.

    Raises RepeatedRootError when the cubic degenerates: a vanishing leading
    coefficient, which signals a dressed state orthogonal to level 1, or a
    repeated root, also one that rounding splits into a complex pair (the
    spectrum of the real symmetric K is always real).
    """
    a, b, c, d = cubic_coefficients(ratios)
    scale = max(abs(a), abs(b), abs(c), abs(d))
    size = max(1.0, abs(ratios.alpha), abs(ratios.beta), *(abs(e) for e in ratios.eps)) ** 3
    if scale <= REPEATED_ROOT_TOL * size:
        raise RepeatedRootError(
            "eigenvalue cubic vanishes (|alpha| = |beta| = 1 with equal diagonals, "
            "or nearly so); the dressed basis is degenerate"
        )
    if abs(a) <= ROOT_TOL * scale:
        raise RepeatedRootError(
            "leading cubic coefficient vanishes (|alpha| = |beta| up to diagonal "
            "terms); one dressed state decouples from level 1"
        )

    roots = _cubic_roots_trig(a, b, c, d)
    if roots is None:
        roots = _cubic_roots_companion(a, b, c, d)
    roots = [_polish_root(a, b, c, d, y) for y in roots]

    ymax = max(abs(y) for y in roots)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(roots[i] - roots[j]) < REPEATED_ROOT_TOL * max(1.0, ymax):
                raise RepeatedRootError(
                    f"cubic roots {roots[i]:.6g} and {roots[j]:.6g} coincide within "
                    "tolerance; the dressed basis is singular"
                )

    for y in roots:
        residual = abs(((a * y + b) * y + c) * y + d)
        if residual >= RESIDUAL_TOL * scale:
            raise RepeatedRootError(
                f"cubic root {y!r} has residual {residual:.3e} relative to "
                f"coefficient scale {scale:.3e}"
            )

    roots.sort(reverse=True)
    zero = [y for y in roots if abs(y) < ROOT_TOL]
    if zero:
        roots = [y for y in roots if abs(y) >= ROOT_TOL] + zero
    return (roots[0], roots[1], roots[2])


def build_dressed_basis(ratios: CouplingRatios) -> DressedBasis:
    """Dressed basis of the coupling-ratio matrix, for every finite coupling.

    Where the paper's gauge exists the states are ordered as the cubic's
    roots are: y descending, a zero root last.  For eps = 0 and beta = +-1
    this reproduces the sign pattern x = (beta, beta, -beta) with
    y = (y+, y-, 0).
    """
    z, u = np.linalg.eigh(ratios.coupling_matrix())
    m_inv = u * u[0]
    if _has_gauge(m_inv):
        y = u[2] / u[0]
        order = sorted(range(3), key=lambda j: (abs(y[j]) < ROOT_TOL, -y[j]))
        z, m_inv = z[order], m_inv[:, order]
    return DressedBasis(z=tuple(z.tolist()), m_inv=m_inv, ratios=ratios)


def amplitudes_at(basis: DressedBasis, action: float) -> AmplitudeState:
    """Bare-level amplitudes at a given action value, from a_1(0) = 1.

    a_i(A) = sum_j m_inv[i, j] exp(-i z_j A); at A = 0 the inverse rows sum
    to the initial condition (1, 0, 0).
    """
    _require_finite_phases(action, basis.max_phase_rate)
    phases = np.exp(-1j * np.asarray(basis.z) * action)
    a = basis.m_inv @ phases
    return AmplitudeState(action=float(action), a=(complex(a[0]), complex(a[1]), complex(a[2])))


def populations_general_array(basis: DressedBasis, actions: np.ndarray) -> np.ndarray:
    """Populations of all three levels on an array of action values, shape (N, 3).

    Evaluates the cosine-sum form

        P_k(A) = c1^2 + c2^2 + c3^2 + 2 c1 c2 cos((z1-z2)A)
                 + 2 c1 c3 cos((z1-z3)A) + 2 c2 c3 cos((z2-z3)A)

    with (c1, c2, c3) = m_inv[k], the k-th row of the basis inverse.  All action
    dependence enters through cosines, so P_k(A) = P_k(-A) exactly.  Raises
    ValueError for an action whose phase is not finite.
    """
    actions = np.atleast_1d(np.asarray(actions, dtype=float))
    _require_finite_phases(actions, max(basis.z) - min(basis.z))
    z1, z2, z3 = basis.z
    c12 = np.cos((z1 - z2) * actions)
    c13 = np.cos((z1 - z3) * actions)
    c23 = np.cos((z2 - z3) * actions)
    out = np.empty((actions.size, 3))
    for k in range(3):
        c1, c2, c3 = basis.m_inv[k]
        out[:, k] = (
            c1 * c1 + c2 * c2 + c3 * c3
            + 2.0 * c1 * c2 * c12
            + 2.0 * c1 * c3 * c13
            + 2.0 * c2 * c3 * c23
        )
    return out

"""Dressed-state solution of the degenerate three-level atom.

With all three levels at the same energy and every interaction matrix
element sharing one time profile V(t), the coupled amplitude equations

    i da1/dt = (eps1*a1 + alpha*a2 + beta*a3) V(t)
    i da2/dt = (alpha*a1 + eps2*a2 +      a3) V(t)
    i da3/dt = (beta*a1  +      a2 + eps3*a3) V(t)

are i da/dt = V(t) K a with K the real symmetric coupling-ratio matrix, so
they are solved exactly by the eigenvectors u_j of K (the dressed states):
each evolves by a pure phase exp(-i z_j A(t)), where A(t) is the action
integral of V and z_j the eigenvalue (the Morris-Shore view of the problem:
J. R. Morris and B. W. Shore, Phys. Rev. A 27, 906 (1983)).

The paper reaches the same spectrum another way: it writes each dressed
state as c = a1 + x*a2 + y*a3, the (1, x, y) gauge, whose y are the roots
of a cubic with coefficients in the coupling ratios alone, and x and z
follow from the fixed-point relations

    z = eps1 + alpha*x + beta*y
    x*z = alpha + eps2*x + y
    y*z = beta + x + eps3*y

The library keeps eigh's basis as it comes, in ascending z.  The gauge is
u_j scaled to a unit first component, so it is a view of that basis; the
tests take it, and check ``cubic_coefficients``, the paper's cubic, against
its y.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
# np.linalg.eigh's LAPACK kernel, called directly: K is always a float64 3x3, so eigh's checks never apply
from numpy.linalg._umath_linalg import eigh_lo as _eigh

from .errors import InvalidInputError


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
        if not all(map(math.isfinite, values)):
            raise InvalidInputError(f"coupling ratios must be finite, got {values}")
        if len(self.eps) != 3:
            raise InvalidInputError("eps must hold exactly three diagonal ratios")

    def coupling_matrix(self) -> np.ndarray:
        """Symmetric 3x3 ratio matrix K with K[1,2] = 1 and K[j,j] = eps_j."""
        a, b = self.alpha, self.beta
        e1, e2, e3 = self.eps
        return np.array((e1, a, b, a, e2, 1.0, b, 1.0, e3)).reshape(3, 3)


@dataclass(frozen=True, slots=True, eq=False)
class DressedBasis:
    """Dressed states of the coupling-ratio matrix K.

    ``z`` holds the eigenvalues (phase rates) in ascending order and
    ``m_inv[i, j]`` is u_j[i] * u_j[0] for the orthonormal eigenvectors u_j,
    so the bare amplitudes at action A, from a(0) = (1, 0, 0), are
    a_i(A) = sum_j m_inv[i, j] * exp(-i z_j A).  The paper's (1, x, y) gauge
    is (m_inv / m_inv[0]).T, where no weight m_inv[0, j] vanishes.
    ``build_dressed_basis`` hands over ``m_inv`` read-only.

    Bases compare and hash by identity: two builds of one coupling are two
    bases, and either can be a dict key or a set member.
    """

    z: tuple[float, float, float]
    m_inv: np.ndarray
    ratios: CouplingRatios

    @property
    def max_phase_rate(self) -> float:
        """max |z_j|, the phase rate that ``amplitudes_at`` guards: z ascends,
        so its largest magnitude is at one end."""
        return max(-self.z[0], self.z[2])


@dataclass(frozen=True, slots=True)
class AmplitudeState:
    """Complex amplitudes of the three bare levels at a given action value."""

    a: tuple[complex, complex, complex]

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in self.a)


def require_finite_phases(actions, rate: float) -> None:
    """Raise InvalidInputError unless every action (an array, or a scalar at
    scalar cost) times ``rate``, the largest phase rate the caller uses, is
    finite: the one refusal of a non-finite phase that every population and
    amplitude form shares."""
    largest = float(np.max(np.abs(actions), initial=0.0)) if isinstance(actions, np.ndarray) else abs(float(actions))
    if not math.isfinite(largest * rate):
        raise InvalidInputError(f"action {largest!r} at phase rate {rate!r} gives a non-finite phase")


def cubic_coefficients(ratios: CouplingRatios) -> tuple[float, float, float, float]:
    """Coefficients (a, b, c, d) of the eigenvalue cubic a*y^3 + b*y^2 + c*y + d = 0.

    Eliminating x and z from the fixed-point relations leaves a cubic in y
    alone; for eps == 0 it reduces to

        (beta^2 - alpha^2) y^3 + alpha (2 - alpha^2 - beta^2) y^2
        + (2 alpha^2 - beta^2 - 1) y + alpha (beta^2 - 1) = 0.

    Raises InvalidInputError where a coefficient is not finite.
    """
    al, be = ratios.alpha, ratios.beta
    al2, be2 = al * al, be * be  # products, not **, which raises OverflowError past the float range
    e1, e2, e3 = ratios.eps
    coefficients = (
        (be2 - al2) + al * be * (e2 - e3),
        al * (2.0 - al2 - be2) + be * (2.0 * e1 - e2 - e3) + al * (e1 - e3) * (e2 - e3),
        (2.0 * al2 - be2 - 1.0) + al * be * (2.0 * e3 - e1 - e2) + (e1 - e2) * (e1 - e3),
        al * (be2 - 1.0) - be * (e1 - e2),
    )
    if not all(map(math.isfinite, coefficients)):
        raise InvalidInputError(f"the cubic's coefficients are not finite for {ratios}")
    return coefficients


def build_dressed_basis(ratios: CouplingRatios) -> DressedBasis:
    """Dressed basis of the coupling-ratio matrix: the eigenvalues in
    ascending order and m_inv = U * U[0] from the eigenvectors U, both as
    ``numpy.linalg.eigh`` gives them, from the LAPACK kernel it wraps.

    Raises InvalidInputError where an eigenvalue is not finite: the spectrum
    of a coupling near the float limit overflows, and the kernel fills its
    outputs with NaN if LAPACK fails, or raises numpy's invalid-value warning
    or error where the caller makes those raise.
    """
    try:  # costs nothing where nothing raises, unlike an errstate around every call
        z, u = _eigh(ratios.coupling_matrix())
    except (RuntimeWarning, FloatingPointError):
        raise InvalidInputError(f"the dressed spectrum of {ratios} is not finite: LAPACK did not converge") from None
    z = tuple(z.tolist())
    if not all(map(math.isfinite, z)):
        raise InvalidInputError(f"the dressed spectrum {z} of {ratios} is not finite")
    m_inv = u * u[0]
    m_inv.setflags(write=False)
    return DressedBasis(z, m_inv, ratios)


def amplitudes_at(basis: DressedBasis, action: float) -> AmplitudeState:
    """Bare-level amplitudes at a given action value, from a_1(0) = 1.

    a_i(A) = sum_j m_inv[i, j] exp(-i z_j A); at A = 0 the inverse rows sum
    to the initial condition (1, 0, 0).  Summed in Python complex scalars, at
    a fraction of numpy's per-call cost on length-3 arrays, with numpy's bits.
    """
    require_finite_phases(action, basis.max_phase_rate)
    w = -1j * action
    z1, z2, z3 = basis.z
    p1, p2, p3 = cmath.exp(w * z1), cmath.exp(w * z2), cmath.exp(w * z3)
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = basis.m_inv.tolist()
    return AmplitudeState(a=(a1 * p1 + a2 * p2 + a3 * p3, b1 * p1 + b2 * p2 + b3 * p3, c1 * p1 + c2 * p2 + c3 * p3))


def populations_general_array(basis: DressedBasis, actions: np.ndarray) -> np.ndarray:
    """Populations of all three levels on an array of action values, shape (N, 3).

    Evaluates the cosine-sum form

        P_k(A) = c1^2 + c2^2 + c3^2 + 2 c1 c2 cos((z1-z2)A)
                 + 2 c1 c3 cos((z1-z3)A) + 2 c2 c3 cos((z2-z3)A)

    with (c1, c2, c3) = m_inv[k], the k-th row of the basis inverse.  All action
    dependence enters through cosines, so P_k(A) = P_k(-A) exactly.  Raises
    InvalidInputError for an action whose phase is not finite.
    """
    actions = np.atleast_1d(np.asarray(actions, dtype=float))
    require_finite_phases(actions, max(basis.z) - min(basis.z))
    z1, z2, z3 = basis.z
    c12 = np.cos((z1 - z2) * actions)
    c13 = np.cos((z1 - z3) * actions)
    c23 = np.cos((z2 - z3) * actions)
    out = np.empty((actions.size, 3))
    for k, (c1, c2, c3) in enumerate(basis.m_inv.tolist()):
        out[:, k] = (
            c1 * c1 + c2 * c2 + c3 * c3
            + 2.0 * c1 * c2 * c12
            + 2.0 * c1 * c3 * c13
            + 2.0 * c2 * c3 * c23
        )
    return out

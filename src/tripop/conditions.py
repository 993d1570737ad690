"""Odd-integer families of complete population-transfer conditions.

Complete transfer from level 1 to level 2 at action A(t0) happens exactly
when the coupling ratios and the action satisfy

    alpha = r (n2 - n1),   beta = +-1,   3 r A(t0) = pi,
    r = sign * sqrt(2 / (n1 n2)),

where n1 = 2*n_o + n_o' and n2 = n_o + 2*n_o' for arbitrary odd integers
(n_o, n_o') with n1*n2 > 0.  Equivalently (n1+n2)/3 must be an even integer
while (2n1-n2)/3 and (2n2-n1)/3 are odd.  With n1, n2 > 0 the family is
exactly the odd n1, n2 with n1 + n2 = 0 (mod 6).

The map inverts in closed form.  With r = pi / (3 |A(t0)|), n1 n2 = 2 / r^2
and n2 - n1 = alpha / r, so n1 and n2 are the roots

    n1, n2 = (3 |A(t0)| / pi) (sqrt(alpha^2 + 8) -+ alpha) / 2,

and ``validate_condition`` tests only the members in a box around them,
widened by the tolerance, or in the whole range when tol >= 1 (see
``_candidate_box``).

Sign bookkeeping: populations depend on the action only through cosines, so
they are even in A; the sign = -1 member of a pair (a global sign flip of
V(t)) is physically indistinguishable from the sign = +1 member, and the
condition with alpha of opposite sign at the same positive action is simply
the order-swapped pair (n2, n1).  Enumeration therefore emits only r > 0
rows, with both alpha signs appearing through the pair order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .dressed import CouplingRatios, require_finite_phases
from .errors import InvalidInputError

# The most candidates one lookup may test (its columns peak near 130 MB), and
# the most members ``family_integers`` may return.
MAX_LOOKUP_CANDIDATES = 2_000_000


@dataclass(frozen=True)
class OddPair:
    """A pair of odd integers (n_o, n_o') generating one family member."""

    n_o: int
    n_op: int

    def __post_init__(self):
        if not (isinstance(self.n_o, Integral) and isinstance(self.n_op, Integral)):
            raise InvalidInputError(f"({self.n_o!r}, {self.n_op!r}) must both be integers")
        if self.n_o % 2 == 0 or self.n_op % 2 == 0:
            raise InvalidInputError(f"({self.n_o}, {self.n_op}) must both be odd")
        if self.n1 * self.n2 <= 0:
            raise InvalidInputError(
                f"pair ({self.n_o}, {self.n_op}) gives n1*n2 = {self.n1 * self.n2} <= 0, "
                "which would make the level-3 probability negative"
            )

    @property
    def n1(self) -> int:
        return 2 * self.n_o + self.n_op

    @property
    def n2(self) -> int:
        return self.n_o + 2 * self.n_op


@dataclass(frozen=True)
class TransferCondition:
    """One member of the complete-transfer family: an odd pair, the sign of
    r, the direct coupling beta = +-1 and the target level.

    ``target`` is the level that becomes fully occupied at the transfer
    action.  ``alpha`` is r(n2 - n1) for either target; ``ratios`` puts
    (alpha, beta) on (V12, V13) for target 2 and interchanges them for
    target 3.
    """

    pair: OddPair
    sign: int = 1
    beta: float = 1.0
    target: int = 2

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise InvalidInputError("sign must be +1 or -1")
        if self.target not in (2, 3):
            raise InvalidInputError("target level must be 2 or 3")
        if self.beta not in (-1.0, 1.0):
            raise InvalidInputError("the direct 1<->3 coupling ratio must be +-1")

    @property
    def n1(self) -> int:
        return self.pair.n1

    @property
    def n2(self) -> int:
        return self.pair.n2

    @property
    def product(self) -> int:
        return self.n1 * self.n2

    # cached: a numpy evaluation costs about 2 us, and loops over the family reread them
    @cached_property
    def _floats(self) -> tuple[float, float, float]:
        """sign * (r, A(t0), alpha), from one ``_family_floats`` evaluation."""
        return tuple(self.sign * float(v) for v in _family_floats(self.n1, self.n2))

    @cached_property
    def r(self) -> float:
        return self._floats[0]

    @cached_property
    def action_t0(self) -> float:
        return self._floats[1]

    @cached_property
    def alpha(self) -> float:
        return self._floats[2]

    def ratios(self) -> CouplingRatios:
        """Coupling ratios realizing this condition (eps = 0)."""
        if self.target == 3:
            return CouplingRatios(alpha=self.beta, beta=self.alpha)
        return CouplingRatios(alpha=self.alpha, beta=self.beta)


def condition_from_odd_pair(pair: OddPair, sign: int = 1, beta: int = 1, target: int = 2) -> TransferCondition:
    """Family member for one odd pair, sign of r, direct coupling beta = +-1
    and target level; beta is stored as a float."""
    return TransferCondition(pair, sign, float(beta), target)


def family_integers(
    max_product: int,
    n1_range: tuple[int, int] | None = None,
    n2_range: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(n1, n2) of every family member with n1*n2 <= max_product, as int64
    arrays sorted by (n1*n2, n1).

    The optional inclusive ranges restrict n1 and n2 (the candidate box of
    ``validate_condition``).  It takes odd n1 and, for each, n2 = -n1
    (mod 6) in steps of 6, which is the whole family.  Raises
    InvalidInputError, before allocating, when ``_candidate_count_bound``
    allows more than ``MAX_LOOKUP_CANDIDATES`` members.
    """
    n1_lo, n1_hi = n1_range or (1, max_product)
    n2_lo, n2_hi = n2_range or (1, max_product)
    count = _candidate_count_bound((n1_lo, n1_hi), (n2_lo, n2_hi), max_product)
    if count > MAX_LOOKUP_CANDIDATES:
        raise InvalidInputError(
            f"max_product {max_product} may give up to {count:.3g} family members, "
            f"past the cap of {MAX_LOOKUP_CANDIDATES:.0e}"
        )
    n1_lo, n2_lo = max(n1_lo, 1), max(n2_lo, 1)
    n1 = np.arange(n1_lo | 1, min(n1_hi, max_product) + 1, 2, dtype=np.int64)
    first = n2_lo + (-n1 - n2_lo) % 6  # the smallest n2 >= n2_lo in each n1's class
    counts = np.maximum((np.minimum(max_product // n1, n2_hi) - first) // 6 + 1, 0)
    n1 = np.repeat(n1, counts)
    n2 = np.repeat(first - 6 * (np.cumsum(counts) - counts), counts) + 6 * np.arange(n1.size)
    order = np.lexsort((n1, n1 * n2))
    return n1[order], n2[order]


def enumerate_conditions(max_product: int) -> list[TransferCondition]:
    """The sign +1 family members with n1*n2 <= max_product, sorted by
    (n1*n2, n1), built from the odd pairs that ``family_table`` writes.
    Ordered pairs (n1, n2) and (n2, n1) are distinct rows; the smallest
    product is 5, so any bound below that yields an empty list."""
    _, (n_o, n_op), _ = classify_cases(*family_integers(max_product))
    return [condition_from_odd_pair(OddPair(*pair)) for pair in zip(n_o.tolist(), n_op.tolist())]


def classify_cases(n1, n2) -> tuple:
    """The (k, k') sets (case_i, case_ii, case_iii) of members (n1, n2), ints
    or int arrays: with (n_o, n_o') the odd pair, (n_o + n_o', -n_o),
    (n_o, n_o') and (-n_o', n_o + n_o'), integer combinations whose product
    identities and parities hold for every pair."""
    return (
        ((n1 + n2) // 3, (n2 - 2 * n1) // 3),
        ((2 * n1 - n2) // 3, (2 * n2 - n1) // 3),
        ((n1 - 2 * n2) // 3, (n1 + n2) // 3),
    )


def _family_floats(n1: np.ndarray, n2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r, A(t0) and alpha = r (n2 - n1) of the sign +1 members; n1 and n2 may
    be ints or int arrays.  The one float formula of the family:
    ``TransferCondition``, ``family_table`` and ``validate_condition`` all
    read their values from it."""
    r = np.sqrt(2.0 / (n1 * n2))
    return r, np.pi / (3.0 * r), r * (n2 - n1)


def family_table(max_product: int) -> dict[str, np.ndarray]:
    """The ``table`` columns: one row per family member (sign +1), in the
    order of ``enumerate_conditions(max_product)``.

    Columns: n1, n2, n_e = n_o + n_o', n_o, n_op, the three case sets of
    ``classify_cases`` (k_case_*, kp_case_*; case ii is the odd pair), A_t0
    and alpha.  The floats come from ``_family_floats``, as the objects' do,
    so they are equal bit for bit.
    """
    n1, n2 = family_integers(max_product)
    _, action, alpha = _family_floats(n1, n2)
    (ki, kpi), (n_o, n_op), (kiii, kpiii) = classify_cases(n1, n2)
    return {
        "n1": n1, "n2": n2, "n_e": n_o + n_op, "n_o": n_o, "n_op": n_op,
        "k_case_i": ki, "kp_case_i": kpi, "k_case_ii": n_o, "kp_case_ii": n_op,
        "k_case_iii": kiii, "kp_case_iii": kpiii,
        "A_t0": action, "alpha": alpha,
    }


def populations_closed_form_array(cond: TransferCondition, actions: np.ndarray) -> np.ndarray:
    """Closed-form populations on an array of action values, shape (N, 3).

        P1 = [n1^2 + n2^2 + n1 n2 (1 + cos((n1+n2) rA))
              + (n1+n2)(n1 cos((2n1-n2) rA) + n2 cos((2n2-n1) rA))] / (2 (n1+n2)^2)
        P2 = same with the second bracket subtracted
        P3 = 2 n1 n2 / (n1+n2)^2 * sin^2((n1+n2) rA / 2)

    For target-3 conditions the level-2 and level-3 columns are interchanged.
    Raises InvalidInputError for an action whose phase is not finite.
    """
    actions = np.atleast_1d(np.asarray(actions, dtype=float))
    n1, n2, r = cond.n1, cond.n2, cond.r
    require_finite_phases(actions, abs(r) * 2.0 * (abs(n1) + abs(n2)))  # bounds every cosine argument
    s = n1 + n2
    ra = r * actions
    common = n1 * n1 + n2 * n2 + n1 * n2 * (1.0 + np.cos(s * ra))
    direct = s * (n1 * np.cos((2 * n1 - n2) * ra) + n2 * np.cos((2 * n2 - n1) * ra))
    out = np.empty((actions.size, 3))
    out[:, 0] = (common + direct) / (2.0 * s * s)
    out[:, 1] = (common - direct) / (2.0 * s * s)
    out[:, 2] = 2.0 * n1 * n2 / (s * s) * np.sin(0.5 * s * ra) ** 2
    if cond.target == 3:
        out[:, [1, 2]] = out[:, [2, 1]]
    return out


def p3_max(cond: TransferCondition) -> float:
    """Peak intermediate-level population, 2 n1 n2 / (n1 + n2)^2 <= 1/2.

    Equality holds exactly when n1 = n2 (the alpha = 0 family, where all
    transfer is routed through level 3).
    """
    return 2.0 * cond.n1 * cond.n2 / (cond.n1 + cond.n2) ** 2


def _roots(action: float, alpha: float) -> tuple[float, float]:
    """Real (n1, n2) of the closed-form inverse, without cancellation:
    (s - |alpha|)/2 is written as 4/(s + |alpha|), s = sqrt(alpha^2 + 8)."""
    c = 3.0 * action / math.pi
    s = math.sqrt(alpha * alpha + 8.0)
    small, large = 4.0 * c / (s + abs(alpha)), 0.5 * c * (s + abs(alpha))
    return (small, large) if alpha >= 0.0 else (large, small)


def _candidate_box(alpha: float, action: float, tol: float, bound: int):
    """Inclusive (n1, n2) ranges that hold every member able to pass the
    lookup's tests; see ``validate_condition``."""
    if tol >= 1.0:
        return (1, bound), (1, bound)
    # No member with n1*n2 <= bound has a larger action or |alpha|.
    action_max = math.pi * math.sqrt(bound / 2.0) / 3.0
    alpha_max = math.sqrt(2.0 * bound)
    a_lo, a_hi = action / (1.0 + tol), min(action / (1.0 - tol), action_max)
    spread = tol * max(1.0, abs(alpha) / (1.0 - tol))
    al_lo, al_hi = (min(max(v, -alpha_max), alpha_max) for v in (alpha - spread, alpha + spread))
    # n1 grows with the action and falls with alpha; n2 grows with both.
    n1_lo, n1_hi = _roots(a_lo, al_hi)[0], _roots(a_hi, al_lo)[0]
    n2_lo, n2_hi = _roots(a_lo, al_lo)[1], _roots(a_hi, al_hi)[1]

    def widen(lo, hi):
        # one integer of margin, plus 1e-12 relative for rounding at large n
        return max(1, math.floor(lo * (1.0 - 1e-12)) - 1), min(bound, math.ceil(hi * (1.0 + 1e-12)) + 1)

    return widen(n1_lo, n1_hi), widen(n2_lo, n2_hi)


def _candidate_count_bound(n1_range: tuple[int, int], n2_range: tuple[int, int], bound: int) -> float:
    """Upper bound on the rows ``family_integers`` returns for the box: each
    odd n1 has at most (n2_hi - n2_lo)/6 + 1 of them, and at most
    bound/(6 n1) + 1, whose sum over odd n1 is below
    rows + bound (ln(n1_hi/n1_lo)/2 + 1)/6."""
    (n1_lo, n1_hi), (n2_lo, n2_hi) = n1_range, n2_range
    n1_lo, n1_hi = max(n1_lo, 1), min(n1_hi, bound)
    rows = max((n1_hi + 1) // 2 - n1_lo // 2, 0)
    if rows == 0 or n2_hi < n2_lo:
        return 0.0
    by_n2 = rows * ((n2_hi - n2_lo) // 6 + 1)
    by_product = rows + bound * (0.5 * math.log(n1_hi / n1_lo) + 1.0) / 6.0
    return min(by_n2, by_product)


def validate_condition(
    alpha: float, beta: float, action_t0: float, tol: float = 1e-6
) -> TransferCondition | None:
    """Inverse lookup: the family member matching (alpha, beta, A(t0)), if any.

    Matches |A(t0)| and alpha within relative tolerance ``tol`` and
    reconciles signs through the evenness of the populations in the action;
    returns None when no family member fits.  Among several fits it returns
    the one with the smallest (n1*n2, n1), searching n1*n2 up to
    ceil(18 (A(t0)/pi)^2 (1 + tol)^2).

    Only a box of candidates is tested.  A member passes when its action
    lies in |A(t0)|/(1 + tol) ... |A(t0)|/(1 - tol) and its alpha within
    tol * max(1, |alpha|/(1 - tol)) of the signed input; the corners of that
    rectangle, put through the closed-form roots (module docstring), bound
    n1 and n2.  The box is widened by one integer on each side and capped at
    the product bound; for tol >= 1 it is the whole range.  The box is tested
    as columns: A = pi/(3r) and alpha = r(n2 - n1) with r = sqrt(2/(n1 n2)),
    from ``_family_floats`` as for the conditions themselves, go through
    |A - |A(t0)|| <= tol A and |alpha - alpha_in| <= tol max(1, |alpha|), and
    only the first passing row in (n1*n2, n1) order becomes a condition.

    Raises InvalidInputError for non-finite inputs, tol <= 0, an action whose
    product bound passes 2**53, and a box that may hold more than
    ``MAX_LOOKUP_CANDIDATES`` members (a loose tol at a large area);
    ``family_integers`` bounds the count before anything is allocated.
    """
    if not all(math.isfinite(v) for v in (alpha, beta, action_t0, tol)):
        raise InvalidInputError(f"alpha, beta, area and tol must be finite, got {(alpha, beta, action_t0, tol)}")
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    if abs(abs(beta) - 1.0) > tol:
        return None
    if action_t0 == 0.0:
        return None
    beta_resolved = 1 if beta > 0 else -1
    try:
        bound = (3.0 * abs(action_t0) / math.pi) ** 2 * 2.0 * (1.0 + tol) ** 2
    except OverflowError:
        bound = math.inf
    if bound > 2.0**53:
        raise InvalidInputError(f"area {action_t0!r} with tol {tol!r} needs n1*n2 up to {bound:.3g}, past 2**53")
    bound = math.ceil(bound)
    sign = 1 if action_t0 > 0 else -1
    # alpha for the sign=+1 member of the ordered pair equals sign(A) * input alpha
    alpha_pos = alpha * sign
    box = _candidate_box(alpha_pos, abs(action_t0), tol, bound)
    try:
        n1s, n2s = family_integers(bound, *box)
    except InvalidInputError as exc:
        raise InvalidInputError(f"area {action_t0!r} with tol {tol!r} has too many candidates: {exc}") from None
    _, cand_action, cand_alpha = _family_floats(n1s, n2s)
    passed = np.flatnonzero(
        (np.abs(cand_action - abs(action_t0)) <= tol * cand_action)
        & (np.abs(cand_alpha - alpha_pos) <= tol * np.maximum(1.0, np.abs(cand_alpha)))
    )
    if passed.size == 0:
        return None
    _, pair, _ = classify_cases(int(n1s[passed[0]]), int(n2s[passed[0]]))
    return condition_from_odd_pair(OddPair(*pair), sign=sign, beta=beta_resolved)

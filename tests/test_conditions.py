"""Tests for the odd-integer transfer-condition families.

Integer identities are checked in exact arithmetic; real-valued rows are
checked against the published three-decimal table values and against
brute-force scans.
"""

import bisect
import functools
import itertools
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripop import (
    CouplingRatios,
    InvalidInputError,
    OddPair,
    build_dressed_basis,
    classify_cases,
    condition_from_odd_pair,
    enumerate_conditions,
    p3_max,
    populations_closed_form_array,
    populations_general_array,
    validate_condition,
)
from tripop.conditions import MAX_LOOKUP_CANDIDATES, _candidate_count_bound, family_integers, family_table

RNG = np.random.default_rng(3)

# (n1, n2) -> (A(t0), alpha) rows quoted to three decimals, positive-r branch
TABLE_ROWS = {
    (1, 5): (1.656, 2.530),
    (5, 1): (1.656, -2.530),
    (3, 3): (2.221, 0.000),
    (1, 11): (2.456, 4.264),
    (11, 1): (2.456, -4.264),
    (1, 17): (3.053, 5.488),
    (17, 1): (3.053, -5.488),
    (1, 23): (3.551, 6.487),
    (23, 1): (3.551, -6.487),
    (3, 9): (3.848, 1.633),
    (9, 3): (3.848, -1.633),
    (1, 29): (3.988, 7.353),
    (29, 1): (3.988, -7.353),
    (1, 35): (4.381, 8.128),
    (5, 7): (4.381, 0.478),
    (7, 5): (4.381, -0.478),
    (35, 1): (4.381, -8.128),
}


def all_valid_pairs(bound):
    """Brute-force enumeration of odd pairs with n1*n2 > 0."""
    pairs = []
    for n_o in range(-bound, bound + 1, 2):
        for n_op in range(-bound, bound + 1, 2):
            n1, n2 = 2 * n_o + n_op, n_o + 2 * n_op
            if n1 * n2 > 0:
                pairs.append(OddPair(n_o, n_op))
    return pairs


def reference_enumerate(max_product, signs=(1,), beta=1):
    """The enumeration before the direct family loop: every odd (n1, n2)
    with three filters, then one sort of the objects."""
    rows = []
    if max_product < 5:
        return rows
    for n1 in range(1, max_product + 1, 2):
        for n2 in range(1, max_product // n1 + 1, 2):
            if (2 * n1 - n2) % 3 != 0:
                continue
            n_o = (2 * n1 - n2) // 3
            n_op = (2 * n2 - n1) // 3
            if n_o % 2 == 0 or n_op % 2 == 0 or n_o * n_op == 0:
                continue
            pair = OddPair(n_o, n_op)
            for sign in signs:
                rows.append(condition_from_odd_pair(pair, sign=sign, beta=beta))
    rows.sort(key=lambda c: (c.product, c.n1, -c.sign))
    return rows


REFERENCE_BOUND = 20000


@functools.cache
def _reference_family_up_to_bound():
    family = tuple(reference_enumerate(REFERENCE_BOUND))
    return family, [c.product for c in family]


def reference_family(bound):
    """reference_enumerate(bound) as a prefix of one enumeration up to
    REFERENCE_BOUND, which is sorted by product (checked in
    TestValidateAgainstEnumeration.test_reference_prefix)."""
    assert bound <= REFERENCE_BOUND
    family, products = _reference_family_up_to_bound()
    return list(family[: bisect.bisect_right(products, bound)])


def reference_validate(alpha, beta, action_t0, tol=1e-6):
    """The lookup before the candidate box: a scan of the whole family up to
    the product bound (finite inputs only)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if abs(abs(beta) - 1.0) > tol:
        return None
    if action_t0 == 0.0:
        return None
    beta_resolved = 1 if beta > 0 else -1
    bound = int(math.ceil((3.0 * abs(action_t0) / math.pi) ** 2 * 2.0 * (1.0 + tol) ** 2))
    sign = 1 if action_t0 > 0 else -1
    alpha_pos = alpha * sign
    for cand in reference_family(bound):
        if abs(cand.action_t0 - abs(action_t0)) > tol * cand.action_t0:
            continue
        if abs(cand.alpha - alpha_pos) > tol * max(1.0, abs(cand.alpha)):
            continue
        return condition_from_odd_pair(cand.pair, sign=sign, beta=beta_resolved)
    return None


class TestOddPair:
    def test_derived_integers(self):
        pair = OddPair(-1, 3)
        assert (pair.n1, pair.n2) == (1, 5)

    def test_rejects_even_entries(self):
        with pytest.raises(InvalidInputError):
            OddPair(2, 3)
        with pytest.raises(InvalidInputError):
            OddPair(1, 0)

    def test_rejects_negative_product(self):
        # (1, -1) gives (n1, n2) = (1, -1)
        with pytest.raises(InvalidInputError):
            OddPair(1, -1)

    @pytest.mark.parametrize("n_o,n_op", [(1.5, 3), (1.0, 3.0), (math.nan, 1), (3, math.inf)])
    def test_rejects_non_integer_entries(self, n_o, n_op):
        with pytest.raises(InvalidInputError, match="integers"):
            OddPair(n_o, n_op)

    def test_accepts_numpy_integers(self):
        pair = OddPair(np.int64(1), np.int64(3))
        assert (pair.n1, pair.n2) == (5, 7)


class TestConditionFromOddPair:
    def test_simplest_member(self, cond_33):
        assert (cond_33.n1, cond_33.n2) == (3, 3)
        assert cond_33.action_t0 == pytest.approx(2.2214, abs=5e-5)
        assert cond_33.alpha == 0.0

    def test_one_five_member(self, cond_15):
        assert (cond_15.n1, cond_15.n2) == (1, 5)
        assert cond_15.action_t0 == pytest.approx(1.6558, abs=5e-5)
        assert cond_15.alpha == pytest.approx(2.530, abs=5e-4)

    def test_fig4_member(self, cond_351):
        """(n_o, n_o') = (23, -11) gives (35, 1); |A| = 4.381, |alpha| = 8.128.

        The negative-r twin carries the same magnitudes with both signs
        flipped, which is the same physical drive up to V -> -V."""
        assert (cond_351.n1, cond_351.n2) == (35, 1)
        assert cond_351.action_t0 == pytest.approx(4.381, abs=5e-4)
        assert cond_351.alpha == pytest.approx(-8.128, abs=5e-4)
        twin = condition_from_odd_pair(cond_351.pair, sign=-1)
        assert twin.action_t0 == pytest.approx(-4.381, abs=5e-4)
        assert twin.alpha == pytest.approx(8.128, abs=5e-4)

    def test_invariants_exhaustive(self):
        """Family laws hold for every valid pair with |n_o|, |n_o'| <= 15,
        both signs, both beta and both targets; r also equals the paper's
        second closed form sign / sqrt(n_o^2 + 2.5 n_o n_o' + n_o'^2), and
        ``ratios`` puts (alpha, beta) on the target's couplings."""
        for pair in all_valid_pairs(15):
            for sign, beta, target in itertools.product((1, -1), (1, -1), (2, 3)):
                cond = condition_from_odd_pair(pair, sign=sign, beta=beta, target=target)
                assert 3.0 * cond.r * cond.action_t0 == pytest.approx(math.pi, abs=1e-12)
                assert cond.alpha == pytest.approx(cond.r * (cond.n2 - cond.n1), abs=1e-12)
                assert cond.r**2 * cond.n1 * cond.n2 == pytest.approx(2.0, abs=1e-12)
                r_alt = sign / math.sqrt(pair.n_o**2 + 2.5 * pair.n_o * pair.n_op + pair.n_op**2)
                assert cond.r == pytest.approx(r_alt, abs=1e-12)
                assert (cond.n1 + cond.n2) % 6 == 0
                assert ((2 * cond.n1 - cond.n2) // 3) % 2 != 0
                assert ((2 * cond.n2 - cond.n1) // 3) % 2 != 0
                ratios = cond.ratios()
                couplings = (ratios.alpha, ratios.beta) if target == 2 else (ratios.beta, ratios.alpha)
                assert couplings == (cond.alpha, beta)

    def test_replaced_sign_sets_the_floats_anew(self, cond_351):
        """``replace`` builds anew: sign -1 negates r, A(t0) and alpha, and
        sign +1 again gives a condition equal to, and hashing as, a fresh one."""
        twin = replace(cond_351, sign=-1)
        assert (twin.r, twin.action_t0, twin.alpha) == (-cond_351.r, -cond_351.action_t0, -cond_351.alpha)
        back, fresh = replace(twin, sign=1), condition_from_odd_pair(cond_351.pair)
        assert back == fresh and hash(back) == hash(fresh) and repr(back) == repr(fresh)
        assert (back.r, back.action_t0, back.alpha) == (fresh.r, fresh.action_t0, fresh.alpha)

    @pytest.mark.parametrize("target", [2, 3])
    @pytest.mark.parametrize("field,bad", [("sign", 0), ("beta", 0), ("beta", 2), ("beta", 0.5)])
    def test_bad_sign_or_beta_is_refused(self, field, bad, target):
        with pytest.raises(ValueError):
            condition_from_odd_pair(OddPair(-1, 3), target=target, **{field: bad})


class TestEnumerate:
    def test_smallest_products(self):
        rows = enumerate_conditions(9)
        assert [(c.n1, c.n2) for c in rows] == [(1, 5), (5, 1), (3, 3)]
        np.testing.assert_allclose(
            [c.action_t0 for c in rows], [1.656, 1.656, 2.221], atol=5e-4
        )

    def test_below_smallest_product_is_empty(self):
        """No odd pair reaches n1*n2 < 5 (brute-force scan over |n_o| <= 9)."""
        smallest = min(p.n1 * p.n2 for p in all_valid_pairs(9))
        assert smallest == 5
        assert enumerate_conditions(4) == []

    def test_reproduces_table(self):
        rows = enumerate_conditions(35)
        assert len(rows) == len(TABLE_ROWS) == 17
        for cond in rows:
            a_ref, alpha_ref = TABLE_ROWS[(cond.n1, cond.n2)]
            assert cond.action_t0 == pytest.approx(a_ref, abs=5e-4)
            assert cond.alpha == pytest.approx(alpha_ref, abs=5e-4)

    def test_sorted_by_product_then_n1(self):
        rows = enumerate_conditions(35)
        keys = [(c.product, c.n1) for c in rows]
        assert keys == sorted(keys)

    def test_both_signs_when_requested(self):
        """The sign -1 member of each pair comes from condition_from_odd_pair."""
        rows = [
            condition_from_odd_pair(c.pair, sign=sign) for c in enumerate_conditions(9) for sign in (1, -1)
        ]
        assert len(rows) == 6
        by_pair = {}
        for c in rows:
            by_pair.setdefault((c.n1, c.n2), []).append(c)
        for (n1, n2), pair_rows in by_pair.items():
            assert sorted(c.sign for c in pair_rows) == [-1, 1]
            a_plus, a_minus = (c.action_t0 for c in sorted(pair_rows, key=lambda c: -c.sign))
            assert a_plus == pytest.approx(-a_minus, abs=1e-15)


    @pytest.mark.parametrize("signs", [(1,), (1, -1), (-1, 1)])
    @pytest.mark.parametrize("beta", [1, -1])
    def test_matches_reference_enumeration(self, signs, beta):
        """Rows and order equal the filtered enumeration at every bound up to
        60 and at 2,999 and 5,000; the other signs and beta follow from each
        row's pair through condition_from_odd_pair."""
        ordered_signs = sorted(signs, reverse=True)
        for bound in [*range(-1, 61), 2999, 5000]:
            rows = enumerate_conditions(bound)
            if signs == (1,) and beta == 1:
                assert rows == reference_enumerate(bound)
            rows = [condition_from_odd_pair(c.pair, sign, beta) for c in rows for sign in ordered_signs]
            assert rows == reference_enumerate(bound, signs, beta)

    def test_family_integers_are_the_odd_pairs_summing_to_a_multiple_of_six(self):
        for bound in (0, 4, 5, 36, 499):
            expected = sorted(
                ((n1, n2) for n1 in range(1, bound + 1, 2) for n2 in range(1, bound // n1 + 1, 2)
                 if (n1 + n2) % 6 == 0),
                key=lambda p: (p[0] * p[1], p[0]),
            )
            n1, n2 = family_integers(bound)
            assert n1.dtype == n2.dtype == np.int64
            assert list(zip(n1.tolist(), n2.tolist())) == expected

    def test_table_bound_below_the_cap_answers(self):
        """n1*n2 <= 20,000 holds 19,064 members; the count bound allows 29,839."""
        assert _candidate_count_bound((1, 20000), (1, 20000), 20000) < MAX_LOOKUP_CANDIDATES
        assert len(family_table(20000)["n1"]) == 19064

    @pytest.mark.parametrize("max_product", [1_100_000, 10**11])
    def test_table_bound_past_the_cap_is_refused(self, max_product):
        """The count is bounded before anything is allocated: 10**11 would
        need hundreds of GB of columns."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=f"max_product {max_product} may give .* family members"):
                family_table(max_product)
            with pytest.raises(ValueError, match="past the cap"):
                enumerate_conditions(max_product)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 10e6

    @pytest.mark.parametrize("n1_range,n2_range", [((7, 31), (4, 60)), ((2, 2), (1, 500)), ((1, 500), (40, 39))])
    def test_family_integers_box(self, n1_range, n2_range):
        n1, n2 = family_integers(500)
        inside = (n1 >= n1_range[0]) & (n1 <= n1_range[1]) & (n2 >= n2_range[0]) & (n2 <= n2_range[1])
        b1, b2 = family_integers(500, n1_range, n2_range)
        assert b1.tolist() == n1[inside].tolist() and b2.tolist() == n2[inside].tolist()


class TestClassifyCases:
    def test_three_three(self, cond_33):
        case_i, case_ii, case_iii = classify_cases(cond_33.n1, cond_33.n2)
        assert case_ii == (1, 1)
        assert case_i == (2, -1)
        assert case_iii == (-1, 2)

    def test_one_five(self, cond_15):
        assert classify_cases(cond_15.n1, cond_15.n2)[1] == (-1, 3)

    def test_thirty_five_one(self, cond_351):
        _, case_ii, _ = classify_cases(cond_351.n1, cond_351.n2)
        assert case_ii == (23, -11)
        k, kp = case_ii
        assert (2 * k + kp) * (k + 2 * kp) == 35

    def test_identities_and_parities_exhaustive(self):
        """For every odd pair, negative n1 and n2 included, the three sets are
        the paper's combinations of (n_o, n_o'), map back to n1*n2 and follow
        the parity pattern."""
        pairs = all_valid_pairs(15)
        assert any(p.n1 < 0 for p in pairs)
        for pair in pairs:
            cond = condition_from_odd_pair(pair)
            case_i, case_ii, case_iii = classify_cases(cond.n1, cond.n2)
            n_o, n_op = pair.n_o, pair.n_op
            assert (case_i, case_ii, case_iii) == ((n_o + n_op, -n_o), (n_o, n_op), (-n_op, n_o + n_op))
            n1n2 = cond.n1 * cond.n2
            k, kp = case_i
            assert (k - kp) * (2 * k + kp) == n1n2
            assert k % 2 == 0 and kp % 2 != 0
            k, kp = case_ii
            assert (2 * k + kp) * (k + 2 * kp) == n1n2
            assert k % 2 != 0 and kp % 2 != 0
            k, kp = case_iii
            assert (2 * kp + k) * (kp - k) == n1n2
            assert k % 2 != 0 and kp % 2 == 0
            assert 18.0 * (cond.action_t0 / math.pi) ** 2 == pytest.approx(n1n2, rel=1e-12)

    def test_int64_arrays_match_per_member_calls(self):
        """One call on the int64 columns, negative members included, gives
        each member's sets as its own call does."""
        pairs = all_valid_pairs(15)
        n1 = np.array([p.n1 for p in pairs], dtype=np.int64)
        n2 = np.array([p.n2 for p in pairs], dtype=np.int64)
        columns = classify_cases(n1, n2)
        assert all(c.dtype == np.int64 for case in columns for c in case)
        for row, pair in enumerate(pairs):
            per_member = classify_cases(pair.n1, pair.n2)
            assert tuple((int(k[row]), int(kp[row])) for k, kp in columns) == per_member


class TestClosedFormPopulations:
    def test_complete_transfer(self, cond_33):
        p = populations_closed_form_array(cond_33, cond_33.action_t0)[0]
        assert p[0] == pytest.approx(0.0, abs=1e-12)
        assert p[1] == pytest.approx(1.0, abs=1e-12)
        assert p[2] == pytest.approx(0.0, abs=1e-12)

    def test_half_action_p3(self, cond_33):
        p = populations_closed_form_array(cond_33, cond_33.action_t0 / 2.0)[0]
        assert p[2] == pytest.approx(0.5, abs=1e-12)

    def test_initial_state(self):
        for cond in enumerate_conditions(35):
            p = populations_closed_form_array(cond, 0.0)[0]
            np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-14)

    def test_matches_general_form(self):
        """Closed form equals the general cosine-sum populations within 1e-10
        at 1000 action samples, for every family member with n1*n2 <= 35 and
        both beta signs."""
        actions = np.linspace(-1.2, 1.2, 1000)
        for cond in enumerate_conditions(35):
            scaled = actions * abs(cond.action_t0)
            closed = populations_closed_form_array(cond, scaled)
            for beta in (1, -1):
                basis = build_dressed_basis(replace(cond, beta=beta).ratios())
                general = populations_general_array(basis, scaled)
                np.testing.assert_allclose(closed, general, atol=1e-10)


FAMILY_2000 = enumerate_conditions(2000)


def scaled_actions(cond, fractions):
    return np.array(fractions) * abs(cond.action_t0)


ACTION_FRACTIONS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40)


class TestPopulationProperties:
    """Properties over members drawn from enumerate_conditions(2000), at
    actions up to twice the transfer action."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FAMILY_2000), ACTION_FRACTIONS)
    def test_closed_form_is_normalised(self, cond, fractions):
        p = populations_closed_form_array(cond, scaled_actions(cond, fractions))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FAMILY_2000), ACTION_FRACTIONS)
    def test_closed_form_is_even_in_the_action(self, cond, fractions):
        actions = scaled_actions(cond, fractions)
        np.testing.assert_allclose(
            populations_closed_form_array(cond, actions),
            populations_closed_form_array(cond, -actions),
            rtol=0, atol=1e-14,
        )

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FAMILY_2000), ACTION_FRACTIONS)
    def test_closed_form_equals_general_form(self, cond, fractions):
        actions = scaled_actions(cond, fractions)
        closed = populations_closed_form_array(cond, actions)
        for beta in (1, -1):
            general = populations_general_array(build_dressed_basis(replace(cond, beta=beta).ratios()), actions)
            np.testing.assert_allclose(closed, general, rtol=0, atol=1e-10)


class TestP3Max:
    @pytest.mark.parametrize(
        "pair,expected",
        [((1, 1), 0.5), ((-1, 3), 10.0 / 36.0), ((23, -11), 70.0 / 1296.0)],
    )
    def test_formula(self, pair, expected):
        cond = condition_from_odd_pair(OddPair(*pair))
        assert p3_max(cond) == pytest.approx(expected, abs=1e-15)

    def test_equals_dense_scan_maximum(self):
        """Formula matches the max of a dense closed-form scan of p3."""
        actions = np.linspace(0.0, 1.0, 200001)
        for cond in enumerate_conditions(35):
            scan = populations_closed_form_array(cond, actions * 2.0 * abs(cond.action_t0))
            assert scan[:, 2].max() == pytest.approx(p3_max(cond), abs=1e-6)
            assert p3_max(cond) <= 0.5
            if cond.n1 == cond.n2:
                assert p3_max(cond) == 0.5


class TestValidateCondition:
    def test_fig1_values_not_in_family(self):
        assert validate_condition(2.0, 1.0, 1.5, tol=1e-6) is None

    def test_fig2_values_match(self):
        cond = validate_condition(0.0, 1.0, 2.2214, tol=1e-3)
        assert cond is not None and (cond.n1, cond.n2) == (3, 3)

    def test_near_miss_rejected(self):
        assert validate_condition(8.5, 1.0, 5.8, tol=1e-6) is None

    def test_signed_alpha_matches_swapped_pair(self, cond_15):
        cond = validate_condition(-cond_15.alpha, 1.0, cond_15.action_t0, tol=1e-9)
        assert cond is not None and (cond.n1, cond.n2) == (5, 1)

    def test_negative_action_resolves_to_negative_sign_member(self, cond_15):
        cond = validate_condition(-cond_15.alpha, 1.0, -cond_15.action_t0, tol=1e-9)
        assert cond is not None and cond.sign == -1 and (cond.n1, cond.n2) == (1, 5)

    def test_perturbed_alpha_rejected(self, cond_33):
        assert validate_condition(1e-3, 1.0, cond_33.action_t0, tol=1e-6) is None

    def test_non_unit_beta_rejected(self, cond_33):
        assert validate_condition(0.0, 0.5, cond_33.action_t0, tol=1e-6) is None


    @pytest.mark.parametrize("field", ["alpha", "beta", "area", "tol"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, field, bad):
        args = {"alpha": 0.0, "beta": 1.0, "area": 2.2214, "tol": 1e-3, field: bad}
        with pytest.raises(ValueError, match="finite"):
            validate_condition(args["alpha"], args["beta"], args["area"], tol=args["tol"])

    @pytest.mark.parametrize("area,tol", [(1e200, 1e-6), (-1e200, 1e-6), (8e7, 1e-6), (1.0, 1e300)])
    def test_bound_past_2_to_53_rejected(self, area, tol):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            validate_condition(0.0, 1.0, area, tol=tol)

    def test_large_area_answers_without_enumerating(self):
        """n1*n2 = 199,996,163 (A near 1.05e4) and an arbitrary query at
        A = 1e4 answer at once; the old enumeration grows as P log P in the
        product bound P and took 0.13 s at P = 10,577."""
        cond = condition_from_odd_pair(OddPair(4713, 4715))
        start = time.perf_counter()
        hit = validate_condition(cond.alpha, 1.0, cond.action_t0, tol=1e-9)
        swapped = validate_condition(-cond.alpha, -1.0, cond.action_t0, tol=1e-9)
        miss = validate_condition(cond.alpha * (1 + 1e-3), 1.0, cond.action_t0, tol=1e-9)
        arbitrary = validate_condition(0.3, 1.0, 1e4)
        assert time.perf_counter() - start < 1.0
        assert hit == cond and miss is None and arbitrary is None
        assert (swapped.n1, swapped.n2, swapped.beta) == (cond.n2, cond.n1, -1.0)

    @pytest.mark.parametrize("tol", [0.5, 1.0])
    def test_loose_tolerance_at_large_area_is_refused(self, tol):
        """The box at A = 1e4 holds about 2.3e7 candidates at tol 0.5 and
        1.7e9 at tol 1; the count is bounded before anything is allocated."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=r"area 10000\.0 with tol .* candidates"):
                validate_condition(0.3, 1.0, 1e4, tol=tol)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 10e6

    def test_loose_tolerance_below_the_cap_answers(self):
        """About 1e6 candidates at A = 1e4, tol 0.1: the smallest (n1*n2, n1)
        that passes, as the enumeration over the whole family finds it."""
        cond = validate_condition(0.3, 1.0, 1e4, tol=0.1)
        assert (cond.n1, cond.n2, cond.sign, cond.beta) == (11385, 13239, 1, 1.0)
        assert type(cond.n1) is int and type(cond.pair.n_o) is int

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-5, 400), st.integers(0, 400), st.integers(-5, 400), st.integers(0, 3000),
        st.integers(0, 3000),
    )
    def test_candidate_count_bound_holds(self, n1_lo, n1_span, n2_lo, n2_span, bound):
        box = (n1_lo, n1_lo + n1_span), (n2_lo, n2_lo + n2_span)
        count = family_integers(bound, *box)[0].size
        assert count <= _candidate_count_bound(*box, bound)

    def test_candidate_count_bound_holds_for_the_whole_range(self):
        """The box of tol >= 1, where every odd n1 up to the bound is a row."""
        for bound in range(200):
            box = (1, bound), (1, bound)
            assert family_integers(bound, *box)[0].size <= _candidate_count_bound(*box, bound)


def nudge(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


class TestValidateAgainstEnumeration:
    """The candidate box against the scan of the whole family it replaced."""

    def test_reference_prefix(self):
        for bound in (4, 35, 1000):
            assert reference_family(bound) == reference_enumerate(bound)

    @pytest.mark.parametrize("tol", [1e-6, 1e-17])
    def test_every_family_member_is_found(self, tol):
        """At tol = 1e-17 the band is narrower than the rounding of the
        closed-form roots, so only the box's margin keeps the member inside."""
        for cond in FAMILY_2000:
            for sign in (1, -1):
                alpha, area = sign * cond.alpha, sign * cond.action_t0
                found = validate_condition(alpha, 1.0, area, tol)
                assert found is not None and found == reference_validate(alpha, 1.0, area, tol)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_box_lookup_matches_enumeration(self, data):
        """Hits, misses with alpha scaled by 1 +- 1e-3, both signs of A and of
        beta, random queries, and inputs within one ulp of either edge of the
        action or the alpha tolerance, for tol from 1e-12 to 2."""
        tol = 10.0 ** data.draw(st.floats(-12.0, math.log10(2.0)))
        # an area at the upper band edge searches up to n1*n2 (1 + tol)^4
        top = min(2000, int(REFERENCE_BOUND / (1.0 + tol) ** 4 / 1.01))
        cond = data.draw(st.sampled_from(reference_family(top)))
        sign = data.draw(st.sampled_from((1, -1)))
        beta = data.draw(st.sampled_from((1.0, -1.0)))
        alpha, area = sign * cond.alpha, sign * cond.action_t0
        kind = data.draw(st.sampled_from(("hit", "miss", "random", "area_edge", "alpha_edge")))
        if kind == "miss":
            alpha *= data.draw(st.sampled_from((1.0 + 1e-3, 1.0 - 1e-3)))
        elif kind == "random":
            alpha = data.draw(st.floats(-10.0, 10.0))
            area = sign * data.draw(st.floats(0.1, 15.0))
        elif kind == "area_edge":
            factor = 1.0 + data.draw(st.sampled_from((1, -1) if tol < 1.0 else (1,))) * tol
            area = nudge(area * factor, data.draw(st.integers(-1, 1)))
        elif kind == "alpha_edge":
            step = data.draw(st.sampled_from((1, -1))) * tol * max(1.0, abs(cond.alpha))
            alpha = nudge(alpha + step, data.draw(st.integers(-1, 1)))
        assert validate_condition(alpha, beta, area, tol) == reference_validate(alpha, beta, area, tol)


class TestConditionForTarget:
    """``condition_from_odd_pair(..., target=...)``: the level that the
    condition fills."""

    def test_target_two_is_identity(self):
        pair = OddPair(-1, 3)
        assert condition_from_odd_pair(pair, target=2) == condition_from_odd_pair(pair)

    def test_target_three_swaps_couplings(self):
        cond = condition_from_odd_pair(OddPair(1, 1), target=3)
        ratios = cond.ratios()
        assert ratios.alpha == 1.0 and ratios.beta == 0.0 and cond.target == 3

    def test_target_three_closed_form(self):
        """Swapped closed form reaches full level-3 occupation at A(t0)."""
        for pair in (OddPair(1, 1), OddPair(-1, 3), OddPair(23, -11)):
            cond = condition_from_odd_pair(pair, target=3)
            p = populations_closed_form_array(cond, cond.action_t0)[0]
            assert p[2] == pytest.approx(1.0, abs=1e-12)
            assert p[0] == pytest.approx(0.0, abs=1e-12)
            assert p[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [1, -1])
    def test_target_three_matches_general_form(self, beta):
        """For target 3, the closed form equals the general cosine-sum
        populations of the condition's own couplings within 1e-10 at 1000
        actions in +-1.2 A(t0)."""
        for pair in (OddPair(1, 1), OddPair(-1, 3), OddPair(23, -11)):
            cond = condition_from_odd_pair(pair, beta=beta, target=3)
            assert cond.ratios().alpha == beta
            actions = np.linspace(-1.2, 1.2, 1000) * abs(cond.action_t0)
            closed = populations_closed_form_array(cond, actions)
            general = populations_general_array(build_dressed_basis(cond.ratios()), actions)
            np.testing.assert_allclose(closed, general, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("target", [1, 4])
    def test_unknown_target_is_refused(self, target):
        with pytest.raises(ValueError, match="target level"):
            condition_from_odd_pair(OddPair(1, 1), target=target)

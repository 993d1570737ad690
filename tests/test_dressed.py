"""Tests for the dressed-state eigenproblem and analytic populations.

Expected values come from independent oracles: numpy's companion-matrix
root finder for the cubic, direct fixed-point substitution for the basis,
and the squared amplitudes for the population formulas.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tripop import (
    CouplingRatios,
    OddPair,
    RepeatedRootError,
    TripopError,
    amplitudes_at,
    build_dressed_basis,
    condition_from_odd_pair,
    cubic_coefficients,
    populations_closed_form_array,
    populations_general_array,
    propagate_kick,
    solve_cubic,
)

RNG = np.random.default_rng(7)

SQRT2 = math.sqrt(2.0)
A33 = math.pi / SQRT2  # transfer action of the alpha = 0 family


def random_ratios(n, alpha_max=10.0):
    """Random (alpha, beta = +-1) pairs, avoiding the |alpha| = 1 degeneracy."""
    out = []
    while len(out) < n:
        alpha = float(RNG.uniform(-alpha_max, alpha_max))
        if abs(abs(alpha) - 1.0) < 0.05:
            continue
        beta = float(RNG.choice([-1.0, 1.0]))
        out.append(CouplingRatios(alpha=alpha, beta=beta))
    return out


class TestSolveCubic:
    def test_alpha0_beta1_roots(self):
        """alpha=0, beta=1 factorizes to y(y^2 - 2): roots {sqrt2, -sqrt2, 0}."""
        roots = solve_cubic(CouplingRatios(0.0, 1.0))
        np.testing.assert_allclose(roots, [SQRT2, -SQRT2, 0.0], atol=1e-14)

    def test_table_alpha_roots(self):
        """For beta=1 the nonzero roots solve y^2 + alpha*y - 2 = 0."""
        alpha = 2.5298221281347035
        expected_plus = (-alpha + math.sqrt(alpha**2 + 8.0)) / 2.0
        expected_minus = (-alpha - math.sqrt(alpha**2 + 8.0)) / 2.0
        roots = solve_cubic(CouplingRatios(alpha, 1.0))
        np.testing.assert_allclose(roots, [expected_plus, expected_minus, 0.0], atol=1e-12)
        np.testing.assert_allclose(roots[:2], [0.6324555320336759, -3.1622776601683795], atol=1e-9)

    def test_decoupled_system_raises(self):
        """alpha = beta = 0 leaves level 1 uncoupled; the cubic degenerates."""
        with pytest.raises(RepeatedRootError):
            solve_cubic(CouplingRatios(0.0, 0.0))

    def test_equal_magnitude_couplings_raise(self):
        """|alpha| = |beta| puts one dressed state orthogonal to level 1."""
        with pytest.raises(RepeatedRootError):
            solve_cubic(CouplingRatios(2.0, 2.0))
        with pytest.raises(RepeatedRootError):
            solve_cubic(CouplingRatios(1.0, 1.0))

    def test_repeated_roots_raise(self):
        """beta = 0 gives the double root y = 1/alpha, which floating point
        splits by ~1e-8, at alpha = 1 + 1e-5 and 2.5 into a complex pair; a
        cubic that vanishes but for a 1e-194 diagonal term is degenerate too."""
        for alpha in (1.0, 1.0 + 1e-5, 2.5):
            with pytest.raises(RepeatedRootError):
                solve_cubic(CouplingRatios(alpha, 0.0))
        with pytest.raises(RepeatedRootError):
            solve_cubic(CouplingRatios(1.0, 1.0, eps=(0.0, 0.0, 1e-194)))

    def test_roots_match_companion_matrix_oracle(self):
        """Closed-form roots agree with numpy's companion-matrix eigenvalues."""
        for ratios in random_ratios(100):
            roots = np.sort(solve_cubic(ratios))
            oracle = np.sort(np.roots(cubic_coefficients(ratios)).real)
            np.testing.assert_allclose(roots, oracle, atol=1e-10, rtol=1e-10)

    def test_root_residuals(self):
        """Every root satisfies the cubic to < 1e-9 of the coefficient scale."""
        for ratios in random_ratios(100):
            a, b, c, d = cubic_coefficients(ratios)
            scale = max(abs(a), abs(b), abs(c), abs(d))
            for y in solve_cubic(ratios):
                assert abs(((a * y + b) * y + c) * y + d) < 1e-9 * scale

    def test_zero_root_placed_last(self):
        """beta = -1 also carries the zero root, slotted last."""
        roots = solve_cubic(CouplingRatios(3.0, -1.0))
        assert roots[2] == pytest.approx(0.0, abs=1e-12)
        assert roots[0] > roots[1]

    def test_eps_case_reduces_to_shifted_quadratic(self):
        """For eps1 = eps2 != eps3 and beta = +-1 the nonzero roots solve
        y^2 + atilde*y - 2 = 0 with the effective ratio

            atilde = [a(1-a^2) + a*d^2 -+ d] / [1 - a^2 -+ a*d],   d = eps3 - eps1,

        where the upper sign belongs to beta = +1 (re-derived from the full
        cubic; checked against its companion-matrix roots)."""
        for alpha, d, beta in [(0.7, 0.3, 1.0), (2.0, -0.4, 1.0), (0.0, 0.5, 1.0), (0.7, 0.3, -1.0)]:
            ratios = CouplingRatios(alpha, beta, eps=(0.0, 0.0, d))
            roots = solve_cubic(ratios)
            s = 1.0 if beta > 0 else -1.0
            atilde = (alpha * (1 - alpha**2) + alpha * d**2 - s * d) / (1 - alpha**2 - s * alpha * d)
            quad = sorted(np.roots([1.0, atilde, -2.0]).real, reverse=True)
            np.testing.assert_allclose(roots[:2], quad, atol=1e-10)
            assert roots[2] == pytest.approx(0.0, abs=1e-12)


class TestBuildDressedBasis:
    def test_alpha0_beta1_structure(self, basis_33):
        """Sign pattern x = (1, 1, -1), y = z = (sqrt2, -sqrt2, 0), det = -4 sqrt2."""
        np.testing.assert_allclose(basis_33.x, [1.0, 1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(basis_33.y, [SQRT2, -SQRT2, 0.0], atol=1e-12)
        np.testing.assert_allclose(basis_33.z, [SQRT2, -SQRT2, 0.0], atol=1e-12)
        assert basis_33.det == pytest.approx(-4.0 * SQRT2, abs=1e-12)

    def test_table_row_phase_rates(self):
        """alpha = 2.530 gives z = sqrt(2/5) * (5, -1, -4): the (1, 5) family."""
        r = math.sqrt(2.0 / 5.0)
        basis = build_dressed_basis(CouplingRatios(4.0 * r, 1.0))
        np.testing.assert_allclose(basis.z, [5.0 * r, -1.0 * r, -4.0 * r], atol=1e-12)
        # z = alpha*x + beta*y directly
        for x, y, z in zip(basis.x, basis.y, basis.z):
            assert z == pytest.approx(4.0 * r * x + y, abs=1e-12)

    def test_beta_minus_one_flips_x(self):
        basis = build_dressed_basis(CouplingRatios(0.0, -1.0))
        np.testing.assert_allclose(basis.x, [-1.0, -1.0, 1.0], atol=1e-12)

    def test_inverse_identity(self):
        """M @ M_inv = I within 1e-10 for random ratios."""
        for ratios in random_ratios(50):
            basis = build_dressed_basis(ratios)
            np.testing.assert_allclose(basis.m @ basis.m_inv, np.eye(3), atol=1e-10)
            np.testing.assert_allclose(basis.m_inv @ basis.m, np.eye(3), atol=1e-10)

    def test_fixed_point_residuals(self):
        """|x z - (alpha + eps2 x + y)| and |y z - (beta + x + eps3 y)| < 1e-9."""
        cases = random_ratios(50) + [
            CouplingRatios(0.7, 1.0, eps=(0.1, -0.2, 0.3)),
            CouplingRatios(2.0, -1.0, eps=(0.0, 0.0, 0.5)),
        ]
        for ratios in cases:
            basis = build_dressed_basis(ratios)
            al, be = ratios.alpha, ratios.beta
            e1, e2, e3 = ratios.eps
            for x, y, z in zip(basis.x, basis.y, basis.z):
                assert abs(x * z - (al + e2 * x + y)) < 1e-9
                assert abs(y * z - (be + x + e3 * y)) < 1e-9
                assert z == pytest.approx(e1 + al * x + be * y, abs=1e-12)

    def test_gauge_missing_where_a_state_decouples_from_level_1(self):
        """At alpha = beta = 2 the state (0, 1, -1)/sqrt2 has no level-1
        component, so no row (1, x, y) describes it."""
        basis = build_dressed_basis(CouplingRatios(2.0, 2.0))
        with pytest.raises(RepeatedRootError):
            basis.x

    def test_rows_are_coupling_matrix_eigenvectors(self):
        """(1, x_j, y_j) is an eigenvector of the ratio matrix with eigenvalue z_j."""
        for ratios in random_ratios(20):
            basis = build_dressed_basis(ratios)
            k = ratios.coupling_matrix()
            for j in range(3):
                v = basis.m[j]
                np.testing.assert_allclose(k @ v, basis.z[j] * v, atol=1e-9)


class TestAmplitudes:
    def test_initial_condition(self):
        """At zero action the inverse rows sum to (1, 0, 0)."""
        for ratios in random_ratios(20):
            basis = build_dressed_basis(ratios)
            state = amplitudes_at(basis, 0.0)
            np.testing.assert_allclose(state.a, [1.0, 0.0, 0.0], atol=1e-12)

    def test_complete_transfer_action(self, basis_33):
        """|a2|^2 = 1 at the transfer action of the alpha = 0 family."""
        state = amplitudes_at(basis_33, A33)
        assert abs(state.a[1]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_incomplete_transfer_off_family(self):
        """alpha = 2, A = 1.5 is not a family point: |a2|^2 = 0.2193 < 1
        (frozen from this formula; cross-checked against RK4 elsewhere)."""
        basis = build_dressed_basis(CouplingRatios(2.0, 1.0))
        p2 = abs(amplitudes_at(basis, 1.5).a[1]) ** 2
        assert p2 < 1.0
        assert p2 == pytest.approx(0.2192830469043716, abs=1e-12)

    def test_unitarity(self):
        for ratios in random_ratios(20):
            basis = build_dressed_basis(ratios)
            for action in RNG.uniform(-10, 10, size=10):
                assert amplitudes_at(basis, float(action)).norm() == pytest.approx(1.0, abs=1e-10)


class TestPopulations:
    def test_initial_sample(self, basis_33):
        p = populations_general_array(basis_33, 0.0)[0]
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-14)

    def test_complete_transfer_sample(self, basis_33):
        """(0, 1, 0) at A = pi/(3r), r = sqrt(2/9)."""
        p = populations_general_array(basis_33, math.pi / (3.0 * math.sqrt(2.0 / 9.0)))[0]
        assert p[0] == pytest.approx(0.0, abs=1e-9)
        assert p[1] == pytest.approx(1.0, abs=1e-9)
        assert p[2] == pytest.approx(0.0, abs=1e-9)

    def test_half_transfer_action_maxes_p3(self, basis_33):
        """Half the transfer action puts half the population in level 3."""
        p = populations_general_array(basis_33, A33 / 2.0)[0]
        assert p[2] == pytest.approx(0.5, abs=1e-12)

    def test_matches_squared_amplitudes(self):
        """Cosine-sum form equals |amplitudes|^2 within 1e-12, 100 random configs."""
        for ratios in random_ratios(100):
            basis = build_dressed_basis(ratios)
            action = float(RNG.uniform(-10, 10))
            p = populations_general_array(basis, action)[0]
            a = amplitudes_at(basis, action)
            np.testing.assert_allclose(p, [abs(c) ** 2 for c in a.a], atol=1e-12)

    def test_norm_on_action_grid(self):
        """Populations sum to 1 within 1e-10 on a 1000-point action grid."""
        actions = np.linspace(-10, 10, 1001)
        for ratios in random_ratios(20):
            basis = build_dressed_basis(ratios)
            p = populations_general_array(basis, actions)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-10)

    def test_even_in_action(self):
        """P(A) == P(-A) exactly: the action enters only through cosines."""
        for ratios in random_ratios(20):
            basis = build_dressed_basis(ratios)
            for action in RNG.uniform(0.0, 10.0, size=5):
                plus = populations_general_array(basis, float(action))[0]
                minus = populations_general_array(basis, float(-action))[0]
                assert plus.tolist() == minus.tolist()


# alpha = 2 and the (1, 5) member have phase rates above 1.8, so an action of
# 1e308 overflows their phases.
BASIS_2 = build_dressed_basis(CouplingRatios(2.0, 1.0))
COND_15 = condition_from_odd_pair(OddPair(-1, 3))
EVALUATORS = {
    "general_array": lambda a: populations_general_array(BASIS_2, np.array([0.5, a])),
    "closed_form_array": lambda a: populations_closed_form_array(COND_15, np.array([0.5, a])),
    "amplitudes_at": lambda a: amplitudes_at(BASIS_2, a),
    "propagate_kick": lambda a: propagate_kick(BASIS_2, a),
}


class TestNonFinitePhase:
    @pytest.mark.parametrize("action", [math.nan, math.inf, -math.inf, 1e308, -1e308])
    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_refused_without_a_warning(self, evaluator, action):
        """Every exact evaluator refuses an action whose phase is not finite
        with ValueError, before numpy warns of an overflow or a NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite phase"):
                EVALUATORS[evaluator](action)

    def test_basis_carries_its_largest_phase_rate(self):
        """The guard's rate, max |z_j|, is taken once when the basis is built."""
        for ratios in random_ratios(20):
            basis = build_dressed_basis(ratios)
            assert basis.max_phase_rate == max(abs(z) for z in basis.z)

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_large_finite_phase_answers(self, evaluator):
        """A huge but finite phase is still evaluated and normalised."""
        result = EVALUATORS[evaluator](1e300)
        total = result.norm() if hasattr(result, "norm") else result.sum(axis=1)
        np.testing.assert_allclose(total, 1.0, atol=1e-10)


# Couplings on or next to |alpha| = |beta|, where the paper's cubic degenerates.
CUBIC_REFUSALS = [(1.0 + 1e-7, 1.0), (1.0, 1.0), (2.0, 2.0), (2.0, -2.0)]


class TestEveryCoupling:
    @pytest.mark.parametrize("eps", [(0.0, 0.0, 0.0), (0.3, 0.3, 0.3)])
    @pytest.mark.parametrize("alpha, beta", CUBIC_REFUSALS)
    def test_populations_match_the_exact_propagator(self, alpha, beta, eps):
        """Populations equal |exp(-i K A)[:, 0]|^2 within 1e-12 and sum to 1."""
        ratios = CouplingRatios(alpha, beta, eps=eps)
        actions = np.linspace(-3.0, 7.0, 41)
        p = populations_general_array(build_dressed_basis(ratios), actions)
        k = ratios.coupling_matrix()
        exact = np.array([np.abs(expm(-1j * a * k)[:, 0]) ** 2 for a in actions])
        np.testing.assert_allclose(p, exact, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
        st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
    )
    def test_cubic_roots_are_the_gauge_y(self, alpha, beta, eps):
        """The basis exists for every coupling, its z are eigvalsh(K), and
        wherever solve_cubic returns, its roots are the gauge's y (1e-9 relative).

        The comparison is skipped where the eigenvectors fix y = u[2]/u[0] only
        to about eps / (gap * |u[0]|), with gap the smallest spacing of z: next
        to a repeated z that reached 4e-9 of y at alpha = -beta = 0.99999,
        eps = (-1.2e-7, 2.2e-16, -1.2e-7), against a 50-digit eigensolver.
        """
        ratios = CouplingRatios(alpha, beta, eps=eps)
        basis = build_dressed_basis(ratios)
        z = np.sort(basis.z)
        np.testing.assert_allclose(
            z, np.linalg.eigvalsh(ratios.coupling_matrix()), rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(z)))
        )
        p = populations_general_array(basis, np.linspace(0.0, 10.0, 11))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        try:
            roots = np.sort(solve_cubic(ratios))
        except TripopError:
            return
        if np.min(np.diff(z)) * np.sqrt(np.min(basis.m_inv[0])) < 2.2e-16 / 1e-10:
            return
        y = np.sort(basis.y)
        assert np.all(np.abs(roots - y) <= 1e-9 * np.maximum(1.0, np.abs(roots))), (roots, y)

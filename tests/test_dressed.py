"""Tests for the dressed-state eigenproblem and analytic populations.

Expected values come from independent oracles: numpy's companion-matrix
root finder for the cubic, direct fixed-point substitution for the basis,
and the squared amplitudes for the population formulas.  The paper's
(1, x, y) gauge is checked on the library's basis through ``paper_gauge``.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import paper_gauge
from scipy.linalg import expm

from tripop import (
    CouplingRatios,
    OddPair,
    amplitudes_at,
    build_dressed_basis,
    condition_from_odd_pair,
    cubic_coefficients,
    enumerate_conditions,
    populations_closed_form_array,
    populations_general_array,
    propagate_kick,
    two_level_populations,
)
from tripop import dressed
from tripop.errors import InvalidInputError

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


def gauge_of(ratios):
    return paper_gauge(build_dressed_basis(ratios))


def cubic_at(ratios, y):
    """The paper's cubic at y, and the scale of its coefficients."""
    a, b, c, d = cubic_coefficients(ratios)
    return ((a * y + b) * y + c) * y + d, max(abs(a), abs(b), abs(c), abs(d))


class TestSolveCubic:
    """The eigh basis solves the paper's cubic: its gauge y are the roots."""

    def test_alpha0_beta1_roots(self):
        """alpha=0, beta=1 factorizes to y(y^2 - 2): roots {sqrt2, -sqrt2, 0}."""
        y = gauge_of(CouplingRatios(0.0, 1.0)).y
        np.testing.assert_allclose(y, [SQRT2, -SQRT2, 0.0], atol=1e-14)

    def test_table_alpha_roots(self):
        """For beta=1 the nonzero roots solve y^2 + alpha*y - 2 = 0."""
        alpha = 2.5298221281347035
        expected_plus = (-alpha + math.sqrt(alpha**2 + 8.0)) / 2.0
        expected_minus = (-alpha - math.sqrt(alpha**2 + 8.0)) / 2.0
        y = gauge_of(CouplingRatios(alpha, 1.0)).y
        np.testing.assert_allclose(y, [expected_plus, expected_minus, 0.0], atol=1e-12)
        np.testing.assert_allclose(y[:2], [0.6324555320336759, -3.1622776601683795], atol=1e-9)

    def test_roots_match_companion_matrix_oracle(self):
        """The gauge y agree with numpy's companion-matrix roots of the cubic."""
        for ratios in random_ratios(100):
            y = np.sort(gauge_of(ratios).y)
            oracle = np.sort(np.roots(cubic_coefficients(ratios)).real)
            np.testing.assert_allclose(y, oracle, atol=1e-10, rtol=1e-10)

    def test_root_residuals(self):
        """Every gauge y satisfies the cubic to < 1e-9 of the coefficient scale."""
        for ratios in random_ratios(100):
            for y in gauge_of(ratios).y:
                residual, scale = cubic_at(ratios, y)
                assert abs(residual) < 1e-9 * scale

    def test_zero_root_placed_last(self):
        """beta = -1 also carries the zero root, which the paper's order puts last."""
        y = gauge_of(CouplingRatios(3.0, -1.0)).y
        assert y[2] == pytest.approx(0.0, abs=1e-12)
        assert y[0] > y[1]

    def test_eps_case_reduces_to_shifted_quadratic(self):
        """For eps1 = eps2 != eps3 and beta = +-1 the nonzero roots solve
        y^2 + atilde*y - 2 = 0 with the effective ratio

            atilde = [a(1-a^2) + a*d^2 -+ d] / [1 - a^2 -+ a*d],   d = eps3 - eps1,

        where the upper sign belongs to beta = +1 (re-derived from the full
        cubic; checked against its companion-matrix roots)."""
        for alpha, d, beta in [(0.7, 0.3, 1.0), (2.0, -0.4, 1.0), (0.0, 0.5, 1.0), (0.7, 0.3, -1.0)]:
            y = gauge_of(CouplingRatios(alpha, beta, eps=(0.0, 0.0, d))).y
            s = 1.0 if beta > 0 else -1.0
            atilde = (alpha * (1 - alpha**2) + alpha * d**2 - s * d) / (1 - alpha**2 - s * alpha * d)
            quad = sorted(np.roots([1.0, atilde, -2.0]).real, reverse=True)
            np.testing.assert_allclose(y[:2], quad, atol=1e-10)
            assert y[2] == pytest.approx(0.0, abs=1e-12)


class TestBuildDressedBasis:
    def test_alpha0_beta1_structure(self, basis_33):
        """Sign pattern x = (1, 1, -1), y = z = (sqrt2, -sqrt2, 0), det = -4 sqrt2."""
        gauge = paper_gauge(basis_33)
        np.testing.assert_allclose(gauge.x, [1.0, 1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(gauge.y, [SQRT2, -SQRT2, 0.0], atol=1e-12)
        np.testing.assert_allclose(gauge.z, [SQRT2, -SQRT2, 0.0], atol=1e-12)
        assert np.linalg.det(gauge.m) == pytest.approx(-4.0 * SQRT2, abs=1e-12)

    def test_table_row_phase_rates(self):
        """alpha = 2.530 gives z = sqrt(2/5) * (5, -1, -4): the (1, 5) family."""
        r = math.sqrt(2.0 / 5.0)
        gauge = gauge_of(CouplingRatios(4.0 * r, 1.0))
        np.testing.assert_allclose(gauge.z, [5.0 * r, -1.0 * r, -4.0 * r], atol=1e-12)
        # z = alpha*x + beta*y directly
        for x, y, z in zip(gauge.x, gauge.y, gauge.z):
            assert z == pytest.approx(4.0 * r * x + y, abs=1e-12)

    def test_bases_compare_and_hash_by_identity(self):
        """A basis holds an array, so field-wise equality would be ambiguous:
        two builds of one coupling are unequal, each equal to itself, and
        both hash, as dict keys and set members."""
        first, second = (build_dressed_basis(CouplingRatios(2.5, 0.7)) for _ in range(2))
        assert first == first and first != second
        assert hash(first) != hash(second)
        assert len({first, second, first}) == 2
        assert {first: 1}[first] == 1

    def test_beta_minus_one_flips_x(self):
        np.testing.assert_allclose(gauge_of(CouplingRatios(0.0, -1.0)).x, [-1.0, -1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("beta", [1, -1])
    def test_family_sign_pattern(self, beta):
        """Every target-2 member with n1*n2 <= 60, both signs of r: x = (beta,
        beta, -beta), y = (y+, y-, 0) with y+ > y- the roots of
        y^2 + alpha*y - 2 = 0, and z = alpha*x + beta*y."""
        members = enumerate_conditions(60)
        assert len(members) == 27
        for cond in members:
            for sign in (1, -1):
                ratios = condition_from_odd_pair(cond.pair, sign, beta).ratios()
                alpha = ratios.alpha
                gauge = gauge_of(ratios)
                root = math.sqrt(alpha**2 + 8.0)
                np.testing.assert_allclose(gauge.x, [beta, beta, -beta], rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    gauge.y, [(root - alpha) / 2.0, -(root + alpha) / 2.0, 0.0], rtol=0, atol=1e-12 * root
                )
                np.testing.assert_allclose(gauge.z, alpha * gauge.x + beta * gauge.y, rtol=0, atol=1e-12 * root)

    def test_inverse_identity(self):
        """M @ M_inv = I within 1e-10 for random ratios."""
        for ratios in random_ratios(50):
            gauge = gauge_of(ratios)
            np.testing.assert_allclose(gauge.m @ gauge.m_inv, np.eye(3), atol=1e-10)
            np.testing.assert_allclose(gauge.m_inv @ gauge.m, np.eye(3), atol=1e-10)

    def test_fixed_point_residuals(self):
        """|x z - (alpha + eps2 x + y)| and |y z - (beta + x + eps3 y)| < 1e-9."""
        cases = random_ratios(50) + [
            CouplingRatios(0.7, 1.0, eps=(0.1, -0.2, 0.3)),
            CouplingRatios(2.0, -1.0, eps=(0.0, 0.0, 0.5)),
        ]
        for ratios in cases:
            gauge = gauge_of(ratios)
            al, be = ratios.alpha, ratios.beta
            e1, e2, e3 = ratios.eps
            for x, y, z in zip(gauge.x, gauge.y, gauge.z):
                assert abs(x * z - (al + e2 * x + y)) < 1e-9
                assert abs(y * z - (be + x + e3 * y)) < 1e-9
                assert z == pytest.approx(e1 + al * x + be * y, abs=1e-12)

    def test_gauge_missing_where_a_state_decouples_from_level_1(self):
        """At alpha = beta = 2 the state (0, 1, -1)/sqrt2 has no level-1
        component, and at alpha = beta = 0 neither has (0, 1, +-1)/sqrt2, so
        no row (1, x, y) describes them; the basis itself still exists."""
        for alpha, beta in [(2.0, 2.0), (0.0, 0.0)]:
            basis = build_dressed_basis(CouplingRatios(alpha, beta))
            np.testing.assert_allclose(basis.m_inv.sum(axis=1), [1.0, 0.0, 0.0], atol=1e-12)
            with pytest.raises(ValueError, match="gauge does not exist"):
                paper_gauge(basis)

    def test_rows_are_coupling_matrix_eigenvectors(self):
        """(1, x_j, y_j) is an eigenvector of the ratio matrix with eigenvalue z_j."""
        for ratios in random_ratios(20):
            gauge = gauge_of(ratios)
            k = ratios.coupling_matrix()
            for j in range(3):
                v = gauge.m[j]
                np.testing.assert_allclose(k @ v, gauge.z[j] * v, atol=1e-9)


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


# alpha = 2, the (1, 5) member and the two-level atom with eps2 - eps1 = 4 have
# phase rates above 1.8, so an action of 1e308 overflows their phases.
BASIS_2 = build_dressed_basis(CouplingRatios(2.0, 1.0))
COND_15 = condition_from_odd_pair(OddPair(-1, 3))
EVALUATORS = {
    "general_array": lambda a: populations_general_array(BASIS_2, np.array([0.5, a])),
    "closed_form_array": lambda a: populations_closed_form_array(COND_15, np.array([0.5, a])),
    "amplitudes_at": lambda a: amplitudes_at(BASIS_2, a),
    "propagate_kick": lambda a: propagate_kick(BASIS_2, a),
    "two_level_populations": lambda a: np.array([two_level_populations(0.0, 4.0, a)]),
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


# Couplings where the paper's cubic degenerates: on or next to |alpha| = |beta|,
# and at beta = 0, where it has the double root y = 1/alpha.
CUBIC_REFUSALS = [
    (1.0 + 1e-7, 1.0), (1.0, 1.0), (2.0, 2.0), (2.0, -2.0), (1.0, 0.0), (1.0 + 1e-5, 0.0), (2.5, 0.0),
]


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
    def test_cubic_vanishes_at_every_gauge_y(self, alpha, beta, eps):
        """The basis exists for every coupling, its z are eigvalsh(K), and the
        paper's cubic vanishes at each of its gauge y, to 1e-9 of the
        coefficient scale times max(1, |y|)^3.

        The check is skipped where the eigenvectors fix y = u[2]/u[0] only
        to about eps / (gap * |u[0]|), with gap the smallest spacing of z: next
        to a repeated z that reached 4e-9 of y at alpha = -beta = 0.99999,
        eps = (-1.2e-7, 2.2e-16, -1.2e-7), against a 50-digit eigensolver.
        Past the skip |u[0]| > 1e-7, so the gauge exists.
        """
        ratios = CouplingRatios(alpha, beta, eps=eps)
        basis = build_dressed_basis(ratios)
        z = np.sort(basis.z)
        np.testing.assert_allclose(
            z, np.linalg.eigvalsh(ratios.coupling_matrix()), rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(z)))
        )
        p = populations_general_array(basis, np.linspace(0.0, 10.0, 11))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        if np.min(np.diff(z)) * np.sqrt(np.min(basis.m_inv[0])) < 2.2e-16 / 1e-10:
            return
        for y in paper_gauge(basis).y:
            residual, scale = cubic_at(ratios, y)
            assert abs(residual) <= 1e-9 * scale * max(1.0, abs(y)) ** 3, (y, residual, scale)


def reference_dressed(alpha, beta, eps, action, actions):
    """Basis, amplitudes and populations from the documented formulas: eigh
    of K in its own order, m_inv = U * U[0], a = m_inv exp(-i z A) and the
    cosine sum."""
    e1, e2, e3 = eps
    z, u = np.linalg.eigh(np.array([[e1, alpha, beta], [alpha, e2, 1.0], [beta, 1.0, e3]]))
    m_inv = u * u[0]
    amplitudes = m_inv @ np.exp(-1j * z * action)
    pops = np.empty((actions.size, 3))
    for k in range(3):
        c1, c2, c3 = m_inv[k]
        pops[:, k] = (
            c1 * c1 + c2 * c2 + c3 * c3
            + 2.0 * c1 * c2 * np.cos((z[0] - z[1]) * actions)
            + 2.0 * c1 * c3 * np.cos((z[0] - z[2]) * actions)
            + 2.0 * c2 * c3 * np.cos((z[1] - z[2]) * actions)
        )
    return z, m_inv, amplitudes, pops


RATIO_5 = st.floats(-5.0, 5.0)
DIAGONAL = st.floats(-1.0, 1.0).filter(lambda e: e != 0.0)
# sign * m * 10^e: every decade from subnormal (and signed zero, below 5e-324) to 1e300
MAGNITUDE = st.builds(
    lambda sign, m, e: sign * m * 10.0**e,
    st.sampled_from([1.0, -1.0]),
    st.floats(1.0, 9.99),
    st.integers(-330, 299),
)


@st.composite
def couplings_with_eps(draw):
    """(alpha, beta, eps) with a nonzero diagonal; every other draw has no
    gauge: |alpha| = |beta| and eps2 = eps3, so (0, 1, -+1) is a dressed state."""
    alpha = draw(RATIO_5)
    if draw(st.booleans()):
        e = draw(DIAGONAL)
        return alpha, draw(st.sampled_from([alpha, -alpha])), (draw(DIAGONAL), e, e)
    return alpha, draw(RATIO_5), (draw(DIAGONAL), draw(DIAGONAL), draw(DIAGONAL))


class TestAgainstDocumentedFormulas:
    @settings(max_examples=300, deadline=None)
    @given(couplings_with_eps(), st.floats(-20.0, 20.0))
    def test_bit_for_bit(self, coupling, action):
        """The basis, the amplitudes and the populations equal, float for
        float, the formulas the module documents."""
        alpha, beta, eps = coupling
        actions = np.linspace(-3.0, 7.0, 11)
        z, m_inv, amplitudes, pops = reference_dressed(alpha, beta, eps, action, actions)
        basis = build_dressed_basis(CouplingRatios(alpha, beta, eps=eps))
        assert basis.z == tuple(z.tolist())
        assert np.array_equal(basis.m_inv, m_inv)
        assert amplitudes_at(basis, action).a == tuple(amplitudes.tolist())
        assert np.array_equal(populations_general_array(basis, actions), pops)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.one_of(RATIO_5, MAGNITUDE)] * 5))
    @example((1.0, 0.0, 1e227, 0.0, 2e227))
    def test_basis_is_eigh_at_every_magnitude(self, values):
        """With numpy's warnings as errors, z and m_inv equal byte for byte
        what ``np.linalg.eigh`` and m_inv = U * U[0] give, for couplings and
        diagonals from subnormal to 1e300, signed zeros included; where LAPACK
        does not converge and eigh raises LinAlgError, the basis is refused
        (the example is such a coupling)."""
        alpha, beta, *eps = values
        ratios = CouplingRatios(alpha, beta, eps=tuple(eps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                z, u = np.linalg.eigh(np.array([[eps[0], alpha, beta], [alpha, eps[1], 1.0], [beta, 1.0, eps[2]]]))
            except np.linalg.LinAlgError:
                with pytest.raises(InvalidInputError, match="LAPACK did not converge"):
                    build_dressed_basis(ratios)
                return
            basis = build_dressed_basis(ratios)
        assert np.array(basis.z).tobytes() == z.tobytes()
        assert basis.m_inv.tobytes() == (u * u[0]).tobytes()


class TestRecords:
    def test_records_are_frozen(self, basis_33):
        """No field of a basis or an amplitude state can be reassigned, a
        basis's m_inv cannot be written, and neither record holds a
        ``__dict__``."""
        for record in (basis_33, amplitudes_at(basis_33, 1.0)):
            assert not hasattr(record, "__dict__")
            for f in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, f.name, getattr(record, f.name))
        assert not basis_33.m_inv.flags.writeable

    @settings(max_examples=300, deadline=None)
    @given(couplings_with_eps(), st.floats(-30.0, 30.0))
    @example((0.5, -0.5, (0.3, -0.2, -0.2)), 20.0)
    @example((0.5, -0.5, (0.3, -0.2, -0.2)), -20.0)
    def test_max_phase_rate_is_the_largest_magnitude(self, coupling, shift):
        """max(-z[0], z[2]) of the ascending z is max |z_j|.  A common
        diagonal shift past the unshifted spectrum's largest |z_j| (at most
        about 10.3 here) gives spectra all of one sign, the shortcut's edge
        cases; the examples are one of each."""
        alpha, beta, eps = coupling
        basis = build_dressed_basis(CouplingRatios(alpha, beta, eps=tuple(e + shift for e in eps)))
        assert basis.max_phase_rate == max(abs(z) for z in basis.z)


class TestNonFiniteSpectrum:
    def test_overflowing_spectrum_is_refused(self):
        """Couplings near the float limit have eigenvalues past it: refused,
        before numpy warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="not finite"):
                build_dressed_basis(CouplingRatios(1.7e308, 1.7e308))

    def test_largest_finite_spectrum_answers(self):
        basis = build_dressed_basis(CouplingRatios(1e308, 1e308))
        assert basis.max_phase_rate == pytest.approx(SQRT2 * 1e308, rel=1e-15)

    def test_failed_eigensolver_is_refused(self, monkeypatch):
        """The kernel fills its outputs with NaN when LAPACK fails to converge."""
        monkeypatch.setattr(dressed, "_eigh", lambda k: (np.full(3, np.nan), np.full((3, 3), np.nan)))
        with pytest.raises(InvalidInputError, match="not finite"):
            build_dressed_basis(CouplingRatios(2.0, 1.0))

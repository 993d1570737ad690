"""Tests for leakage estimates and the two-level reference solution.

The oracle for every estimate is the dual-RK4 measurement (degenerate vs
split run).  Documented validity: the early-time estimate tracks |measured|
within 25% for drive phases up to 0.2 rad; the transfer-time estimates are
scale indicators whose quadratic splitting law matches measurement but whose
prefactor does not (the measured-to-estimate ratio is frozen here).
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripop import (
    CouplingRatios,
    IntegratorConfig,
    LevelEnergies,
    OddPair,
    Pulse,
    condition_from_odd_pair,
    cubic_coefficients,
    delta_p2_at_t0,
    delta_p2_early,
    enumerate_conditions,
    harmonic_for_condition,
    integrate,
    leakage_scan,
    measured_deficit,
    measured_delta_p2,
    measured_two_level_deficit,
    two_level_p2_bound,
    two_level_populations,
)
from tripop.errors import InvalidInputError

RNG = np.random.default_rng(23)
FINE = IntegratorConfig(steps_per_period=20000)
SCAN = IntegratorConfig(steps_per_period=4000)


class TestEarlyTimeEstimate:
    def test_degenerate_limit_is_zero(self):
        assert delta_p2_early(1.0, 2.0, 3.0, 0.0, 0.0, 5.0) == 0.0

    def test_zero_time_is_zero(self):
        assert delta_p2_early(1.0, 2.0, 3.0, 0.7, 0.4, 0.0) == 0.0

    def test_exact_quartic_time_scaling(self):
        """estimate(t) / t^4 is constant by construction."""
        ref = delta_p2_early(1.5, 0.7, 1.0, 0.1, 0.05, 1.0)
        for t in (0.3, 0.7, 2.0):
            est = delta_p2_early(1.5, 0.7, 1.0, 0.1, 0.05, t)
            assert est / t**4 == pytest.approx(ref, rel=1e-12)

    def test_vanishes_without_direct_coupling(self):
        """V12(0) = 0 (alpha = 0 drives) zeroes both bracket terms; the
        residual measured difference is higher order and tiny."""
        v0 = 2.2214414690791831
        assert delta_p2_early(0.0, v0, v0, 0.01, 0.02, 0.5) == 0.0
        pulse = Pulse.harmonic(v0, 1.0)
        meas = measured_delta_p2(CouplingRatios(0.0, 1.0), pulse, 0.01, 0.02, 0.5, FINE)
        assert abs(meas) < 1e-5

    @pytest.mark.parametrize("t", [0.05, 0.1, 0.2])
    def test_magnitude_tracks_measurement_in_window(self, cond_15, t):
        """|estimate| lies within 25% of the measured |dual-RK4 difference|
        for drive phases <= 0.2 (documented band).  The printed bracket's
        sign is opposite to (P2_degenerate - P2_split) for positive
        splittings E1 - E_j; magnitudes are what the band covers."""
        pulse = harmonic_for_condition(cond_15, 1.0)
        v12 = cond_15.alpha * pulse.v0
        meas = measured_delta_p2(cond_15.ratios(), pulse, 0.1, 0.0, t, FINE)
        est = delta_p2_early(v12, pulse.v0, pulse.v0, 0.1, 0.0, t)
        assert abs(est) == pytest.approx(abs(meas), rel=0.25)
        assert est * meas < 0.0

    def test_magnitude_tracks_measurement_equal_couplings(self):
        """Same band for an all-equal coupling matrix (alpha = beta = 1)."""
        v0 = 2.2214414690791831
        pulse = Pulse.harmonic(v0, 1.0)
        ratios = CouplingRatios(1.0, 1.0)
        for t in (0.05, 0.1, 0.2):
            meas = measured_delta_p2(ratios, pulse, 0.01, 0.02, t, FINE)
            est = delta_p2_early(v0, v0, v0, 0.01, 0.02, t)
            assert abs(est) == pytest.approx(abs(meas), rel=0.25)

    def test_measured_quartic_constancy(self, cond_15):
        """Measured |difference| / t^4 is constant within 10% over drive
        phases in [0.05, 0.1] (splitting 0.1, so omega12 * t < 0.2)."""
        pulse = harmonic_for_condition(cond_15, 1.0)
        ratios = []
        for t in np.linspace(0.05, 0.1, 5):
            meas = measured_delta_p2(cond_15.ratios(), pulse, 0.1, 0.0, float(t), FINE)
            assert 0.1 * t < 0.2
            ratios.append(abs(meas) / t**4)
        ratios = np.array(ratios)
        assert (ratios.max() - ratios.min()) / ratios.mean() < 0.10


class TestTransferTimeEstimate:
    def test_degenerate_limit_is_zero(self, cond_15):
        assert delta_p2_at_t0(cond_15, 0.0, 0.0) == 0.0

    def test_equal_integer_families_vanish(self, cond_33):
        """Both bracket terms carry n2 - n1, so the alpha = 0 families report
        exactly zero at this order; measured leakage there is genuinely
        nonzero and must come from the oracle instead."""
        assert delta_p2_at_t0(cond_33, 0.05, 0.0) == 0.0
        assert measured_deficit(cond_33, 0.05, 0.0, config=SCAN) > 1e-4

    @pytest.mark.parametrize("omega12_ratio, omega13_ratio", [(1e200, 0.0), (0.0, 1e308), (1.7e308, -1.7e308)])
    def test_equal_integer_families_vanish_past_the_float_range(self, cond_33, cond_15, omega12_ratio, omega13_ratio):
        """The n1 = n2 estimate stays 0 where the other members' terms leave
        the float range, and those members are refused."""
        assert delta_p2_at_t0(cond_33, omega12_ratio, omega13_ratio) == 0.0
        with pytest.raises(InvalidInputError, match="must be finite"):
            delta_p2_at_t0(cond_15, omega12_ratio, omega13_ratio)

    def test_agrees_with_early_time_formula(self, cond_15, cond_351):
        """The family-integer form equals the raw-coupling form at t0 with
        the family's V_ij(0) values, for either r sign."""
        for cond in (cond_15, cond_351):
            omega = 1.0
            v0 = cond.action_t0 * omega
            t0 = math.pi / (2.0 * omega)
            for r12, r13 in ((0.03, 0.0), (0.02, 0.05), (0.1, 0.1)):
                for beta in (1, -1):
                    raw = delta_p2_early(
                        cond.alpha * v0, beta * v0, v0, r12 * omega, r13 * omega, t0
                    )
                    packed = delta_p2_at_t0(replace(cond, beta=beta), r12, r13)
                    assert packed == pytest.approx(raw, rel=1e-12)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_the_family_integer_form(self, sign):
        """The docstring's expression in the family integers, for every
        member with n1 n2 <= 200, either sign of r and either beta."""
        for cond in enumerate_conditions(200):
            n1, n2 = cond.n1, cond.n2
            for beta in (1, -1):
                member = replace(cond, sign=sign, beta=beta)
                for r12, r13 in ((0.03, 0.0), (0.02, 0.05), (-0.1, 0.07)):
                    bracket = (math.pi / 3.0) * beta * n1 * n2 * (n2 - n1) * (2.0 * r13 - r12) + (n2 - n1) ** 2 * r12**2
                    expected = (math.pi / 2.0) ** 6 * bracket / 27.0
                    assert delta_p2_at_t0(member, r12, r13) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_quadratic_scaling_against_measurement(self, cond_15):
        """On the ray 2*omega13 = omega12 the linear term cancels and the
        estimate is purely quadratic; the measured deficit follows the same
        (omega12/omega)^2 law, with a stable estimate-to-measurement ratio
        (~153 for this family: the truncation overestimates the prefactor)."""
        ratios = []
        for r12 in (0.01, 0.02, 0.05):
            est = delta_p2_at_t0(cond_15, r12, r12 / 2.0)
            meas = measured_deficit(cond_15, r12, r12 / 2.0, config=SCAN)
            ratios.append(est / meas)
        ratios = np.array(ratios)
        assert np.all(ratios > 0)
        assert (ratios.max() - ratios.min()) / ratios.mean() < 0.05
        assert ratios.mean() == pytest.approx(153.0, rel=0.1)


class TestMeasuredScan:
    def test_degenerate_run_has_no_deficit(self, cond_33):
        deficits = leakage_scan(cond_33, [(0.0, 0.0)], config=SCAN)
        assert deficits[0] < 1e-6

    def test_monotone_in_splitting(self, cond_15):
        """Deficit grows monotonically along the omega12 ray."""
        grid = [(0.0, 0.0), (0.01, 0.0), (0.02, 0.0), (0.05, 0.0), (0.1, 0.0)]
        deficits = leakage_scan(cond_15, grid, config=SCAN)
        assert all(a < b for a, b in zip(deficits, deficits[1:]))

    def test_smaller_ratio_smaller_deficit(self, cond_33):
        deficits = leakage_scan(cond_33, [(0.1, 0.0), (0.01, 0.0)], config=SCAN)
        assert deficits[0] > deficits[1]

    def test_higher_drive_frequency_reduces_deficit(self, cond_33):
        """Doubling omega at fixed absolute splittings halves the ratios and
        cuts the deficit about fourfold."""
        w12 = 0.05
        base = measured_deficit(cond_33, w12 / 1.0, 0.0, config=SCAN, omega=1.0)
        doubled = measured_deficit(cond_33, w12 / 2.0, 0.0, config=SCAN, omega=2.0)
        assert doubled < base
        assert base / doubled == pytest.approx(4.0, rel=0.1)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-150.0, 150.0))
    @example(-150.0)
    @example(150.0)
    def test_degenerate_deficit_depends_on_the_action_alone(self, cond_15, u):
        """Without splittings the dynamics see the drive only through its
        action, so the deficit at t0 is the same at every omega = 10^u."""
        (deficit,) = leakage_scan(cond_15, [(0.0, 0.0)], config=SCAN, omega=10.0**u)
        (reference,) = leakage_scan(cond_15, [(0.0, 0.0)], config=SCAN)
        assert math.isfinite(deficit)
        assert deficit == pytest.approx(reference, rel=0, abs=1e-12)

    def test_direct_coupling_comes_from_the_condition(self, cond_15):
        """A beta = -1 condition is measured with beta = -1: its deficit is
        that of one RK4 run with those couplings, and not the beta = +1 one."""
        grid = [(0.05, 0.02)]
        (deficit,) = leakage_scan(condition_from_odd_pair(cond_15.pair, beta=-1), grid, config=SCAN)
        trace = integrate(
            CouplingRatios(cond_15.alpha, -1.0), LevelEnergies.from_splittings(0.05, 0.02),
            harmonic_for_condition(cond_15, 1.0), math.pi / 2.0, SCAN,
        )
        assert deficit == pytest.approx(1.0 - trace.p2[-1], rel=0, abs=1e-14)
        assert deficit != pytest.approx(leakage_scan(cond_15, grid, config=SCAN)[0], rel=1e-3)

    def test_target_three_condition_is_refused(self):
        """The deficit is that of level 2, which a target-3 condition empties."""
        cond = condition_from_odd_pair(OddPair(-1, 3), target=3)
        with pytest.raises(ValueError, match="target-2"):
            leakage_scan(cond, [(0.01, 0.0)], config=SCAN)
        with pytest.raises(ValueError, match="target-2"):
            measured_deficit(cond, 0.01, 0.0, config=SCAN)
        with pytest.raises(ValueError, match="target-2"):
            delta_p2_at_t0(cond, 0.01, 0.0)


NON_FINITE = [math.nan, math.inf, -math.inf]
# Each estimate with finite arguments; the test puts a non-finite value in each slot in turn.
# The two-level action is left out: its refusal is the phase refusal of every
# population form, which test_dressed.TestNonFinitePhase checks.
FINITE_CALLS = {
    "delta_p2_early": (delta_p2_early, (1.0, 1.0, 1.0, 0.1, 0.0, 0.5)),
    "delta_p2_at_t0": (partial(delta_p2_at_t0, condition_from_odd_pair(OddPair(-1, 3))), (0.01, 0.0)),
    "two_level_p2_bound": (two_level_p2_bound, (0.0, 0.3)),
    "two_level_populations": (partial(two_level_populations, action=1.0), (0.0, 0.3)),
}


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize(
    "name, slot", [(name, slot) for name, (_, args) in FINITE_CALLS.items() for slot in range(len(args))]
)
def test_non_finite_input_is_refused(name, slot, bad):
    """A NaN or infinite argument raises ValueError instead of returning NaN."""
    function, args = FINITE_CALLS[name]
    assert np.all(np.isfinite(function(*args)))
    with pytest.raises(ValueError, match="must be finite"):
        function(*args[:slot], bad, *args[slot + 1 :])


# Finite floats, with the huge ones whose squares or powers leave the float range drawn often.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.sampled_from([1e100, -1e155, 1e155, 1e200, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closed_forms_are_finite_or_refused(data):
    """For finite input every closed form returns finite values or raises
    InvalidInputError, never a bare OverflowError, NaN or inf."""
    x = [data.draw(FINITE) for _ in range(6)]
    calls = [
        (delta_p2_early, x),
        (delta_p2_at_t0, [data.draw(st.sampled_from(enumerate_conditions(60))), *x[:2]]),
        (cubic_coefficients, [CouplingRatios(x[0], x[1], tuple(x[2:5]))]),
    ]
    for function, args in calls:
        try:
            result = function(*args)
        except InvalidInputError:
            continue
        assert all(map(math.isfinite, np.atleast_1d(result))), (function.__name__, args, result)


@settings(max_examples=300, deadline=None)
@given(FINITE, FINITE, FINITE)
def test_two_level_is_finite_or_refused(eps1, eps2, action):
    """For finite input the two-level reference gives finite populations
    that sum to 1 and respect the bound, or raises InvalidInputError."""
    try:
        p1, p2 = two_level_populations(eps1, eps2, action)
    except InvalidInputError:
        return
    assert math.isfinite(p1) and math.isfinite(p2)
    assert abs(p1 + p2 - 1.0) <= 1e-12
    assert p2 <= two_level_p2_bound(eps1, eps2) + 1e-12


class TestTwoLevel:
    def test_equal_diagonals_sine_squared(self):
        """p2 = sin^2(A) exactly when the diagonal ratios coincide."""
        for a in RNG.uniform(-6, 6, size=40):
            eps = float(RNG.uniform(-2, 2))
            p1, p2 = two_level_populations(eps, eps, float(a))
            assert p2 == pytest.approx(math.sin(float(a)) ** 2, abs=1e-12)
            assert p1 + p2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps, action", [(1e308, 10.0), (-1.7e308, 3.0), (1e200, 1e200)])
    def test_common_shift_past_the_float_range_is_a_global_phase(self, eps, action):
        """Equal diagonals give (cos^2 A, sin^2 A) even where eps A is past the float range."""
        p1, p2 = two_level_populations(eps, eps, action)
        assert p1 == pytest.approx(math.cos(action) ** 2, rel=0, abs=1e-12)
        assert p2 == pytest.approx(math.sin(action) ** 2, rel=0, abs=1e-12)

    def test_quarter_pi_points(self):
        assert two_level_populations(0.3, 0.3, math.pi / 2.0)[1] == pytest.approx(
            1.0, abs=1e-12
        )
        assert two_level_populations(0.3, 0.3, 0.0)[0] == 1.0

    def test_bound_on_random_parameters(self):
        """p2 <= 1/(1 + (eps2-eps1)^2/4) + 1e-12 for 200 random draws."""
        for _ in range(200):
            eps1, eps2 = RNG.uniform(-3, 3, size=2)
            action = float(RNG.uniform(-20, 20))
            _, p2 = two_level_populations(float(eps1), float(eps2), action)
            assert p2 <= two_level_p2_bound(float(eps1), float(eps2)) + 1e-12

    def test_norm(self):
        for _ in range(50):
            eps1, eps2 = RNG.uniform(-3, 3, size=2)
            action = float(RNG.uniform(-20, 20))
            p1, p2 = two_level_populations(float(eps1), float(eps2), action)
            assert p1 + p2 == pytest.approx(1.0, abs=1e-12)

    def test_dense_sweep_attains_bound(self):
        """A dense action sweep reaches the cap 1/2 for eps2 - eps1 = 2."""
        actions = np.linspace(0.0, math.pi, 200001)
        p2 = np.array(
            [two_level_populations(0.0, 2.0, float(a))[1] for a in actions[::100]]
        )
        coarse_best = actions[::100][int(np.argmax(p2))]
        fine = np.linspace(coarse_best - 0.01, coarse_best + 0.01, 20001)
        p2_fine = max(two_level_populations(0.0, 2.0, float(a))[1] for a in fine)
        assert p2_fine == pytest.approx(0.5, abs=1e-9)

    def test_measured_deficit_is_the_two_level_rk4(self):
        """The 3x3 embedding gives what a direct 2x2 RK4 loop gives."""

        def direct(ratio, omega, steps):
            v0, t0 = 0.5 * math.pi * omega, math.pi / (2.0 * omega)
            dt = t0 / steps
            e_diag = np.array([0.0, -ratio * omega], dtype=complex)

            def deriv(t, a):
                return -1j * (e_diag * a + v0 * math.cos(omega * t) * np.array([a[1], a[0]]))

            a = np.array([1.0 + 0.0j, 0.0j])
            for step in range(steps):
                t = step * dt
                k1 = deriv(t, a)
                k2 = deriv(t + 0.5 * dt, a + 0.5 * dt * k1)
                k3 = deriv(t + 0.5 * dt, a + 0.5 * dt * k2)
                k4 = deriv(t + dt, a + dt * k3)
                a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return 1.0 - abs(a[1]) ** 2

        for ratio, omega, steps in ((0.05, 1.0, 600), (0.3, 2.0, 257)):
            config = IntegratorConfig(steps_per_period=4 * steps)  # steps to t0, a quarter period
            assert measured_two_level_deficit(ratio, config, omega) == pytest.approx(
                direct(ratio, omega, steps), rel=0, abs=1e-13
            )

    def test_harmonic_deficit_tracks_quadratic_law(self):
        """Measured two-level deficit scales as (omega12/omega)^2; its
        coefficient is 0.165 (the t0-truncation reference (1/4)(pi/2)^6
        overestimates it 23x, so only the scaling law is contractual)."""
        coeffs = []
        for r in (0.01, 0.02, 0.05):
            coeffs.append(measured_two_level_deficit(r, IntegratorConfig(steps_per_period=4 * 6000)) / r**2)
        coeffs = np.array(coeffs)
        assert (coeffs.max() - coeffs.min()) / coeffs.mean() < 0.02
        assert coeffs.mean() == pytest.approx(0.1654, rel=0.02)
        reference = 0.25 * (math.pi / 2.0) ** 6
        assert reference / coeffs.mean() == pytest.approx(22.7, rel=0.1)

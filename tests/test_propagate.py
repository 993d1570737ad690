"""Tests for the RK4 oracle: unitarity, convergence order, analytic agreement,
ideal-kick propagation, and the two-level decoupling limit."""

import math

import numpy as np
import pytest
from helpers import count_returns
from hypothesis import given, settings
from hypothesis import strategies as st

from tripop import (
    CouplingRatios,
    IntegratorConfig,
    InvalidConfigError,
    LevelEnergies,
    NormDriftExceededError,
    Pulse,
    TwoLevelParams,
    build_dressed_basis,
    check_condition,
    compare_analytic_numeric,
    default_steps_per_period,
    dwell_time,
    export_trace_csv,
    harmonic_for_condition,
    integrate,
    integrate_batch,
    propagate_kick,
    require_traces,
    two_level_populations,
    verify_conditions,
)
from tripop.propagate import _rk4

RNG = np.random.default_rng(19)

T = 2.0 * math.pi  # one drive period at omega = 1
RATIOS_33 = CouplingRatios(alpha=0.0, beta=1.0)
DEGENERATE = LevelEnergies.degenerate()


class TestIntegrate:
    def test_zero_drive_is_stationary(self):
        trace = integrate(
            CouplingRatios(1.7, 0.3),
            DEGENERATE,
            Pulse.constant(0.0),
            5.0,
            IntegratorConfig(steps_per_period=1000),
        )
        np.testing.assert_allclose(trace.populations, [[1.0, 0.0, 0.0]] * len(trace.times))

    def test_complete_transfer_at_quarter_and_three_quarter_period(self, cond_33):
        """The alpha = 0 drive empties level 1 into level 2 at T/4 and 3T/4."""
        pulse = harmonic_for_condition(cond_33, 1.0)
        trace = integrate(RATIOS_33, DEGENERATE, pulse, T, IntegratorConfig(steps_per_period=8000))
        for frac in (0.25, 0.75):
            idx = int(np.argmin(np.abs(trace.times - frac * T)))
            assert trace.p2[idx] == pytest.approx(1.0, abs=1e-6)
        assert trace.norm_drift < 1e-8

    def test_off_family_drive_revives_but_never_transfers(self):
        """alpha = 2, A(t0) = 1.5: transfer stays incomplete over the period
        (max P2 = 0.686), while the populations revive to the initial state
        exactly twice, where the action crosses zero at T/2 and T."""
        trace = integrate(
            CouplingRatios(2.0, 1.0),
            DEGENERATE,
            Pulse.harmonic(1.5, 1.0),
            T,
            IntegratorConfig(steps_per_period=8000),
        )
        assert trace.p2.max() < 0.999
        assert trace.p2.max() == pytest.approx(0.6859, abs=5e-4)
        assert count_returns(trace.p1, 1.0 - 1e-3, below=False) == 2
        for frac in (0.5, 1.0):
            idx = int(np.argmin(np.abs(trace.times - frac * T)))
            assert trace.p1[idx] == pytest.approx(1.0, abs=1e-8)
        # the initial-state population never empties for these parameters
        assert trace.p1.min() == pytest.approx(0.0319, abs=5e-4)

    def test_rejects_ideal_kick(self):
        with pytest.raises(InvalidConfigError):
            integrate(RATIOS_33, DEGENERATE, Pulse.ideal_kick(1.0, 0.5), 1.0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(InvalidConfigError):
            integrate(RATIOS_33, DEGENERATE, Pulse.constant(1.0), 0.0)

    def test_norm_drift_guard(self):
        """A grossly large step trips the drift guard instead of returning junk."""
        with pytest.raises(NormDriftExceededError):
            integrate(
                CouplingRatios(8.0, 1.0),
                DEGENERATE,
                Pulse.harmonic(8.0, 1.0),
                T,
                IntegratorConfig(dt=0.3),
            )

    def test_nan_drift_trips_the_guard(self):
        """An overflowing drive gives NaN amplitudes; the guard must not read
        their drift as zero."""
        with pytest.raises(NormDriftExceededError):
            integrate(
                RATIOS_33, DEGENERATE, Pulse.constant(1e160), 1.0,
                IntegratorConfig(steps_per_period=50),
            )

    def test_whole_step_count_is_kept(self):
        """t / (t / n) can round to just above n; the run still takes n steps."""
        t, n = math.pi / 2.0, 20730
        trace = integrate(RATIOS_33, DEGENERATE, Pulse.constant(1.0), t, IntegratorConfig(dt=t / n, record_every=n))
        assert len(trace.times) == 2
        assert trace.times[-1] == pytest.approx(t, rel=1e-15)

    def test_nondegenerate_norm_conserved(self):
        """Splittings change populations but the evolution stays unitary."""
        energies = LevelEnergies.from_splittings(0.3, -0.2)
        trace = integrate(
            RATIOS_33, energies, Pulse.harmonic(2.0, 1.0), T, IntegratorConfig(steps_per_period=4000)
        )
        assert trace.norm_drift < 1e-10
        assert energies.omega12 == pytest.approx(0.3)
        assert energies.omega13 == pytest.approx(-0.2)


def stagewise_rk4(k, e, pulse, dt, n_steps):
    """Amplitudes after every step of a plain four-stage RK4 loop."""

    def deriv(t, a):
        return -1j * (e * a + pulse.value(t) * (k @ a))

    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    out = [a]
    for step in range(n_steps):
        t = step * dt
        k1 = deriv(t, a)
        k2 = deriv(t + 0.5 * dt, a + 0.5 * dt * k1)
        k3 = deriv(t + 0.5 * dt, a + 0.5 * dt * k2)
        k4 = deriv(t + dt, a + dt * k3)
        a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(a)
    return np.array(out)


_unit = st.floats(-2.0, 2.0)


@st.composite
def rk4_runs(draw):
    """N in 1..5 runs of random symmetric K, split E, pulse and step, sharing a step count."""
    n_runs = draw(st.integers(1, 5))
    n_steps = draw(st.integers(40, 300))
    record_every = draw(st.integers(3, 17).filter(lambda r: n_steps % r))
    runs = []
    for _ in range(n_runs):
        upper = np.array(draw(st.lists(_unit, min_size=6, max_size=6)))
        k = np.zeros((3, 3))
        k[np.triu_indices(3)] = upper
        k = k + np.triu(k, 1).T
        e = np.array(draw(st.lists(_unit, min_size=3, max_size=3)))
        t_end = draw(st.floats(0.2, 2.0))
        shape = draw(st.sampled_from(("harmonic", "gaussian_kick", "tabulated")))
        if shape == "harmonic":
            pulse = Pulse.harmonic(draw(_unit), draw(st.floats(0.5, 5.0)))
        elif shape == "gaussian_kick":
            pulse = Pulse.gaussian_kick(draw(_unit), draw(st.floats(0.0, t_end)), draw(st.floats(0.1, 1.0)))
        else:
            knots = np.linspace(-0.5, t_end + 0.5, draw(st.integers(2, 12)))
            pulse = Pulse.tabulated(knots, draw(st.lists(_unit, min_size=len(knots), max_size=len(knots))))
        runs.append((k, e, pulse, t_end / n_steps))
    return runs, n_steps, record_every


class TestBatchedCore:
    @settings(max_examples=40, deadline=None)
    @given(rk4_runs())
    def test_core_matches_stagewise_rk4(self, case):
        """The step-matrix core is the four-stage RK4, run by run, at every record."""
        runs, n_steps, record_every = case
        k = np.array([r[0] for r in runs])
        e = np.array([r[1] for r in runs])
        dt = np.array([r[3] for r in runs])
        steps, pops, amps = _rk4(k, e, [r[2] for r in runs], dt, n_steps, record_every, True)
        assert steps.tolist() == [*range(0, n_steps, record_every), n_steps]
        for i, (ki, ei, pulse, dti) in enumerate(runs):
            reference = stagewise_rk4(ki, ei, pulse, dti, n_steps)[steps]
            np.testing.assert_allclose(amps[i], reference, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(pops[i], np.abs(amps[i]) ** 2)

    def test_batch_matches_integrate(self, cond_15):
        """Each run of a batch gives the times, record count and populations
        of its own ``integrate`` call; the stride does not divide the step count."""
        config = IntegratorConfig(steps_per_period=2002, record_every=7)
        pulse = harmonic_for_condition(cond_15, 1.0)
        cases = [
            (cond_15.ratios(), DEGENERATE),
            (cond_15.ratios(beta=-1), LevelEnergies.from_splittings(0.1, 0.05)),
            (RATIOS_33, LevelEnergies.from_splittings(-0.3, 0.2)),
        ]
        runs = [(ratios.coupling_matrix(), energies, pulse, T / 4) for ratios, energies in cases]
        batch = require_traces(integrate_batch(runs, config))
        for (ratios, energies), trace in zip(cases, batch):
            single = integrate(ratios, energies, pulse, T / 4, config)
            assert len(trace.times) == len(single.times) == 501 // 7 + 2
            np.testing.assert_array_equal(trace.times, single.times)
            np.testing.assert_allclose(trace.populations, single.populations, rtol=0, atol=1e-14)

    def test_one_run_over_the_drift_limit(self):
        """A run that drifts fails alone; the others return their traces."""
        config = IntegratorConfig(dt=0.05)
        pulse = Pulse.harmonic(1.0, 1.0)
        calm = RATIOS_33.coupling_matrix()
        runs = [(calm, DEGENERATE, pulse, T), (8.0 * calm, DEGENERATE, pulse, T), (calm, DEGENERATE, pulse, T)]
        results = integrate_batch(runs, config)
        assert isinstance(results[1], NormDriftExceededError)
        single = integrate(RATIOS_33, DEGENERATE, pulse, T, config)
        for trace in (results[0], results[2]):
            np.testing.assert_allclose(trace.populations, single.populations, rtol=0, atol=1e-14)
        with pytest.raises(NormDriftExceededError):
            require_traces(results)

    def test_verify_fails_only_the_drifting_rows(self):
        """At 500 steps per period the high-product conditions drift past the
        limit and fail alone; every row equals its own single check."""
        checks = verify_conditions(35, steps_per_period=500)
        drifting = [c for c in checks if math.isinf(c.ode_deviation)]
        assert 0 < len(drifting) < len(checks)
        for c in checks:
            single = check_condition(c.condition, steps_per_period=500)
            assert single.passed == c.passed
            if math.isinf(c.ode_deviation):
                assert math.isinf(single.ode_deviation)
            else:
                assert single.ode_deviation == pytest.approx(c.ode_deviation, rel=0, abs=1e-14)

    def test_rejects_unusable_batches(self):
        k = RATIOS_33.coupling_matrix()
        pulse = Pulse.harmonic(1.0, 1.0)
        config = IntegratorConfig(steps_per_period=100)
        with pytest.raises(InvalidConfigError):  # 25 vs 50 steps
            integrate_batch([(k, DEGENERATE, pulse, T / 4), (k, DEGENERATE, pulse, T / 2)], config)
        lopsided = k.copy()
        lopsided[0, 1] = 3.0
        for bad in (lopsided, k[:2, :2], np.full((3, 3), np.nan)):
            with pytest.raises(InvalidConfigError):
                integrate_batch([(bad, DEGENERATE, pulse, 1.0)], config)
        assert integrate_batch([], config) == []


class TestAnalyticAgreement:
    def test_condition_drives(self, cond_33, cond_15, fast_config):
        """RK4 equals the dressed populations for family drives."""
        for cond in (cond_33, cond_15):
            pulse = harmonic_for_condition(cond, 1.0)
            dev = compare_analytic_numeric(cond.ratios(), pulse, T, fast_config)
            assert dev < 1e-6

    def test_off_family_drive(self, fast_config):
        """Agreement does not depend on the transfer being complete."""
        dev = compare_analytic_numeric(
            CouplingRatios(2.0, 1.0), Pulse.harmonic(1.5, 1.0), T, fast_config
        )
        assert dev < 1e-6

    def test_random_configurations(self):
        """50 random degenerate configs (beta = +-1, |alpha| <= 10) agree to 1e-6."""
        config = IntegratorConfig(steps_per_period=4000)
        count = 0
        while count < 50:
            alpha = float(RNG.uniform(-10, 10))
            if abs(abs(alpha) - 1.0) < 0.05:
                continue
            beta = float(RNG.choice([-1.0, 1.0]))
            ratios = CouplingRatios(alpha=alpha, beta=beta)
            dev = compare_analytic_numeric(ratios, Pulse.harmonic(0.5, 1.0), T, config)
            assert dev < 1e-6, (alpha, beta, dev)
            count += 1

    def test_fourth_order_convergence(self):
        """Halving the step cuts the deviation by 12x-20x (asymptotically 16x)."""
        pulse = Pulse.harmonic(2.2214414690791831, 1.0)
        devs = [
            compare_analytic_numeric(RATIOS_33, pulse, T, IntegratorConfig(steps_per_period=n))
            for n in (250, 500, 1000)
        ]
        for coarse, fine in zip(devs, devs[1:]):
            assert 12.0 < coarse / fine < 20.0


class TestPropagateKick:
    def test_zero_area_is_identity(self, basis_33):
        state = propagate_kick(basis_33, 0.0)
        np.testing.assert_allclose(state.a, [1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("n_odd", [1, 3])
    def test_odd_kick_areas_transfer(self, basis_33, n_odd):
        """Kick areas n_odd * pi/sqrt(2) fully occupy level 2."""
        state = propagate_kick(basis_33, n_odd * math.pi / math.sqrt(2.0))
        assert abs(state.a[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_kicks_converge_to_spectral_result(self, basis_33):
        """Shrinking-width Gaussian kicks on split levels approach the ideal
        kick monotonically (widths in a geometric sequence)."""
        area = math.pi / math.sqrt(2.0)
        ideal_p2 = abs(propagate_kick(basis_33, area).a[1]) ** 2
        energies = LevelEnergies.from_splittings(1.0, 1.0)
        errors = []
        for width in (0.1, 0.05, 0.025):
            pulse = Pulse.gaussian_kick(area, 10.0 * width, width)
            trace = integrate(
                RATIOS_33, energies, pulse, 20.0 * width, IntegratorConfig(dt=width / 1000.0)
            )
            errors.append(abs(ideal_p2 - trace.p2[-1]))
        assert errors[0] > errors[1] > errors[2]


class TestTwoLevelLimit:
    def test_level3_decouples_as_alpha_grows(self):
        """With beta = 0 and the 1-2 coupling held fixed, growing alpha sends
        the 2-3 and 1-3 couplings to zero and the dynamics to the two-level
        solution sin^2(A12)."""
        for alpha, tol in ((1e3, 1e-4), (1e5, 1e-8)):
            pulse = Pulse.harmonic(1.0 / alpha, 1.0)  # alpha * v0 = 1
            trace = integrate(
                CouplingRatios(alpha, 0.0),
                DEGENERATE,
                pulse,
                T,
                IntegratorConfig(steps_per_period=4000),
            )
            a12 = np.sin(trace.times)  # action of the fixed 1-2 coupling
            np.testing.assert_allclose(trace.p2, np.sin(a12) ** 2, atol=tol)
            two_level = np.array(
                [two_level_populations(TwoLevelParams(0.0, 0.0, a))[1] for a in a12]
            )
            np.testing.assert_allclose(trace.p2, two_level, atol=tol)


class TestTraceUtilities:
    def test_dwell_time_diagnostic(self, cond_33):
        """Time spent above 0.99 shrinks when the drive frequency doubles."""
        dwell = []
        for omega in (1.0, 2.0):
            pulse = harmonic_for_condition(cond_33, omega)
            trace = integrate(
                RATIOS_33, DEGENERATE, pulse, 2 * math.pi / omega,
                IntegratorConfig(steps_per_period=4000),
            )
            dwell.append(dwell_time(trace, threshold=0.99))
        assert dwell[0] > 0.0
        assert dwell[1] == pytest.approx(dwell[0] / 2.0, rel=5e-2)

    def test_csv_export_round_trips(self, tmp_path, cond_33):
        pulse = harmonic_for_condition(cond_33, 1.0)
        trace = integrate(
            RATIOS_33, DEGENERATE, pulse, 1.0,
            IntegratorConfig(steps_per_period=1000), record_amplitudes=True,
        )
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, path)
        raw = np.genfromtxt(path, delimiter=",", names=True)
        assert set(raw.dtype.names) >= {"t", "p1", "p2", "p3", "re_a1", "im_a3"}
        np.testing.assert_allclose(raw["p2"], trace.p2, rtol=0, atol=0)
        np.testing.assert_allclose(
            raw["re_a1"] ** 2 + raw["im_a1"] ** 2, trace.populations[:, 0], atol=1e-14
        )

    def test_default_steps_env_override(self, monkeypatch):
        assert default_steps_per_period() == 20000
        monkeypatch.setenv("TRIPOP_STEPS", "1234")
        assert default_steps_per_period() == 1234
        monkeypatch.setenv("TRIPOP_STEPS", "-5")
        with pytest.raises(InvalidConfigError):
            default_steps_per_period()

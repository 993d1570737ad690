"""Tests for the RK4 oracle: unitarity, convergence order, analytic agreement,
ideal-kick propagation, and the two-level decoupling limit."""

import functools
import logging
import math
from dataclasses import replace

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
    build_dressed_basis,
    check_condition,
    compare_analytic_numeric,
    enumerate_conditions,
    harmonic_for_condition,
    integrate,
    integrate_batch,
    leakage_scan,
    propagate_kick,
    require_traces,
    two_level_populations,
    verify_conditions,
)
from tripop import propagate
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

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(InvalidConfigError):
            integrate(RATIOS_33, DEGENERATE, Pulse.constant(1.0), 0.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_rejects_nonfinite_horizon(self, t_end):
        with pytest.raises(InvalidConfigError, match="positive and finite"):
            integrate(RATIOS_33, DEGENERATE, Pulse.constant(1.0), t_end)

    def test_norm_drift_guard(self):
        """A grossly large step trips the drift guard instead of returning junk."""
        with pytest.raises(NormDriftExceededError):
            integrate(
                CouplingRatios(8.0, 1.0),
                DEGENERATE,
                Pulse.harmonic(8.0, 1.0),
                T,
                IntegratorConfig(steps_per_period=21),
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
        config = IntegratorConfig(steps_per_period=n, record_every=n)
        trace = integrate(RATIOS_33, DEGENERATE, Pulse.constant(1.0), t, config)
        assert len(trace.times) == 2
        assert trace.times[-1] == pytest.approx(t, rel=1e-15)

    def test_huge_step_count_is_kept_whole(self, monkeypatch):
        """1e9 drive periods at the default step are exactly 2e13 steps; a
        guard relative to the whole count would drop 20 of them."""
        counts = []

        class Reached(Exception):
            pass

        def reached(k, e, pulses, dt, n_steps, *args):
            counts.append(n_steps)
            raise Reached

        monkeypatch.setattr(propagate, "_rk4", reached)
        pulse = Pulse.harmonic(1.0, 1.0)
        with pytest.raises(Reached):
            integrate(RATIOS_33, DEGENERATE, pulse, 1e9 * pulse.period, IntegratorConfig(record_every=10**9))
        assert counts == [2 * 10**13]

    @pytest.mark.parametrize("field", ["steps_per_period", "record_every"])
    def test_counts_past_2_53_are_refused(self, field):
        """Both counts must convert to floats exactly."""
        assert getattr(IntegratorConfig(**{field: 2**53}), field) == 2**53
        with pytest.raises(InvalidConfigError, match="2\\*\\*53"):
            IntegratorConfig(**{field: 2**53 + 1})

    @pytest.mark.parametrize("field, value", [("record_every", 2.5), ("steps_per_period", 4000.5)])
    def test_non_integer_counts_are_refused(self, field, value):
        """A fractional count is refused when the config is built, not deep in the core."""
        with pytest.raises(InvalidConfigError, match="integers"):
            IntegratorConfig(**{field: value})

    def test_nondegenerate_norm_conserved(self):
        """Splittings change populations but the evolution stays unitary."""
        energies = LevelEnergies.from_splittings(0.3, -0.2)
        trace = integrate(
            RATIOS_33, energies, Pulse.harmonic(2.0, 1.0), T, IntegratorConfig(steps_per_period=4000)
        )
        assert trace.norm_drift < 1e-10
        assert energies.omega12 == pytest.approx(0.3)
        assert energies.omega13 == pytest.approx(-0.2)


_unit = st.floats(-2.0, 2.0)


def stagewise_step(k, e, v, dt, a):
    """One four-stage RK4 step of i da/dt = (diag(e) + V k) a, with V = v[0],
    v[1], v[2] at the step's start, midpoint and end."""

    def deriv(vt, a):
        return -1j * (e * a + vt * (k @ a))

    k1 = deriv(v[0], a)
    k2 = deriv(v[1], a + 0.5 * dt * k1)
    k3 = deriv(v[1], a + 0.5 * dt * k2)
    k4 = deriv(v[2], a + dt * k3)
    return a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def stagewise_rk4(k, e, pulse, dt, n_steps):
    """Amplitudes after every step of a plain four-stage RK4 loop."""
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    out = [a]
    for step in range(n_steps):
        t = step * dt
        a = stagewise_step(k, e, [pulse.value(t), pulse.value(t + 0.5 * dt), pulse.value(t + dt)], dt, a)
        out.append(a)
    return np.array(out)


def _symmetric(draw):
    upper = np.array(draw(st.lists(_unit, min_size=6, max_size=6)))
    k = np.zeros((3, 3))
    k[np.triu_indices(3)] = upper
    return k + np.triu(k, 1).T


@st.composite
def rk4_runs(draw):
    """N runs of random symmetric K, split E, pulse and step, sharing a step count.

    N in {1, 2, 5, 17, 40} gives chunks of 256 down to 6 steps, so the stride
    falls on either side of a chunk; strides that divide the step count and
    a stride of the whole run are drawn too.
    """
    n_runs = draw(st.sampled_from((1, 2, 5, 17, 40)))
    n_steps = draw(st.integers(40, 300))
    divisors = [d for d in range(1, n_steps + 1) if n_steps % d == 0]
    record_every = draw(st.one_of(
        st.integers(3, 17), st.integers(1, n_steps), st.sampled_from(divisors), st.just(n_steps)
    ))
    runs = []
    for _ in range(n_runs):
        k = _symmetric(draw)
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
        """The step-matrix core is the four-stage RK4, run by run, at every
        record; the first, middle and last runs of a batch are checked."""
        runs, n_steps, record_every = case
        k = np.array([r[0] for r in runs])
        e = np.array([r[1] for r in runs])
        dt = np.array([r[3] for r in runs])
        steps, pops, amps = _rk4(k, e, [r[2] for r in runs], dt, n_steps, record_every, True)
        assert steps.tolist() == [*range(0, n_steps, record_every), n_steps]
        np.testing.assert_array_equal(pops, np.abs(amps) ** 2)
        for i in sorted({0, len(runs) // 2, len(runs) - 1}):
            ki, ei, pulse, dti = runs[i]
            reference = stagewise_rk4(ki, ei, pulse, dti, n_steps)[steps]
            np.testing.assert_allclose(amps[i], reference, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_monomial_matrices_make_one_rk4_step(self, data):
        """I + sum_m mu_m(v0, vh, v1) M_m is one four-stage step, column by
        column of the real block form, for random K, split E, h and drive
        samples with h |v| ||K|| <= 1."""
        k = _symmetric(data.draw)
        e = np.array(data.draw(st.lists(_unit, min_size=3, max_size=3)))
        v = np.array(data.draw(st.lists(_unit, min_size=3, max_size=3)))
        h = data.draw(st.floats(1e-6, 1.0)) / max(1.0, np.max(np.abs(v)) * np.linalg.norm(k, 2))
        m = propagate._step_coefficients(k[None], e[None], np.array([h]))[0]
        mono = np.prod(v ** np.array(propagate._MONOMIALS), axis=1)
        p = np.eye(6) + np.tensordot(mono, m, 1)
        for column, a in enumerate([*np.eye(3), *(1j * np.eye(3))]):
            expected = stagewise_step(k, e, v, h, a)
            np.testing.assert_allclose(p[:, column], [*expected.real, *expected.imag], rtol=0, atol=1e-14)

    def test_long_run_has_no_per_step_rounding_bias(self, cond_15):
        """20,000 steps of the kick subcommand's width-0.05 Gaussian on split
        levels: a rounding bias repeated in every step grows with the run
        length, past what the property's 300 steps can show."""
        k = cond_15.ratios().coupling_matrix()
        e = np.array(LevelEnergies.from_splittings(1.0, 1.0).e)
        pulse = Pulse.gaussian_kick(cond_15.action_t0, 0.5, 0.05)
        n_steps, dt = 20000, 1.0 / 20000
        steps, _, amps = _rk4(k[None], e[None], [pulse], np.array([dt]), n_steps, 10, True)
        reference = stagewise_rk4(k, e, pulse, dt, n_steps)[steps]
        np.testing.assert_allclose(amps[0], reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length", [1, 2, 3, 6, 7, 16])
    def test_tree_products_multiply_in_order(self, length):
        """Each row's product is p[L-1] @ ... @ p[0], for odd and even L."""
        p = np.eye(6) + 0.3 * np.random.default_rng(length).normal(size=(4, length, 6, 6))
        expected = [functools.reduce(lambda acc, x: x @ acc, row) for row in p]
        np.testing.assert_allclose(propagate._tree_products(p), expected, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("length", range(1, 18))
    def test_prefix_products_are_running_products(self, length):
        """s[j] = q[j] @ ... @ q[0], lengths on and off the powers of two."""
        q = np.eye(6) + 0.3 * np.random.default_rng(length).normal(size=(length, 2, 6, 6))
        expected = [q[0]]
        for x in q[1:]:
            expected.append(x @ expected[-1])
        np.testing.assert_allclose(propagate._prefix_products(q), expected, rtol=1e-13, atol=1e-13)

    def test_drive_is_sampled_once_per_block(self, monkeypatch):
        """25 runs of 5,000 steps take chunks of 10 steps, but each run's drive
        is sampled once per block of 250 steps: 20 calls of 501 half-step times."""
        sampled = []
        value = Pulse.value
        monkeypatch.setattr(Pulse, "value", lambda pulse, t: sampled.append(np.size(t)) or value(pulse, t))
        run = (RATIOS_33.coupling_matrix(), DEGENERATE, Pulse.harmonic(1.0, 1.0), T / 4)
        traces = require_traces(integrate_batch([run] * 25, IntegratorConfig(steps_per_period=20000)))
        assert len(traces[0].times) == 501
        assert sampled == [501] * (25 * 20)

    def test_batch_is_logged(self, caplog):
        """One debug record per batch; a warning names the run whose drift
        passes a tenth of the limit.  The package adds no handler."""
        caplog.set_level(logging.DEBUG, logger="tripop")
        config = IntegratorConfig(steps_per_period=126)
        pulse = Pulse.harmonic(1.0, 1.0)
        calm = RATIOS_33.coupling_matrix()
        integrate_batch([(calm, DEGENERATE, pulse, T)] * 3, config)
        integrate_batch([(calm, DEGENERATE, pulse, T), (8.0 * calm, DEGENERATE, pulse, T)], config)
        records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
        assert [level for _, level, _ in records] == ["DEBUG", "DEBUG", "WARNING"]
        assert {name for name, _, _ in records} == {"tripop"}
        assert records[0][2].startswith(
            "RK4 batch: 3 runs x 126 steps, record every 10, chunks of 80 steps, drive blocks of 240 steps"
        )
        assert "in 1 of 2 RK4 runs" in records[2][2] and records[2][2].endswith("in run 1")
        assert logging.getLogger("tripop").handlers == []

    def test_batch_matches_integrate(self, cond_15):
        """Each run of a batch gives the times, record count and populations
        of its own ``integrate`` call; the stride does not divide the step count."""
        config = IntegratorConfig(steps_per_period=2002, record_every=7)
        pulse = harmonic_for_condition(cond_15, 1.0)
        cases = [
            (cond_15.ratios(), DEGENERATE),
            (replace(cond_15, beta=-1).ratios(), LevelEnergies.from_splittings(0.1, 0.05)),
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
        config = IntegratorConfig(steps_per_period=126)
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

    def test_records_past_the_cap_are_refused(self, monkeypatch):
        """Runs x records, counted with the final record of a stride that
        does not divide the step count, may reach the cap but not pass it."""
        monkeypatch.setattr(propagate, "MAX_RUN_RECORDS", 12)
        k = RATIOS_33.coupling_matrix()
        run = (k, DEGENERATE, Pulse.constant(1.0), 1.0)
        even = IntegratorConfig(steps_per_period=10, record_every=2)  # records at 0, 2, ..., 10
        odd = IntegratorConfig(steps_per_period=11, record_every=2)  # 0, 2, ..., 10 and 11
        assert [len(t.times) for t in require_traces(integrate_batch([run] * 2, even))] == [6, 6]
        with pytest.raises(InvalidConfigError, match="make 18 records"):
            integrate_batch([run] * 3, even)
        with pytest.raises(InvalidConfigError, match="make 14 records"):
            integrate_batch([run] * 2, odd)

    def test_cli_sized_batches_pass_the_cap(self, monkeypatch):
        """verify and leakage put every member or grid point in one batch of
        501 records at the default step: 4,500 of each pass the cap and reach
        the integrator, as does a single run of exactly MAX_RUN_RECORDS."""

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(propagate, "_rk4", reached)
        with pytest.raises(Reached):
            verify_conditions(4500)
        cond = enumerate_conditions(35)[0]
        with pytest.raises(Reached):
            leakage_scan(cond, [(0.01 * i, 0.02 * i) for i in range(1, 4001)])
        run = (RATIOS_33.coupling_matrix(), DEGENERATE, Pulse.constant(1.0), 1.0)
        at_cap = propagate.MAX_RUN_RECORDS - 1  # steps, so records 0 .. at_cap
        with pytest.raises(Reached):
            integrate_batch([run], IntegratorConfig(steps_per_period=at_cap, record_every=1))
        with pytest.raises(InvalidConfigError, match="past the cap"):
            integrate_batch([run], IntegratorConfig(steps_per_period=at_cap + 1, record_every=1))

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
                RATIOS_33, energies, pulse, 20.0 * width, IntegratorConfig(steps_per_period=20000)
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
                [two_level_populations(0.0, 0.0, a)[1] for a in a12]
            )
            np.testing.assert_allclose(trace.p2, two_level, atol=tol)

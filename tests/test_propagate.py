"""Tests for the RK4 oracle: unitarity, convergence order, analytic agreement,
ideal-kick propagation, and the two-level decoupling limit."""

import functools
import itertools
import logging
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from helpers import (
    compare_analytic_numeric,
    count_returns,
    prefix_products_reference,
    scalar_rk4,
    tree_products_reference,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripop import (
    CouplingRatios,
    IntegratorConfig,
    InvalidInputError,
    LevelEnergies,
    NormDriftExceededError,
    Pulse,
    build_dressed_basis,
    check_condition,
    classify_cases,
    condition_from_odd_pair,
    enumerate_conditions,
    harmonic_for_condition,
    integrate,
    integrate_batch,
    leakage_scan,
    populations_closed_form_array,
    propagate_kick,
    two_level_populations,
    verify_conditions,
)
from tripop import propagate, verification
from tripop.propagate import _rk4
from tripop.verification import ODE_TOL

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
        with pytest.raises(InvalidInputError):
            integrate(RATIOS_33, DEGENERATE, Pulse.constant(1.0), 0.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_rejects_nonfinite_horizon(self, t_end):
        with pytest.raises(InvalidInputError, match="positive and finite"):
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

    def test_overflowing_couplings_trip_the_guard_without_a_warning(self, caplog):
        """Couplings of 1e200 overflow while the step coefficients are built;
        the run ends in the drift error, not a numpy RuntimeWarning, and the
        logger still reports the drift."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormDriftExceededError, match="nan"):
                integrate(
                    CouplingRatios(1e200, 1.0), DEGENERATE, Pulse.harmonic(1.0, 1.0), T,
                    IntegratorConfig(steps_per_period=100),
                )
        assert any(r.name == "tripop" and r.levelname == "WARNING" and "norm drift" in r.getMessage()
                   for r in caplog.records)

    def test_whole_step_count_is_kept(self):
        """t / (t / n) can round to just above n; the run still takes n steps."""
        t, n = math.pi / 2.0, 20730
        config = IntegratorConfig(steps_per_period=n)
        pulse = Pulse.constant(1.0)
        assert config.step_count(pulse, t) == n
        trace = integrate(RATIOS_33, DEGENERATE, pulse, t, config)
        assert trace.times[-1] == pytest.approx(t, rel=1e-15)

    def test_huge_step_count_is_kept_whole(self):
        """1e9 drive periods at the default step are exactly 2e13 steps; a
        guard relative to the whole count would drop 20 of them."""
        pulse = Pulse.harmonic(1.0, 1.0)
        assert IntegratorConfig().step_count(pulse, 1e9 * pulse.period) == 2 * 10**13

    @pytest.mark.parametrize("field", ["steps_per_period"])
    def test_counts_past_2_53_are_refused(self, field):
        """The step count must convert to floats exactly."""
        assert getattr(IntegratorConfig(**{field: 2**53}), field) == 2**53
        with pytest.raises(InvalidInputError, match="2\\*\\*53"):
            IntegratorConfig(**{field: 2**53 + 1})

    @pytest.mark.parametrize("field, value", [("steps_per_period", 4000.5)])
    def test_non_integer_counts_are_refused(self, field, value):
        """A fractional count is refused when the config is built, not deep in the core."""
        with pytest.raises(InvalidInputError, match="integer"):
            IntegratorConfig(**{field: value})

    def test_nondegenerate_norm_conserved(self):
        """Splittings change populations but the evolution stays unitary."""
        energies = LevelEnergies.from_splittings(0.3, -0.2)
        trace = integrate(
            RATIOS_33, energies, Pulse.harmonic(2.0, 1.0), T, IntegratorConfig(steps_per_period=4000)
        )
        assert trace.norm_drift < 1e-10
        assert energies.e == (0.0, -0.3, 0.2)


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


def _drive(draw, t_end):
    """A harmonic, constant, Gaussian or tabulated drive for a run to t_end."""
    shape = draw(st.sampled_from(("harmonic", "constant", "gaussian_kick", "tabulated")))
    if shape == "harmonic":
        return Pulse.harmonic(draw(_unit), draw(st.floats(0.5, 5.0)))
    if shape == "constant":
        return Pulse.constant(draw(_unit))
    if shape == "gaussian_kick":
        return Pulse.gaussian_kick(draw(_unit), draw(st.floats(0.0, t_end)), draw(st.floats(0.1, 1.0)))
    knots = np.linspace(-0.5, t_end + 0.5, draw(st.integers(2, 12)))
    return Pulse.tabulated(knots, draw(st.lists(_unit, min_size=len(knots), max_size=len(knots))))


@st.composite
def rk4_runs(draw):
    """N runs of random symmetric K, split E, pulse and step, sharing a step
    count, with the core's chunk budget and drive block to run them at.

    N in {1, 2, 5, 17, 40} at a budget of 1, 64 or 1,024 configuration-steps
    gives chunks from one record interval up to 1,024 steps; strides that
    divide the step count and a stride of the whole run are drawn too.
    Drive blocks of 16 steps are crossed in every run, blocks of 256 only in
    the longer runs.
    """
    budget = draw(st.sampled_from((1, 64, 1024)))
    block = draw(st.sampled_from((16, 256)))
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
        runs.append((k, e, _drive(draw, t_end), t_end / n_steps))
    return runs, n_steps, record_every, budget, block


@st.composite
def degenerate_batches(draw):
    """Runs of random symmetric K on degenerate levels, each on one of up to
    three drives of the four shapes, at a record stride of 3, 7, 10 or 100.

    At the default budget and block, 1 to 103 runs of 40 to 1,500 steps
    take chunks from one record interval up to 1,023 steps and cross the
    chunk and drive-block edges; the last record interval may be shorter
    than the stride, and a run of fewer steps than the stride records only
    its ends.  Returns the (K, E, pulse, t_end) runs, the step count and the
    stride.
    """
    n_runs = draw(st.sampled_from((1, 2, 17, 40, 103)))
    n_steps = draw(st.integers(40, 1500))
    stride = draw(st.sampled_from((3, 7, 10, 100)))
    drives = [(_drive(draw, t_end), t_end) for t_end in draw(st.lists(st.floats(0.2, 2.0), min_size=1, max_size=3))]
    k = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-2.0, 2.0, (n_runs, 3, 3))
    k = 0.5 * (k + k.transpose(0, 2, 1))
    return [(k[i], np.zeros(3), *drives[i % len(drives)]) for i in range(n_runs)], n_steps, stride


def run_core(runs, n_steps, record_every, budget=propagate._CHUNK_CONFIG_STEPS, block=propagate._DRIVE_BLOCK_STEPS):
    """_rk4 on (K, E, pulse, dt) runs at the given record stride, chunk budget and drive block."""
    k = np.array([r[0] for r in runs])
    e = np.array([r[1] for r in runs])
    dt = np.array([r[3] for r in runs])
    with (
        patch.object(propagate, "RECORD_EVERY", record_every),
        patch.object(propagate, "_CHUNK_CONFIG_STEPS", budget),
        patch.object(propagate, "_DRIVE_BLOCK_STEPS", block),
    ):
        return _rk4(k, e, [r[2] for r in runs], dt, n_steps, True)


class TestBatchedCore:
    @settings(max_examples=40, deadline=None)
    @given(rk4_runs())
    def test_core_matches_stagewise_rk4(self, case):
        """The step-matrix core is the four-stage RK4, run by run, at every
        record; the first, middle and last runs of a batch are checked."""
        runs, n_steps, record_every, budget, block = case
        steps, pops, amps = run_core(runs, n_steps, record_every, budget, block)
        assert steps.tolist() == [*range(0, n_steps, record_every), n_steps]
        np.testing.assert_array_equal(pops, np.abs(amps) ** 2)
        for i in sorted({0, len(runs) // 2, len(runs) - 1}):
            ki, ei, pulse, dti = runs[i]
            reference = stagewise_rk4(ki, ei, pulse, dti, n_steps)[steps]
            np.testing.assert_allclose(amps[i], reference, rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(degenerate_batches())
    def test_core_matches_scalar_rk4_on_degenerate_runs(self, case):
        """On degenerate levels every RK4 step map is a polynomial in K, so
        every run of a batch is, at every record, RK4's scalar step factors
        multiplied out in K's eigenbasis (``helpers.scalar_rk4``)."""
        runs, n_steps, stride = case
        steps, _, amps = run_core([(k, e, pulse, t_end / n_steps) for k, e, pulse, t_end in runs], n_steps, stride)
        assert steps.tolist() == [*range(0, n_steps, stride), n_steps]
        for (k, _, pulse, t_end), run_amps in zip(runs, amps):
            np.testing.assert_allclose(run_amps, scalar_rk4(k, pulse, t_end, n_steps)[steps], rtol=0, atol=1e-11)

    def test_results_do_not_depend_on_the_budget(self):
        """One batch of split levels under harmonic, Gaussian and tabulated
        drives at a stride of 100, so that a chunk holds two record
        intervals at the largest budget and one at the smaller two: the
        chunk budget changes only the rounding of the products."""
        k = CouplingRatios(2.5, 0.7).coupling_matrix()
        pulses = [
            Pulse.harmonic(1.3, 2.0),
            Pulse.gaussian_kick(1.6, 0.8, 0.2),
            Pulse.tabulated(np.linspace(-0.1, 1.7, 9), np.sin(np.linspace(0.0, 3.0, 9))),
            Pulse.gaussian_kick(1.6, 0.8, 0.2),
            Pulse.harmonic(-0.4, 1.0),
        ]
        runs = [
            (s * k, np.array(LevelEnergies.from_splittings(0.3 * i, -0.2 * i).e), pulse, 1.5 / 2000)
            for i, (s, pulse) in enumerate(zip((1.0, 0.5, 1.2, 0.8, 1.1), pulses))
        ]
        (steps, _, reference), *others = [run_core(runs, 2000, 100, budget) for budget in (1024, 256, 64)]
        for other_steps, _, amps in others:
            np.testing.assert_array_equal(other_steps, steps)
            np.testing.assert_allclose(amps, reference, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_runs", [1, 17, 25, 102, 103, 400, 1521])
    def test_chunks_hold_whole_record_intervals(self, n_runs):
        """A chunk is a whole number of record intervals, within the budget
        or one interval per run, unless the run is shorter than the chunk;
        up to 102 runs at the default budget it is 1,024 // N steps cut down
        to whole intervals, as before the one-interval floor."""
        stride = propagate.RECORD_EVERY
        for budget, n_steps in itertools.product((1, 64, 1024), (7, 25, 5000)):
            with patch.object(propagate, "_CHUNK_CONFIG_STEPS", budget):
                chunk, _ = propagate._chunk_sizes(n_runs, n_steps)
            assert 0 < chunk <= n_steps and (chunk % stride == 0 or chunk == n_steps), (budget, n_steps, chunk)
            assert n_runs * chunk <= max(budget, n_runs * stride)
            if n_runs <= 102 and budget == 1024:
                assert chunk == min(1024 // n_runs // stride * stride, n_steps)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_monomial_matrices_make_one_rk4_step(self, data):
        """I + sum_m mu_m(h v0, h vh, h v1) M_m, with M from h E and K, is one
        four-stage step, column by column of the real block form, for random
        K, split E, h and drive samples with h |v| ||K|| <= 1."""
        k = _symmetric(data.draw)
        e = np.array(data.draw(st.lists(_unit, min_size=3, max_size=3)))
        v = np.array(data.draw(st.lists(_unit, min_size=3, max_size=3)))
        h = data.draw(st.floats(1e-6, 1.0)) / max(1.0, np.max(np.abs(v)) * np.linalg.norm(k, 2))
        m = propagate._step_coefficients(k[None], h * e[None])[0]
        mono = np.prod((h * v) ** np.array(propagate._MONOMIALS), axis=1)
        p = np.eye(6) + np.tensordot(mono, m, 1)
        for column, a in enumerate([*np.eye(3), *(1j * np.eye(3))]):
            expected = stagewise_step(k, e, v, h, a)
            np.testing.assert_allclose(p[:, column], [*expected.real, *expected.imag], rtol=0, atol=1e-14)

    def test_step_coefficients_hold_little_past_what_they_return(self):
        """Making the coefficients of 2,000 runs holds, per run, the 12 x 6 x 6
        floats it returns (3.4 KB), the words of two lengths in diag(E) and K
        (24 of 3 x 3) and one scaled word: under 1.75 times what it returns.
        Holding every word and the real and imaginary parts apart passes it."""
        n_runs = 2000
        k = np.broadcast_to(RATIOS_33.coupling_matrix(), (n_runs, 3, 3)).copy()
        he = np.zeros((n_runs, 3))
        propagate._step_coefficients(k[:2], he[:2])  # first-call caches
        tracemalloc.start()
        try:
            m = propagate._step_coefficients(k, he)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.nbytes == n_runs * 12 * 36 * 8
        assert peak < 1.75 * m.nbytes, peak / n_runs

    def test_long_run_has_no_per_step_rounding_bias(self, cond_15):
        """20,000 steps of the kick subcommand's width-0.05 Gaussian on split
        levels: a rounding bias repeated in every step grows with the run
        length, past what the property's 300 steps can show."""
        k = cond_15.ratios().coupling_matrix()
        e = np.array(LevelEnergies.from_splittings(1.0, 1.0).e)
        pulse = Pulse.gaussian_kick(cond_15.action_t0, 0.5, 0.05)
        n_steps, dt = 20000, 1.0 / 20000
        steps, _, amps = _rk4(k[None], e[None], [pulse], np.array([dt]), n_steps, True)
        reference = stagewise_rk4(k, e, pulse, dt, n_steps)[steps]
        np.testing.assert_allclose(amps[0], reference, rtol=0, atol=1e-12)

    @staticmethod
    def _tree(p):
        """_tree_products on p [M, L, 6, 6] held, as in the core, in the
        flat buffer it may spend, with a first-level buffer of its own."""
        steps = np.empty(p.size)
        steps.reshape(p.shape)[...] = p
        level = np.empty(len(p) * -(-p.shape[1] // 2) * 36)
        return propagate._tree_products(steps.reshape(p.shape), level, steps)

    @staticmethod
    def _scan(q):
        """_prefix_products on q with its two level buffers."""
        return propagate._prefix_products(q, np.empty((2, q.size)))

    @pytest.mark.parametrize("length", [1, 2, 3, 6, 7, 16])
    def test_tree_products_multiply_in_order(self, length):
        """Each row's product is p[L-1] @ ... @ p[0], for odd and even L."""
        p = np.eye(6) + 0.3 * np.random.default_rng(length).normal(size=(4, length, 6, 6))
        expected = [functools.reduce(lambda acc, x: x @ acc, row) for row in p]
        np.testing.assert_allclose(self._tree(p), expected, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("length", range(1, 18))
    def test_prefix_products_are_running_products(self, length):
        """s[j] = q[j] @ ... @ q[0], lengths on and off the powers of two."""
        q = np.eye(6) + 0.3 * np.random.default_rng(length).normal(size=(length, 2, 6, 6))
        expected = [q[0]]
        for x in q[1:]:
            expected.append(x @ expected[-1])
        np.testing.assert_allclose(self._scan(q), expected, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("length", range(1, 18))
    def test_buffered_products_round_as_new_arrays(self, length):
        """The tree and the scan written into buffers are the products of a
        new array per level, bit for bit, at 1 to 300 rows: the buffers
        change neither a product nor its grouping.  The scan runs, as in the
        core, on the run-major tree results seen interval-major."""
        rng = np.random.default_rng(length)
        for rows in (1, 2, 17, 300):
            p = np.eye(6) + 0.3 * rng.normal(size=(rows, length, 6, 6))
            np.testing.assert_array_equal(self._tree(p), tree_products_reference(p))
            q = p.swapaxes(0, 1)
            np.testing.assert_array_equal(self._scan(q), prefix_products_reference(q))

    def test_no_state_is_carried_between_batches(self):
        """17 runs of 60-step chunks give the same bits before and after a
        batch of one run whose chunks, 1,020 steps and a last one of 60,
        take buffers of the same sizes and fill them in another layout."""
        batch = [(RATIOS_33.coupling_matrix(), (0.0, -0.3, 0.2), Pulse.harmonic(1.0 + 0.1 * i, 1.0), T / 3000)
                 for i in range(17)]
        first = run_core(batch, 3000, 10)
        run_core(batch[:1], 1080, 10)
        again = run_core(batch, 3000, 10)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_chunk_loop_memory_does_not_grow(self):
        """Beyond its records, _rk4 holds the same memory (within 1 KB) over 4
        chunks as over 40, at 1, 17 and 300 runs, each run on its own drive;
        with a drive block of one chunk, the drive samples are the same size
        at both lengths.  At the default block, 40 chunks stay under the
        figure of the MAX_RUN_RECORDS comment: 0.8 MB plus 9.9 KB a run, and
        4.1 KB for each distinct drive."""

        def peak_beyond_records(n_runs, n_chunks, block):
            chunk, _ = propagate._chunk_sizes(n_runs, 2**53)
            runs = [(RATIOS_33.coupling_matrix(), (0.0, -0.01 * i, 0.0), Pulse.harmonic(1.0 + 0.01 * i, 1.0),
                     T / 20000) for i in range(n_runs)]
            run_core(runs, propagate.RECORD_EVERY, propagate.RECORD_EVERY)  # first-call imports and caches
            tracemalloc.start()
            try:
                steps, pops, amps = run_core(runs, n_chunks * chunk, propagate.RECORD_EVERY, block=block)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - steps.nbytes - pops.nbytes - amps.nbytes

        for n_runs in (1, 17, 300):
            short, long = (peak_beyond_records(n_runs, n_chunks, 1) for n_chunks in (4, 40))
            assert abs(long - short) < 1e3, (n_runs, short, long)
            assert peak_beyond_records(n_runs, 40, propagate._DRIVE_BLOCK_STEPS) < 0.8e6 + n_runs * (9.9e3 + 4.1e3)

    @staticmethod
    def _drive_calls(monkeypatch, drives):
        """Sizes of the Pulse.value calls of 25 quarter-period runs at 20,000
        steps per period, one run per drive."""
        sampled = []
        value = Pulse.value
        monkeypatch.setattr(Pulse, "value", lambda pulse, t: sampled.append(np.size(t)) or value(pulse, t))
        runs = [(RATIOS_33.coupling_matrix(), DEGENERATE, drive, T / 4) for drive in drives]
        traces = integrate_batch(runs, IntegratorConfig(steps_per_period=20000))
        assert len(traces) == 25 and len(traces[0].times) == 501
        return sampled

    def test_drive_is_sampled_once_per_block(self, monkeypatch):
        """25 runs of 5,000 steps take chunks of 40 steps, but each run's drive
        is sampled once per block of 240 steps: 20 calls of 481 half-step
        times and one of 401 per run."""
        sampled = self._drive_calls(monkeypatch, [Pulse.harmonic(1.0 + 0.01 * i, 1.0) for i in range(25)])
        assert sampled == [481] * (25 * 20) + [401] * 25

    def test_runs_with_one_drive_share_its_samples(self, monkeypatch):
        """25 runs with the same pulse and step make one call per block."""
        sampled = self._drive_calls(monkeypatch, [Pulse.harmonic(1.0, 1.0)] * 25)
        assert sampled == [481] * 20 + [401]

    def test_working_memory_is_records_plus_one_chunk(self):
        """25 runs of 5,000 steps, on one drive and on 25, and 200 runs of
        500 steps, on one drive and on 200, hold their records, their step
        coefficients and, twice over, the monomial and step-matrix buffers of
        one chunk of max(1,024, N x RECORD_EVERY) configuration-steps (room
        for the tree's products), and once over one block of samples per
        distinct drive.  A larger budget, a chunk of more than one record
        interval past 102 runs, a drive block per run of a shared drive, a
        second copy of the drive blocks, or memory that grows chunk by chunk,
        passes this bound."""
        k = RATIOS_33.coupling_matrix()
        config = IntegratorConfig(steps_per_period=20000)
        for n_runs, n_records, n_drives in ((25, 501, 1), (25, 501, 25), (200, 51, 1), (200, 51, 200)):
            t_end = T * (n_records - 1) * propagate.RECORD_EVERY / 20000
            runs = [
                (k, LevelEnergies.from_splittings(0.01 * i, 0.0),
                 Pulse.harmonic(1.0 + (i % n_drives) / n_drives, 1.0), t_end)
                for i in range(n_runs)
            ]
            integrate_batch(runs[:2], config)  # first-call imports and caches
            tracemalloc.start()
            try:
                traces = integrate_batch(runs, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(traces) == n_runs and len(traces[0].times) == n_records
            records = n_runs * n_records * (3 + 1) * 8  # populations and times
            coefficients = n_runs * 12 * 36 * 8
            buffers = max(1024, n_runs * propagate.RECORD_EVERY) * (12 + 36) * 8  # monomials and step matrices
            drive = n_drives * (2 * 256 + 1) * 8  # one block of half-step samples per distinct drive
            assert peak < records + coefficients + 2 * buffers + drive, (n_runs, n_drives)

    def test_batch_is_logged(self, caplog):
        """One debug record per batch; a warning names the run whose drift
        passes a tenth of the limit.  The package adds no handler."""
        caplog.set_level(logging.DEBUG, logger="tripop")
        config = IntegratorConfig(steps_per_period=126)
        pulse = Pulse.harmonic(1.0, 1.0)
        calm = RATIOS_33.coupling_matrix()
        integrate_batch([(calm, DEGENERATE, pulse, T)] * 3, config)
        with pytest.raises(NormDriftExceededError):
            integrate_batch([(calm, DEGENERATE, pulse, T), (8.0 * calm, DEGENERATE, pulse, T)], config)
        records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
        assert [level for _, level, _ in records] == ["DEBUG", "DEBUG", "WARNING"]
        assert {name for name, _, _ in records} == {"tripop"}
        assert records[0][2].startswith(
            "RK4 batch: 3 runs x 126 steps, record every 10, chunks of at most 126 steps, "
            "drive blocks of at most 126 steps"
        )
        assert "in 1 of 2 RK4 runs" in records[2][2] and records[2][2].endswith("in run 1")
        assert logging.getLogger("tripop").handlers == []

    def test_batch_matches_integrate(self, cond_15):
        """Each run of a batch gives the times, record count and populations
        of its own ``integrate`` call; the stride does not divide the 501 steps."""
        config = IntegratorConfig(steps_per_period=2002)
        pulse = harmonic_for_condition(cond_15, 1.0)
        cases = [
            (cond_15.ratios(), DEGENERATE),
            (replace(cond_15, beta=-1).ratios(), LevelEnergies.from_splittings(0.1, 0.05)),
            (RATIOS_33, LevelEnergies.from_splittings(-0.3, 0.2)),
        ]
        runs = [(ratios.coupling_matrix(), energies, pulse, T / 4) for ratios, energies in cases]
        batch = integrate_batch(runs, config)
        for (ratios, energies), trace in zip(cases, batch):
            single = integrate(ratios, energies, pulse, T / 4, config)
            assert len(trace.times) == len(single.times) == 501 // propagate.RECORD_EVERY + 2
            np.testing.assert_array_equal(trace.times, single.times)
            np.testing.assert_allclose(trace.populations, single.populations, rtol=0, atol=1e-14)

    def test_one_run_over_the_drift_limit(self):
        """A run that drifts raises for the batch; the error carries the
        other runs' traces, and None in the drifting run's place."""
        config = IntegratorConfig(steps_per_period=126)
        pulse = Pulse.harmonic(1.0, 1.0)
        calm = RATIOS_33.coupling_matrix()
        runs = [(calm, DEGENERATE, pulse, T), (8.0 * calm, DEGENERATE, pulse, T), (calm, DEGENERATE, pulse, T)]
        with pytest.raises(NormDriftExceededError, match=r"^norm drift .* exceeds 1e-06; reduce the step$") as info:
            integrate_batch(runs, config)
        traces = info.value.traces
        assert len(traces) == 3 and traces[1] is None
        single = integrate(RATIOS_33, DEGENERATE, pulse, T, config)
        for trace in (traces[0], traces[2]):
            np.testing.assert_allclose(trace.populations, single.populations, rtol=0, atol=1e-14)

    def test_verify_fails_only_the_drifting_rows(self):
        """At 500 steps per period the high-product conditions drift past the
        limit and fail alone; every row equals its own single check."""
        checks = verify_conditions(35, IntegratorConfig(steps_per_period=500))
        drifting = [c for c in checks if math.isinf(c.ode_deviation)]
        assert 0 < len(drifting) < len(checks)
        for c in checks:
            single = check_condition(c.condition, IntegratorConfig(steps_per_period=500))
            assert single.passed == c.passed
            if math.isinf(c.ode_deviation):
                assert math.isinf(single.ode_deviation)
            else:
                assert single.ode_deviation == pytest.approx(c.ode_deviation, rel=0, abs=1e-14)

    def test_every_drive_choice_transfers_to_its_target(self):
        """Both signs of r, both betas and both targets of each of the 27
        members with n1*n2 <= 60 pass every check: the closed form reaches
        the member's own target level and RK4 follows it."""
        members = enumerate_conditions(60)
        assert len(members) == 27
        for member in members:
            for sign, beta, target in itertools.product((1, -1), (1, -1), (2, 3)):
                check = check_condition(condition_from_odd_pair(member.pair, sign, beta, target))
                assert check.passed, check
                assert check.analytic_error < 1e-12 and check.ode_deviation < 1e-7

    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_a_wrong_case_set_fails_the_row(self, monkeypatch, cond_15, case):
        """The case check can fail: with one set's k moved by 2 (its parity
        kept, its product identity broken) the row's ``cases_ok`` is false and
        the row fails, though both population checks are unchanged."""
        honest = check_condition(cond_15)
        assert honest.cases_ok and honest.passed

        def wrong(n1, n2):
            sets = list(classify_cases(n1, n2))
            sets[case] = (sets[case][0] + 2, sets[case][1])
            return tuple(sets)

        monkeypatch.setattr(verification, "classify_cases", wrong)
        check = check_condition(cond_15)
        assert not check.cases_ok and not check.passed
        assert (check.analytic_error, check.ode_deviation) == (honest.analytic_error, honest.ode_deviation)

    def test_records_past_the_cap_are_refused(self, monkeypatch):
        """Runs x records, counted with the final record of a stride that
        does not divide the step count, may reach the cap but not pass it."""
        monkeypatch.setattr(propagate, "MAX_RUN_RECORDS", 12)
        k = RATIOS_33.coupling_matrix()
        run = (k, DEGENERATE, Pulse.constant(1.0), 1.0)
        even = IntegratorConfig(steps_per_period=20)  # records at 0, 10 and 20
        odd = IntegratorConfig(steps_per_period=21)  # 0, 10, 20 and 21
        assert [len(t.times) for t in integrate_batch([run] * 4, even)] == [3] * 4
        with pytest.raises(InvalidInputError, match="make 15 records"):
            integrate_batch([run] * 5, even)
        with pytest.raises(InvalidInputError, match="make 16 records"):
            integrate_batch([run] * 4, odd)

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
        at_cap = (propagate.MAX_RUN_RECORDS - 1) * propagate.RECORD_EVERY  # steps, so records 0 .. at_cap
        with pytest.raises(Reached):
            integrate_batch([run], IntegratorConfig(steps_per_period=at_cap))
        with pytest.raises(InvalidInputError, match="past the cap"):
            integrate_batch([run], IntegratorConfig(steps_per_period=at_cap + 1))

    def test_rejects_unusable_batches(self):
        k = RATIOS_33.coupling_matrix()
        pulse = Pulse.harmonic(1.0, 1.0)
        config = IntegratorConfig(steps_per_period=100)
        with pytest.raises(InvalidInputError):  # 25 vs 50 steps
            integrate_batch([(k, DEGENERATE, pulse, T / 4), (k, DEGENERATE, pulse, T / 2)], config)
        lopsided = k.copy()
        lopsided[0, 1] = 3.0
        for bad in (lopsided, k[:2, :2], np.full((3, 3), np.nan)):
            with pytest.raises(InvalidInputError):
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

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(enumerate_conditions(60)),
        st.sampled_from((1, -1)),
        st.sampled_from((1, -1)),
        st.sampled_from((2, 3)),
        st.sampled_from(("harmonic", "gaussian_kick", "constant", "tabulated")),
    )
    def test_only_the_area_matters(self, member, sign, beta, target, shape):
        """The transfer condition is on the action A(t0) alone: a harmonic
        drive, a Gaussian (centre t0/2, width t0/8), a constant and a
        tabulated sin^2 of 41 knots, each scaled to A(t0) = action_t0 at
        t0 = pi/2, drive RK4 along the closed form at the run's own A(t) to
        the member's target level."""
        cond = condition_from_odd_pair(member.pair, sign, beta, target)
        t0 = math.pi / 2
        knots = np.linspace(0.0, t0, 41)
        make = {
            "harmonic": lambda c: Pulse.harmonic(c, 1.0),
            "gaussian_kick": lambda c: Pulse.gaussian_kick(c, t0 / 2, t0 / 8),
            "constant": Pulse.constant,
            "tabulated": lambda c: Pulse.tabulated(knots, c * np.sin(knots * (math.pi / t0)) ** 2),
        }[shape]
        pulse = make(cond.action_t0 / make(1.0).area(t0).a)
        trace = integrate(cond.ratios(), DEGENERATE, pulse, t0)
        analytic = populations_closed_form_array(cond, pulse.area(trace.times).a)
        assert np.max(np.abs(analytic - trace.populations)) < ODE_TOL
        assert trace.populations[-1, target - 1] > 1.0 - ODE_TOL

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

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-150.0, 0.0))
    @example(-150.0)
    def test_degenerate_gaussian_kick_depends_on_the_area_alone(self, u):
        """Without splittings a Gaussian kick acts through its area alone: the
        populations after widths 10^u, from 1e-150 to 1, are the width-1 ones."""
        def kick(width):
            pulse = Pulse.gaussian_kick(1.6557, 10.0 * width, width)
            config = IntegratorConfig(steps_per_period=8000)  # norm drift 7e-14
            return integrate(CouplingRatios(2.5, 0.7), DEGENERATE, pulse, 20.0 * width, config).populations[-1]

        populations = kick(10.0**u)
        assert np.all(np.isfinite(populations))
        assert populations.sum() == pytest.approx(1.0, rel=0, abs=1e-12)
        np.testing.assert_allclose(populations, kick(1.0), rtol=0, atol=1e-12)


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

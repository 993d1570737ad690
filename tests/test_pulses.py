"""Tests for pulse shapes and their exact action integrals.

The independent oracle for every area formula is adaptive quadrature of
value() (scipy.integrate.quad).
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tripop import (
    InvalidInputError,
    Pulse,
    harmonic_for_condition,
    load_tabulated_pulse,
)

RNG = np.random.default_rng(11)

V33 = 2.2214414690791831  # pi/sqrt(2)


def trapezoid_area(knots, values, q):
    """Integral from 0 to q of the linear interpolant, by trapezoids between
    0, q and the knots that lie strictly between them."""
    lo, hi = min(0.0, q), max(0.0, q)
    xs = np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi]))
    ys = np.interp(xs, knots, values)
    integral = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
    return integral if q >= 0.0 else -integral


class TestValue:
    def test_harmonic_at_zero(self):
        assert Pulse.harmonic(V33, 1.0).value(0.0) == pytest.approx(V33, abs=1e-15)

    def test_harmonic_at_quarter_period(self):
        assert Pulse.harmonic(V33, 1.0).value(math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_constant(self):
        assert Pulse.constant(1.5).value(123.0) == 1.5

    def test_gaussian_normalization(self):
        """Quadrature of the profile over +-8 widths recovers the kick area."""
        area = math.pi / math.sqrt(2.0)
        for width in (0.3, 0.05):
            p = Pulse.gaussian_kick(area, kick_center=1.0, kick_width=width)
            val, _ = quad(p.value, 1.0 - 8 * width, 1.0 + 8 * width, epsabs=1e-13, epsrel=1e-13)
            assert val == pytest.approx(area, abs=1e-10)

    def test_tabulated_interpolation_and_range(self):
        p = Pulse.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert p.value(0.5) == pytest.approx(1.0)
        with pytest.raises(InvalidInputError):
            p.value(2.5)

    @pytest.mark.parametrize(
        "pulse",
        [
            Pulse.harmonic(V33, 1.3),
            Pulse.constant(-0.7),
            Pulse.gaussian_kick(2.0, 1.5, 0.4),
            Pulse.tabulated([-1.0, 0.5, 2.0, 4.0], [0.0, 2.0, -1.0, 0.5]),
        ],
        ids=lambda p: p.shape,
    )
    def test_array_matches_scalar(self, pulse):
        """An array query returns, element by element, the scalar values and actions."""
        ts = np.linspace(-0.9, 3.9, 37)
        values = pulse.value(ts)
        assert isinstance(values, np.ndarray) and values.shape == ts.shape
        scalars = [pulse.value(float(t)) for t in ts]
        assert all(isinstance(v, float) for v in scalars)
        np.testing.assert_array_equal(values, scalars)
        assert pulse.value(ts.reshape(37, 1)).shape == (37, 1)
        actions = pulse.area(ts).a
        assert isinstance(actions, np.ndarray) and actions.shape == ts.shape
        action_scalars = [pulse.area(float(t)).a for t in ts]
        assert all(isinstance(a, float) for a in action_scalars)
        np.testing.assert_array_equal(actions, action_scalars)
        assert pulse.area(ts.reshape(37, 1)).a.shape == (37, 1)

    @pytest.mark.parametrize(
        "pulse",
        [
            Pulse.harmonic(1.3, 0.7),
            Pulse.constant(0.4),
            Pulse.gaussian_kick(2.0, 1.5, 0.4),
            Pulse.tabulated([-1.0, 0.5, 2.0, 4.0], [0.0, 2.0, -1.0, 0.5]),
        ],
        ids=lambda p: p.shape,
    )
    def test_empty_array_query(self, pulse):
        """An empty array of times gives empty arrays of values and actions."""
        for ts in (np.array([]), np.empty((0, 2))):
            values, actions = pulse.value(ts), pulse.area(ts).a
            assert isinstance(values, np.ndarray) and values.shape == ts.shape
            assert isinstance(actions, np.ndarray) and actions.shape == ts.shape

    def test_table_without_zero_is_refused_when_built(self):
        """A table that does not bracket t = 0 has no A(t), so it is refused
        when it is built; one whose first or last knot is 0 is kept."""
        for times in ([1.0, 2.0, 3.0], [-3.0, -2.0, -1e-300]):
            with pytest.raises(InvalidInputError, match="bracket"):
                Pulse.tabulated(times, [1.0, 0.5, 1.0])
        for times in ([0.0, 1.0, 2.0], [-2.0, -1.0, 0.0]):
            assert Pulse.tabulated(times, [1.0, 0.5, 1.0]).area(0.0).a == 0.0

    def test_array_query_errors(self):
        """One bad time fails the whole array query, as it fails a scalar one."""
        table = Pulse.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        with pytest.raises(InvalidInputError, match="t=2.5"):
            table.value(np.array([0.5, 2.5, 3.0]))
        with pytest.raises(InvalidInputError, match="t=2.5"):
            table.area(np.array([0.5, 2.5, -1.0]))
        with pytest.raises(ValueError):
            Pulse.constant(1.0).value(np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            table.area(np.array([0.5, np.nan]))

    @pytest.mark.parametrize("field", ["v0", "omega", "kick_area", "kick_center", "kick_width"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, field, bad):
        shape = "harmonic" if field in ("v0", "omega") else "gaussian_kick"
        params = {"omega": 1.0, "kick_width": 0.5, field: bad}
        with pytest.raises(ValueError):
            Pulse(shape=shape, **params)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tabulated_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Pulse.tabulated([-1.0, 0.0, 1.0], [0.0, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            Pulse.tabulated([-1.0, 0.0, bad], [0.0, 1.0, 1.0])

    def test_ideal_kick_is_not_a_shape(self):
        """An ideal kick has no pointwise value; only ``propagate_kick`` applies it."""
        with pytest.raises(ValueError, match="unknown pulse shape"):
            Pulse(shape="ideal_kick", kick_area=1.0, kick_center=2.0)
        assert not hasattr(Pulse, "ideal_kick")

    def test_tabulated_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Pulse.tabulated([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])


@st.composite
def tables(draw) -> Pulse:
    """A tabulated pulse of 2 to 8 knots that brackets t = 0; a table that
    ``Pulse.tabulated`` refuses (two knots so close that a slope overflows)
    is rejected."""
    inner = draw(st.lists(st.floats(-10.0, 10.0), max_size=6, unique=True))
    knots = sorted([draw(st.floats(-20.0, -10.5)), *inner, draw(st.floats(10.5, 20.0))])
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(knots), max_size=len(knots)))
    try:
        return Pulse.tabulated(knots, values)
    except InvalidInputError:
        reject()


@st.composite
def extreme_tables(draw) -> tuple[np.ndarray, list[float], np.ndarray]:
    """Knots that bracket t = 0 with spacings from 1e-300 to 1e3, values up to
    +-1.7e308, and times inside the table: its knots and up to 8 more."""
    spans = st.lists(st.floats(1e-300, 1e3), min_size=1, max_size=3)
    knots = np.unique(np.concatenate((-np.cumsum(draw(spans)), [0.0], np.cumsum(draw(spans)))))
    values = draw(st.lists(st.floats(-1.7e308, 1.7e308), min_size=knots.size, max_size=knots.size))
    inside = draw(st.lists(st.floats(knots[0], knots[-1]), max_size=8))
    return knots, values, np.concatenate((knots, inside))


# Finite floats, with huge ones drawn often, up to the float limit (as test_leakage.FINITE draws them).
HUGE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.sampled_from([1e-308, 1e-300, 1e10, 1e300, -1e300, 1e308, -1e308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
)
ANY_SHAPE = st.one_of(
    st.builds(Pulse.harmonic, st.floats(-10.0, 10.0), st.floats(0.01, 10.0)),
    st.builds(Pulse.constant, st.floats(-10.0, 10.0)),
    st.builds(Pulse.gaussian_kick, st.floats(-10.0, 10.0), st.floats(-5.0, 5.0), st.floats(0.01, 5.0)),
    tables(),
)
# a single time as each form a caller may hand it
SCALAR_FORMS = st.sampled_from([float, np.float64, np.array])
# Pulses with a time that each refuses at scalar and at array cost alike, and the refusal's start:
# a time that is not finite, a harmonic phase omega t and a constant pulse's action v0 t past the floats.
PAST_THE_FLOATS = st.sampled_from([1e300, -1.7e308])
REFUSED_TIMES = st.one_of(
    st.tuples(ANY_SHAPE, st.sampled_from([math.nan, math.inf, -math.inf]), st.just(("value", "area")),
              st.just("time must be finite")),
    st.tuples(st.builds(Pulse.harmonic, st.floats(-10.0, 10.0), st.floats(1e10, 1e300)), PAST_THE_FLOATS,
              st.just(("value", "area")), st.just("harmonic phase omega t is not finite")),
    st.tuples(st.builds(Pulse.constant, st.floats(1e10, 1e300)), PAST_THE_FLOATS, st.just(("area",)),
              st.just("constant pulse action v0 t is not finite")),
)

TABLE_3 = Pulse.tabulated([-1.0, 0.5, 2.0], [1.0, -2.0, 3.0])


@st.composite
def scalar_queries(draw) -> tuple[Pulse, float]:
    """A pulse and a time inside its range.  A table's time is often one of
    its knots, t = 0 or in its last interval; a Gaussian's is up to the float
    limit, past its center or width by any factor, so that u * u or
    t - center may overflow."""
    wide_gaussians = st.builds(Pulse.gaussian_kick, st.floats(-10.0, 10.0), HUGE, st.floats(1e-300, 1e300))
    pulse = draw(st.one_of(ANY_SHAPE, wide_gaussians))
    if pulse.shape == "tabulated":
        knots = [t for t, _ in pulse.samples]
        times = st.one_of(st.sampled_from([0.0, *knots]), st.floats(knots[-2], knots[-1]),
                          st.floats(knots[0], knots[-1]))
    elif pulse.shape == "gaussian_kick":
        times = st.one_of(st.floats(-50.0, 50.0), HUGE)
    else:
        times = st.floats(-50.0, 50.0)
    return pulse, draw(times)


def refusal(query, t) -> str:
    with pytest.raises(InvalidInputError) as refused:
        query(t)
    return str(refused.value)


class TestScalarTime:
    """A single time, checked as one float, gives what the same time in a
    one-element array gives: the same bits, or the same refusal."""

    @settings(max_examples=300, deadline=None)
    @given(scalar_queries(), SCALAR_FORMS)
    @example((TABLE_3, 0.0), float)
    @example((TABLE_3, -1.0), np.float64)
    @example((TABLE_3, 2.0), np.array)
    @example((TABLE_3, 1.25), float)
    @example((Pulse.gaussian_kick(1.0, 0.5, 1e-200), 0.75), float)
    @example((Pulse.gaussian_kick(1.0, -1e308, 1.0), 1e308), np.float64)
    def test_same_bits_as_a_one_element_array(self, query, form):
        """The examples: a table's t = 0, first knot, last knot (its interval
        index clamped to n - 2) and last interval; a Gaussian far in its tail,
        where u * u overflows, and one whose t - center overflows."""
        pulse, t = query
        scalar = form(t)
        value, action = pulse.value(scalar), pulse.area(scalar).a
        assert isinstance(value, float) and isinstance(action, float)
        assert np.float64(value).tobytes() == pulse.value(np.array([t]))[:1].tobytes()
        assert np.float64(action).tobytes() == pulse.area(np.array([t])).a[:1].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(REFUSED_TIMES, SCALAR_FORMS)
    def test_non_finite_time_is_refused_as_in_an_array(self, case, form):
        """A time that is not finite, or whose harmonic phase or constant
        action is not, is refused as in a one-element array."""
        pulse, t, queries, reason = case
        for query in (getattr(pulse, name) for name in queries):
            assert refusal(query, form(t)) == refusal(query, np.array([t]))
            assert refusal(query, form(t)).startswith(reason)

    @settings(max_examples=100, deadline=None)
    @given(tables(), st.data(), SCALAR_FORMS)
    def test_time_outside_the_table_is_refused_as_in_an_array(self, pulse, data, form):
        first, last = pulse.samples[0][0], pulse.samples[-1][0]
        finite = {"allow_nan": False, "allow_infinity": False}
        t = data.draw(st.one_of(st.floats(max_value=first, exclude_max=True, **finite),
                                st.floats(min_value=last, exclude_min=True, **finite)))
        for query in (pulse.value, pulse.area):
            assert refusal(query, form(t)) == refusal(query, np.array([t]))
            assert refusal(query, form(t)).startswith(f"t={t} outside the table range")


@st.composite
def huge_pulses(draw) -> Pulse:
    """A harmonic, constant or Gaussian pulse with parameters from HUGE; one
    that ``Pulse`` refuses when it is built is rejected."""
    build, arity = draw(st.sampled_from([(Pulse.harmonic, 2), (Pulse.constant, 1), (Pulse.gaussian_kick, 3)]))
    try:
        return build(*draw(st.tuples(*[HUGE] * arity)))
    except InvalidInputError:
        reject()


@settings(max_examples=300, deadline=None)
@given(huge_pulses(), HUGE)
@example(Pulse.harmonic(1.0, 1e300), 1e300)
@example(Pulse.gaussian_kick(1.0, 0.0, 1e-300), 1.0)
@example(Pulse.gaussian_kick(1.0, -1e308, 1.0), 1e308)
@example(Pulse.gaussian_kick(1.0, -1e308, 1e307), 1e308)
@example(Pulse.gaussian_kick(1.0, 0.0, 1e-308), 1e10)
@example(Pulse.gaussian_kick(1.0, np.float64(0.0), 1e-300), 1.0)
@example(Pulse.gaussian_kick(1.0, np.float64(1e10), 1e-300), 5.0)
def test_huge_input_is_finite_or_refused(pulse, t):
    """Value and action are finite or refused, and never warn (warnings are
    errors): a harmonic pulse is refused where omega t is not finite, a
    constant pulse's action where v0 t is not, and a Gaussian kick only where
    t - center and 40 widths both overflow.  Past 40 widths a Gaussian's value
    is exactly 0 and its action exactly its limit, also for numpy-float
    parameters, whose overflow warns where a Python float's does not."""
    c, w = float(pulse.kick_center), float(pulse.kick_width)
    value_refused, area_refused = {
        "harmonic": (not math.isfinite(pulse.omega * t),) * 2,
        "constant": (False, not math.isfinite(pulse.v0 * t)),
        "gaussian_kick": (not (math.isfinite(t - c) or math.isfinite(40.0 * w)),) * 2,
    }[pulse.shape]
    for query, refused in ((pulse.value, value_refused), (lambda u: pulse.area(u).a, area_refused)):
        if refused:
            with pytest.raises(InvalidInputError):
                query(t)
        else:
            assert math.isfinite(query(t))
    if pulse.shape == "gaussian_kick" and abs(t - c) > 40.0 * w:
        assert pulse.value(t) == 0.0
        limit = 0.5 * pulse.kick_area * (math.copysign(1.0, t - c) - math.erf(-c / (w * math.sqrt(2.0))))
        assert pulse.area(t).a == limit


@pytest.mark.parametrize("area, center, width", [
    (1.0, -1e308, 1e308), (1.0, -1e308, 1.7e308), (1e300, 0.0, 1e308), (1.0, -1e308, np.float64(1e308)),
], ids=["width-1e308", "width-1.7e308", "area-1e300", "numpy-width"])
def test_gaussian_wider_than_the_floats_is_refused_when_built(area, center, width):
    """A kick whose width sqrt(2 pi) overflows, a width above about 7.2e307,
    is refused when it is built, also as a numpy float, without a warning:
    its value and action would read 0 where they are not (A(1e307) = 0.0194
    at width 1.7e308, V(0) = 3.99e-9 at width 1e308 and area 1e300).  A
    width of 7e307 is kept."""
    with pytest.raises(InvalidInputError, match=re.escape(f"gaussian kick width sqrt(2 pi) is not finite for width {width!r}")):
        Pulse.gaussian_kick(area, center, width)
    assert Pulse.gaussian_kick(area, center, 7e307).value(0.0) > 0.0


class TestArea:
    def test_zero_at_origin(self):
        pulses = [
            Pulse.harmonic(V33, 1.0),
            Pulse.constant(2.0),
            Pulse.gaussian_kick(1.0, 5.0, 0.5),
            Pulse.tabulated([-1.0, 0.0, 1.0], [1.0, 2.0, 1.0]),
        ]
        for p in pulses:
            assert p.area(0.0).a == pytest.approx(0.0, abs=1e-12)

    def test_harmonic_quarter_period(self):
        """A(T/4) = v0/omega: for v0 = 2.2214, omega = 1 that is the alpha = 0
        transfer action."""
        p = Pulse.harmonic(V33, 1.0)
        assert p.area(math.pi / 2.0).a == pytest.approx(V33, abs=1e-12)

    def test_matches_quadrature_on_random_times(self):
        """Closed forms reproduce adaptive quadrature within 1e-9, 100 draws.

        The tabulated integrand has kinks at the table knots, so quad gets
        them as explicit breakpoints."""
        knots = np.linspace(-1, 9, 41)
        pulses = [
            (Pulse.harmonic(1.7, 2.3), None),
            (Pulse.constant(0.8), None),
            (Pulse.gaussian_kick(2.0, 2.5, 0.4), None),
            (Pulse.tabulated(knots, np.sin(knots)), knots),
        ]
        for p, points in pulses:
            for t in RNG.uniform(0.1, 8.0, size=25):
                inner = None if points is None else [float(u) for u in points if 0.0 < u < t]
                oracle, _ = quad(
                    p.value, 0.0, float(t), epsabs=1e-12, epsrel=1e-12, limit=400, points=inner
                )
                assert p.area(float(t)).a == pytest.approx(oracle, abs=1e-9)

    def test_scaling_invariance(self):
        """Action is invariant under (v0, omega, t) -> (c v0, c omega, t/c)."""
        base = Pulse.harmonic(1.3, 0.7)
        for c in (0.5, 2.0, 10.0):
            scaled = Pulse.harmonic(c * 1.3, c * 0.7)
            for t in RNG.uniform(0.0, 10.0, size=10):
                assert scaled.area(float(t) / c).a == pytest.approx(
                    base.area(float(t)).a, abs=1e-12
                )

    def test_tabulated_must_bracket_zero(self, tmp_path):
        """A(t) is counted from A(0) = 0: a table that misses t = 0 is refused
        when it is built, also when it is read from a file."""
        with pytest.raises(InvalidInputError, match="bracket"):
            Pulse.tabulated([1.0, 2.0], [1.0, 1.0])
        path = tmp_path / "pulse.csv"
        path.write_text("t,v\n1.0,1.0\n2.0,1.0\n")
        with pytest.raises(InvalidInputError, match="bracket"):
            load_tabulated_pulse(path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tabulated_area_matches_trapezoid(self, data):
        """On random tables that bracket 0, area(q).a is the trapezoid integral
        of the interpolant from 0 to q, within 1e-12 of span * max |v|, and a
        queried pulse still equals, and hashes as, a fresh unqueried one.

        Values are 0 or at least 1e-9 in size, so that no trapezoid underflows
        into subnormal numbers, where a relative tolerance means nothing."""
        gaps = data.draw(st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=30))
        knots = np.concatenate(([0.0], np.cumsum(gaps)))
        knots -= data.draw(st.floats(0.0, 1.0)) * knots[-1]
        values = data.draw(st.lists(
            st.floats(-5.0, 5.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-9),
            min_size=len(knots), max_size=len(knots),
        ))
        queries = np.array(data.draw(st.lists(st.floats(knots[0], knots[-1]), min_size=1, max_size=20)))
        pulse, fresh = Pulse.tabulated(knots, values), Pulse.tabulated(knots, values)

        reference = [trapezoid_area(knots, np.array(values), q) for q in queries]
        scale = (knots[-1] - knots[0]) * max(abs(v) for v in values)
        np.testing.assert_allclose(pulse.area(queries).a, reference, rtol=0, atol=1e-12 * scale)
        assert pulse == fresh and hash(pulse) == hash(fresh)

    @settings(max_examples=100, deadline=None)
    @given(extreme_tables())
    @example((np.array([0.0, 1.0]), [1.7e308, -1.7e308], np.array([0.5])))
    def test_extreme_table_is_refused_or_finite(self, table):
        """A table whose interpolant or running trapezoid could overflow is
        refused when it is built; any other gives finite values and actions,
        without a warning, at every time inside it."""
        knots, values, times = table
        try:
            pulse = Pulse.tabulated(knots, values)
        except InvalidInputError:
            return
        assert np.isfinite(pulse.value(times)).all() and np.isfinite(pulse.area(times).a).all()
        for t in times.tolist():
            assert math.isfinite(pulse.value(t)) and math.isfinite(pulse.area(t).a)

    def test_table_near_the_float_limit_is_accepted(self):
        """Only tables whose sums overflow are refused: knot values up to half
        the float limit and an integral up to the limit itself are kept."""
        pulse = Pulse.tabulated([0.0, 2.0], [8e307, 8e307])
        assert pulse.value(1.0) == 8e307 and pulse.area(2.0).a == 1.6e308


class TestHarmonicForCondition:
    def test_simplest_family_amplitude(self, cond_33):
        p = harmonic_for_condition(cond_33, 1.0)
        assert p.v0 == pytest.approx(2.2214, abs=5e-5)
        assert p.area(p.period / 4.0).a == pytest.approx(cond_33.action_t0, abs=1e-12)

    def test_one_five_amplitude(self, cond_15):
        assert harmonic_for_condition(cond_15, 1.0).v0 == pytest.approx(1.6558, abs=5e-5)

    def test_omega_scaling_keeps_quarter_area(self, cond_33):
        p = harmonic_for_condition(cond_33, 2.0)
        assert p.v0 == pytest.approx(2.0 * 2.2214, abs=1e-4)
        assert p.area(p.period / 4.0).a == pytest.approx(cond_33.action_t0, abs=1e-12)


class TestCsvLoading:
    def test_round_trip(self, tmp_path):
        """A blank row is skipped."""
        path = tmp_path / "pulse.csv"
        path.write_text("t,v\n0.0,0.5\n\n1.0,1.5\n2.5,0.25\n")
        p = load_tabulated_pulse(path)
        assert len(p.samples) == 3
        assert p.value(1.0) == pytest.approx(1.5)
        # segment [0,1]: trapezoid 1.0; on [1, 2]: v(2) = 1.5 - (1/1.5)*1.25
        v2 = 1.5 + (2.0 - 1.0) / 1.5 * (0.25 - 1.5)
        assert p.area(2.0).a == pytest.approx(1.0 + 0.5 * (1.5 + v2))

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("time,volts\n0,1\n1,1\n")
        with pytest.raises(ValueError):
            load_tabulated_pulse(path)

    @pytest.mark.parametrize("row", ["1.0,abc", "1.0", "1.0,2.0,3.0"])
    def test_rejects_malformed_rows(self, tmp_path, row):
        path = tmp_path / "pulse.csv"
        path.write_text(f"t,v\n0,1\n{row}\n")
        with pytest.raises(InvalidInputError, match="malformed row"):
            load_tabulated_pulse(path)

    def test_rejects_non_increasing(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("t,v\n0,1\n0,2\n")
        with pytest.raises(ValueError):
            load_tabulated_pulse(path)

"""Time profiles V(t) of the external interaction and their action integrals.

The dynamics of the degenerate atom depend on the drive only through the
action A(t) = integral of V from 0 to t, so each shape carries an exact
closed form for its running integral:

    harmonic       V(t) = v0 cos(omega t)          A(t) = (v0/omega) sin(omega t)
    constant       V(t) = v0                       A(t) = v0 t
    gaussian_kick  normalized Gaussian of area A0  A(t) via the error function
    tabulated      linear interpolation of (t, v)  exact piecewise-trapezoid

A query refuses a time that is not finite, a harmonic phase omega t that is
not, a constant pulse's action v0 t that is not, and a time outside a table.
A Gaussian kick's far tail is no error: there the value saturates at exactly
0 and the action at exactly its limit, also where t - center overflows; only
a kick so wide that 40 widths overflow too refuses such a time.

An ideal kick A0 * delta(t - t0) is not a pulse: it has no pointwise value
at its firing time and cannot enter a time stepper, and its whole effect is
the action jump A0, which ``propagate.propagate_kick`` applies spectrally.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

_erf = np.vectorize(math.erf, otypes=[float])  # numpy has no erf


class ActionValue(NamedTuple):
    """Running action A(t) (dimensionless, hbar = 1); an array for an array query."""

    a: float | np.ndarray


@dataclass(frozen=True)
class Pulse:
    shape: str
    v0: float = 0.0
    omega: float = 0.0
    kick_area: float = 0.0
    kick_center: float = 0.0
    kick_width: float = 0.0
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.shape not in ("harmonic", "constant", "gaussian_kick", "tabulated"):
            raise InvalidInputError(f"unknown pulse shape {self.shape!r}")
        scalars = (self.v0, self.omega, self.kick_area, self.kick_center, self.kick_width)
        if not all(math.isfinite(v) for v in scalars):
            raise InvalidInputError(f"pulse parameters must be finite, got {scalars}")
        if self.shape == "harmonic":
            if not self.omega > 0:
                raise InvalidInputError("harmonic pulse requires omega > 0")
            if not math.isfinite(float(self.v0) / float(self.omega)):
                raise InvalidInputError(
                    f"harmonic amplitude v0 / omega is not finite for v0 {self.v0!r} and omega {self.omega!r}"
                )
        if self.shape == "gaussian_kick":
            if not self.kick_width > 0:
                raise InvalidInputError("gaussian kick requires a positive width")
            if not math.isfinite(abs(self.kick_area) / (self.kick_width * math.sqrt(2.0 * math.pi))):
                raise InvalidInputError(
                    f"gaussian kick peak |area| / (width sqrt(2 pi)) is not finite for area {self.kick_area!r} "
                    f"and width {self.kick_width!r}"
                )
        if self.shape == "tabulated":
            if not self.samples or len(self.samples) < 2:
                raise InvalidInputError("tabulated pulse needs at least two samples")
            if not all(map(math.isfinite, chain.from_iterable(self.samples))):
                raise InvalidInputError("tabulated samples must be finite")
            with np.errstate(all="ignore"):  # an overflow, or a zero span, here is refused below
                knots, values, _ = self._table
                spans = np.diff(knots)
                slopes = np.diff(values) / spans
                peak = float(np.abs(values).max())
                reach = float(np.sum(0.5 * (np.abs(values[1:]) + np.abs(values[:-1])) * spans))
            if not np.all(spans > 0.0):
                raise InvalidInputError("tabulated times must be strictly increasing")
            # ``value`` and ``area`` form differences and pair sums of knot values, up to
            # 2 max |v|, and running integrals, up to the trapezoid sum of |v|; the
            # factor 1 + 1e-6 on each covers their rounding
            if not (np.isfinite(slopes).all() and math.isfinite(2.000002 * peak) and math.isfinite(1.000001 * reach)):
                raise InvalidInputError(
                    "tabulated samples overflow their interpolant or running integral: slopes up to "
                    f"{float(np.abs(slopes).max())!r}, max |v| = {peak!r}, trapezoid sum of |v| = {reach!r}"
                )

    # -- constructors -------------------------------------------------

    @classmethod
    def harmonic(cls, v0: float, omega: float) -> "Pulse":
        return cls(shape="harmonic", v0=v0, omega=omega)

    @classmethod
    def constant(cls, v0: float) -> "Pulse":
        return cls(shape="constant", v0=v0)

    @classmethod
    def gaussian_kick(cls, kick_area: float, kick_center: float, kick_width: float) -> "Pulse":
        return cls(shape="gaussian_kick", kick_area=kick_area, kick_center=kick_center, kick_width=kick_width)

    @classmethod
    def tabulated(cls, times, values) -> "Pulse":
        return cls(shape="tabulated", samples=tuple(zip(map(float, times), map(float, values))))

    # -- properties ----------------------------------------------------

    @property
    def period(self) -> float:
        if self.shape != "harmonic":
            raise InvalidInputError("only harmonic pulses have a period")
        period = 2.0 * math.pi / self.omega
        if not math.isfinite(period):  # omega below about 3.5e-308
            raise InvalidInputError(f"period 2 pi / omega is not finite for omega = {self.omega!r}")
        return period

    # -- evaluation ----------------------------------------------------

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        """V(t) at a time (returns a float) or an array of times (returns an array).

        The times it refuses are listed in the module docstring.
        """
        ts, _, _ = self._times(t)
        if self.shape == "harmonic":
            v = self.v0 * np.cos(self.omega * ts)
        elif self.shape == "constant":
            v = np.full_like(ts, self.v0)
        elif self.shape == "gaussian_kick":
            with np.errstate(over="ignore"):  # far in the tail u * u overflows, and exp(-inf) is exactly 0
                u = (ts - self.kick_center) / self.kick_width
                v = self.kick_area * np.exp(-0.5 * u * u) / (self.kick_width * math.sqrt(2.0 * math.pi))
        else:
            knots, values, _ = self._table
            v = np.interp(ts, knots, values)
        return _unwrap(v)

    def area(self, t: float | np.ndarray) -> ActionValue:
        """Running action A(t) = integral of V from 0 to t (exact per shape).

        Like ``value``, takes a time or an array of times; ``.a`` is a float or an array.
        """
        ts, lo, hi = self._times(t)
        if self.shape == "harmonic":
            a = self.v0 / self.omega * np.sin(self.omega * ts)
        elif self.shape == "constant":
            if not math.isfinite(float(self.v0) * (reach := max(-lo, hi))):
                raise InvalidInputError(f"constant pulse action v0 t is not finite for v0 {self.v0!r} at |t| = {reach!r}")
            a = self.v0 * ts
        elif self.shape == "gaussian_kick":
            with np.errstate(over="ignore"):  # far in the tail the erf argument overflows, and erf(+-inf) is +-1
                s = self.kick_width * math.sqrt(2.0)
                a = 0.5 * self.kick_area * (_erf((ts - self.kick_center) / s) - math.erf(-self.kick_center / s))
        else:  # trapezoid sums are exact for the linear interpolant
            a = self._from_first_knot(ts) - self._area_offset
        return ActionValue(a=_unwrap(a))

    def _times(self, t: float | np.ndarray) -> tuple[np.ndarray, float, float]:
        """``t`` as a float array with its least and greatest time, from which
        every refusal of a time is read (see the module docstring).  A single
        time is read as one float, at scalar cost; an empty array has nothing
        to refuse and gives (0.0, 0.0)."""
        ts = np.asarray(t, dtype=float)
        if ts.size == 0:
            return ts, 0.0, 0.0
        lo, hi = (float(ts),) * 2 if ts.ndim == 0 else (float(ts.min()), float(ts.max()))
        if not (math.isfinite(lo) and math.isfinite(hi)):  # a NaN reaches both
            raise InvalidInputError("time must be finite")
        if self.shape == "harmonic" and not math.isfinite(float(self.omega) * (reach := max(-lo, hi))):
            raise InvalidInputError(f"harmonic phase omega t is not finite for omega {self.omega!r} at |t| = {reach!r}")
        c = float(self.kick_center)
        if self.shape == "gaussian_kick" and math.isinf(min(40.0 * float(self.kick_width), max(hi - c, c - lo))):
            raise InvalidInputError(f"gaussian kick of width {self.kick_width!r} has no tail where t - center overflows")
        if self.shape == "tabulated":
            knots = self._table[0]
            if lo < knots[0] or hi > knots[-1]:
                first = float(np.extract((ts < knots[0]) | (ts > knots[-1]), ts)[0])
                raise InvalidInputError(f"t={first} outside the table range [{knots[0]}, {knots[-1]}]")
        return ts, lo, hi

    # -- tabulated helpers ----------------------------------------------

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Knot times, knot values and the trapezoid integral from the first knot to each knot."""
        knots = np.array([t for t, _ in self.samples])
        values = np.array([v for _, v in self.samples])
        cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(knots))))
        return knots, values, cumulative

    @cached_property
    def _area_offset(self) -> float:
        """The integral from the first knot to t = 0, which every A(t) subtracts."""
        knots = self._table[0]
        if knots[0] > 0.0 or knots[-1] < 0.0:
            raise InvalidInputError("table must bracket t = 0 so that A(0) = 0 is defined")
        return float(self._from_first_knot(0.0))

    def _from_first_knot(self, u: float | np.ndarray) -> float | np.ndarray:
        """The trapezoid integral from the first knot to each time in ``u`` (inside the table)."""
        knots, values, cumulative = self._table
        k = knots.searchsorted(u, side="right") - 1
        # a single time indexes with one int, at scalar cost
        k = min(int(k), len(knots) - 2) if k.ndim == 0 else np.minimum(k, len(knots) - 2)
        return cumulative[k] + 0.5 * (values[k] + np.interp(u, knots, values)) * (u - knots[k])


def _unwrap(x: np.ndarray) -> float | np.ndarray:
    return float(x) if x.ndim == 0 else x


def harmonic_for_condition(cond, omega: float) -> Pulse:
    """Harmonic drive realizing a transfer condition at t0 = T/4.

    The amplitude obeys v0/omega = A(t0), so the quarter-period action equals
    the condition's transfer action for every omega.  ``Pulse.harmonic`` refuses
    an omega that is not positive or that leaves v0 not finite.
    """
    return Pulse.harmonic(v0=cond.action_t0 * omega, omega=omega)


def load_tabulated_pulse(path) -> Pulse:
    """Read a tabulated pulse from a two-column CSV with header ``t,v``."""
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "v"]:
            raise InvalidInputError(f"expected header 't,v' in {path}, got {header}")
        for row in reader:
            if not row:
                continue
            try:
                t, v = map(float, row)  # two fields, each a number
            except ValueError:
                raise InvalidInputError(f"malformed row {row} in {path}") from None
            times.append(t)
            values.append(v)
    return Pulse.tabulated(times, values)

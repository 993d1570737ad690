"""Time profiles V(t) of the external interaction and their action integrals.

The dynamics of the degenerate atom depend on the drive only through the
action A(t) = integral of V from 0 to t, so each shape carries an exact
closed form for its running integral:

    harmonic       V(t) = v0 cos(omega t)          A(t) = (v0/omega) sin(omega t)
    constant       V(t) = v0                       A(t) = v0 t
    gaussian_kick  normalized Gaussian of area A0  A(t) via the error function
    ideal_kick     A0 * delta(t - t0)              A(t) = A0 * step(t - t0)
    tabulated      linear interpolation of (t, v)  exact piecewise-trapezoid

An ideal kick is represented spectrally: it has no pointwise value at its
firing time and cannot be fed to a time stepper; its entire effect is the
action jump A0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IdealKickPointQueryError, OutOfRangeError

GAUSSIAN_SUPPORT_WIDTHS = 8.0  # truncated mass < 1e-15


class ActionValue(NamedTuple):
    """Running action A(t) at time t (dimensionless, hbar = 1)."""

    t: float
    a: float


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
        if self.shape not in ("harmonic", "constant", "gaussian_kick", "ideal_kick", "tabulated"):
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        scalars = (self.v0, self.omega, self.kick_area, self.kick_center, self.kick_width)
        if not all(math.isfinite(v) for v in scalars):
            raise ValueError(f"pulse parameters must be finite, got {scalars}")
        if self.shape == "harmonic" and not self.omega > 0:
            raise ValueError("harmonic pulse requires omega > 0")
        if self.shape == "gaussian_kick" and not self.kick_width > 0:
            raise ValueError("gaussian kick requires a positive width")
        if self.shape == "tabulated":
            if not self.samples or len(self.samples) < 2:
                raise ValueError("tabulated pulse needs at least two samples")
            times = [t for t, _ in self.samples]
            if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
                raise ValueError("tabulated times must be strictly increasing")

    # -- constructors -------------------------------------------------

    @classmethod
    def harmonic(cls, v0: float, omega: float) -> "Pulse":
        return cls(shape="harmonic", v0=v0, omega=omega)

    @classmethod
    def constant(cls, v0: float) -> "Pulse":
        return cls(shape="constant", v0=v0)

    @classmethod
    def gaussian_kick(cls, kick_area: float, kick_center: float, kick_width: float) -> "Pulse":
        return cls(
            shape="gaussian_kick",
            kick_area=kick_area,
            kick_center=kick_center,
            kick_width=kick_width,
        )

    @classmethod
    def ideal_kick(cls, kick_area: float, kick_center: float) -> "Pulse":
        return cls(shape="ideal_kick", kick_area=kick_area, kick_center=kick_center)

    @classmethod
    def tabulated(cls, times, values) -> "Pulse":
        return cls(shape="tabulated", samples=tuple(zip(map(float, times), map(float, values))))

    # -- properties ----------------------------------------------------

    @property
    def period(self) -> float:
        if self.shape != "harmonic":
            raise ValueError("only harmonic pulses have a period")
        return 2.0 * math.pi / self.omega

    # -- evaluation ----------------------------------------------------

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        """V(t) at a time (returns a float) or an array of times (returns an array).

        Querying an ideal kick exactly at its firing time is an error, as is
        querying a tabulated pulse outside its table.
        """
        ts = np.asarray(t, dtype=float)
        if not np.isfinite(ts).all():
            raise ValueError("time must be finite")
        if self.shape == "harmonic":
            v = self.v0 * np.cos(self.omega * ts)
        elif self.shape == "constant":
            v = np.full_like(ts, self.v0)
        elif self.shape == "gaussian_kick":
            u = (ts - self.kick_center) / self.kick_width
            v = self.kick_area * np.exp(-0.5 * u * u) / (self.kick_width * math.sqrt(2.0 * math.pi))
        elif self.shape == "ideal_kick":
            if np.any(ts == self.kick_center):
                raise IdealKickPointQueryError(
                    "an ideal kick has no pointwise value at its firing time; "
                    "use its action step instead"
                )
            v = np.zeros_like(ts)
        else:
            v = self._interp_tabulated(ts)
        return float(v) if v.ndim == 0 else v

    def area(self, t: float) -> ActionValue:
        """Running action A(t) = integral of V from 0 to t (exact per shape)."""
        if not math.isfinite(t):
            raise ValueError("time must be finite")
        if self.shape == "harmonic":
            a = self.v0 / self.omega * math.sin(self.omega * t)
        elif self.shape == "constant":
            a = self.v0 * t
        elif self.shape == "gaussian_kick":
            s = self.kick_width * math.sqrt(2.0)
            a = (
                0.5
                * self.kick_area
                * (math.erf((t - self.kick_center) / s) - math.erf(-self.kick_center / s))
            )
        elif self.shape == "ideal_kick":
            a = self.kick_area if t >= self.kick_center else 0.0
        else:
            a = self._area_tabulated(t)
        return ActionValue(t=float(t), a=float(a))

    # -- tabulated helpers ----------------------------------------------

    def _table_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ts = np.array([t for t, _ in self.samples])
        vs = np.array([v for _, v in self.samples])
        return ts, vs

    def _interp_tabulated(self, t: np.ndarray) -> np.ndarray:
        ts, vs = self._table_arrays()
        outside = (t < ts[0]) | (t > ts[-1])
        if np.any(outside):
            first = float(np.extract(outside, t)[0])
            raise OutOfRangeError(f"t={first} outside the table range [{ts[0]}, {ts[-1]}]")
        return np.interp(t, ts, vs)

    def _area_tabulated(self, t: float) -> float:
        # trapezoid sums are exact for the linear interpolant
        ts, vs = self._table_arrays()
        if t < ts[0] or t > ts[-1]:
            raise OutOfRangeError(f"t={t} outside the table range [{ts[0]}, {ts[-1]}]")
        if ts[0] > 0.0 or ts[-1] < 0.0:
            raise OutOfRangeError("table must bracket t = 0 so that A(0) = 0 is defined")
        cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts))))

        def integral_from_table_start(u: float) -> float:
            k = min(int(np.searchsorted(ts, u, side="right") - 1), len(ts) - 2)
            v_u = float(np.interp(u, ts, vs))
            return float(cumulative[k] + 0.5 * (vs[k] + v_u) * (u - ts[k]))

        return integral_from_table_start(t) - integral_from_table_start(0.0)


def harmonic_for_condition(cond, omega: float) -> Pulse:
    """Harmonic drive realizing a transfer condition at t0 = T/4.

    The amplitude obeys v0/omega = A(t0), so the quarter-period action equals
    the condition's transfer action for every omega.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    return Pulse.harmonic(v0=cond.action_t0 * omega, omega=omega)


def load_tabulated_pulse(path) -> Pulse:
    """Read a tabulated pulse from a two-column CSV with header ``t,v``."""
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "v"]:
            raise ValueError(f"expected header 't,v' in {path}, got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"malformed row {row} in {path}")
            times.append(float(row[0]))
            values.append(float(row[1]))
    return Pulse.tabulated(times, values)

"""Population leakage for nearly degenerate levels, and the two-level reference.

When the levels are split by omega_ij = E_i - E_j != 0 the transfer is no
longer complete.  Two perturbative estimates of the level-2 deficit are
provided:

* an early-time expansion whose leading term grows as t^4,
* the same expansion at the quarter-period transfer time t0 = T/4 of the
  condition's harmonic drive, which the family integers fix.

Both are leading-order truncations.  The early-time form is quantitative
only while both omega_ij * t and V(0) * t are small; the t0 form inherits a
linear-in-omega_ij term from the truncation that the exact dynamics do not
have (the true deficit is quadratic in the splittings, since the degenerate
point maximizes the transfer), so it is an order-of-magnitude indicator
unless the linear term cancels (on the ray 2*omega13 = omega12).  For the
n1 = n2 families both terms vanish identically and the estimate carries no
information at this order.  The measured dual-RK4 deficit is the oracle
against which the estimates are judged.

The drive of a measured or estimated deficit is the condition's own: its
harmonic pulse and its couplings, the direct coupling beta included, so
no function here takes beta.  The deficit is that of level 2, so these
functions refuse a target-3 condition.  Every estimate and deficit is a
plain float, and a NaN or infinite input, or finite input whose estimate
or two-level phase is not finite, raises InvalidInputError.
"""

from __future__ import annotations

import math

import numpy as np

from .conditions import TransferCondition
from .dressed import CouplingRatios, require_finite_phases
from .errors import InvalidInputError
from .propagate import IntegratorConfig, LevelEnergies, integrate_batch
from .pulses import Pulse, harmonic_for_condition

# The two-level atom as a 3x3 problem: level 3 has no coupling, so it stays empty.
_TWO_LEVEL_COUPLING = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _require_finite(what: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise InvalidInputError(f"{what} must be finite, got {values}")


def _require_level_two(cond: TransferCondition) -> None:
    if cond.target != 2:
        raise InvalidInputError(f"the level-2 deficit needs a target-2 condition, got target {cond.target}")


def delta_p2_early(
    v12_0: float,
    v13_0: float,
    v23_0: float,
    omega12: float,
    omega13: float,
    t: float,
) -> float:
    """Leading early-time deficit between degenerate and split evolution:

        dP2(t) ~ (1/12) [2 (2 w13 - w12) V12(0) V13(0) V23(0)
                         + w12^2 V12(0)^2] t^4

    The estimate vanishes identically when V12(0) = 0 (alpha = 0 drives);
    the residual deficit is then of higher order.
    """
    _require_finite("early-time parameters", v12_0, v13_0, v23_0, omega12, omega13, t)
    if t < 0:
        raise InvalidInputError("t must be non-negative")
    # products, not **, which raises OverflowError past the float range
    bracket = 2.0 * (2.0 * omega13 - omega12) * v12_0 * v13_0 * v23_0 + (omega12 * omega12) * (v12_0 * v12_0)
    estimate = bracket * ((t * t) * (t * t)) / 12.0
    _require_finite("the early-time estimate", estimate)
    return estimate


def delta_p2_at_t0(cond: TransferCondition, omega12_ratio: float, omega13_ratio: float) -> float:
    """``delta_p2_early`` at t0 = T/4 of the condition's harmonic drive.

    The drive's V_ij(0) are the condition's couplings times v0 = omega A(t0),
    so in the family integers, with the condition's beta,

        dP2(t0) ~ (1/27)(pi/2)^6 [ (pi/3) beta n1 n2 (n2-n1)(2 w13/w - w12/w)
                                   + (n2-n1)^2 (w12/w)^2 ].

    Identically zero for n1 = n2; see the module docstring for the caveats
    on the linear term.
    """
    _require_level_two(cond)
    _require_finite("splitting ratios", omega12_ratio, omega13_ratio)
    if cond.n1 == cond.n2:  # both terms carry n2 - n1, and 0 * inf would be NaN past the float range
        return 0.0
    v0 = cond.action_t0  # the drive amplitude at omega = 1, where t0 = pi/2
    return delta_p2_early(cond.alpha * v0, cond.beta * v0, v0, omega12_ratio, omega13_ratio, math.pi / 2.0)


def measured_deficit(
    cond: TransferCondition,
    omega12_ratio: float,
    omega13_ratio: float,
    config: IntegratorConfig = IntegratorConfig(),
    omega: float = 1.0,
) -> float:
    """1 - P2(t0) measured by RK4 with the condition's harmonic drive."""
    return leakage_scan(cond, [(omega12_ratio, omega13_ratio)], config=config, omega=omega)[0]


def measured_delta_p2(
    ratios: CouplingRatios,
    pulse: Pulse,
    omega12: float,
    omega13: float,
    t: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> float:
    """Dual-RK4 difference P2_degenerate(t) - P2_split(t); the estimate oracle."""
    k = ratios.coupling_matrix()
    runs = [
        (k, LevelEnergies(), pulse, t),
        (k, LevelEnergies.from_splittings(omega12, omega13), pulse, t),
    ]
    deg, split = integrate_batch(runs, config)
    return float(deg.p2[-1] - split.p2[-1])


def leakage_scan(
    cond: TransferCondition,
    omega_ratios: list[tuple[float, float]],
    config: IntegratorConfig = IntegratorConfig(),
    omega: float = 1.0,
) -> list[float]:
    """Measured deficits 1 - P2(t0), one per (w12/w, w13/w) pair, in order.

    The RK4 runs share the condition's harmonic drive and so a step count;
    they are advanced together as one batch.
    """
    _require_level_two(cond)
    pulse = harmonic_for_condition(cond, omega)
    k = cond.ratios().coupling_matrix()
    runs = [
        (k, LevelEnergies.from_splittings(r12 * omega, r13 * omega), pulse, pulse.period / 4)
        for r12, r13 in omega_ratios
    ]
    return [float(1.0 - trace.p2[-1]) for trace in integrate_batch(runs, config)]


# -- two-level reference atom ---------------------------------------------


def _rabi_frequency(eps1: float, eps2: float) -> float:
    """Omega = sqrt(1 + ((eps2 - eps1)/2)^2), the two-level atom's Rabi frequency per unit coupling."""
    return math.hypot(1.0, 0.5 * (eps2 - eps1))


def two_level_populations(eps1: float, eps2: float, action: float) -> tuple[float, float]:
    """Populations (p1, p2) of the two-level atom with diagonal ratios
    eps1, eps2 at the given action, from Rabi's formula:

        p2 = (sin(Omega A) / Omega)^2,
        p1 = cos^2(Omega A) + ((eps2 - eps1) / (2 Omega) sin(Omega A))^2,

    with Omega = sqrt(1 + ((eps2 - eps1)/2)^2).  A common diagonal shift is
    a global phase, so only eps2 - eps1 enters.  For eps1 = eps2 this is
    p2 = sin^2(A); for unequal diagonals the transfer is capped at
    p2 <= 1 / Omega^2.  Raises InvalidInputError unless all three inputs
    and the phase Omega A are finite.
    """
    _require_finite("two-level parameters", eps1, eps2)
    rabi = _rabi_frequency(eps1, eps2)
    require_finite_phases(action, rabi)
    phase = rabi * action
    transferred = math.sin(phase) / rabi
    detuned = 0.5 * (eps2 - eps1) / rabi * math.sin(phase)
    return math.cos(phase) ** 2 + detuned * detuned, transferred * transferred


def two_level_p2_bound(eps1: float, eps2: float) -> float:
    """Supremum of p2 over the action for the given diagonal ratios; both must be finite."""
    _require_finite("diagonal ratios", eps1, eps2)
    rabi = _rabi_frequency(eps1, eps2)
    return 1.0 / (rabi * rabi)  # a product, not **, so a huge Omega gives 0.0 rather than OverflowError


def measured_two_level_deficit(
    omega12_ratio: float,
    config: IntegratorConfig = IntegratorConfig(),
    omega: float = 1.0,
) -> float:
    """1 - P2(t0) for the harmonic two-level atom with v0/omega = pi/2.

    RK4 with E = (0, -omega12) up to t0 = T/4, a quarter of the drive
    period, at ``config``'s ``steps_per_period`` steps per period, as
    ``measured_deficit`` runs; the two-level coupling is embedded in a 3x3
    matrix.  The deficit follows the quadratic law c (omega12/omega)^2 for
    small splittings, with c = 0.165 measured; the t0-truncation reference
    c = (1/4)(pi/2)^6 overestimates it about 23-fold, so only the quadratic
    law is to be relied on.
    """
    pulse = Pulse.harmonic(0.5 * math.pi * omega, omega)
    energies = LevelEnergies.from_splittings(omega12_ratio * omega, 0.0)
    (trace,) = integrate_batch([(_TWO_LEVEL_COUPLING, energies, pulse, pulse.period / 4)], config)
    return float(1.0 - trace.p2[-1])

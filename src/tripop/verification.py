"""Self-check harness: every enumerated transfer condition against both paths.

For each condition the analytic closed form must give complete transfer to
its target level at the transfer action, the three (k, k') sets of
``classify_cases`` must meet the paper's product identities and parity
patterns (``_CASE_LAWS``) exactly, and the RK4 oracle driven by the
matching harmonic pulse must agree with the analytic populations over a
quarter period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import (
    TransferCondition,
    classify_cases,
    enumerate_conditions,
    family_integers,
    populations_closed_form_array,
)
from .errors import InvalidInputError, NormDriftExceededError
from .propagate import IntegratorConfig, LevelEnergies, integrate_batch
from .pulses import Pulse, harmonic_for_condition

ANALYTIC_TOL = 1e-12
ODE_TOL = 1e-6
# Per case set i, ii and iii: the product of (k, k') that equals n1*n2, and the parities (k % 2, k' % 2).
_CASE_LAWS = (
    (lambda k, kp: (k - kp) * (2 * k + kp), (0, 1)),
    (lambda k, kp: (2 * k + kp) * (k + 2 * kp), (1, 1)),
    (lambda k, kp: (2 * kp + k) * (kp - k), (1, 0)),
)


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of the verification battery for one condition."""

    condition: TransferCondition
    analytic_error: float
    ode_deviation: float
    cases_ok: bool

    @property
    def passed(self) -> bool:
        """Both deviations are within their tolerances and the case sets hold."""
        return self.analytic_error < ANALYTIC_TOL and self.ode_deviation < ODE_TOL and self.cases_ok


def check_condition(cond: TransferCondition, config: IntegratorConfig = IntegratorConfig()) -> ConditionCheck:
    """Run all three checks for one condition, its RK4 run at ``config``'s step."""
    return _check_conditions([cond], config)[0]


def verify_conditions(max_product: int, config: IntegratorConfig = IntegratorConfig()) -> list[ConditionCheck]:
    """Check every family member with n1*n2 <= max_product, every RK4 run at
    ``config``'s step.  A family of more members than ``config.max_runs``
    admits in one batch is refused before any member is built."""
    members = len(family_integers(max_product)[0])
    pulse = Pulse.harmonic(v0=1.0, omega=1.0)  # every member's drive has this period, so these steps
    if members > (cap := config.max_runs(pulse, pulse.period / 4)):
        raise InvalidInputError(f"family of {members} members is past the cap of {cap} for this run length")
    return _check_conditions(enumerate_conditions(max_product), config)


def _check_conditions(conds: list[TransferCondition], config: IntegratorConfig) -> list[ConditionCheck]:
    """The check battery for each condition, with every RK4 run in one batch.

    Each condition is driven by ``harmonic_for_condition`` at omega = 1 up
    to t0 = T/4, a quarter of a period that ``config`` divides into
    ``steps_per_period`` steps, so the runs share a step count.  When runs
    drift past the limit, the batch's error carries the other runs' traces:
    a drifting run fails only its own check, with an infinite ODE deviation.
    """
    pulses = [harmonic_for_condition(cond, 1.0) for cond in conds]
    runs = [(cond.ratios().coupling_matrix(), LevelEnergies(), p, p.period / 4) for cond, p in zip(conds, pulses)]
    try:
        traces = integrate_batch(runs, config)
    except NormDriftExceededError as exc:
        traces = exc.traces

    checks = []
    for cond, pulse, trace in zip(conds, pulses, traces):
        at_transfer = populations_closed_form_array(cond, cond.action_t0)[0]
        analytic_error = float(np.max(np.abs(at_transfer - np.eye(3)[cond.target - 1])))
        cases_ok = all(
            product(k, kp) == cond.product and (k % 2, kp % 2) == parities
            for (k, kp), (product, parities) in zip(classify_cases(cond.n1, cond.n2), _CASE_LAWS)
        )

        if trace is None:
            ode_deviation = math.inf
        else:
            actions = pulse.area(trace.times).a
            analytic = populations_closed_form_array(cond, actions)
            ode_deviation = float(np.max(np.abs(analytic - trace.populations)))
        checks.append(ConditionCheck(cond, analytic_error, ode_deviation, cases_ok))
    return checks

"""Complete population transfer in a degenerate three-level atom.

Analytic dressed-state populations, the odd-integer family of exact
transfer conditions, exact pulse action integrals, a fixed-step RK4 oracle,
and leakage diagnostics for nearly degenerate levels.
"""

from .conditions import (
    OddPair,
    TransferCondition,
    classify_cases,
    condition_from_odd_pair,
    enumerate_conditions,
    family_integers,
    family_table,
    p3_max,
    populations_closed_form_array,
    validate_condition,
)
from .dressed import (
    AmplitudeState,
    CouplingRatios,
    DressedBasis,
    amplitudes_at,
    build_dressed_basis,
    cubic_coefficients,
    populations_general_array,
    require_finite_phases,
)
from .errors import InvalidInputError, NormDriftExceededError, TripopError
from .leakage import (
    delta_p2_at_t0,
    delta_p2_early,
    leakage_scan,
    measured_deficit,
    measured_delta_p2,
    measured_two_level_deficit,
    two_level_p2_bound,
    two_level_populations,
)
from .propagate import (
    IntegratorConfig,
    LevelEnergies,
    PopulationTrace,
    integrate,
    integrate_batch,
    propagate_kick,
)
from .pulses import ActionValue, Pulse, harmonic_for_condition, load_tabulated_pulse
from .verification import ConditionCheck, check_condition, verify_conditions

__version__ = "0.1.0"

__all__ = [
    "ActionValue",
    "AmplitudeState",
    "ConditionCheck",
    "CouplingRatios",
    "DressedBasis",
    "IntegratorConfig",
    "InvalidInputError",
    "LevelEnergies",
    "NormDriftExceededError",
    "OddPair",
    "PopulationTrace",
    "Pulse",
    "TransferCondition",
    "TripopError",
    "amplitudes_at",
    "build_dressed_basis",
    "check_condition",
    "classify_cases",
    "condition_from_odd_pair",
    "cubic_coefficients",
    "delta_p2_at_t0",
    "delta_p2_early",
    "enumerate_conditions",
    "family_integers",
    "family_table",
    "harmonic_for_condition",
    "integrate",
    "integrate_batch",
    "leakage_scan",
    "load_tabulated_pulse",
    "measured_deficit",
    "measured_delta_p2",
    "measured_two_level_deficit",
    "p3_max",
    "populations_closed_form_array",
    "populations_general_array",
    "propagate_kick",
    "require_finite_phases",
    "verify_conditions",
    "two_level_p2_bound",
    "two_level_populations",
    "validate_condition",
]

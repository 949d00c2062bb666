"""Scenario library and analytic oracles for the bundled experiments."""

from .failure import (
    REFERENCE_FAILURE_PROBS,
    REFERENCE_N_SECONDARY,
    REFERENCE_RTT_MS,
    RevisitFailureModel,
    derive_failure_model,
)
from .table4 import table4_grid
from .table5 import (
    SavingsDistribution,
    table5_analytic,
    table5_montecarlo,
)
from .privacy import (
    PRIVACY_SCENARIOS,
    EXPECTED_VERDICTS,
    CellResult,
    run_privacy_matrix,
    run_nat_prolonged_tracking,
)
from .randomized import RandomScheduleSpec, random_schedule, run_random_scenario

__all__ = [
    "REFERENCE_FAILURE_PROBS",
    "REFERENCE_N_SECONDARY",
    "REFERENCE_RTT_MS",
    "RevisitFailureModel",
    "derive_failure_model",
    "table4_grid",
    "SavingsDistribution",
    "table5_analytic",
    "table5_montecarlo",
    "PRIVACY_SCENARIOS",
    "EXPECTED_VERDICTS",
    "CellResult",
    "run_privacy_matrix",
    "run_nat_prolonged_tracking",
    "RandomScheduleSpec",
    "random_schedule",
    "run_random_scenario",
]

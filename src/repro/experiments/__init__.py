"""Experiment harness (E1–E9).

The paper is a doctoral-symposium proposal without an evaluation section;
these experiments operationalise its research questions and research-plan
tasks (each module's docstring says which).  Each module exposes a
``run(seed, scale, ...)`` function returning an
:class:`~repro.experiments.tables.ExperimentResult`;
``tests/test_experiments_harness.py`` calls each with ``scale < 1`` to bound
wall-clock time, asserts its claims and pins its rendered tables, and
``run_all_experiments`` regenerates every table.
"""

from typing import Dict, Optional

from . import (
    e1_parameter_study,
    e2_monitoring,
    e3_sla_derivation,
    e4_reconfiguration,
    e5_autoscaling,
    e6_predictive,
    e7_tail_latency,
    e8_noisy_neighbour,
    e9_resilience,
)
from .tables import ExperimentResult, ResultTable

__all__ = [
    "ExperimentResult",
    "ResultTable",
    "e1_parameter_study",
    "e2_monitoring",
    "e3_sla_derivation",
    "e4_reconfiguration",
    "e5_autoscaling",
    "e6_predictive",
    "e7_tail_latency",
    "e8_noisy_neighbour",
    "e9_resilience",
    "EXPERIMENTS",
    "run_all_experiments",
]

#: Experiment id -> module with a ``run(seed, scale)`` entry point.
EXPERIMENTS = {
    "E1": e1_parameter_study,
    "E2": e2_monitoring,
    "E3": e3_sla_derivation,
    "E4": e4_reconfiguration,
    "E5": e5_autoscaling,
    "E6": e6_predictive,
    "E7": e7_tail_latency,
    "E8": e8_noisy_neighbour,
    "E9": e9_resilience,
}


def run_all_experiments(seed: int = 1, scale: float = 1.0) -> Dict[str, ExperimentResult]:
    """Run every experiment and return their results keyed by experiment id."""
    return {
        experiment_id: module.run(seed=seed, scale=scale)
        for experiment_id, module in EXPERIMENTS.items()
    }

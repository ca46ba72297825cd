"""Experiment E3 — can consistency parameters be derived from the SLA?

Operationalises research question 2 and task 3 of the research plan: the
SLA-driven controller starts from the weakest configuration (ONE/ONE) and
must *derive* the consistency levels each SLA implies for each workload, then
keep the SLA satisfied.  The grid crosses three SLAs (strict / standard /
relaxed staleness bounds) with three workloads (read-heavy low load, balanced
low load, balanced high load) and reports, per cell, the consistency
configuration the controller converged to, the SLA violation fraction, the
observed staleness and the PBS model's predicted stale probability for that
final configuration — i.e. whether the derivation both picked a sensible
configuration and actually met the objectives.

Expected shape: the strict SLA drives the controller to quorum-style levels
(or extra capacity), the relaxed SLA stays at ONE/ONE and wins on latency,
and the standard SLA lands in between; violations should concentrate in the
(strict SLA × high load) corner where the configuration alone cannot buy
consistency without more capacity.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from ..core.sla import SLA
from ..runner import Simulation
from ..workload.operations import BALANCED, READ_HEAVY, OperationMix
from .scenarios import (
    build_config,
    relaxed_sla,
    standard_cluster,
    standard_sla,
    standard_workload,
    strict_sla,
)
from .tables import ExperimentResult, ResultTable

__all__ = ["run"]

_COLUMNS = [
    "sla",
    "workload",
    "offered_rate",
    "final_read_cl",
    "final_write_cl",
    "final_nodes",
    "consistency_actions",
    "scaling_actions",
    "violation_fraction",
    "stale_fraction",
    "window_p95_ms",
    "read_p95_ms",
    "predicted_stale_prob",
]

_WORKLOADS: Sequence[Tuple[str, OperationMix, float]] = (
    ("read_heavy_low", READ_HEAVY, 80.0),
    ("balanced_low", BALANCED, 80.0),
    ("balanced_high", BALANCED, 130.0),
)

_SLAS: Sequence[Tuple[str, Callable[[], SLA]]] = (
    ("strict", strict_sla),
    ("standard", standard_sla),
    ("relaxed", relaxed_sla),
)


def run(
    seed: int = 3,
    scale: float = 1.0,
    workloads: Optional[Sequence[Tuple[str, OperationMix, float]]] = None,
    slas: Optional[Sequence[Tuple[str, Callable[[], SLA]]]] = None,
) -> ExperimentResult:
    """Run experiment E3 and return its result table."""
    duration = max(240.0, 600.0 * scale)
    workloads = list(workloads or _WORKLOADS)
    slas = list(slas or _SLAS)

    result = ExperimentResult(
        experiment="E3",
        description=(
            "Deriving consistency-related parameters from the SLA across "
            "workloads (paper research question 2)"
        ),
    )
    table = result.add_table(ResultTable("E3: SLA-derived configuration", _COLUMNS))

    for sla_name, sla_factory in slas:
        for workload_name, mix, rate in workloads:
            config = build_config(
                label=f"e3-{sla_name}-{workload_name}",
                seed=seed,
                duration=duration,
                cluster=standard_cluster(nodes=3, replication_factor=3),
                workload=standard_workload(rate, mix=mix),
                sla=sla_factory(),
                policy="sla_driven",
                evaluation_interval=20.0,
            )
            simulation = Simulation(config)
            report = simulation.run()

            controller = simulation.controller
            knowledge = controller.knowledge
            final_configuration = report.final_configuration
            replication_factor = int(final_configuration["replication_factor"])
            from ..cluster.types import ConsistencyLevel

            final_read = ConsistencyLevel(str(final_configuration["read_consistency"]))
            final_write = ConsistencyLevel(str(final_configuration["write_consistency"]))
            predicted = knowledge.staleness_model.stale_probability_for_levels(
                0.0, replication_factor, final_read, final_write
            )

            table.add_row(
                {
                    "sla": sla_name,
                    "workload": workload_name,
                    "offered_rate": rate,
                    "final_read_cl": final_read.value,
                    "final_write_cl": final_write.value,
                    "final_nodes": final_configuration["node_count"],
                    "consistency_actions": report.controller_summary["consistency_actions"],
                    "scaling_actions": report.controller_summary["scale_out_actions"]
                    + report.controller_summary["scale_in_actions"],
                    "violation_fraction": report.sla_summary["violation_fraction"],
                    "stale_fraction": report.staleness["stale_fraction"],
                    "window_p95_ms": report.ground_truth_window["p95_window"] * 1000.0,
                    "read_p95_ms": report.workload_summary["read_p95_ms"],
                    "predicted_stale_prob": predicted,
                }
            )

    result.add_note(
        "Every run starts from read=ONE, write=ONE on 3 nodes; the controller "
        "must derive the final configuration from the SLA and the measured lag."
    )
    return result

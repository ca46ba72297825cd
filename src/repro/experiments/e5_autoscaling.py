"""Experiment E5 — SLA-driven operation at minimal cost (the headline result).

Operationalises Sections 3 and 4 of the paper: the same compressed
diurnal-plus-flash-crowd day is served by five operating policies —

* ``static`` — 3 nodes, ONE/ONE, never touched (the optimistic guess),
* ``overprovisioned`` — a peak-sized static cluster with quorum reads (the
  defensive guess the paper wants to stop paying for),
* ``reactive`` — industry-standard utilisation-threshold scaling,
* ``predictive`` — forecast-based capacity scaling, consistency-agnostic,
* ``sla_driven`` — the paper's consistency-aware, SLA-driven controller —

and the table reports SLA compliance, observed consistency, node-hours and
the total cost (infrastructure + churn + monitoring + compensation + SLA
penalties).

Expected shape: ``static`` is cheapest on infrastructure but pays heavily in
violations and compensation once the peak and the flash crowd arrive;
``overprovisioned`` meets the SLA at the highest node-hour bill;
``reactive``/``predictive`` track capacity but still leak staleness because
they never touch the consistency knobs; ``sla_driven`` should land near
over-provisioned compliance at a total cost near the reactive policies.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..cluster.types import ConsistencyLevel
from ..runner import Simulation
from ..workload.operations import BALANCED
from .scenarios import (
    build_config,
    diurnal_with_flash_crowd,
    standard_cluster,
    standard_sla,
    standard_workload,
)
from .tables import ExperimentResult, ResultTable

__all__ = ["run", "POLICY_VARIANTS"]

_COLUMNS = [
    "policy",
    "initial_nodes",
    "final_nodes",
    "scaling_actions",
    "consistency_actions",
    "violation_fraction",
    "violation_seconds",
    "stale_fraction",
    "window_p95_ms",
    "read_p95_ms",
    "failure_fraction",
    "node_hours",
    "infrastructure_cost",
    "compensation_cost",
    "penalty_cost",
    "total_cost",
]

#: (label, policy name, initial nodes, initial read CL)
POLICY_VARIANTS: Sequence[Tuple[str, str, int, ConsistencyLevel]] = (
    ("static", "static", 3, ConsistencyLevel.ONE),
    ("overprovisioned", "overprovisioned_static", 7, ConsistencyLevel.QUORUM),
    ("reactive", "reactive_threshold", 3, ConsistencyLevel.ONE),
    ("predictive", "predictive", 3, ConsistencyLevel.ONE),
    ("sla_driven", "sla_driven", 3, ConsistencyLevel.ONE),
)


def run(
    seed: int = 5,
    scale: float = 1.0,
    variants: Optional[Sequence[Tuple[str, str, int, ConsistencyLevel]]] = None,
) -> ExperimentResult:
    """Run experiment E5 and return its result table."""
    duration = max(600.0, 1800.0 * scale)
    variants = list(variants or POLICY_VARIANTS)

    # The day must genuinely stress the 3-node launch deployment: 3 nodes at
    # 120 ops/s nominal capacity saturate around 150 offered ops/s for the
    # balanced mix, so the diurnal peak sits just below that knee and the
    # flash crowd goes well past it.
    shape = diurnal_with_flash_crowd(
        trough=45.0,
        peak=135.0,
        period=duration,
        flash_rate=200.0,
        flash_start=duration * 0.65,
    )

    result = ExperimentResult(
        experiment="E5",
        description=(
            "End-to-end comparison of operating policies on a diurnal day with a "
            "flash crowd (paper Sections 3-4: SLA compliance at minimal cost)"
        ),
    )
    table = result.add_table(ResultTable("E5: policy comparison", _COLUMNS))

    for label, policy, initial_nodes, read_cl in variants:
        config = build_config(
            label=f"e5-{label}",
            seed=seed,
            duration=duration,
            cluster=standard_cluster(
                nodes=initial_nodes, replication_factor=3, read_consistency=read_cl
            ),
            workload=standard_workload(60.0, mix=BALANCED, shape=shape),
            sla=standard_sla(),
            policy=policy,
            evaluation_interval=20.0,
        )
        simulation = Simulation(config)
        report = simulation.run()
        summary = report.controller_summary
        table.add_row(
            {
                "policy": label,
                "initial_nodes": initial_nodes,
                "final_nodes": report.final_configuration["node_count"],
                "scaling_actions": summary["scale_out_actions"] + summary["scale_in_actions"],
                "consistency_actions": summary["consistency_actions"],
                "violation_fraction": report.sla_summary["violation_fraction"],
                "violation_seconds": report.sla_summary["violation_seconds"],
                "stale_fraction": report.staleness["stale_fraction"],
                "window_p95_ms": report.ground_truth_window["p95_window"] * 1000.0,
                "read_p95_ms": report.workload_summary["read_p95_ms"],
                "failure_fraction": report.workload_summary["failure_fraction"],
                "node_hours": report.cost.node_hours,
                "infrastructure_cost": report.cost.infrastructure_cost,
                "compensation_cost": report.cost.compensation_cost,
                "penalty_cost": report.cost.sla_penalty_cost,
                "total_cost": report.cost.total_cost,
            }
        )

    result.add_note(
        "All policies serve the identical load trace with the identical SLA; the "
        "paper's claim is that the SLA-driven policy reaches overprovisioned-level "
        "compliance at close to reactive-level cost."
    )
    return result

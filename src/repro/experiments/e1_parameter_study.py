"""Experiment E1 — what drives the size of the inconsistency window?

Operationalises task 1 of the paper's research plan ("examination of the
parameters that might impact the size of the inconsistency window: the load
on the database, the amount of nodes in the cluster, ...") and the problem
statement's claim that the window drifts with load.  Starting from a base
operating point, each sweep varies one parameter — offered load, cluster
size, replication factor, read consistency level — and reports the measured
ground-truth inconsistency window next to client latency and the
client-observed stale-read fraction.

Expected shape: the window grows superlinearly
with load, shrinks when nodes are added, grows with the replication factor
(more replicas must converge), and the *client-observed* staleness collapses
when the read consistency level reaches quorum even though the server-side
window does not.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..cluster.types import ConsistencyLevel
from ..runner import Simulation
from ..workload.operations import BALANCED
from .scenarios import build_config, standard_cluster, standard_workload
from .tables import ExperimentResult, ResultTable

__all__ = ["run"]

_COLUMNS = [
    "sweep",
    "offered_rate",
    "nodes",
    "replication_factor",
    "read_cl",
    "mean_utilization",
    "window_mean_ms",
    "window_p95_ms",
    "stale_fraction",
    "read_p95_ms",
    "write_p95_ms",
]


def _run_point(
    label: str,
    sweep: str,
    seed: int,
    duration: float,
    rate: float,
    nodes: int,
    replication_factor: int,
    read_cl: ConsistencyLevel,
) -> Dict[str, object]:
    """Run one operating point and return its table row."""
    config = build_config(
        label=label,
        seed=seed,
        duration=duration,
        cluster=standard_cluster(
            nodes=nodes, replication_factor=replication_factor, read_consistency=read_cl
        ),
        workload=standard_workload(rate, mix=BALANCED),
        policy="static",
        enable_interference=True,
    )
    simulation = Simulation(config)
    report = simulation.run()
    metrics_snapshot = simulation.metrics.latest()
    mean_util = metrics_snapshot.mean_utilization if metrics_snapshot else 0.0
    return {
        "sweep": sweep,
        "offered_rate": rate,
        "nodes": nodes,
        "replication_factor": replication_factor,
        "read_cl": read_cl.value,
        "mean_utilization": mean_util,
        "window_mean_ms": report.ground_truth_window["mean_window"] * 1000.0,
        "window_p95_ms": report.ground_truth_window["p95_window"] * 1000.0,
        "stale_fraction": report.staleness["stale_fraction"],
        "read_p95_ms": report.workload_summary["read_p95_ms"],
        "write_p95_ms": report.workload_summary["write_p95_ms"],
    }


def run(
    seed: int = 1,
    scale: float = 1.0,
    rates: Optional[Sequence[float]] = None,
    node_counts: Optional[Sequence[int]] = None,
    replication_factors: Optional[Sequence[int]] = None,
    read_levels: Optional[Sequence[ConsistencyLevel]] = None,
) -> ExperimentResult:
    """Run experiment E1 and return its result table."""
    duration = max(120.0, 360.0 * scale)
    rates = list(rates or (50.0, 85.0, 115.0, 145.0))
    node_counts = list(node_counts or (3, 4, 6))
    replication_factors = list(replication_factors or (2, 3))
    read_levels = list(
        read_levels or (ConsistencyLevel.ONE, ConsistencyLevel.QUORUM, ConsistencyLevel.ALL)
    )

    result = ExperimentResult(
        experiment="E1",
        description=(
            "Inconsistency window versus load, cluster size, replication factor "
            "and read consistency level (paper research-plan task 1)"
        ),
    )
    table = result.add_table(ResultTable("E1: parameter study", _COLUMNS))

    base_rate = rates[min(2, len(rates) - 1)]

    for rate in rates:
        table.add_row(
            _run_point(
                label=f"e1-load-{rate:g}",
                sweep="load",
                seed=seed,
                duration=duration,
                rate=rate,
                nodes=3,
                replication_factor=3,
                read_cl=ConsistencyLevel.ONE,
            )
        )
    for nodes in node_counts:
        table.add_row(
            _run_point(
                label=f"e1-nodes-{nodes}",
                sweep="nodes",
                seed=seed + 1,
                duration=duration,
                rate=base_rate,
                nodes=nodes,
                replication_factor=min(3, nodes),
                read_cl=ConsistencyLevel.ONE,
            )
        )
    for replication_factor in replication_factors:
        table.add_row(
            _run_point(
                label=f"e1-rf-{replication_factor}",
                sweep="replication_factor",
                seed=seed + 2,
                duration=duration,
                rate=base_rate,
                nodes=3,
                replication_factor=replication_factor,
                read_cl=ConsistencyLevel.ONE,
            )
        )
    for level in read_levels:
        table.add_row(
            _run_point(
                label=f"e1-cl-{level.value}",
                sweep="read_consistency",
                seed=seed + 3,
                duration=duration,
                rate=base_rate,
                nodes=3,
                replication_factor=3,
                read_cl=level,
            )
        )

    result.add_note(
        "window_p95_ms is the ground-truth replica-convergence window; "
        "stale_fraction is what clients observed."
    )
    return result

#!/usr/bin/env python3
"""Diurnal cost optimisation: pay-as-you-use instead of peak provisioning.

Section 3 of the paper argues that statically configuring for the worst case
"causes an overallocation of resources", and that dynamic management saves
money through the cloud's pay-as-you-use billing.  This example serves the
same (time-compressed) day/night load cycle with:

* an **overprovisioned static** cluster sized and configured for the peak, and
* the **SLA-driven** controller starting from a small cluster, growing into
  the peak and shrinking back out of it,

and prints the node-hour and total-cost comparison together with the SLA
compliance both achieved.

Run with::

    python examples/diurnal_cost_optimization.py
"""

from __future__ import annotations

from repro import ClusterConfig, ConsistencyLevel, NodeConfig, Simulation, SimulationConfig, WorkloadSpec
from repro.core.controller import ControllerConfig
from repro.experiments.scenarios import standard_sla
from repro.experiments.tables import ResultTable
from repro.workload import BALANCED, DiurnalLoad, NoisyLoad

DURATION = 1800.0  # one "day", compressed to 30 simulated minutes


def run_variant(label: str, policy: str, initial_nodes: int, read_cl: ConsistencyLevel, seed: int = 21):
    """Run the diurnal trace with one deployment strategy."""
    load = NoisyLoad(
        DiurnalLoad(trough_rate=30.0, peak_rate=110.0, period=DURATION, peak_time=0.5),
        amplitude=0.08,
    )
    config = SimulationConfig(
        seed=seed,
        duration=DURATION,
        cluster=ClusterConfig(
            initial_nodes=initial_nodes,
            replication_factor=3,
            read_consistency=read_cl,
            node=NodeConfig(ops_capacity=150.0),
        ),
        workload=WorkloadSpec(record_count=4_000, operation_mix=BALANCED, load_shape=load),
        sla=standard_sla(),
        controller=ControllerConfig(policy=policy, evaluation_interval=20.0),
        label=label,
    )
    return Simulation(config).run()


def main() -> None:
    table = ResultTable(
        "Diurnal day: overprovisioned static vs SLA-driven",
        [
            "variant",
            "initial_nodes",
            "final_nodes",
            "sla_violation_%",
            "stale_fraction",
            "read_p95_ms",
            "node_hours",
            "infrastructure_cost",
            "total_cost",
        ],
    )
    variants = [
        ("overprovisioned", "static", 7, ConsistencyLevel.QUORUM),
        ("sla_driven", "sla_driven", 3, ConsistencyLevel.ONE),
    ]
    reports = {}
    for label, policy, nodes, read_cl in variants:
        report = run_variant(label, policy, nodes, read_cl)
        reports[label] = report
        table.add_row(
            {
                "variant": label,
                "initial_nodes": nodes,
                "final_nodes": report.final_configuration["node_count"],
                "sla_violation_%": report.sla_summary["violation_fraction"] * 100.0,
                "stale_fraction": report.staleness["stale_fraction"],
                "read_p95_ms": report.workload_summary["read_p95_ms"],
                "node_hours": report.cost.node_hours,
                "infrastructure_cost": report.cost.infrastructure_cost,
                "total_cost": report.cost.total_cost,
            }
        )
    print(table.render())

    over = reports["overprovisioned"].cost.node_hours
    adaptive = reports["sla_driven"].cost.node_hours
    if over > 0:
        saving = (1.0 - adaptive / over) * 100.0
        print()
        print(f"node-hour saving of the SLA-driven controller: {saving:.0f}% "
              f"({adaptive:.2f} vs {over:.2f} node-hours)")


if __name__ == "__main__":
    main()

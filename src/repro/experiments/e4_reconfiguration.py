"""Experiment E4 — reconfiguration overhead and controller convergence.

Operationalises research question 3, which has two halves:

**Part A — what does each action cost while it executes?**  Starting from the
same steady operating point, each scenario applies exactly one action halfway
through the run (add a node, remove a node, strengthen the read consistency
level, raise the replication factor) and the table reports client latency and
the inconsistency window *before*, *during* (the transition interval right
after the action) and *after* the action settles.  This exposes the transient
cost of rebalancing/fill traffic and the steady-state shift each knob buys.

**Part B — does the closed loop converge?**  The SLA-driven policy is run on
a step-load scenario twice, with the stability guard enabled and disabled
(ablation).  The table reports the number of actions, scale-direction flips
and oscillation incidents, plus SLA compliance — showing that the guard
suppresses churn without giving up compliance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.types import ConsistencyLevel
from ..core.stability import StabilityConfig
from ..runner import Simulation
from ..workload.load_shapes import StepLoad
from ..workload.operations import BALANCED
from .scenarios import build_config, standard_cluster, standard_sla, standard_workload
from .tables import ExperimentResult, ResultTable

__all__ = ["run"]

_ACTION_COLUMNS = [
    "action",
    "phase",
    "read_p95_ms",
    "write_p95_ms",
    "window_p95_ms",
    "mean_utilization",
    "phase_duration_s",
]

_STABILITY_COLUMNS = [
    "variant",
    "actions_executed",
    "scale_out",
    "scale_in",
    "direction_flips",
    "oscillations_detected",
    "violation_fraction",
    "node_hours",
]


def _phase_stats(simulation: Simulation, start: float, end: float) -> Dict[str, float]:
    """Latency/window/utilisation aggregates over one time slice."""
    stats = simulation.workload.stats

    def p95_ms(series) -> float:
        return series.window(start, end).percentile(95) * 1000.0

    return {
        "read_p95_ms": p95_ms(stats.read_latency_series),
        "write_p95_ms": p95_ms(stats.write_latency_series),
        "window_p95_ms": p95_ms(simulation.window_tracker.series),
        "mean_utilization": (
            simulation.metrics.series["mean_utilization"].window(start, end).mean()
        ),
        "phase_duration_s": end - start,
    }


def _run_single_action(
    action_name: str,
    apply_action: Optional[Callable[[Simulation], None]],
    seed: int,
    duration: float,
    rate: float,
    table: ResultTable,
) -> None:
    """Run one scenario with a single mid-run action and add its phase rows."""
    config = build_config(
        label=f"e4-{action_name}",
        seed=seed,
        duration=duration,
        cluster=standard_cluster(nodes=3, replication_factor=2),
        workload=standard_workload(rate, mix=BALANCED),
        policy="static",
    )
    simulation = Simulation(config)
    action_time = duration * 0.5
    transition = min(180.0, duration * 0.25)

    simulation.run_until(action_time)
    if apply_action is not None:
        apply_action(simulation)
    simulation.run_until(duration)
    simulation.workload.stop()

    phases = [
        ("before", 0.0, action_time),
        ("during", action_time, action_time + transition),
        ("after", action_time + transition, duration),
    ]
    for phase_name, start, end in phases:
        row: Dict[str, object] = {"action": action_name, "phase": phase_name}
        row.update(_phase_stats(simulation, start, end))
        table.add_row(row)


def _run_stability_variant(
    variant: str,
    guard_enabled: bool,
    seed: int,
    duration: float,
    table: ResultTable,
) -> None:
    """Run the closed-loop step-load scenario with/without the stability guard."""
    shape = StepLoad(before_rate=50.0, after_rate=120.0, step_time=duration * 0.4)
    config = build_config(
        label=f"e4-stability-{variant}",
        seed=seed,
        duration=duration,
        cluster=standard_cluster(nodes=3, replication_factor=3),
        workload=standard_workload(50.0, mix=BALANCED, shape=shape),
        sla=standard_sla(),
        policy="sla_driven",
        evaluation_interval=20.0,
    )
    if not guard_enabled:
        config.controller.stability = StabilityConfig(
            cooldown_seconds={},
            required_persistence=1,
            oscillation_flips=10_000,
        )
    simulation = Simulation(config)
    report = simulation.run()
    summary = report.controller_summary
    table.add_row(
        {
            "variant": variant,
            "actions_executed": summary["actions_executed"],
            "scale_out": summary["scale_out_actions"],
            "scale_in": summary["scale_in_actions"],
            "direction_flips": summary["direction_flips"],
            "oscillations_detected": summary["guard.oscillations_detected"],
            "violation_fraction": report.sla_summary["violation_fraction"],
            "node_hours": report.cost.node_hours,
        }
    )


def run(seed: int = 4, scale: float = 1.0) -> ExperimentResult:
    """Run experiment E4 and return its result tables."""
    duration = max(300.0, 720.0 * scale)
    rate = 120.0

    result = ExperimentResult(
        experiment="E4",
        description=(
            "Transient cost of each reconfiguration action and closed-loop "
            "convergence with/without the stability guard (research question 3)"
        ),
    )
    action_table = result.add_table(
        ResultTable("E4a: per-action transient impact", _ACTION_COLUMNS)
    )

    actions: List[Tuple[str, Optional[Callable[[Simulation], None]]]] = [
        ("baseline_no_action", None),
        ("add_node", lambda sim: sim.cluster.add_node()),
        ("remove_node", lambda sim: sim.cluster.remove_node()),
        (
            "read_cl_one_to_quorum",
            lambda sim: sim.cluster.set_read_consistency(ConsistencyLevel.QUORUM),
        ),
        ("rf_2_to_3", lambda sim: sim.cluster.set_replication_factor(3)),
    ]
    for index, (action_name, apply_action) in enumerate(actions):
        _run_single_action(action_name, apply_action, seed + index, duration, rate, action_table)

    stability_table = result.add_table(
        ResultTable("E4b: stability-guard ablation (step load)", _STABILITY_COLUMNS)
    )
    stability_duration = max(400.0, 900.0 * scale)
    _run_stability_variant("guard_enabled", True, seed + 10, stability_duration, stability_table)
    _run_stability_variant("guard_disabled", False, seed + 10, stability_duration, stability_table)

    result.add_note(
        "'during' is the transition interval immediately after the action; "
        "rebalancing and fill traffic compete with foreground requests there."
    )
    return result

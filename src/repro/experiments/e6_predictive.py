"""Experiment E6 — does forecasting ("smart" scaling) beat reacting?

Isolates the predictive half of the paper's title.  A flash-crowd-dominated
load trace is served by the reactive threshold policy and by the predictive
policy running each of the three forecasters (EWMA, Holt-Winters,
autoregressive).  Because all variants are consistency-agnostic, any
difference comes purely from *when* capacity is provisioned relative to the
load surge.

Reported per variant: SLA violation time, how long the system spent above the
scale-out utilisation ceiling (a proxy for "capacity arrived too late"),
scaling actions, node-hours and total cost.

Expected shape: the reactive policy scales only after utilisation has already
breached the ceiling, so it accumulates violation time during every surge;
trend-aware forecasters (Holt-Winters, AR) provision ahead of the ramp and
cut the violation time substantially at a modest node-hour premium; EWMA sits
between the two because it smooths but does not extrapolate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..runner import Simulation
from ..workload.load_shapes import CompositeLoad, DiurnalLoad, FlashCrowdLoad, NoisyLoad
from ..workload.operations import BALANCED
from .scenarios import build_config, standard_cluster, standard_sla, standard_workload
from .tables import ExperimentResult, ResultTable

__all__ = ["run", "FORECASTER_VARIANTS"]

_COLUMNS = [
    "variant",
    "forecaster",
    "violation_fraction",
    "violation_seconds",
    "seconds_above_ceiling",
    "scale_out_actions",
    "scale_in_actions",
    "final_nodes",
    "node_hours",
    "read_p95_ms",
    "failure_fraction",
    "total_cost",
]

#: (label, policy, forecaster)
FORECASTER_VARIANTS: Sequence[Tuple[str, str, str]] = (
    ("reactive", "reactive_threshold", "naive"),
    ("predictive_ewma", "predictive", "ewma"),
    ("predictive_holt_winters", "predictive", "holt_winters"),
    ("predictive_ar", "predictive", "autoregressive"),
)


def _seconds_above_ceiling(simulation: Simulation, ceiling: float = 0.75) -> float:
    """Time integral of (utilisation > ceiling) from the metric series."""
    series = simulation.metrics.series.get("max_utilization")
    if series is None or len(series) < 2:
        return 0.0
    seconds = 0.0
    times = series.times.tolist()
    values = series.values.tolist()
    for index in range(len(times) - 1):
        if values[index] > ceiling:
            seconds += times[index + 1] - times[index]
    return seconds


def run(
    seed: int = 6,
    scale: float = 1.0,
    variants: Optional[Sequence[Tuple[str, str, str]]] = None,
) -> ExperimentResult:
    """Run experiment E6 and return its result table."""
    duration = max(500.0, 1500.0 * scale)
    variants = list(variants or FORECASTER_VARIANTS)

    # A ramping baseline with two flash crowds: the hard case for reactive
    # scaling, the favourable case for trend-extrapolating forecasters.
    shape = NoisyLoad(
        CompositeLoad(
            [
                DiurnalLoad(trough_rate=30.0, peak_rate=80.0, period=duration, peak_time=0.55),
                FlashCrowdLoad(
                    base_rate=0.0,
                    spike_rate=60.0,
                    spike_start=duration * 0.35,
                    ramp_duration=90.0,
                    hold_duration=180.0,
                    decay_duration=240.0,
                ),
                FlashCrowdLoad(
                    base_rate=0.0,
                    spike_rate=70.0,
                    spike_start=duration * 0.75,
                    ramp_duration=60.0,
                    hold_duration=150.0,
                    decay_duration=200.0,
                ),
            ]
        ),
        amplitude=0.06,
        period=75.0,
    )

    result = ExperimentResult(
        experiment="E6",
        description=(
            "Predictive (forecast-based) versus reactive scaling, with a "
            "forecaster ablation (the 'smart' in smart auto-scaling)"
        ),
    )
    table = result.add_table(ResultTable("E6: forecaster comparison", _COLUMNS))

    for label, policy, forecaster in variants:
        config = build_config(
            label=f"e6-{label}",
            seed=seed,
            duration=duration,
            cluster=standard_cluster(nodes=3, replication_factor=3),
            workload=standard_workload(50.0, mix=BALANCED, shape=shape),
            sla=standard_sla(),
            policy=policy,
            evaluation_interval=20.0,
        )
        config.controller.forecaster = forecaster
        simulation = Simulation(config)
        report = simulation.run()
        summary = report.controller_summary
        table.add_row(
            {
                "variant": label,
                "forecaster": forecaster,
                "violation_fraction": report.sla_summary["violation_fraction"],
                "violation_seconds": report.sla_summary["violation_seconds"],
                "seconds_above_ceiling": _seconds_above_ceiling(simulation),
                "scale_out_actions": summary["scale_out_actions"],
                "scale_in_actions": summary["scale_in_actions"],
                "final_nodes": report.final_configuration["node_count"],
                "node_hours": report.cost.node_hours,
                "read_p95_ms": report.workload_summary["read_p95_ms"],
                "failure_fraction": report.workload_summary["failure_fraction"],
                "total_cost": report.cost.total_cost,
            }
        )

    result.add_note(
        "seconds_above_ceiling measures how long the cluster ran above the "
        "scale-out utilisation ceiling, i.e. how late capacity arrived."
    )
    return result

"""Experiment E2 — can the inconsistency window be measured efficiently?

Operationalises research question 1 and task 2 of the research plan.  One
workload is run several times; in each run the read-after-write prober uses a
different probe interval, while the piggyback monitor and the RTT model (both
probe-free) observe the same traffic.  For every estimator the experiment
reports:

* **accuracy** — mean absolute error of its per-report staleness estimate
  against the ground-truth tracker, plus the error in the stale-read
  fraction it believes the system exhibits, and
* **overhead** — the extra operations it injected (as a fraction of all
  cluster operations) and the analysis CPU it consumed, which the cost model
  also converts into currency.

Expected shape: probing gets more accurate (and more expensive) as the probe
interval shrinks; piggyback measurement is nearly free and tracks the
*client-observed* staleness well but reacts only when production traffic
actually hits stale replicas; the RTT model costs nothing and is the least
accurate, especially once mutation dropping (which it cannot see) dominates
the window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..runner import Simulation
from ..workload.operations import BALANCED
from .scenarios import build_config, standard_cluster, standard_workload
from .tables import ExperimentResult, ResultTable

__all__ = ["run"]

_COLUMNS = [
    "estimator",
    "probe_interval_s",
    "window_mae_ms",
    "stale_fraction_error",
    "estimates",
    "probe_ops",
    "probe_load_fraction",
    "analysis_cpu_s",
    "gt_window_p95_ms",
    "gt_stale_fraction",
]


def _estimator_accuracy(
    simulation: Simulation, estimator_name: str, true_stale: float
) -> Dict[str, float]:
    """An estimator's errors against the tracker and the clients' stale fraction."""
    estimator = simulation.estimators[estimator_name]
    tracker = simulation.window_tracker

    errors: List[float] = []
    previous_time = 0.0
    for estimate in estimator.estimates():
        truth = tracker.series.window(previous_time, estimate.time)
        if truth:
            errors.append(abs(estimate.p95_window - truth.percentile(95)))
        previous_time = estimate.time

    latest_estimates = estimator.estimates()
    if latest_estimates:
        estimated_stale = float(
            np.mean([estimate.stale_read_fraction for estimate in latest_estimates])
        )
    else:
        estimated_stale = 0.0
    return {
        "window_mae_ms": (float(np.mean(errors)) * 1000.0) if errors else 0.0,
        "stale_fraction_error": abs(estimated_stale - true_stale),
        "estimates": float(len(latest_estimates)),
    }


def run(
    seed: int = 2,
    scale: float = 1.0,
    probe_intervals: Optional[Sequence[float]] = None,
    rate: float = 135.0,
) -> ExperimentResult:
    """Run experiment E2 and return its result table."""
    duration = max(180.0, 480.0 * scale)
    probe_intervals = list(probe_intervals or (1.0, 5.0, 20.0))

    result = ExperimentResult(
        experiment="E2",
        description=(
            "Accuracy versus overhead of inconsistency-window estimators "
            "(paper research question 1)"
        ),
    )
    table = result.add_table(ResultTable("E2: monitoring accuracy vs overhead", _COLUMNS))

    for probe_interval in probe_intervals:
        config = build_config(
            label=f"e2-probe-{probe_interval:g}",
            seed=seed,
            duration=duration,
            cluster=standard_cluster(nodes=3, replication_factor=3),
            workload=standard_workload(rate, mix=BALANCED),
            policy="static",
            probe_interval=probe_interval,
        )
        simulation = Simulation(config)
        report = simulation.run()
        gt_p95_ms = report.ground_truth_window["p95_window"] * 1000.0
        gt_stale = report.staleness["stale_fraction"]

        for estimator_name in ("probe", "piggyback", "rtt"):
            if estimator_name != "probe" and probe_interval != probe_intervals[0]:
                # The probe-free estimators are unaffected by the probe
                # interval; report them once to keep the table readable.
                continue
            accuracy = _estimator_accuracy(simulation, estimator_name, gt_stale)
            overhead = report.monitoring_overhead[estimator_name]
            table.add_row(
                {
                    "estimator": estimator_name,
                    "probe_interval_s": probe_interval if estimator_name == "probe" else 0.0,
                    "window_mae_ms": accuracy["window_mae_ms"],
                    "stale_fraction_error": accuracy["stale_fraction_error"],
                    "estimates": accuracy["estimates"],
                    "probe_ops": overhead["probe_operations"],
                    "probe_load_fraction": overhead["probe_load_fraction"],
                    "analysis_cpu_s": overhead["analysis_cpu_seconds"],
                    "gt_window_p95_ms": gt_p95_ms,
                    "gt_stale_fraction": gt_stale,
                }
            )

    result.add_note(
        "probe rows show the probe-rate sweep; piggyback and rtt are probe-free "
        "and listed once (their overhead does not depend on the probe interval)."
    )
    return result

"""The metric dictionary: every name the ledger prints, with unit, direction,
bound and — written down before anything was measured — which end-to-end
metric on which workload a per-layer metric is expected to move.

``BENCHMARK.json`` at the repository root is the same list in the driver's
schema (name/unit/better[/bound] only — it admits no other keys, which is
why the expectations live here and in the README); ``test_ledger.py`` fails
when the two drift apart.

*Host* metrics say how fast the simulator runs; *simulated* metrics (``sim_``
in the name) say what the modelled store did.  The model is unvalidated: the
repository holds no reference results from the paper, so no error figure
exists for any simulated metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from tracing import EVENT_CLASSES, LAYERS

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER", "benchmark_json_lists"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    """Share of the parent's median by which the metric may worsen, and by
    which two sets of runs of the same code may differ."""
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    kind: str
    """``exact`` (a count: identical on every run of the same inputs),
    ``sim`` (a simulated outcome: exact too), ``host`` (calibrated seconds,
    MB or a ratio of wall times), or ``share`` (of profiled host time)."""
    moves: str
    """End-to-end metric it should move."""
    where: str
    """Workloads on which it should move it (elsewhere: no change)."""


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "ops_per_cal_s", "1/s", "higher", 0.15,
        "operations issued / calibrated host seconds of the run phase (first arrival -> "
        "workload.stop()); ops issued is fixed by (workload, seed, --seconds); on "
        "sharded_k2 the shards' run phases one after the other (aggregate on one core)",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "calibrated host seconds of Simulation(config) + workload.preload(), median of 5 "
        "fresh set-ups; on sharded_k2 that per shard, plus the median over 3 parallel runs "
        "of parent wall - slowest shard (spawn, import, pickling, merge)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.06,
        "ru_maxrss of the workload's own subprocess; on sharded_k2 plus its largest "
        "shard worker's",
    ),
    EndToEnd(
        "completed_frac", "frac", "higher", 0.02,
        "simulated operations completed / issued at workload.stop(); shed, timed-out and "
        "still-in-flight operations all count against it (exact for a fixed seed)",
    ),
)

ALL = "all five"
SPEED = "ops_per_cal_s"
UNMOVED = "none (a host-speed change must leave it identical)"

#: (name, unit, better, moves, where) — exact counters, read after the run.
_COUNTERS = (
    ("simulation.engine.events_per_op", "1/op", "lower", SPEED, ALL),
    ("simulation.engine.scheduled_per_op", "1/op", "lower", SPEED, ALL),
    ("simulation.engine.cancelled_skipped_per_op", "1/op", "lower", SPEED,
     "hedged_failslow least (the wheel absorbs timer corpses); ~1 elsewhere"),
    ("simulation.engine.peak_pending", "count", "lower", "peak_rss_mb",
     "autoscale_diurnal, tenants_admission (backlog under saturation)"),
    ("simulation.network.messages_per_op", "1/op", "lower", SPEED,
     "ycsb_b_default; most on autoscale_diurnal (RF-3 write fan-out)"),
    ("simulation.network.dropped_frac", "frac", "lower", "completed_frac", "none today (0)"),
    ("simulation.timers.armed_per_op", "1/op", "lower", SPEED,
     "hedged_failslow only (0 elsewhere)"),
    ("simulation.timers.wheeled_frac", "frac", "higher", SPEED, "hedged_failslow only"),
    ("simulation.timers.heap_avoided_frac", "frac", "higher", SPEED, "hedged_failslow only"),
    ("simulation.resources.mean_queue_delay_ms", "ms", "lower", "completed_frac",
     "autoscale_diurnal, tenants_admission (simulated queueing)"),
    ("simulation.resources.utilization", "frac", "lower", "completed_frac",
     "autoscale_diurnal, tenants_admission"),
    ("cluster.coordinator.timeouts_per_kop", "1/kop", "lower", "completed_frac",
     "autoscale_diurnal"),
    ("cluster.coordinator.hinted_writes_per_kop", "1/kop", "lower", SPEED,
     "autoscale_diurnal"),
    ("cluster.coordinator.hedged_reads_frac", "frac", "lower", SPEED, "hedged_failslow only"),
    ("cluster.replica.applies_per_op", "1/op", "lower", SPEED,
     "autoscale_diurnal most (50% writes x RF 3)"),
    ("cluster.replica.superseded_frac", "frac", "lower", SPEED, "autoscale_diurnal"),
    ("cluster.background.repairs_per_kop", "1/kop", "lower", SPEED, "autoscale_diurnal"),
    ("cluster.background.keys_streamed", "count", "lower", SPEED,
     "autoscale_diurnal only (rebalance after scale-out)"),
    ("middleware.hedging.fired_frac", "frac", "lower", SPEED, "hedged_failslow only"),
    ("middleware.admission.rejected_frac", "frac", "lower", "completed_frac",
     "tenants_admission only (0 elsewhere)"),
    ("consistency.window_tracker.windows_per_op", "1/op", "lower", SPEED + ", peak_rss_mb",
     "autoscale_diurnal most; every workload with writes"),
    ("monitoring.probe_ops_frac", "frac", "lower", SPEED, ALL),
    ("core.controller.rounds", "count", "lower", SPEED, "negligible everywhere"),
    ("core.controller.actions", "count", "lower", SPEED, "autoscale_diurnal (via rebalance)"),
)

#: (name, unit, where) — what the modelled store did; lower is better.
_SIM_OUTCOMES = (
    ("workload.sim_read_p99_ms", "ms", ALL),
    ("workload.sim_write_p99_ms", "ms", ALL),
    ("workload.sim_failed_frac", "frac", ALL),
    ("consistency.window_tracker.sim_window_p95_ms", "ms", ALL + " (sharded_k2: worst shard)"),
    ("consistency.staleness.sim_stale_read_frac", "frac", ALL),
    ("core.sla.sim_violation_frac", "frac", ALL),
    ("core.cost.sim_total_cost", "cost", ALL),
    ("core.cost.sim_node_hours", "node-h", ALL),
)

#: (name, unit, better, moves, where) — host phases outside the run phase.
_HOST_PHASES = (
    ("runner.build_s", "s", "lower", "setup_s", ALL + "; twice over on sharded_k2"),
    ("cluster.cluster.preload_s", "s", "lower", "setup_s", ALL + "; twice over on sharded_k2"),
    ("runner.report_s", "s", "lower", "none (outside both phases; O(ops) percentiles)",
     "ycsb_b_default most"),
    ("runner.rss_after_setup_mb", "MB", "lower", "peak_rss_mb", ALL),
    ("simulation.sharding.spawn_merge_s", "s", "lower", "setup_s",
     "sharded_k2 only (0 elsewhere)"),
    ("simulation.sharding.efficiency", "frac", "higher",
     "none (parallel wall is information only)", "sharded_k2 only (0 elsewhere)"),
)

#: layer -> workloads on which its calls_per_op / self_share should move SPEED.
_LAYER_WHERE = {
    "simulation.engine": ALL + " (largest share with cluster.coordinator)",
    "simulation.timers": "hedged_failslow only",
    "simulation.network": "ycsb_b_default, autoscale_diurnal",
    "simulation.resources": ALL,
    "simulation.randomness": ALL + " (service-time and latency samplers)",
    "simulation.misc": ALL + " (time series, interference ticks)",
    "simulation.sharding": "sharded_k2 only",
    "cluster.coordinator": ALL + " (largest share with simulation.engine)",
    "cluster.cluster": ALL,
    "cluster.replica": "autoscale_diurnal most",
    "cluster.placement": ALL,
    "cluster.background": "autoscale_diurnal",
    "middleware": "hedged_failslow, tenants_admission most",
    "workload": "scalar path on four workloads, chunked/tenant path on tenants_admission",
    "monitoring": "autoscale_diurnal most; sharded_k2 (buffered collector, sketches)",
    "consistency": "autoscale_diurnal most",
    "core": "negligible host time; decides every sim_ metric on autoscale_diurnal",
    "runner": "sharded_k2 (its traced pass includes build and report)",
    "external": ALL + " (numpy percentile/dataclass helpers)",
}


def _per_layer() -> List[PerLayer]:
    rows = [PerLayer(name, unit, better, "exact", moves, where)
            for name, unit, better, moves, where in _COUNTERS]
    rows += [PerLayer(name, unit, "lower", "sim", UNMOVED, where)
             for name, unit, where in _SIM_OUTCOMES]
    rows += [PerLayer(name, unit, better, "host", moves, where)
             for name, unit, better, moves, where in _HOST_PHASES]
    # The rest comes from the traced pass only.
    for layer in LAYERS:
        where = _LAYER_WHERE[layer]
        rows.append(PerLayer(f"{layer}.calls_per_op", "1/op", "lower", "exact", SPEED, where))
        rows.append(PerLayer(f"{layer}.self_share", "frac", "lower", "share", SPEED, where))
    rows.append(PerLayer("trace.calls_per_op", "1/op", "lower", "exact", SPEED, ALL))
    rows.append(PerLayer("trace.unattributed_share", "frac", "lower", "share",
                         "none (tracer quality)", ALL))
    rows += [PerLayer(f"simulation.engine.events_{name}_per_op", "1/op", "lower", "exact",
                      SPEED, ALL + "; they sum to events_per_op")
             for name in EVENT_CLASSES]
    return rows


PER_LAYER: Tuple[PerLayer, ...] = tuple(_per_layer())


def benchmark_json_lists() -> Dict[str, List[Dict[str, object]]]:
    """``end_to_end`` and ``per_layer`` exactly as ``BENCHMARK.json`` holds them."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }

"""One pass of one workload, inside the fresh subprocess ``run.py`` starts.

A pass is: several fresh set-ups (the last one is kept), the run phase in
timed segments, the report, the exact counters, and a drain that proves no
operation was lost.  With ``trace`` the run phase also runs under the
:mod:`tracing` collectors; everything else is identical, so the exact counters
and the report digest of a traced and an untraced pass must agree.

Every layer is observed from outside — public functions, public counters and
``Simulator.add_trace_hook`` — because this benchmark changes no file under
``src/``.  The one liberty taken is on ``sharded_k2``'s serial run, where
``repro.runner.Simulation`` is swapped for a subclass whose ``run()`` is cut
into segments: ``run_shard`` builds and runs its simulation internally and
offers no other handle (see :func:`_sharded_pass`).
"""

from __future__ import annotations

import gc
import hashlib
import json
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro.runner
from repro.runner import Simulation
from repro.simulation.sharding import plan_shards, run_sharded

from measure import SEGMENTS, HostClock, peak_rss_mb
from tracing import EVENT_CLASSES, LAYERS, EventMix, LayerProfile
from workloads import Workload

__all__ = ["run_pass", "digest"]

#: Fresh set-ups per single-process pass; ``setup_s`` is their median.
SETUPS = 5
#: Parallel repeats of the sharded workload in an untraced pass.
SHARDED_REPEATS = 3


def digest(document: object) -> str:
    """sha256 of the canonical JSON form of a report."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Exact counters, read from public surfaces
# ----------------------------------------------------------------------
def _exact_counts(simulations: List[Simulation]) -> Dict[str, float]:
    """Raw exact counts, summed over the simulations of one pass."""
    raw: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        raw[name] = raw.get(name, 0) + value

    peak_pending = 0
    for simulation in simulations:
        stats = simulation.workload.stats
        add("ops_issued", stats.operations_issued)
        add("reads_issued", stats.reads_issued)
        add("ops_completed", stats.operations_completed)
        add("ops_failed", stats.reads_failed + stats.writes_failed)
        add("ops_rejected", stats.operations_rejected)

        queue = simulation.simulator.queue_stats()
        add("events", simulation.simulator.events_processed)
        add("scheduled", queue["scheduled"])
        add("cancelled_skipped", queue["cancelled_skipped"])
        peak_pending = max(peak_pending, queue["peak_pending"])

        cluster = simulation.cluster
        add("messages_sent", cluster.network.messages_sent)
        add("messages_dropped", cluster.network.messages_dropped)

        timers = cluster.coordinator.timer_stats()
        add("timers_armed", timers.get("timers_armed", 0))
        add("timers_wheeled", timers.get("timers_wheeled", 0))
        add("timers_cancelled", timers.get("timers_cancelled", 0))

        for node in cluster.nodes.values():
            server = node.server
            add("server_completed", server.completed)
            add("queue_delay_s", server.mean_queue_delay * server.completed)
            add("busy_s", server.total_busy_time)
            add("writes_applied", node.storage.stats.writes_applied)
            add("writes_superseded", node.storage.stats.writes_superseded)

        coordinator = cluster.coordinator
        add("timeouts", coordinator.timeouts)
        add("hinted_writes", coordinator.hinted_writes)
        add("hedged_reads", coordinator.hedged_reads)
        add(
            "repairs_sent",
            cluster.read_repairer.repairs_sent + cluster.anti_entropy.repairs_sent,
        )
        add(
            "keys_streamed",
            sum(session.keys_streamed for session in cluster.streamer.sessions),
        )

        hedging = cluster.pipeline.get("request-hedging")
        add("hedges_armed", hedging.hedges_armed if hedging is not None else 0)
        add("hedges_fired", hedging.hedges_fired if hedging is not None else 0)
        admission = cluster.pipeline.get("admission-control")
        add("admission_rejected", admission.rejected if admission is not None else 0)

        add("windows_opened", simulation.window_tracker.stats()["windows_opened"])
        add("probe_ops", simulation.overhead.probe_operations)
        add("production_ops", simulation.overhead.production_operations)

        controller = simulation.controller.summary()
        add("controller_rounds", controller["rounds"])
        add("controller_actions", controller["actions_executed"])
        add("scale_out_actions", controller["scale_out_actions"])
    raw["peak_pending"] = peak_pending
    return raw


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_metrics(raw: Dict[str, float], node_seconds: float) -> Dict[str, float]:
    """The per-layer counter metrics, from the raw exact counts."""
    ops = raw["ops_issued"]
    applies = raw["writes_applied"] + raw["writes_superseded"]
    return {
        "simulation.engine.events_per_op": _ratio(raw["events"], ops),
        "simulation.engine.scheduled_per_op": _ratio(raw["scheduled"], ops),
        "simulation.engine.cancelled_skipped_per_op": _ratio(raw["cancelled_skipped"], ops),
        "simulation.engine.peak_pending": raw["peak_pending"],
        "simulation.network.messages_per_op": _ratio(raw["messages_sent"], ops),
        "simulation.network.dropped_frac": _ratio(raw["messages_dropped"], raw["messages_sent"]),
        "simulation.timers.armed_per_op": _ratio(raw["timers_armed"], ops),
        "simulation.timers.wheeled_frac": _ratio(raw["timers_wheeled"], raw["timers_armed"]),
        "simulation.timers.heap_avoided_frac": _ratio(
            raw["timers_cancelled"], raw["timers_wheeled"]
        ),
        "simulation.resources.mean_queue_delay_ms": 1000.0
        * _ratio(raw["queue_delay_s"], raw["server_completed"]),
        "simulation.resources.utilization": _ratio(raw["busy_s"], node_seconds),
        "cluster.coordinator.timeouts_per_kop": 1000.0 * _ratio(raw["timeouts"], ops),
        "cluster.coordinator.hinted_writes_per_kop": 1000.0 * _ratio(raw["hinted_writes"], ops),
        "cluster.coordinator.hedged_reads_frac": _ratio(raw["hedged_reads"], raw["reads_issued"]),
        "cluster.replica.applies_per_op": _ratio(applies, ops),
        "cluster.replica.superseded_frac": _ratio(raw["writes_superseded"], applies),
        "cluster.background.repairs_per_kop": 1000.0 * _ratio(raw["repairs_sent"], ops),
        "cluster.background.keys_streamed": raw["keys_streamed"],
        "middleware.hedging.fired_frac": _ratio(raw["hedges_fired"], raw["hedges_armed"]),
        "middleware.admission.rejected_frac": _ratio(raw["admission_rejected"], ops),
        "consistency.window_tracker.windows_per_op": _ratio(raw["windows_opened"], ops),
        "monitoring.probe_ops_frac": _ratio(
            raw["probe_ops"], raw["probe_ops"] + raw["production_ops"]
        ),
        "core.controller.rounds": raw["controller_rounds"],
        "core.controller.actions": raw["controller_actions"],
    }


def _sim_outcomes(
    workload: Dict[str, float],
    staleness: Dict[str, float],
    cost: Dict[str, float],
    shard_reports: List[Dict[str, object]],
) -> Dict[str, float]:
    """What the modelled store did: exact for a fixed (workload, seed, seconds).

    ``shard_reports`` are the full per-simulation reports.  The ground-truth
    window p95 and the SLA violation fraction are not mergeable statistics,
    so over several shards they are the worst shard's p95 and the
    evaluation-weighted mean respectively.
    """
    issued = workload["operations_issued"]
    evaluations = sum(report["sla"]["evaluations"] for report in shard_reports)
    violating = sum(
        report["sla"]["evaluations"] * report["sla"]["violation_fraction"]
        for report in shard_reports
    )
    return {
        "workload.sim_read_p99_ms": workload["read_p99_ms"],
        "workload.sim_write_p99_ms": workload["write_p99_ms"],
        "workload.sim_failed_frac": _ratio(issued - workload["operations_completed"], issued),
        "consistency.window_tracker.sim_window_p95_ms": 1000.0
        * max(report["ground_truth_window"]["p95_window"] for report in shard_reports),
        "consistency.staleness.sim_stale_read_frac": staleness["stale_fraction"],
        "core.sla.sim_violation_frac": _ratio(violating, evaluations),
        "core.cost.sim_total_cost": cost["total_cost"],
        "core.cost.sim_node_hours": cost["node_hours"],
    }


def _drain(simulations: List[Simulation], raw: Dict[str, float]) -> Dict[str, float]:
    """Conservation: issued = completed + failed + rejected + in flight at stop.

    "In flight" is made checkable by letting the stopped simulations run past
    every operation timeout: afterwards each issued operation must have
    exactly one outcome.  Called after the report and the counters are
    taken, so nothing measured sees the extra simulated seconds.
    """
    resolved_at_stop = raw["ops_completed"] + raw["ops_failed"] + raw["ops_rejected"]
    resolved = 0
    for simulation in simulations:
        timeout = simulation.cluster.coordinator.config.operation_timeout
        simulation.simulator.run_until(simulation.simulator.now + 2.0 * timeout + 1.0)
        stats = simulation.workload.stats
        resolved += (
            stats.operations_completed
            + stats.reads_failed
            + stats.writes_failed
            + stats.operations_rejected
        )
    return {
        "in_flight_at_stop": raw["ops_issued"] - resolved_at_stop,
        "lost_ops": raw["ops_issued"] - resolved,
    }


# ----------------------------------------------------------------------
# Phases shared by both kinds of pass
# ----------------------------------------------------------------------
def _fresh_setups(clock: HostClock, build_config) -> Dict[str, object]:
    """``SETUPS`` fresh ``Simulation(config)`` + ``preload()``; keeps the last.

    One set-up is one timed phase; its calibrated seconds are split between
    build and preload in proportion to their raw seconds.
    """
    setup_cal: List[float] = []
    setup_raw: List[float] = []
    build_share: List[float] = []
    simulation: Optional[Simulation] = None
    for _ in range(SETUPS):
        # Drop the previous attempt first so at most one data set is resident.
        simulation = None
        gc.collect()
        config = build_config()

        def set_up() -> Tuple[Simulation, float]:
            started = perf_counter()
            fresh = Simulation(config)
            built_after = perf_counter() - started
            fresh.workload.preload()
            return fresh, built_after

        (simulation, built_after), raw, cal = clock.timed(set_up)
        setup_cal.append(cal)
        setup_raw.append(raw)
        build_share.append(built_after / raw)
    setup_s = median(setup_cal)
    build_s = setup_s * median(build_share)
    return {
        "simulation": simulation,
        "setup_s": setup_s,
        "build_s": build_s,
        "preload_s": setup_s - build_s,
        "setup_s_raw": median(setup_raw),
        "rss_after_setup_mb": peak_rss_mb()[0],
    }


def _run_phase(
    simulation: Simulation,
    clock: HostClock,
    hook=None,
    profile: Optional[LayerProfile] = None,
    segments: int = SEGMENTS,
) -> Dict[str, float]:
    """First arrival -> ``workload.stop()``, in calibrated segments.

    ``hook`` is registered as the simulator's trace hook; ``profile`` is
    switched on for the segments only, so the calibrator's bursts between
    them are not recorded.
    """
    run_until = simulation.simulator.run_until
    advance = run_until
    if hook is not None:
        simulation.simulator.add_trace_hook(hook)
    if profile is not None:

        def advance(edge: float) -> None:
            profile.enable()
            run_until(edge)
            profile.disable()

    simulation.workload.start()
    run = clock.segmented(advance, 0.0, simulation.config.duration, segments)
    simulation.workload.stop()
    return run


def _fold_trace(
    profile: LayerProfile, mix: EventMix, raw: Dict[str, float], per_layer: Dict[str, float]
) -> Tuple[Dict[str, object], List[str]]:
    """Fold the collectors into ``per_layer``; return the trace document and
    the problems found in it."""
    ops = raw["ops_issued"]
    events_by_class = mix.by_class()
    folded = profile.fold(ops)
    for layer in LAYERS:
        row = folded["layers"][layer]
        per_layer[f"{layer}.calls_per_op"] = row["calls_per_op"]
        per_layer[f"{layer}.self_share"] = row["self_share"]
    per_layer["trace.calls_per_op"] = folded["calls_per_op"]
    per_layer["trace.unattributed_share"] = folded["unattributed_share"]
    for name in EVENT_CLASSES:
        per_layer[f"simulation.engine.events_{name}_per_op"] = events_by_class[name] / ops

    problems = []
    shares = sum(folded["layers"][layer]["self_share"] for layer in LAYERS)
    if abs(shares - 1.0) > 0.01:
        problems.append(f"layer self_share values sum to {shares:.4f}, not 1 +- 0.01")
    if folded["unattributed_share"] >= 0.03:
        problems.append(f"trace.unattributed_share {folded['unattributed_share']:.4f} >= 0.03")
    if sum(events_by_class.values()) != raw["events"]:
        problems.append(
            f"event mix counts {sum(events_by_class.values())} events, "
            f"the kernel fired {raw['events']:.0f}"
        )
    return {"events_by_class": events_by_class, **folded}, problems


# ----------------------------------------------------------------------
# sharded_k2
# ----------------------------------------------------------------------
# A parallel run cannot be timed repeatably here: its shards run in other
# processes, where no calibrator burst can be interleaved, and bracketing
# bursts do not track a noise that changes within seconds (12 repeats of one
# run: raw CV 7%, bracket-calibrated worse).  So the run phase is measured the
# way every other workload's is — in this process, in calibrated segments — by
# running the shards one after the other.  That is the sharded mode's
# aggregate throughput *on one core*, the figure ROADMAP item 2 targets.  The
# parallel repeats then supply what only they can: spawn + import + pickling +
# merge time, the parallel efficiency, and a digest the serial run must equal.
def _serial_shards(config, shards: int, clock: HostClock, hook, profile):
    """``run_sharded(parallel=False)`` with each shard's run phase segmented.

    ``run_shard`` builds and runs its simulation internally, so for the call's
    duration ``repro.runner.Simulation`` is a subclass whose ``run()`` is
    ``Simulation.run()`` with its one ``run_until`` cut into segments (the
    digest guard fails if the two ever diverge).  Traced, the *whole* call is
    profiled — plan, builds, preloads, reports and merge are where
    ``simulation.sharding`` and ``runner`` do their work — except the bursts.
    """
    runs: List[Dict[str, float]] = []
    simulations: List[Simulation] = []

    class _SegmentedSimulation(Simulation):
        def run(self):
            self.workload.preload()
            if profile is not None:
                profile.disable()  # _run_phase switches it on per segment
            # SEGMENTS over the whole pass, so that a shard's segments are not
            # shorter than the bursts between them.
            runs.append(_run_phase(self, clock, hook, profile, SEGMENTS // shards))
            if profile is not None:
                profile.enable()
            simulations.append(self)
            return self.build_report()

    repro.runner.Simulation = _SegmentedSimulation
    try:
        if profile is not None:
            profile.enable()
        report = run_sharded(config, shards, parallel=False)
        if profile is not None:
            profile.disable()
    finally:
        repro.runner.Simulation = Simulation
    return report, simulations, runs


def _parallel_repeats(
    config, shards: int, clock: HostClock, repeats: int, serial_digest: str
) -> Tuple[Dict[str, float], List[str]]:
    """Real ``run_sharded(parallel=True)`` runs; figures are the median repeat."""
    columns: Dict[str, List[float]] = {
        "spawn_merge_s": [], "spawn_merge_s_raw": [], "efficiency": [], "parallel_wall_s_raw": []
    }
    problems: List[str] = []
    for _ in range(repeats):
        report, wall_raw, wall_cal = clock.timed(
            lambda: run_sharded(config, shards, parallel=True)
        )
        outside_shards = wall_raw - report.timing["shard_wall_seconds_max"]
        columns["spawn_merge_s_raw"].append(outside_shards)
        columns["spawn_merge_s"].append(outside_shards * wall_cal / wall_raw)
        columns["efficiency"].append(
            report.timing["shard_wall_seconds_sum"] / (shards * wall_raw)
        )
        columns["parallel_wall_s_raw"].append(wall_raw)
        if digest(report.merged) != serial_digest:
            problems.append("a parallel run's merged digest differs from the serial run's")
    return {name: median(values) for name, values in columns.items()}, problems


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def run_pass(workload: Workload, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Run one pass; the result is JSON-serialisable."""
    clock = HostClock()
    duration = workload.duration(seconds)
    shards = workload.shards
    config = workload.build(seed, duration)
    mix = EventMix() if trace else None
    hook = mix.hook() if trace else None
    profile = LayerProfile() if trace else None
    parallel = {"spawn_merge_s": 0.0, "spawn_merge_s_raw": 0.0, "efficiency": 0.0}
    problems: List[str] = []

    if shards:
        # Shards are equal-sized, so shard 0's set-up stands for each.
        setup = _fresh_setups(clock, lambda: plan_shards(config, shards)[0])
        del setup["simulation"]
        sharded_report, simulations, runs = _serial_shards(config, shards, clock, hook, profile)
        summary, shard_reports = sharded_report.merged, sharded_report.per_shard
        sim_digest = digest(summary)
        _, report_raw, report_cal = clock.timed(simulations[0].build_report)
        parallel, problems = _parallel_repeats(
            config, shards, clock, 1 if trace else SHARDED_REPEATS, sim_digest
        )
    else:
        setup = _fresh_setups(clock, lambda: workload.build(seed, duration))
        simulations = [setup.pop("simulation")]
        runs = [_run_phase(simulations[0], clock, hook, profile)]
        report, report_raw, report_cal = clock.timed(simulations[0].build_report)
        summary = report.as_dict()
        shard_reports = [summary]
        sim_digest = digest(summary)
    own_rss, largest_child_rss = peak_rss_mb()

    raw = _exact_counts(simulations)
    ops = raw["ops_issued"]
    per_layer = _counter_metrics(raw, node_seconds=summary["cost"]["node_hours"] * 3600.0)
    per_layer.update(
        _sim_outcomes(summary["workload"], summary["staleness"], summary["cost"], shard_reports)
    )
    per_layer.update(
        {
            "runner.build_s": setup["build_s"],
            "cluster.cluster.preload_s": setup["preload_s"],
            "runner.report_s": report_cal,
            "runner.rss_after_setup_mb": setup["rss_after_setup_mb"],
            "simulation.sharding.spawn_merge_s": parallel["spawn_merge_s"],
            "simulation.sharding.efficiency": parallel["efficiency"],
        }
    )
    problems += workload.guard(raw)
    traced: Dict[str, object] = {}
    if trace:
        traced, trace_problems = _fold_trace(profile, mix, raw, per_layer)
        problems += trace_problems
    conservation = _drain(simulations, raw)
    if conservation["in_flight_at_stop"] < 0 or conservation["lost_ops"] != 0:
        problems.append(
            "conservation broken: issued != completed + failed + rejected + in flight "
            f"(in flight at stop {conservation['in_flight_at_stop']:.0f}, "
            f"never resolved {conservation['lost_ops']:.0f})"
        )

    run_s_cal = sum(run["cal_s"] for run in runs)
    run_s_raw = sum(run["raw_s"] for run in runs)
    info = {
        "sim_digest": sim_digest,
        "sim_duration_s": duration,
        "ops_issued": ops,
        "run_s_raw": run_s_raw,
        "run_s_cal": run_s_cal,
        "ops_per_s_raw": ops / run_s_raw,
        "setup_s_raw": parallel["spawn_merge_s_raw"] + max(1, shards) * setup["setup_s_raw"],
        "report_s_raw": report_raw,
        **conservation,
        **clock.speed_summary(),
    }
    if shards:
        info["parallel_wall_s_raw"] = parallel["parallel_wall_s_raw"]
        info["parallel_ops_per_s_raw"] = ops / parallel["parallel_wall_s_raw"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "end_to_end": {
            "ops_per_cal_s": ops / run_s_cal,
            # Once per simulation built, plus what only the parallel mode pays.
            "setup_s": parallel["spawn_merge_s"] + max(1, shards) * setup["setup_s"],
            # Own peak plus the largest shard worker's (no workers: plus 0).
            "peak_rss_mb": own_rss + largest_child_rss,
            "completed_frac": raw["ops_completed"] / ops,
        },
        "per_layer": per_layer,
        "info": info,
        "raw": raw,
        "problems": problems,
        "trace": traced,
    }

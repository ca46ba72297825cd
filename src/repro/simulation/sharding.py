"""Sharded parallel simulation: partition, run, merge.

The discrete-event kernel is single threaded by design — determinism comes
from one totally-ordered event queue.  To use more than one core without
giving that up, this module partitions a scenario into ``K`` *shards*, each a
complete, independent sub-simulation (its own replica groups, coordinator,
workload slice and RNG streams) that runs in its own worker process, and then
merges the shard results through reducers that are **exact and
order-independent**:

* counters (operations issued/completed/failed/rejected, stale reads, SLA
  evaluations, events processed) merge by addition,
* latency distributions merge through
  :class:`~repro.monitoring.percentiles.MergeableHistogramSketch` — bin-count
  addition, so the merged percentiles are identical for any shard execution
  order at fixed ``K``,
* fractions (failure, rejection, staleness, SLA violation) are *recomputed*
  from the merged counters, never averaged.

What sharding means physically: the scenario's key space is split into ``K``
disjoint slices (records and tenants partitioned round-robin by index, key
prefixes suffixed ``@s<i>`` so shard key spaces can never collide) and the
arrival process is split proportionally via
:class:`~repro.workload.load_shapes.ScaledLoad`.  Each shard models its slice
on a proportionally smaller cluster.  This approximates a range-partitioned
deployment where slices do not contend for the same replicas — cross-shard
effects (one global controller, shared admission) are deliberately out of
scope, which is why sharded mode is opt-in and reported as its own scenario
kind rather than pretending to be the single-process run at higher speed.

Determinism contract (PERFORMANCE.md rule 9): shard ``i`` of ``K`` draws from
RNG namespace ``shard<i>/<K>``, so its bitstream depends only on
``(seed, i, K)`` — never on scheduling, core count, or which process ran it.
``merge_shard_results`` sorts by shard index before reducing, and every
reducer is commutative, so the merged report is bit-identical no matter how
the shards were executed (serially, in any permutation, or in parallel).
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence

from ..cost.report import CostReport
from ..monitoring.percentiles import MergeableHistogramSketch
from ..workload.load_shapes import ScaledLoad
from .errors import ShardError

__all__ = [
    "ShardResult",
    "ShardedReport",
    "plan_shards",
    "run_shard",
    "run_sharded",
    "merge_shard_results",
]

#: Keys of :class:`WorkloadStats` that merge by plain addition.
_WORKLOAD_COUNTER_KEYS = (
    "reads_issued",
    "writes_issued",
    "reads_completed",
    "writes_completed",
    "reads_failed",
    "writes_failed",
    "reads_rejected",
    "writes_rejected",
    "stale_reads",
)


@dataclass
class ShardResult:
    """Everything one shard worker sends back to the merge layer.

    Must stay picklable (it crosses a process boundary): plain counters,
    dicts and the two sketches — no simulator, cluster or generator objects.
    """

    index: int
    shards: int
    wall_seconds: float
    workload_counters: Dict[str, int]
    """Per-kind operation counts; the report carries only their totals."""

    read_sketch: MergeableHistogramSketch
    write_sketch: MergeableHistogramSketch
    report: Dict[str, object]
    """The shard's full :meth:`SimulationReport.as_dict`: the merge reads its
    SLA, staleness, cost, fault and event figures from here."""


@dataclass
class ShardedReport:
    """The merged view of one sharded run."""

    label: str
    seed: int
    shards: int
    duration: float
    merged: Dict[str, object]
    """Deterministically merged figures — bit-identical across shard
    execution orderings at fixed ``K`` (the property CI asserts)."""

    per_shard: List[Dict[str, object]] = field(default_factory=list)
    """Full per-shard reports, ordered by shard index."""

    timing: Dict[str, float] = field(default_factory=dict)
    """Wall-clock figures (vary run to run; kept out of :attr:`merged`)."""

    def as_dict(self) -> Dict[str, object]:
        """Nested plain-dict view (JSON-serialisable)."""
        return {
            "label": self.label,
            "seed": self.seed,
            "shards": self.shards,
            "duration": self.duration,
            "merged": self.merged,
            "per_shard": list(self.per_shard),
            "timing": dict(self.timing),
        }

    def headline(self) -> Dict[str, float]:
        """The columns sharded experiment tables report."""
        workload = self.merged["workload"]
        return {
            "read_p95_ms": workload["read_p95_ms"],
            "write_p95_ms": workload["write_p95_ms"],
            "failure_fraction": workload["failure_fraction"],
            "events_processed": self.merged["events_processed"],
            "total_cost": self.merged["cost"]["total_cost"],
        }


def _split_count(total: int, shards: int, index: int) -> int:
    """Size of slice ``index`` when ``total`` items split across ``shards``.

    Round-robin split: the remainder goes to the lowest-indexed shards, so
    slice sizes differ by at most one and sum exactly to ``total``.
    """
    base, remainder = divmod(total, shards)
    return base + (1 if index < remainder else 0)


def plan_shards(config, shards: int) -> List[object]:
    """Derive the ``K`` per-shard :class:`SimulationConfig` objects.

    Pure planning — nothing runs.  Each shard config is a deep-enough copy
    (``dataclasses.replace`` on the config, cluster and workload) that
    running one shard cannot mutate another's plan.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    workload = config.workload
    if workload.tenants is not None and workload.tenants.load_shape_overrides:
        raise ValueError(
            "sharded mode does not support per-tenant load_shape_overrides: "
            "overrides are keyed by global tenant index, which has no stable "
            "meaning once tenants are partitioned across shards"
        )
    cluster = config.cluster
    replication = cluster.replication_factor
    plans = []
    for index in range(shards):
        if workload.tenants is not None:
            # Tenant mode: the tenant population is the unit of partition
            # (the key space is per tenant), so the arrival share follows
            # the tenant split and record_count is left alone.
            tenants = _split_count(workload.tenants.tenants, shards, index)
            if tenants < 1:
                raise ValueError(
                    f"cannot split {workload.tenants.tenants} tenants across "
                    f"{shards} shards: shard {index} would be empty"
                )
            share = tenants / workload.tenants.tenants
            shard_workload = dataclasses.replace(
                workload,
                load_shape=ScaledLoad(workload.load_shape, share),
                # Shard-suffixed prefix keeps tenant ids (derived from the
                # prefix) disjoint across shards even at equal local indices.
                tenants=dataclasses.replace(
                    workload.tenants,
                    tenants=tenants,
                    key_prefix=f"{workload.tenants.key_prefix}@s{index}-",
                ),
            )
        else:
            records = _split_count(workload.record_count, shards, index)
            if records < 1:
                raise ValueError(
                    f"cannot split {workload.record_count} records across "
                    f"{shards} shards: shard {index} would be empty"
                )
            share = records / workload.record_count
            shard_workload = dataclasses.replace(
                workload,
                record_count=records,
                load_shape=ScaledLoad(workload.load_shape, share),
                key_prefix=f"{workload.key_prefix}@s{index}",
            )
        shard_cluster = dataclasses.replace(
            cluster,
            initial_nodes=max(replication, _split_count(cluster.initial_nodes, shards, index)),
            max_nodes=max(replication, _split_count(cluster.max_nodes, shards, index)),
            min_nodes=max(1, _split_count(cluster.min_nodes, shards, index)),
        )
        # A fault campaign splits with the scenario: each spec lands on
        # exactly one shard (round-robin by position), so the sharded run
        # injects the same faults as the classic one — once each, on a
        # deterministic shard.
        faults = config.faults
        if faults is not None:
            faults = faults.shard(index, shards)
        plans.append(
            dataclasses.replace(
                config,
                cluster=shard_cluster,
                workload=shard_workload,
                faults=faults,
                stream_namespace=f"shard{index}/{shards}",
                label=f"{config.label}@s{index}",
            )
        )
    return plans


def run_shard(shard_config, index: int, shards: int) -> ShardResult:
    """Run one shard to completion and package the mergeable result.

    Top-level function (not a closure) so the spawn start method can import
    it in worker processes.
    """
    # Imported here, not at module top: workers only need the simulation
    # stack once they actually run, and the lazy import keeps this module
    # cheap to import from the CLI for planning/merging alone.
    from ..runner import Simulation

    started = time.perf_counter()
    simulation = Simulation(shard_config)
    report = simulation.run()
    wall = time.perf_counter() - started
    stats = simulation.workload.stats
    # The latency columns go into the merge format at hand-over, in one
    # vectorized pass each.
    read_sketch = MergeableHistogramSketch()
    read_sketch.observe_many(stats.read_latency_series.values)
    write_sketch = MergeableHistogramSketch()
    write_sketch.observe_many(stats.write_latency_series.values)
    return ShardResult(
        index=index,
        shards=shards,
        wall_seconds=wall,
        workload_counters={
            key: int(getattr(stats, key)) for key in _WORKLOAD_COUNTER_KEYS
        },
        read_sketch=read_sketch,
        write_sketch=write_sketch,
        report=report.as_dict(),
    )


def merge_shard_results(results: Sequence[ShardResult]) -> Dict[str, object]:
    """Reduce shard results into the merged figures.

    Exact and order-independent: results are sorted by shard index, counters
    add, sketches merge bin-wise, and every fraction is recomputed from the
    merged counters.  Calling this with the same results in any order yields
    a bit-identical dictionary.
    """
    if not results:
        raise ValueError("merge_shard_results needs at least one shard result")
    ordered = sorted(results, key=lambda result: result.index)
    indices = [result.index for result in ordered]
    if indices != list(range(len(ordered))):
        raise ValueError(f"expected shard indices 0..{len(ordered) - 1}, got {indices}")
    shards = ordered[0].shards
    if any(result.shards != shards for result in ordered):
        raise ValueError("cannot merge results from different shard counts")

    counters = {key: 0 for key in _WORKLOAD_COUNTER_KEYS}
    for result in ordered:
        for key in _WORKLOAD_COUNTER_KEYS:
            counters[key] += result.workload_counters.get(key, 0)
    read_sketch = MergeableHistogramSketch.merged(
        [result.read_sketch for result in ordered]
    )
    write_sketch = MergeableHistogramSketch.merged(
        [result.write_sketch for result in ordered]
    )
    issued = counters["reads_issued"] + counters["writes_issued"]
    failed = counters["reads_failed"] + counters["writes_failed"]
    rejected = counters["reads_rejected"] + counters["writes_rejected"]
    completed = counters["reads_completed"] + counters["writes_completed"]
    read_p50, read_p95, read_p99 = read_sketch.percentiles((50.0, 95.0, 99.0))
    write_p50, write_p95, write_p99 = write_sketch.percentiles((50.0, 95.0, 99.0))
    workload: Dict[str, float] = {
        "operations_issued": float(issued),
        "operations_completed": float(completed),
        "failure_fraction": (failed / issued) if issued else 0.0,
        "operations_rejected": float(rejected),
        "rejected_fraction": (rejected / issued) if issued else 0.0,
        "stale_reads": float(counters["stale_reads"]),
        "read_p50_ms": read_p50 * 1000.0,
        "read_p95_ms": read_p95 * 1000.0,
        "read_p99_ms": read_p99 * 1000.0,
        "write_p50_ms": write_p50 * 1000.0,
        "write_p95_ms": write_p95 * 1000.0,
        "write_p99_ms": write_p99 * 1000.0,
    }
    workload.update({key: float(value) for key, value in counters.items()})

    reports = [result.report for result in ordered]

    def total(section: str, key: str) -> float:
        return sum(float(report[section].get(key, 0.0)) for report in reports)

    sla: Dict[str, float] = {
        "evaluations": total("sla", "evaluations"),
        "violation_seconds": total("sla", "violation_seconds"),
        "penalty_cost": total("sla", "penalty_cost"),
    }

    staleness_reads = total("staleness", "reads")
    stale_reads = total("staleness", "stale_reads")
    staleness: Dict[str, float] = {
        "reads": staleness_reads,
        "stale_reads": stale_reads,
        "stale_fraction": (stale_reads / staleness_reads) if staleness_reads else 0.0,
        "max_staleness": max(
            float(report["staleness"].get("max_staleness", 0.0)) for report in reports
        ),
    }

    # Every numeric CostReport field merges by addition; ``total_cost`` is
    # the report's own sum of the merged parts, never a sum of totals.
    cost = CostReport(
        **{
            spec.name: total("cost", spec.name)
            for spec in dataclasses.fields(CostReport)
            if spec.name != "details"
        }
    ).as_dict()

    # Fault records merge like every other reducer: counts add, and the
    # merged event list is sorted by a total key (time, kind, target, shard)
    # so it is identical for any shard execution order.
    fault_counts: Dict[str, int] = {}
    fault_events: List[Dict[str, object]] = []
    for result in ordered:
        shard_faults = result.report["faults"]  # empty for a fault-free shard
        for kind, count in shard_faults.get("by_kind", {}).items():
            fault_counts[kind] = fault_counts.get(kind, 0) + count
        for event in shard_faults.get("events", ()):
            fault_events.append({**event, "shard": result.index})
    fault_events.sort(
        key=lambda event: (
            event.get("start_time", 0.0),
            str(event.get("kind", "")),
            str(event.get("target", "")),
            event.get("shard", 0),
        )
    )
    faults: Dict[str, object] = {
        "count": sum(fault_counts.values()),
        "by_kind": {kind: fault_counts[kind] for kind in sorted(fault_counts)},
        "events": fault_events,
    }

    return {
        "workload": workload,
        "sla": sla,
        "staleness": staleness,
        "cost": cost,
        "events_processed": sum(report["events_processed"] for report in reports),
        "faults": faults,
        "sketches": {
            "read": read_sketch.snapshot(),
            "write": write_sketch.snapshot(),
            "accuracy": read_sketch.accuracy,
        },
    }


def run_sharded(
    config,
    shards: int,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    shard_order: Optional[Sequence[int]] = None,
) -> ShardedReport:
    """Plan, execute and merge a ``K``-shard run of ``config``.

    ``parallel=True`` runs shards in spawn-started worker processes (capped
    at ``max_workers``); ``parallel=False`` runs them in this process, in
    ``shard_order`` if given — used by tests to prove the merge is invariant
    to execution order.  Both paths produce the same merged figures, and
    both report a failing shard as a :class:`ShardError` that names it.
    """
    plans = plan_shards(config, shards)
    started = time.perf_counter()
    results: List[ShardResult] = []
    if parallel and shards > 1:
        workers = min(shards, max_workers) if max_workers else shards
        # One single-worker pool per lane, shards dealt round-robin: a worker
        # that dies breaks only its own lane, so the first future without a
        # result is the shard that killed it (one shared pool would fail
        # every unfinished shard alike).
        lanes = [
            ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn"))
            for _ in range(workers)
        ]
        try:
            futures = [
                lanes[index % workers].submit(run_shard, plan, index, shards)
                for index, plan in enumerate(plans)
            ]
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except Exception as error:
                    raise ShardError(index, shards, error) from error
        finally:
            # Tell every lane to wind down before waiting for any of them, so
            # that the workers exit side by side as those of one pool would.
            for lane in lanes:
                lane.shutdown(wait=False, cancel_futures=True)
            for lane in lanes:
                lane.shutdown(wait=True)
    else:
        order = list(shard_order) if shard_order is not None else list(range(shards))
        if sorted(order) != list(range(shards)):
            raise ValueError(
                f"shard_order must be a permutation of 0..{shards - 1}, got {order}"
            )
        for index in order:
            try:
                results.append(run_shard(plans[index], index, shards))
            except Exception as error:
                raise ShardError(index, shards, error) from error
    wall = time.perf_counter() - started
    merged = merge_shard_results(results)
    ordered = sorted(results, key=lambda result: result.index)
    shard_walls = [result.wall_seconds for result in ordered]
    events = int(merged["events_processed"])
    return ShardedReport(
        label=config.label,
        seed=config.seed,
        shards=shards,
        duration=config.duration,
        merged=merged,
        per_shard=[result.report for result in ordered],
        timing={
            "wall_seconds": wall,
            "shard_wall_seconds_max": max(shard_walls),
            "shard_wall_seconds_sum": sum(shard_walls),
            "aggregate_events_per_second": (events / wall) if wall > 0 else 0.0,
        },
    )

"""Sharded parallel simulation: partition, run, merge.

The discrete-event kernel is single threaded by design — determinism comes
from one totally-ordered event queue.  To use more than one core without
giving that up, this module partitions a scenario into ``K`` *shards*, each a
complete, independent sub-simulation (its own replica groups, coordinator,
workload slice and RNG streams) that runs in a lane forked from the calling
process, and merges the shard results through reducers that are **exact and
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
``(seed, i, K)`` — never on scheduling, core count, or which process ran it
(a forked lane starts from the caller's state, the one a serial run uses).
``merge_shard_results`` sorts by shard index before reducing, and every
reducer is commutative, so the merged report is bit-identical no matter how
the shards were executed (serially, in any permutation, or in parallel).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..cost.report import CostReport
from ..monitoring.percentiles import MergeableHistogramSketch
from ..workload.load_shapes import ScaledLoad
from .errors import ShardError, SimulationError

__all__ = [
    "ShardResult",
    "ShardedReport",
    "plan_shards",
    "run_shard",
    "run_sharded",
    "merge_shard_results",
]

#: Lanes a parallel run forks at most (``None``: one per core this process
#: may use).
MAX_WORKERS: Optional[int] = None

#: The order a serial run executes its shards in (``None``: index order).
SHARD_ORDER: Optional[Sequence[int]] = None

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
    running one shard cannot mutate another's plan.  The unsplit cluster is
    validated first: a shard's cluster is lifted to the replication factor,
    so a cluster the classic run refuses would otherwise pass.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    config.cluster.validate()
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
    """Run one shard to completion and package the mergeable result."""
    # Imported here, not at module top: the lazy import keeps this module
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


def _run_in_lanes(jobs: Sequence[Callable[[], ShardResult]], workers: int) -> List[ShardResult]:
    """Run job ``i`` in forked lane ``i % workers``; the first failure in index
    order raises :class:`ShardError`, with ``BrokenProcessPool`` for a dead lane."""
    # Imported here, not at module level: a run that forks no lane (every
    # classic run) never loads either package (PERFORMANCE.md, "Gossip at its
    # real price").
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool

    if "fork" not in multiprocessing.get_all_start_methods():
        raise SimulationError("parallel shards need fork: run them with --serial-shards")
    # Every lane is forked before anything is read, from a parent that has
    # started no thread of its own (with a pool per lane, a lock held by an
    # earlier pool's manager or feeder thread would be copied held), and
    # holds only its own pipe's write end, so a lane that dies reads as EOF,
    # never as a hang.  Python 3.12+ warns about any fork of a process with
    # several OS threads, which numpy's idle OpenBLAS pool makes this one
    # (CI runs 3.11; PERFORMANCE.md, "Shard lanes").
    context = multiprocessing.get_context("fork")

    def lane(first: int, sender) -> None:
        for index in range(first, len(jobs), workers):
            try:
                outcome = jobs[index]()
            except Exception as error:
                outcome = error
                # One that cannot cross the pipe goes as its type name and message.
                try:
                    pickle.loads(pickle.dumps(error))
                except Exception:
                    outcome = RuntimeError(f"{type(error).__name__}: {error}")
            sender.send((index, outcome))

    lanes = []
    try:
        for first in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=lane, args=(first, sender))
            process.start()
            sender.close()
            lanes.append((process, receiver))
        results = []
        for index in range(len(jobs)):
            process, receiver = lanes[index % workers]
            try:
                sent, outcome = receiver.recv()
                assert sent == index
            except EOFError:
                process.join()
                outcome = BrokenProcessPool(f"its lane exited with code {process.exitcode}")
            if isinstance(outcome, BaseException):
                raise ShardError(index, len(jobs), outcome) from outcome
            results.append(outcome)
        return results
    finally:
        for process, _ in lanes:
            process.kill()
            process.join()


def _usable_cores() -> int:
    """Cores this process may use: the machine's without ``sched_getaffinity``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sharded(config, shards: int, parallel: bool = True) -> ShardedReport:
    """Plan, execute and merge a ``K``-shard run of ``config``.

    ``parallel=True`` runs shards in lanes forked from this process, one per
    usable core (capped at ``MAX_WORKERS``); ``parallel=False`` runs them in
    this process, in ``SHARD_ORDER`` if set — tests set it to prove the merge
    is invariant to execution order.  Both paths produce the same merged
    figures, and both report a failing shard as a :class:`ShardError`.
    """
    plans = plan_shards(config, shards)
    started = time.perf_counter()
    jobs = [functools.partial(run_shard, plan, i, shards) for i, plan in enumerate(plans)]
    if parallel and shards > 1:
        results = _run_in_lanes(jobs, min(shards, MAX_WORKERS or _usable_cores()))
    else:
        results = []
        for index in SHARD_ORDER if SHARD_ORDER is not None else range(shards):
            try:
                results.append(jobs[index]())
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

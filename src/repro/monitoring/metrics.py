"""Metric collection.

The :class:`MetricsCollector` is the controller's (and the experiment
harness') window into the running system.  Every ``SAMPLE_INTERVAL`` it
samples

* what clients saw, from the workload's tally
  (:class:`~repro.workload.generator.WorkloadStats`): the window's counts are
  the differences of its cumulative counters since the last sample, and the
  latency percentiles are taken over the tail of its latency series, and
* node- and cluster-level gauges (utilisation, queue lengths, pending hints,
  network congestion, node count).

It stores no per-operation fact of its own, so it reads the same numbers
whatever request stack runs.  Everything it produces is something a real
deployment could export through its metrics pipeline; nothing here peeks at
simulator ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.cluster import Cluster
from ..simulation.engine import Simulator
from ..simulation.timeseries import TimeSeriesBundle, exact_percentiles
from ..workload.generator import TenantOpStats, WorkloadStats
from ..workload.tenants import TenantPopulation

__all__ = [
    "MetricsSnapshot",
    "MetricsCollector",
    "TenantMetricsRollup",
]


#: Recent operations the collector's latency percentiles are taken over, and
#: each tier's reads in the tenant rollup.
LATENCY_WINDOW = 4096
TIER_LATENCY_WINDOW = 1024

#: Seconds between gauge samples (utilisation, node count, ...).
SAMPLE_INTERVAL = 5.0


@dataclass
class MetricsSnapshot:
    """One aggregated view over the most recent reporting window."""

    time: float
    throughput_ops: float
    read_p95_latency: float
    read_p99_latency: float
    write_p95_latency: float
    write_p99_latency: float
    failure_fraction: float
    mean_utilization: float
    max_utilization: float
    node_count: int
    pending_hints: int
    network_congestion: float
    stale_read_fraction: float
    rejected_fraction: float
    """Fraction of window operations shed by admission control — kept apart
    from ``failure_fraction`` so intentional load shedding never reads as
    unavailability."""


#: Every field of a snapshot but its time, read by name: one gauge series each.
GAUGES = (
    "throughput_ops", "read_p95_latency", "read_p99_latency", "write_p95_latency",
    "write_p99_latency", "failure_fraction", "mean_utilization", "max_utilization",
    "node_count", "pending_hints", "network_congestion", "stale_read_fraction",
    "rejected_fraction",
)


class MetricsCollector:
    """Samples the clients' tally and the system gauges for the controller."""

    def __init__(self, simulator: Simulator, cluster: Cluster, stats: WorkloadStats) -> None:
        self._simulator = simulator
        self._cluster = cluster
        self._stats = stats
        self.series = TimeSeriesBundle()
        """One series per gauge, a sample per ``SAMPLE_INTERVAL``."""

        self._window_start = simulator.now
        self._last_counts = self._counts()
        self._last_snapshot: Optional[MetricsSnapshot] = None

        simulator.call_every(
            SAMPLE_INTERVAL,
            self._sample_gauges,
            label="metrics:sample",
            priority=Simulator.PRIORITY_LATE,
        )

    def _counts(self) -> Tuple[int, int, int, int, int]:
        """The tally's cumulative completed reads and writes, failures,
        rejections and stale reads."""
        stats = self._stats
        return (
            stats.reads_completed,
            stats.writes_completed,
            stats.operations_failed,
            stats.operations_rejected,
            stats.stale_reads,
        )

    def _sample_gauges(self) -> None:
        now = self._simulator.now
        cluster_metrics = self._cluster.cluster_metrics()
        node_metrics = self._cluster.node_metrics()

        utilizations = [metrics["utilization"] for metrics in node_metrics.values()]
        mean_util = sum(utilizations) / len(utilizations) if utilizations else 0.0
        max_util = max(utilizations) if utilizations else 0.0

        # The window's counts: what the tally gained since the last sample.
        counts = self._counts()
        reads, writes, failures, rejected, stale_reads = (
            count - before for count, before in zip(counts, self._last_counts)
        )
        operations = reads + writes + failures + rejected
        elapsed = max(1e-9, now - self._window_start)

        stats = self._stats
        read_p95, read_p99 = exact_percentiles(
            stats.read_latency_series.values[-LATENCY_WINDOW:], (95, 99)
        )
        write_p95, write_p99 = exact_percentiles(
            stats.write_latency_series.values[-LATENCY_WINDOW:], (95, 99)
        )
        snapshot = MetricsSnapshot(
            time=now,
            throughput_ops=(reads + writes) / elapsed,
            read_p95_latency=read_p95,
            read_p99_latency=read_p99,
            write_p95_latency=write_p95,
            write_p99_latency=write_p99,
            failure_fraction=failures / operations if operations else 0.0,
            mean_utilization=mean_util,
            max_utilization=max_util,
            node_count=int(cluster_metrics["node_count"]),
            pending_hints=int(cluster_metrics["pending_hints"]),
            network_congestion=cluster_metrics["network_congestion"],
            stale_read_fraction=stale_reads / reads if reads else 0.0,
            rejected_fraction=rejected / operations if operations else 0.0,
        )
        self._last_snapshot = snapshot
        self._window_start = now
        self._last_counts = counts

        for name in GAUGES:
            self.series.record(name, now, getattr(snapshot, name))

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def latest(self) -> Optional[MetricsSnapshot]:
        """The most recent snapshot (or ``None`` before the first sample)."""
        return self._last_snapshot


class _RollupWork:
    """One unit of rollup analysis work, billed like an estimator's estimate."""

    __slots__ = ("samples",)

    def __init__(self, samples: int) -> None:
        self.samples = samples


def _counter_triple(entry: TenantOpStats) -> Tuple[int, int, int]:
    """A tenant's resolved, rejected and failed operation counts."""
    rejected = entry.operations_rejected
    failed = entry.reads_failed + entry.writes_failed
    resolved = entry.reads_completed + entry.writes_completed + rejected + failed
    return resolved, rejected, failed


class TenantMetricsRollup:
    """Per-tenant metrics rollup: top-K tenants by volume + per-tier latency.

    A production multi-tenant store cannot afford a full latency histogram
    per tenant; what operators actually dashboard is (a) who the heavy
    hitters are and (b) whether each *SLO tier* is meeting its latency
    objective.  Both are read from the workload's tally
    (:class:`~repro.workload.generator.WorkloadStats`): the first from its
    per-tenant counters, the second from the read latencies of each tier's
    tenants, so the rollup keeps no sample of its own and reads the same
    numbers whatever request stack runs.

    Its compute is charged against the monitoring budget: it exposes the same
    duck-typed surface (``name`` / ``estimates()``) the
    :class:`~repro.monitoring.overhead.MonitoringOverheadAccountant` bills
    consistency estimators through, with one sample per resolved tenant
    operation and the rollup itself as one produced estimate; it adds no
    load.
    """

    name = "tenant-rollup"

    def __init__(self, stats: WorkloadStats, population: TenantPopulation) -> None:
        self._stats = stats
        self._tenants: Dict[str, TenantOpStats] = stats.tenant_stats
        self._tier_of = population.tier_lookup()
        # Each tier, in name order, with one mark per tenant index: a member?
        self._tiers = [
            (tier, np.array([profile.tier.name == tier.name for profile in population.profiles]))
            for tier in sorted(population.spec.tiers, key=attrgetter("name"))
        ]

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def top_tenants(self, k: int = 10) -> List[Dict[str, object]]:
        """The ``k`` highest-volume tenants with their counter triples (a
        tenant with nothing resolved yet is not listed)."""
        triples = {tenant: _counter_triple(entry) for tenant, entry in self._tenants.items()}
        ranked = sorted(
            (item for item in triples.items() if item[1][0]),
            key=lambda item: (-item[1][0], item[0]),
        )
        return [
            {
                "tenant": tenant,
                "tier": self._tier_of[tenant],
                "operations": operations,
                "rejected": rejected,
                "failed": failed,
            }
            for tenant, (operations, rejected, failed) in ranked[: max(0, k)]
        ]

    def tier_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-tier read-latency summary (ms) over each tier's last
        ``TIER_LATENCY_WINDOW`` reads, with SLO attainment; a tier with no
        completed read is left out."""
        summary: Dict[str, Dict[str, float]] = {}
        for tier, members in self._tiers:
            window = self._stats.read_latencies_of(members)[-TIER_LATENCY_WINDOW:]
            if not window.size:
                continue
            p50, p95, p99 = exact_percentiles(window)
            slo = tier.read_p99_slo_ms
            summary[tier.name] = {
                "count": float(window.size),
                "read_p50_ms": p50 * 1000.0,
                "read_p95_ms": p95 * 1000.0,
                "read_p99_ms": p99 * 1000.0,
                "read_p99_slo_ms": slo,
                "slo_met": 1.0 if p99 * 1000.0 <= slo else 0.0,
            }
        return summary

    # ------------------------------------------------------------------
    # Monitoring-budget surface (duck-typed like a ConsistencyEstimator)
    # ------------------------------------------------------------------
    def estimates(self) -> List[_RollupWork]:
        """One work unit carrying every resolved tenant operation (for the
        accountant)."""
        samples = sum(_counter_triple(entry)[0] for entry in self._tenants.values())
        if samples == 0:
            return []
        return [_RollupWork(samples)]

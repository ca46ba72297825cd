"""Metric collection.

The :class:`MetricsCollector` is the controller's (and the experiment
harness') window into the running system.  It combines two sources:

* **push**: every completed client operation is observed through the cluster
  listener interface and folded into windowed latency/throughput/error
  aggregates, and
* **pull**: node- and cluster-level gauges (utilisation, queue lengths,
  pending hints, network congestion, node count) are sampled on a fixed
  interval.

Everything it produces is something a real deployment could export through
its metrics pipeline; nothing here peeks at simulator ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster.cluster import Cluster, ClusterListener
from ..cluster.types import OperationResult
from ..simulation.engine import Simulator
from ..simulation.timeseries import TimeSeriesBundle
from .percentiles import WindowedPercentiles

__all__ = [
    "MetricsSnapshot",
    "MetricsCollector",
    "TenantMetricsRollup",
]


#: Recent operations kept for the collector's latency percentiles, and for
#: each tier's in the tenant rollup.
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
    digest_mismatch_fraction: float
    rejected_fraction: float = 0.0
    """Fraction of window operations shed by admission control — kept apart
    from ``failure_fraction`` so intentional load shedding never reads as
    unavailability."""

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary used by the knowledge base and the reports."""
        return {
            "time": self.time,
            "throughput_ops": self.throughput_ops,
            "read_p95_latency": self.read_p95_latency,
            "read_p99_latency": self.read_p99_latency,
            "write_p95_latency": self.write_p95_latency,
            "write_p99_latency": self.write_p99_latency,
            "failure_fraction": self.failure_fraction,
            "mean_utilization": self.mean_utilization,
            "max_utilization": self.max_utilization,
            "node_count": float(self.node_count),
            "pending_hints": float(self.pending_hints),
            "network_congestion": self.network_congestion,
            "stale_read_fraction": self.stale_read_fraction,
            "digest_mismatch_fraction": self.digest_mismatch_fraction,
            "rejected_fraction": self.rejected_fraction,
        }


class MetricsCollector(ClusterListener):
    """Aggregates operation results and system gauges for the controller."""

    def __init__(self, simulator: Simulator, cluster: Cluster) -> None:
        self._simulator = simulator
        self._cluster = cluster
        self.series = TimeSeriesBundle()
        """One series per gauge, a sample per ``SAMPLE_INTERVAL``."""

        self._read_latencies = WindowedPercentiles(LATENCY_WINDOW)
        self._write_latencies = WindowedPercentiles(LATENCY_WINDOW)

        # Window counters, reset every snapshot.
        self._window_start = simulator.now
        self._window_reads = 0
        self._window_writes = 0
        self._window_failures = 0
        self._window_stale_reads = 0
        self._window_mismatches = 0
        self._window_operations = 0
        self._window_rejected = 0

        self._last_snapshot: Optional[MetricsSnapshot] = None

        cluster.add_listener(self)
        simulator.call_every(
            SAMPLE_INTERVAL,
            self._sample_gauges,
            label="metrics:sample",
            priority=Simulator.PRIORITY_LATE,
        )

    # ------------------------------------------------------------------
    # ClusterListener hooks (push path)
    # ------------------------------------------------------------------
    def on_operation_completed(self, result: OperationResult) -> None:
        if result.operation.is_probe:
            return  # monitoring probes do not count towards client latency
        self._window_operations += 1
        if result.rejected:
            self._window_rejected += 1
            return
        if not result.success:
            self._window_failures += 1
            return
        if result.is_read:
            self._window_reads += 1
            self._read_latencies.observe(result.latency)
            if result.stale:
                self._window_stale_reads += 1
            if result.digest_mismatch:
                self._window_mismatches += 1
        else:
            self._window_writes += 1
            self._write_latencies.observe(result.latency)

    # ------------------------------------------------------------------
    # Gauge sampling (pull path)
    # ------------------------------------------------------------------
    def _sample_gauges(self) -> None:
        now = self._simulator.now
        cluster_metrics = self._cluster.cluster_metrics()
        node_metrics = self._cluster.node_metrics()

        utilizations = [metrics["utilization"] for metrics in node_metrics.values()]
        mean_util = sum(utilizations) / len(utilizations) if utilizations else 0.0
        max_util = max(utilizations) if utilizations else 0.0

        elapsed = max(1e-9, now - self._window_start)
        completed = self._window_reads + self._window_writes
        throughput = completed / elapsed
        failure_fraction = (
            self._window_failures / self._window_operations
            if self._window_operations
            else 0.0
        )
        rejected_fraction = (
            self._window_rejected / self._window_operations
            if self._window_operations
            else 0.0
        )
        stale_fraction = (
            self._window_stale_reads / self._window_reads if self._window_reads else 0.0
        )
        mismatch_fraction = (
            self._window_mismatches / self._window_reads if self._window_reads else 0.0
        )

        read_p95, read_p99 = self._read_latencies.percentiles((95, 99))
        write_p95, write_p99 = self._write_latencies.percentiles((95, 99))
        snapshot = MetricsSnapshot(
            time=now,
            throughput_ops=throughput,
            read_p95_latency=read_p95,
            read_p99_latency=read_p99,
            write_p95_latency=write_p95,
            write_p99_latency=write_p99,
            failure_fraction=failure_fraction,
            mean_utilization=mean_util,
            max_utilization=max_util,
            node_count=int(cluster_metrics["node_count"]),
            pending_hints=int(cluster_metrics["pending_hints"]),
            network_congestion=cluster_metrics["network_congestion"],
            stale_read_fraction=stale_fraction,
            digest_mismatch_fraction=mismatch_fraction,
            rejected_fraction=rejected_fraction,
        )
        self._last_snapshot = snapshot

        for name, value in snapshot.as_dict().items():
            if name == "time":
                continue
            self.series.record(name, now, value)

        # Reset the window counters.
        self._window_start = now
        self._window_reads = 0
        self._window_writes = 0
        self._window_failures = 0
        self._window_stale_reads = 0
        self._window_mismatches = 0
        self._window_operations = 0
        self._window_rejected = 0

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


@dataclass
class _TenantCounters:
    """Per-tenant volume counters kept by the rollup."""

    operations: int = 0
    rejected: int = 0
    failed: int = 0


class TenantMetricsRollup(ClusterListener):
    """Per-tenant metrics rollup: top-K tenants by volume + per-tier latency.

    A production multi-tenant store cannot afford a full latency histogram
    per tenant; what operators actually dashboard is (a) who the heavy
    hitters are and (b) whether each *SLO tier* is meeting its latency
    objective.  This helper keeps exactly that: a counter triple per tenant
    and one :class:`WindowedPercentiles` per tier.

    Its compute is charged against the monitoring budget: it exposes the same
    duck-typed surface (``name`` / ``estimates()`` / ``operations_issued()``)
    the :class:`~repro.monitoring.overhead.MonitoringOverheadAccountant`
    bills consistency estimators through, with one sample per observed
    operation and the rollup itself as one produced estimate.
    """

    name = "tenant-rollup"

    def __init__(
        self,
        cluster: Cluster,
        tier_of: Optional[Dict[str, str]] = None,
        tier_slos_ms: Optional[Dict[str, float]] = None,
    ) -> None:
        """``tier_of`` maps tenant id to tier name (e.g.
        :meth:`~repro.workload.tenants.TenantPopulation.tier_lookup`);
        ``tier_slos_ms`` optionally carries each tier's read-p99 objective so
        :meth:`tier_summary` can report attainment."""
        self._tier_of = dict(tier_of or {})
        self._tier_slos_ms = dict(tier_slos_ms or {})
        self._tenants: Dict[str, _TenantCounters] = {}
        self._tier_read_latencies: Dict[str, WindowedPercentiles] = {}
        self._samples = 0
        cluster.add_listener(self)

    # ------------------------------------------------------------------
    # ClusterListener hook
    # ------------------------------------------------------------------
    def on_operation_completed(self, result: OperationResult) -> None:
        tenant = result.tenant
        if tenant is None:
            return
        self._samples += 1
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = self._tenants[tenant] = _TenantCounters()
        counters.operations += 1
        if result.rejected:
            counters.rejected += 1
            return
        if not result.success:
            counters.failed += 1
            return
        if result.is_read:
            tier = self._tier_of.get(tenant, "default")
            window = self._tier_read_latencies.get(tier)
            if window is None:
                window = self._tier_read_latencies[tier] = WindowedPercentiles(
                    TIER_LATENCY_WINDOW
                )
            window.observe(result.latency)

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def top_tenants(self, k: int = 10) -> List[Dict[str, object]]:
        """The ``k`` highest-volume tenants with their counter triples."""
        ranked = sorted(
            self._tenants.items(), key=lambda item: (-item[1].operations, item[0])
        )
        return [
            {
                "tenant": tenant,
                "tier": self._tier_of.get(tenant, "default"),
                "operations": counters.operations,
                "rejected": counters.rejected,
                "failed": counters.failed,
            }
            for tenant, counters in ranked[: max(0, k)]
        ]

    def tier_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-tier read-latency summary (ms) with SLO attainment when known."""
        summary: Dict[str, Dict[str, float]] = {}
        for tier, window in sorted(self._tier_read_latencies.items()):
            stats = window.snapshot()
            entry = {
                "count": stats["count"],
                "read_p50_ms": stats["p50"] * 1000.0,
                "read_p95_ms": stats["p95"] * 1000.0,
                "read_p99_ms": stats["p99"] * 1000.0,
            }
            slo = self._tier_slos_ms.get(tier)
            if slo is not None:
                entry["read_p99_slo_ms"] = slo
                entry["slo_met"] = 1.0 if entry["read_p99_ms"] <= slo else 0.0
            summary[tier] = entry
        return summary

    def tier_read_p99_ms(self) -> Dict[str, float]:
        """Just the per-tier read p99 (ms), for the controller's observation."""
        return {
            tier: window.percentile(99) * 1000.0
            for tier, window in self._tier_read_latencies.items()
        }

    # ------------------------------------------------------------------
    # Monitoring-budget surface (duck-typed like a ConsistencyEstimator)
    # ------------------------------------------------------------------
    def estimates(self) -> List[_RollupWork]:
        """One work unit carrying every observed sample (for the accountant)."""
        if self._samples == 0:
            return []
        return [_RollupWork(self._samples)]

    def operations_issued(self) -> int:
        """The rollup is passive: it issues no probe operations."""
        return 0

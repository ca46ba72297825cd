"""Buffered, flush-on-window operation monitoring.

Per-event monitoring is hot-path work: every completed operation used to pay
its full observation cost (window counters, deque appends, time-series
records) inline, inside the event that completed it.  The
:class:`BufferedOperationCollector` moves that off the critical path: the
completion hook only appends the latency to a growable numpy buffer and bumps
an integer counter, and a periodic flush folds the buffered samples into
:class:`~repro.monitoring.percentiles.MergeableHistogramSketch` instances in
one vectorized pass.

Two things make this the backbone of the sharded simulation mode:

* the sketches merge exactly across processes, so K shard collectors reduce
  to one deterministic latency distribution (any K, any execution order), and
* the flush compute is billed to the monitoring budget — the collector
  exposes the same duck-typed surface
  (``name`` / ``estimates()`` / ``operations_issued()``) the
  :class:`~repro.monitoring.overhead.MonitoringOverheadAccountant` charges
  consistency estimators through, so buffered monitoring shows up as
  analysis CPU in the cost report rather than pretending to be free.
"""

from __future__ import annotations

from typing import Dict, List

from ..cluster.cluster import Cluster, ClusterListener
from ..cluster.types import OperationResult
from ..simulation.engine import Simulator
from ..simulation.timeseries import FloatBuffer
from .percentiles import MergeableHistogramSketch

__all__ = ["BufferedOperationCollector"]


class _FlushWork:
    """One unit of flush analysis work, billed like an estimator's estimate."""

    __slots__ = ("samples",)

    def __init__(self, samples: int) -> None:
        self.samples = samples


class BufferedOperationCollector(ClusterListener):
    """Append-to-buffer operation collection with windowed sketch flushes.

    The per-completion cost is one branch ladder plus one buffer append; the
    sketch binning (``searchsorted`` + ``bincount``) happens on the flush
    window, vectorized over everything the window gathered.  Counters
    (issued/failed/rejected/stale) are plain integers and always current;
    sketch-derived percentiles are current as of the last flush —
    :meth:`flush` is idempotent and called once more when a report is built.
    """

    name = "buffered-collector"

    def __init__(
        self,
        simulator: Simulator,
        cluster: Cluster,
        flush_interval: float = 5.0,
        accuracy: float = 0.01,
        include_probe_operations: bool = False,
    ) -> None:
        if flush_interval <= 0.0:
            raise ValueError(f"flush_interval must be > 0, got {flush_interval}")
        self._simulator = simulator
        self._include_probes = include_probe_operations
        self.read_sketch = MergeableHistogramSketch(accuracy=accuracy)
        self.write_sketch = MergeableHistogramSketch(accuracy=accuracy)
        self._read_buffer = FloatBuffer()
        self._write_buffer = FloatBuffer()
        self.reads_completed = 0
        self.writes_completed = 0
        self.failures = 0
        self.rejected = 0
        self.stale_reads = 0
        self.flushes = 0
        self._samples_flushed = 0
        cluster.add_listener(self)
        simulator.call_every(
            flush_interval,
            self.flush,
            label="buffered-collector:flush",
            priority=Simulator.PRIORITY_LATE,
        )

    # ------------------------------------------------------------------
    # ClusterListener hook (hot path: append + counter bump only)
    # ------------------------------------------------------------------
    def on_operation_completed(self, result: OperationResult) -> None:
        if result.operation.is_probe and not self._include_probes:
            return
        if result.rejected:
            self.rejected += 1
            return
        if not result.success:
            self.failures += 1
            return
        if result.is_read:
            self.reads_completed += 1
            self._read_buffer.append(result.latency)
            if result.stale:
                self.stale_reads += 1
        else:
            self.writes_completed += 1
            self._write_buffer.append(result.latency)

    # ------------------------------------------------------------------
    # Flush window (vectorized; this is where the analysis cost lives)
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Fold buffered samples into the sketches; returns samples flushed."""
        flushed = 0
        if len(self._read_buffer):
            samples = self._read_buffer.drain()
            self.read_sketch.observe_many(samples)
            flushed += samples.shape[0]
        if len(self._write_buffer):
            samples = self._write_buffer.drain()
            self.write_sketch.observe_many(samples)
            flushed += samples.shape[0]
        if flushed:
            self.flushes += 1
            self._samples_flushed += flushed
        return flushed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Sketch-derived latency summary (call :meth:`flush` first)."""
        read = self.read_sketch.snapshot()
        write = self.write_sketch.snapshot()
        return {
            "reads_completed": float(self.reads_completed),
            "writes_completed": float(self.writes_completed),
            "failures": float(self.failures),
            "rejected": float(self.rejected),
            "stale_reads": float(self.stale_reads),
            "read_p50_ms": read["p50"] * 1000.0,
            "read_p95_ms": read["p95"] * 1000.0,
            "read_p99_ms": read["p99"] * 1000.0,
            "write_p50_ms": write["p50"] * 1000.0,
            "write_p95_ms": write["p95"] * 1000.0,
            "write_p99_ms": write["p99"] * 1000.0,
            "flushes": float(self.flushes),
        }

    # ------------------------------------------------------------------
    # Monitoring-budget surface (duck-typed like a ConsistencyEstimator)
    # ------------------------------------------------------------------
    def estimates(self) -> List[_FlushWork]:
        """One work unit carrying every flushed sample (for the accountant)."""
        if self._samples_flushed == 0:
            return []
        return [_FlushWork(self._samples_flushed)]

    def operations_issued(self) -> int:
        """The collector is passive: it issues no probe operations."""
        return 0

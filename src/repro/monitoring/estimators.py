"""Inconsistency-window estimators (the paper's research question 1).

Three estimation techniques, matching the families the paper sketches:

* :class:`ReadAfterWriteProber` — *active probing*: write a marker to a dummy
  key and read it back repeatedly until the new version is visible; the
  elapsed time bounds the inconsistency window.  Accurate and workload
  independent, but every probe adds load (its cost is accounted explicitly).
* :class:`PiggybackMonitor` — *passive measurement on production traffic*: a
  middleware that sees client requests can remember which version of a key
  was last acknowledged and flag any later read that returns an older
  version.  Nearly free, but it only observes keys the application happens to
  read and only detects staleness when a read actually hits a lagging
  replica.
* :class:`RttEstimator` — *model-based estimation*: no extra requests at all;
  the window is predicted from observable system metrics (write latency,
  utilisation, congestion) through a queueing-style formula.  Cheapest and
  least accurate, particularly under conditions the model does not capture.

Each estimator produces :class:`WindowEstimate` snapshots on a fixed
reporting interval so experiment E2 can score accuracy against the ground
truth tracker while charging each technique its measured overhead.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..cluster.cluster import Cluster, ClusterListener
from ..cluster.errors import Settings, positive
from ..cluster.types import (
    ConsistencyLevel,
    OperationResult,
    OperationType,
    ReadResult,
    WriteResult,
)
from ..simulation.engine import Simulator
from ..simulation.timeseries import TimeSeries, exact_percentiles
from ..workload.generator import WorkloadStats

__all__ = [
    "WindowEstimate",
    "ConsistencyEstimator",
    "ProbeConfig",
    "ReadAfterWriteProber",
    "PiggybackMonitor",
    "RttEstimator",
]

#: Seconds between the estimates every estimator emits.
REPORT_INTERVAL = 10.0


@dataclass
class WindowEstimate:
    """One estimator's belief about the current inconsistency window."""

    time: float
    mean_window: float
    p95_window: float
    stale_read_fraction: float
    samples: int
    """Number of underlying measurements in this estimate (0 = no signal)."""

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for tables."""
        return {
            "time": self.time,
            "mean_window": self.mean_window,
            "p95_window": self.p95_window,
            "stale_read_fraction": self.stale_read_fraction,
            "samples": float(self.samples),
        }


class ConsistencyEstimator(abc.ABC):
    """Common interface of all inconsistency-window estimators."""

    name: str = "estimator"

    def __init__(self, simulator: Simulator) -> None:
        self._simulator = simulator
        self._estimates: List[WindowEstimate] = []
        self._report_task = simulator.call_every(
            REPORT_INTERVAL,
            self._emit_estimate,
            label=f"{self.name}:report",
            priority=Simulator.PRIORITY_LATE,
        )

    @abc.abstractmethod
    def _build_estimate(self, now: float) -> WindowEstimate:
        """Produce the estimate for the window that just ended."""

    def _emit_estimate(self) -> None:
        self._estimates.append(self._build_estimate(self._simulator.now))

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def latest(self) -> Optional[WindowEstimate]:
        """Most recent estimate (or ``None`` before the first report)."""
        return self._estimates[-1] if self._estimates else None

    def estimates(self) -> List[WindowEstimate]:
        """All estimates produced so far."""
        return list(self._estimates)

    def stop(self) -> None:
        """Stop reporting (and probing, for active estimators)."""
        self._report_task.stop()


# ----------------------------------------------------------------------
# Active probing
# ----------------------------------------------------------------------
#: Seconds between successive probe reads of the same marker.
PROBE_READ_GAP = 0.05
#: Probe reads per marker before giving up (caps probe cost).
PROBE_MAX_READS = 40
#: Dummy-table key prefix (kept out of the application key space).
PROBE_KEY_PREFIX = "__consistency_probe__"
#: Latest probe windows an estimate falls back on when its interval has none.
PROBE_FALLBACK_WINDOW = 512


@dataclass
class ProbeConfig(Settings):
    """Parameters of the read-after-write prober (its reads and writes go at
    consistency level ONE)."""

    probe_interval: float = positive(5.0)
    """Seconds between probe writes."""


class ReadAfterWriteProber(ConsistencyEstimator):
    """Active read-after-write probing on a dummy table."""

    name = "probe"

    def __init__(
        self,
        simulator: Simulator,
        cluster: Cluster,
        config: Optional[ProbeConfig] = None,
    ) -> None:
        self._cluster = cluster
        self._config = config or ProbeConfig()
        super().__init__(simulator)
        self._probe_sequence = itertools.count(1)
        # Every probe window, at the time it was measured; the current
        # report interval's are those from ``_interval_start`` on.
        self._windows = TimeSeries("probe_window")
        self._interval_start = 0
        self.probes_started = 0
        # Probe operations resolved (succeeded or failed): the monitoring
        # share of the cluster's load.
        self.probe_operations = 0
        self._probe_task = simulator.call_every(
            self._config.probe_interval,
            self._start_probe,
            label="probe:write",
        )

    # -- probe lifecycle -------------------------------------------------
    def _start_probe(self) -> None:
        sequence = next(self._probe_sequence)
        key = f"{PROBE_KEY_PREFIX}/{sequence % 64}"
        marker = f"{sequence}".encode("ascii")
        self.probes_started += 1
        self._cluster.write(
            key,
            value=marker,
            size=len(marker),
            consistency_level=ConsistencyLevel.ONE,
            operation=OperationType.PROBE_WRITE,
            on_complete=lambda result, k=key: self._probe_write_done(k, result),
        )

    def _probe_write_done(self, key: str, result: WriteResult) -> None:
        self.probe_operations += 1
        if not result.success or result.version_timestamp is None:
            return
        ack_time = result.completed_at
        self._schedule_probe_read(key, result.version_timestamp, ack_time, attempt=0)

    def _schedule_probe_read(
        self, key: str, version_timestamp: float, ack_time: float, attempt: int
    ) -> None:
        delay = 0.0 if attempt == 0 else PROBE_READ_GAP
        self._simulator.schedule_in(
            delay,
            self._issue_probe_read,
            key,
            version_timestamp,
            ack_time,
            attempt,
            label="probe:read",
        )

    def _issue_probe_read(
        self, key: str, version_timestamp: float, ack_time: float, attempt: int
    ) -> None:
        self._cluster.read(
            key,
            consistency_level=ConsistencyLevel.ONE,
            operation=OperationType.PROBE_READ,
            on_complete=lambda result: self._probe_read_done(
                key, version_timestamp, ack_time, attempt, result
            ),
        )

    def _probe_read_done(
        self,
        key: str,
        version_timestamp: float,
        ack_time: float,
        attempt: int,
        result: ReadResult,
    ) -> None:
        self.probe_operations += 1
        fresh = (
            result.success
            and result.version_timestamp is not None
            and result.version_timestamp >= version_timestamp
        )
        if fresh:
            now = self._simulator.now
            self._windows.record(now, max(0.0, now - ack_time - result.latency))
            return
        if attempt + 1 >= PROBE_MAX_READS:
            # Record the censored observation at the probing horizon so the
            # estimator degrades towards "at least this big" rather than
            # silently dropping its worst cases.
            self._windows.record(self._simulator.now, PROBE_READ_GAP * PROBE_MAX_READS)
            return
        self._schedule_probe_read(key, version_timestamp, ack_time, attempt + 1)

    # -- reporting --------------------------------------------------------
    def _build_estimate(self, now: float) -> WindowEstimate:
        windows = self._windows.values
        samples = windows[self._interval_start :]
        self._interval_start = windows.size
        if samples.size:
            mean_window = float(samples.mean())
            p95_window = exact_percentiles(samples, (95,))[0]
            stale_fraction = float(np.mean(samples > PROBE_READ_GAP))
        else:
            recent = windows[-PROBE_FALLBACK_WINDOW:]
            mean_window = float(recent.mean()) if recent.size else 0.0
            p95_window = exact_percentiles(recent, (95,))[0]
            stale_fraction = 0.0
        return WindowEstimate(
            time=now,
            mean_window=mean_window,
            p95_window=p95_window,
            stale_read_fraction=stale_fraction,
            samples=int(samples.size),
        )

    def stop(self) -> None:
        super().stop()
        self._probe_task.stop()


# ----------------------------------------------------------------------
# Passive piggyback measurement
# ----------------------------------------------------------------------
#: Keys whose newest acknowledged version the piggyback monitor remembers.
PIGGYBACK_TRACKED_KEYS = 100_000


class PiggybackMonitor(ConsistencyEstimator, ClusterListener):
    """Passive staleness detection on production traffic.

    The monitor plays the role of a client-side middleware that sees every
    request and response: it remembers the newest version acknowledged for
    each key and flags production reads that return an older version.  The
    window estimate for a stale read is the elapsed time between the newer
    version's acknowledgement and the stale read — a *lower bound* on the
    true window for that write (the replica was still stale at that point).
    """

    name = "piggyback"

    def __init__(self, simulator: Simulator, cluster: Cluster) -> None:
        ConsistencyEstimator.__init__(self, simulator)
        self._acked: Dict[str, tuple[float, float]] = {}
        """key -> (version timestamp, ack completion time) of the newest acked write."""

        self._recent_windows: List[float] = []
        self._recent_reads = 0
        self._recent_stale = 0
        cluster.add_listener(self)

    # -- ClusterListener hooks -------------------------------------------
    def on_operation_completed(self, result: OperationResult) -> None:
        if not result.success or result.operation.is_probe:
            return
        if not result.is_read:
            if result.version_timestamp is None:
                return
            current = self._acked.get(result.key)
            if current is None or result.version_timestamp > current[0]:
                if len(self._acked) >= PIGGYBACK_TRACKED_KEYS and result.key not in self._acked:
                    # Bounded memory: drop an arbitrary old entry.
                    self._acked.pop(next(iter(self._acked)))
                self._acked[result.key] = (result.version_timestamp, result.completed_at)
            return
        reference = self._acked.get(result.key)
        if reference is None:
            return
        reference_ts, reference_ack_time = reference
        if reference_ack_time > result.issued_at:
            # The ack happened after the read was issued; not a valid reference.
            return
        self._recent_reads += 1
        returned_ts = result.version_timestamp if result.version_timestamp is not None else -1.0
        if returned_ts < reference_ts:
            self._recent_stale += 1
            self._recent_windows.append(max(0.0, result.issued_at - reference_ack_time))

    # -- reporting --------------------------------------------------------
    def _build_estimate(self, now: float) -> WindowEstimate:
        if self._recent_windows:
            arr = np.asarray(self._recent_windows, dtype=float)
            mean_window = float(arr.mean())
            p95_window = exact_percentiles(arr, (95,))[0]
        else:
            mean_window = 0.0
            p95_window = 0.0
        stale_fraction = (
            self._recent_stale / self._recent_reads if self._recent_reads else 0.0
        )
        estimate = WindowEstimate(
            time=now,
            mean_window=mean_window,
            p95_window=p95_window,
            stale_read_fraction=stale_fraction,
            samples=len(self._recent_windows),
        )
        self._recent_windows = []
        self._recent_reads = 0
        self._recent_stale = 0
        return estimate


# ----------------------------------------------------------------------
# Model-based estimation from RTT / utilisation metrics
# ----------------------------------------------------------------------
#: Assumed mean per-operation service time at an idle node (seconds).
RTT_BASE_SERVICE_TIME = 0.00125
#: Utilisation above which the queueing term is clamped (model stability).
RTT_UTILIZATION_KNEE = 0.95
#: Recent production reads the hedge budget's percentile is taken over.
HEDGE_BUDGET_WINDOW = 512


class RttEstimator(ConsistencyEstimator):
    """Estimates the window from latencies and utilisation, with no extra load.

    The model treats replication lag as one network hop plus the queueing
    delay of an M/M/1 server at the observed utilisation:
    ``window ≈ rtt/2 + service_time * rho / (1 - rho)``.  It needs only
    metrics every deployment already exports, but it knows nothing about
    consistency levels, hinted handoff or repair traffic — experiment E2
    shows where that cheapness costs accuracy.  Its read latencies and its
    sample count are the workload's tally.
    """

    name = "rtt"

    def __init__(self, simulator: Simulator, cluster: Cluster, stats: WorkloadStats) -> None:
        ConsistencyEstimator.__init__(self, simulator)
        self._cluster = cluster
        self._stats = stats

    def node_rtt_estimates(self) -> Dict[str, float]:
        """The per-node RTT estimates reads route on (empty when no stage
        ranks by RTT); they never change this class's window estimates."""
        rtt = self._cluster.coordinator.rtt
        return {} if rtt is None else rtt.snapshot()

    def read_latency_percentile(self, q: float) -> float:
        """Production read-latency percentile over the last
        ``HEDGE_BUDGET_WINDOW`` completed reads (0.0 before any read).

        This is the budget source for the request-hedging middleware: arming
        the hedge timer at the p99 read latency means roughly one read in a
        hundred hedges, the classic "tail at scale" operating point.
        """
        recent = self._stats.read_latency_series.values[-HEDGE_BUDGET_WINDOW:]
        return exact_percentiles(recent, (q,))[0]

    def _build_estimate(self, now: float) -> WindowEstimate:
        metrics = self._cluster.cluster_metrics()
        utilization = min(RTT_UTILIZATION_KNEE, metrics["max_utilization"])
        rtt = self._cluster.network.round_trip_estimate()
        service = RTT_BASE_SERVICE_TIME
        queueing = service * utilization / max(1e-6, 1.0 - utilization)
        mean_window = rtt / 2.0 + service + queueing
        # The p95 is approximated as 3x the mean (exponential-ish tail).
        p95_window = 3.0 * mean_window
        estimate = WindowEstimate(
            time=now,
            mean_window=mean_window,
            p95_window=p95_window,
            stale_read_fraction=0.0,
            samples=self._stats.writes_completed,
        )
        return estimate

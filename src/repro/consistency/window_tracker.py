"""Ground-truth inconsistency-window tracking.

The *inconsistency window* of a write is the time between the moment the
write is acknowledged to its client and the moment every replica of the key
stops being able to serve an older version — either because it applied this
write, or because it applied a *newer* one (at which point the older write's
window is moot).  While the window is open, a read served by a lagging
replica can return stale data.

A real deployment cannot observe this window directly (that is precisely why
the paper's first research question asks how to *estimate* it efficiently);
the simulator can, by listening to the cluster's write-ack and replica-apply
events.  :class:`InconsistencyWindowTracker` is therefore the reference
against which the monitoring estimators of :mod:`repro.monitoring` are scored
in experiment E2, and the source of the "actual consistency" columns in every
other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..cluster.cluster import ClusterListener
from ..cluster.versioning import VersionStamp
from ..simulation.engine import Simulator
from ..simulation.timeseries import TimeSeries

__all__ = ["WindowRecord", "InconsistencyWindowTracker"]

#: Windows still open after this many seconds are recorded as censored.
#:
#: Expiry protects the tracker's memory against writes whose replica died
#: permanently; expired windows are folded into the statistics at their
#: lower bound (they were *at least* that large) and counted separately.
MAX_OPEN_AGE = 300.0

#: How often the tracker scans for expired open windows.
EXPIRY_SCAN_INTERVAL = 30.0

#: How long a key's replica applies are remembered after the last one.
EARLY_APPLY_RETENTION = 120.0


@dataclass
class WindowRecord:
    """Lifecycle of one acknowledged write's inconsistency window."""

    key: str
    stamp: VersionStamp
    ack_time: float
    missing: Set[str]
    """Replicas that can still serve an older version; the window closes when
    the last of them applies this stamp or a newer one."""

    closed_at: Optional[float] = None
    expired: bool = False

    @property
    def window(self) -> Optional[float]:
        """Window size in seconds, or ``None`` while still open."""
        if self.closed_at is None:
            return None
        return max(0.0, self.closed_at - self.ack_time)


class InconsistencyWindowTracker(ClusterListener):
    """Observes cluster events and measures every write's true window."""

    def __init__(self, simulator: Simulator) -> None:
        self._simulator = simulator
        # Open windows, indexed by key so one replica apply can close every
        # superseded window of that key in one pass.
        self._open_by_key: Dict[str, Dict[VersionStamp, WindowRecord]] = {}
        # Replica applies can arrive before the client ack (the common case:
        # the W acking replicas applied before the ack by construction), so
        # each key keeps one high-water mark per replica, the newest stamp
        # that replica applied: an ack asks a mark "this stamp or a newer one
        # already?" and never needs the applies behind it.  The time of the
        # key's last apply says when its marks may be forgotten.
        self._marks: Dict[str, Dict[str, VersionStamp]] = {}
        self._last_apply: Dict[str, float] = {}
        # (closing or expiry time, window size) of every window that ended.
        self._windows = TimeSeries("inconsistency_window")
        self.windows_opened = 0
        self.windows_closed = 0
        self.windows_expired = 0
        self.zero_windows = 0
        simulator.call_every(
            EXPIRY_SCAN_INTERVAL,
            self._expire_stale_windows,
            label="window-tracker:expiry",
            priority=Simulator.PRIORITY_LATE,
        )

    # ------------------------------------------------------------------
    # ClusterListener hooks
    # ------------------------------------------------------------------
    def on_write_acked(
        self, key: str, stamp: VersionStamp, ack_time: float, replica_set: Sequence[str]
    ) -> None:
        self.windows_opened += 1

        # Fold in replica applies that already happened (same or newer stamp).
        missing = set(replica_set)
        marks = self._marks.get(key)
        if marks is not None:
            for node_id, newest in marks.items():
                if newest >= stamp:
                    missing.discard(node_id)

        record = WindowRecord(key, stamp, ack_time, missing)
        if not missing:
            # Every replica had already converged when the ack went out
            # (e.g. CL=ALL): the window is zero.
            record.closed_at = ack_time
            self.zero_windows += 1
            self._record_closed(record)
            return
        self._open_by_key.setdefault(key, {})[stamp] = record

    def on_replica_applied(
        self, key: str, stamp: VersionStamp, node_id: str, time: float, background: bool
    ) -> None:
        self._last_apply[key] = time
        marks = self._marks.get(key)
        if marks is None:
            self._marks[key] = {node_id: stamp}
        elif node_id not in marks or stamp > marks[node_id]:
            # (An older version landing late leaves the mark alone: the
            # replica keeps serving the newer one.)
            marks[node_id] = stamp
        open_records = self._open_by_key.get(key)
        if not open_records:
            return
        closed: List[VersionStamp] = []
        for record_stamp, record in open_records.items():
            # Applying this stamp (or any newer one) means the replica can no
            # longer serve a version older than ``record_stamp``.
            if stamp < record_stamp or node_id not in record.missing:
                continue
            record.missing.remove(node_id)
            if not record.missing:
                record.closed_at = max(time, record.ack_time)
                closed.append(record_stamp)
                self._record_closed(record)
        for record_stamp in closed:
            del open_records[record_stamp]
        if not open_records:
            self._open_by_key.pop(key, None)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record_closed(self, record: WindowRecord) -> None:
        self.windows_closed += 1
        self._windows.record(self._simulator.now, record.window or 0.0)

    def _expire_stale_windows(self) -> None:
        now = self._simulator.now
        for key in list(self._open_by_key):
            records = self._open_by_key[key]
            expired = [
                stamp
                for stamp, record in records.items()
                if now - record.ack_time > MAX_OPEN_AGE
            ]
            for stamp in expired:
                record = records.pop(stamp)
                record.expired = True
                self.windows_expired += 1
                # Censored observation: the window was still open when the
                # tracker gave up, so it was *at least* this large.  Dropping
                # it would make a saturated cluster look artificially
                # consistent.
                self._windows.record(now, now - record.ack_time)
            if not records:
                del self._open_by_key[key]

        # Memory is bounded by the keys written lately, one mark per replica.
        cutoff = now - EARLY_APPLY_RETENTION
        for key, applied_at in list(self._last_apply.items()):
            if applied_at < cutoff:
                del self._last_apply[key], self._marks[key]

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    @property
    def series(self) -> TimeSeries:
        """Closed-window sizes as a time series (closing time, window size)."""
        return self._windows

    @property
    def open_windows(self) -> int:
        """Number of windows currently open."""
        return sum(len(records) for records in self._open_by_key.values())

    def window_percentile(self, q: float) -> float:
        """The ``q``-th percentile of closed windows."""
        return self._windows.percentile(q)

    def mean_window(self) -> float:
        """Mean closed window size."""
        return self._windows.mean()

    def stats(self) -> Dict[str, float]:
        """Counters and headline statistics for reports."""
        return {
            "windows_opened": float(self.windows_opened),
            "windows_closed": float(self.windows_closed),
            "windows_expired": float(self.windows_expired),
            "windows_open_now": float(self.open_windows),
            "zero_windows": float(self.zero_windows),
            "mean_window": self.mean_window(),
            "p95_window": self.window_percentile(95.0),
            "p99_window": self.window_percentile(99.0),
        }

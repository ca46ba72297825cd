"""Client-observed staleness statistics.

Where :mod:`repro.consistency.window_tracker` measures the *server-side*
inconsistency window (when do all replicas converge), this module measures
what clients actually experience: the fraction of reads that returned a
version older than one already acknowledged before the read was issued
("stale reads", Golab et al.'s client-centric view) and the age of the stale
data they received (t-visibility).  Both views matter: an SLA is usually
written against what clients observe, while reconfiguration decisions act on
the server-side causes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..cluster.cluster import ClusterListener
from ..cluster.types import OperationResult
from ..simulation.timeseries import TimeSeries

__all__ = ["StalenessObserver", "StalenessSnapshot"]


@dataclass
class StalenessSnapshot:
    """Aggregated staleness figures over some interval."""

    reads: int
    stale_reads: int
    stale_fraction: float
    mean_staleness: float
    p95_staleness: float
    max_staleness: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for table rendering."""
        return {
            "reads": self.reads,
            "stale_reads": self.stale_reads,
            "stale_fraction": self.stale_fraction,
            "mean_staleness": self.mean_staleness,
            "p95_staleness": self.p95_staleness,
            "max_staleness": self.max_staleness,
        }


class StalenessObserver(ClusterListener):
    """Collects per-read staleness annotations from completed production
    reads (probe reads are left out)."""

    def __init__(self) -> None:
        # One age per stale read, at the read's completion time.
        self._staleness_series = TimeSeries("staleness_age")
        self.reads_observed = 0
        self.stale_reads = 0

    # ------------------------------------------------------------------
    # ClusterListener hook
    # ------------------------------------------------------------------
    def on_operation_completed(self, result: OperationResult) -> None:
        if not result.is_read or not result.success:
            return
        if result.operation.is_probe:
            return
        self.reads_observed += 1
        if result.stale:
            self.stale_reads += 1
            self._staleness_series.record(result.completed_at, result.staleness)

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    @property
    def stale_fraction(self) -> float:
        """Overall fraction of successful reads that were stale."""
        if self.reads_observed == 0:
            return 0.0
        return self.stale_reads / self.reads_observed

    def snapshot(self) -> StalenessSnapshot:
        """Aggregate staleness figures over the whole run."""
        reads, stale = self.reads_observed, self.stale_reads
        age_summary = self._staleness_series.summary()
        return StalenessSnapshot(
            reads=reads,
            stale_reads=stale,
            stale_fraction=(stale / reads) if reads else 0.0,
            mean_staleness=age_summary.mean,
            p95_staleness=age_summary.p95,
            max_staleness=age_summary.maximum,
        )

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

import math
from dataclasses import dataclass
from typing import Dict, Optional

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
        # One 0/1 flag per observed read and one age per stale read, both at
        # the read's completion time; the counters are their whole-run totals.
        self._stale_series = TimeSeries("stale_read")
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
        observed_at = result.completed_at
        self.reads_observed += 1
        self._stale_series.record(observed_at, 1.0 if result.stale else 0.0)
        if result.stale:
            self.stale_reads += 1
            self._staleness_series.record(observed_at, result.staleness)

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    @property
    def stale_fraction(self) -> float:
        """Overall fraction of successful reads that were stale."""
        if self.reads_observed == 0:
            return 0.0
        return self.stale_reads / self.reads_observed

    def snapshot(self, since: Optional[float] = None) -> StalenessSnapshot:
        """Aggregate staleness figures (optionally restricted to recent reads)."""
        if since is None:
            reads, stale = self.reads_observed, self.stale_reads
            ages = self._staleness_series
        else:
            flags = self._stale_series.values_since(since)
            reads, stale = flags.size, int(flags.sum())
            ages = self._staleness_series.window(since, math.inf)
        age_summary = ages.summary()
        return StalenessSnapshot(
            reads=reads,
            stale_reads=stale,
            stale_fraction=(stale / reads) if reads else 0.0,
            mean_staleness=age_summary.mean,
            p95_staleness=age_summary.p95,
            max_staleness=age_summary.maximum,
        )

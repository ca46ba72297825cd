"""Business-side consistency compensation cost.

Section 3 of the paper motivates the whole system with money: "a drift in the
size of the window can cause bad user experience and serious money loss...
changes are considerably larger to have a double booking when the
inconsistency window gets bigger.  An optimal trade-off is required between
compensation cost due to database inconsistencies and the financial cost and
the performance overhead of stronger consistency requirements."

The compensation model charges the application owner for the inconsistencies
clients actually observed:

* a flat fee per stale read (support tickets, goodwill vouchers), and
* a larger fee per *conflict event* — a stale read whose staleness exceeded a
  business threshold, standing in for the double-booking scenario where the
  application acted on data old enough to cause a real conflict,
* plus a fee per failed request (unavailability), so the consistency /
  availability / cost triangle is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cluster.cluster import ClusterListener
from ..cluster.errors import Settings, non_negative
from ..cluster.types import OperationResult

__all__ = ["CompensationRates", "CompensationModel"]

#: Charge per failed (timed-out / unavailable) client operation.
FAILED_OPERATION_PRICE = 0.01


@dataclass
class CompensationRates(Settings):
    """Unit prices of consistency and availability incidents."""

    stale_read: float = non_negative(0.002)
    """Charge per stale read served to a client."""

    conflict_event: float = non_negative(0.25)
    """Charge per stale read older than ``conflict_staleness_threshold``."""

    conflict_staleness_threshold: float = non_negative(1.0)
    """Staleness (seconds) beyond which a stale read counts as a conflict."""


class CompensationModel(ClusterListener):
    """Accumulates business compensation cost from observed client results."""

    def __init__(self, rates: Optional[CompensationRates] = None) -> None:
        self.rates = rates or CompensationRates()
        self.stale_reads = 0
        self.conflict_events = 0
        self.failed_operations = 0

    # ------------------------------------------------------------------
    # ClusterListener hook
    # ------------------------------------------------------------------
    def on_operation_completed(self, result: OperationResult) -> None:
        if result.operation.is_probe:
            return
        if not result.success:
            self.failed_operations += 1
            return
        if result.is_read and result.stale:
            self.stale_reads += 1
            if result.staleness >= self.rates.conflict_staleness_threshold:
                self.conflict_events += 1

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def stale_read_cost(self) -> float:
        """Compensation for ordinary stale reads."""
        return self.stale_reads * self.rates.stale_read

    def conflict_cost(self) -> float:
        """Compensation for conflict-grade stale reads (double bookings)."""
        return self.conflict_events * self.rates.conflict_event

    def availability_cost(self) -> float:
        """Compensation for failed client operations."""
        return self.failed_operations * FAILED_OPERATION_PRICE

    def total_cost(self) -> float:
        """All business-side compensation."""
        return self.stale_read_cost() + self.conflict_cost() + self.availability_cost()

    def breakdown(self) -> Dict[str, float]:
        """Compensation breakdown for reports."""
        return {
            "stale_reads": float(self.stale_reads),
            "conflict_events": float(self.conflict_events),
            "failed_operations": float(self.failed_operations),
            "stale_read_cost": self.stale_read_cost(),
            "conflict_cost": self.conflict_cost(),
            "availability_cost": self.availability_cost(),
            "total_compensation_cost": self.total_cost(),
        }

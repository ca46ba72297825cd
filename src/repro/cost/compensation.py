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
* plus a fee per failed or shed request (unavailability), so the
  consistency / availability / cost triangle is complete.

It keeps no counts of its own: the workload's tally
(:class:`~repro.workload.generator.WorkloadStats`) is priced at report time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..cluster.errors import Settings, non_negative

__all__ = ["CompensationRates", "CompensationModel"]

#: Charge per failed (timed-out / unavailable) client operation.  An
#: operation admission control shed counts as failed here: the client was
#: refused service either way.
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


class CompensationModel:
    """Prices the incidents clients observed, counted by the workload."""

    def __init__(self, rates: CompensationRates) -> None:
        self.rates = rates

    def breakdown(
        self, stale_reads: int, conflict_events: int, failed_operations: int
    ) -> Dict[str, float]:
        """The counts, what each costs and the total, for reports."""
        stale_read_cost = stale_reads * self.rates.stale_read
        conflict_cost = conflict_events * self.rates.conflict_event
        availability_cost = failed_operations * FAILED_OPERATION_PRICE
        return {
            "stale_reads": float(stale_reads),
            "conflict_events": float(conflict_events),
            "failed_operations": float(failed_operations),
            "stale_read_cost": stale_read_cost,
            "conflict_cost": conflict_cost,
            "availability_cost": availability_cost,
            "total_compensation_cost": stale_read_cost + conflict_cost + availability_cost,
        }

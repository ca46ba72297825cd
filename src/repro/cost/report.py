"""Combined cost reporting.

Brings the infrastructure billing (:mod:`repro.cost.billing`), the business
compensation (:mod:`repro.cost.compensation`) and any SLA penalty charges
into one report so that experiments E5/E6 can answer the paper's bottom-line
question: which operating policy runs the database at minimal *total* cost
while meeting the SLA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..workload.generator import WorkloadStats
from .billing import BillingModel
from .compensation import CompensationModel, CompensationRates

__all__ = ["CostReport", "CostAccountant"]


@dataclass
class CostReport:
    """One run's total cost, split by origin."""

    infrastructure_cost: float
    churn_cost: float
    monitoring_cost: float
    compensation_cost: float
    sla_penalty_cost: float
    node_hours: float
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        """Grand total across all cost origins."""
        return (
            self.infrastructure_cost
            + self.churn_cost
            + self.monitoring_cost
            + self.compensation_cost
            + self.sla_penalty_cost
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for experiment tables."""
        out = {
            "infrastructure_cost": self.infrastructure_cost,
            "churn_cost": self.churn_cost,
            "monitoring_cost": self.monitoring_cost,
            "compensation_cost": self.compensation_cost,
            "sla_penalty_cost": self.sla_penalty_cost,
            "node_hours": self.node_hours,
            "total_cost": self.total_cost,
        }
        out.update(self.details)
        return out


class CostAccountant:
    """Aggregates the cost models of one simulation run."""

    def __init__(self, rates: CompensationRates) -> None:
        self.billing = BillingModel()
        self.compensation = CompensationModel(rates)

    def report(self, end_time: float, sla_penalty: float, stats: WorkloadStats) -> CostReport:
        """The combined report at ``end_time``, from totals over the run so far
        (``stats`` is the clients' tally): calling it again re-reports the run
        instead of charging it twice."""
        self.billing.close(end_time)
        compensation = self.compensation.breakdown(
            stats.stale_reads,
            stats.stale_reads_at_least(self.compensation.rates.conflict_staleness_threshold),
            # A shed operation is charged as a failed one (FAILED_OPERATION_PRICE).
            stats.operations_failed + stats.operations_rejected,
        )
        details = {f"billing.{key}": value for key, value in self.billing.breakdown().items()}
        for key, value in compensation.items():
            details[f"compensation.{key}"] = value
        return CostReport(
            infrastructure_cost=self.billing.infrastructure_cost(),
            churn_cost=self.billing.churn_cost(),
            monitoring_cost=self.billing.monitoring_cost(),
            compensation_cost=compensation["total_compensation_cost"],
            sla_penalty_cost=max(0.0, float(sla_penalty)),
            node_hours=self.billing.node_hours,
            details=details,
        )

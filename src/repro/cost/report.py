"""Combined cost reporting.

Brings the infrastructure billing (:mod:`repro.cost.billing`), the business
compensation (:mod:`repro.cost.compensation`) and any SLA penalty charges
into one report so that experiments E5/E6 can answer the paper's bottom-line
question: which operating policy runs the database at minimal *total* cost
while meeting the SLA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .billing import BillingModel
from .compensation import CompensationModel

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

    def __init__(self, compensation: Optional[CompensationModel] = None) -> None:
        self.billing = BillingModel()
        self.compensation = compensation or CompensationModel()
        self._sla_penalty = 0.0

    def add_sla_penalty(self, amount: float) -> None:
        """Add SLA penalty charges (computed by the SLA evaluator)."""
        self._sla_penalty += max(0.0, float(amount))

    def report(self, end_time: Optional[float] = None) -> CostReport:
        """Produce the combined report (closes billing at ``end_time`` if given)."""
        if end_time is not None:
            self.billing.close(end_time)
        details: Dict[str, float] = {}
        for key, value in self.billing.breakdown().items():
            details[f"billing.{key}"] = value
        for key, value in self.compensation.breakdown().items():
            details[f"compensation.{key}"] = value
        return CostReport(
            infrastructure_cost=self.billing.infrastructure_cost(),
            churn_cost=self.billing.churn_cost(),
            monitoring_cost=self.billing.monitoring_cost(),
            compensation_cost=self.compensation.total_cost(),
            sla_penalty_cost=self._sla_penalty,
            node_hours=self.billing.node_hours,
            details=details,
        )

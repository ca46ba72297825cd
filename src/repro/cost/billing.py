"""Infrastructure billing model (pay-as-you-use).

Section 3 of the paper argues that dynamic management "saves money due to a
better usage of the pay-as-you-use billing model in the cloud".  To make that
claim measurable, the billing model charges:

* **node-hours** — every second a node is provisioned (up, joining, leaving
  or even crashed-but-not-decommissioned) is billed at an hourly rate,
* **reconfiguration charges** — a flat fee per scaling action, standing in
  for the operational cost of churn (instance start-up billing minimums,
  data-transfer fees during rebalancing), and
* **monitoring charges** — probe operations and analysis compute, so the
  trade-off of research question 1 shows up in currency rather than only in
  percentage points of load.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..simulation.timeseries import TimeSeries

__all__ = ["BillingModel"]

# Unit prices used throughout the cost accounting (currency-agnostic).

#: Price of one provisioned node for one hour.
NODE_HOUR_PRICE = 0.50

#: Flat charge per add/remove-node action (churn cost).
SCALING_ACTION_PRICE = 0.10

#: Flat charge per configuration-only action (CL or RF change).
RECONFIGURATION_ACTION_PRICE = 0.01

#: Price per monitoring probe operation sent to the store.
PROBE_OPERATION_PRICE = 2e-6

#: Price of one hour of monitoring analysis compute.
ANALYSIS_CPU_HOUR_PRICE = 0.05


class BillingModel:
    """Accumulates infrastructure cost over a simulation run."""

    def __init__(self) -> None:
        self._node_count_series = TimeSeries("billed_node_count")
        self._scaling_actions = 0
        self._reconfiguration_actions = 0
        self._probe_operations = 0
        self._analysis_cpu_seconds = 0.0
        self._last_node_count: Optional[int] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_node_count(self, time: float, node_count: int) -> None:
        """Record the provisioned node count at ``time`` (step function)."""
        self._node_count_series.record(time, float(node_count))
        self._last_node_count = node_count

    def record_scaling_action(self) -> None:
        """Charge one add/remove-node action."""
        self._scaling_actions += 1

    def record_reconfiguration_action(self) -> None:
        """Charge one configuration-only action (CL/RF change)."""
        self._reconfiguration_actions += 1

    def charge_monitoring(self, probe_operations: int, analysis_cpu_seconds: float) -> None:
        """Charge the run's monitoring so far (totals: a later call replaces)."""
        self._probe_operations = probe_operations
        self._analysis_cpu_seconds = float(analysis_cpu_seconds)

    def close(self, end_time: float) -> None:
        """Close the billing period at ``end_time`` (extends the last sample)."""
        if self._last_node_count is not None:
            last_time = self._node_count_series.times[-1]
            if end_time > last_time:
                self._node_count_series.record(end_time, float(self._last_node_count))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def node_seconds(self) -> float:
        """Provisioned node-seconds over the billed period."""
        return self._node_count_series.integrate()

    @property
    def node_hours(self) -> float:
        """Provisioned node-hours over the billed period."""
        return self.node_seconds / 3600.0

    def infrastructure_cost(self) -> float:
        """Node-hour cost only."""
        return self.node_hours * NODE_HOUR_PRICE

    def churn_cost(self) -> float:
        """Scaling and reconfiguration charges."""
        return (
            self._scaling_actions * SCALING_ACTION_PRICE
            + self._reconfiguration_actions * RECONFIGURATION_ACTION_PRICE
        )

    def monitoring_cost(self) -> float:
        """Probe and analysis charges."""
        return (
            self._probe_operations * PROBE_OPERATION_PRICE
            + (self._analysis_cpu_seconds / 3600.0) * ANALYSIS_CPU_HOUR_PRICE
        )

    def total_cost(self) -> float:
        """All infrastructure-side charges (excludes SLA compensation)."""
        return self.infrastructure_cost() + self.churn_cost() + self.monitoring_cost()

    def breakdown(self) -> Dict[str, float]:
        """Cost breakdown for reports."""
        return {
            "node_hours": self.node_hours,
            "infrastructure_cost": self.infrastructure_cost(),
            "scaling_actions": float(self._scaling_actions),
            "reconfiguration_actions": float(self._reconfiguration_actions),
            "churn_cost": self.churn_cost(),
            "probe_operations": float(self._probe_operations),
            "analysis_cpu_seconds": self._analysis_cpu_seconds,
            "monitoring_cost": self.monitoring_cost(),
            "total_infrastructure_cost": self.total_cost(),
        }

"""Monitoring-overhead accounting.

Research question 1 is explicitly about whether measuring the inconsistency
window is worth its cost: "the cost of additional load on the database due to
artificial queries, the cost of the computing power required to process and
analyse these measurements, ...".  The :class:`MonitoringOverheadAccountant`
turns that into numbers: every estimator registers itself and the accountant
derives, per estimator,

* the number of extra cluster operations it issued,
* the fraction of total cluster load those operations represent, and
* an analysis-CPU charge (seconds of compute) based on a per-sample cost.

Experiment E2 reports these next to each estimator's accuracy, and the cost
model (:mod:`repro.cost`) converts them into money.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..cluster.cluster import Cluster, ClusterListener
from ..cluster.types import OperationResult
from .estimators import ConsistencyEstimator

__all__ = ["OverheadReport", "MonitoringOverheadAccountant"]


@dataclass
class OverheadReport:
    """Overhead figures for one estimator."""

    estimator: str
    probe_operations: int
    production_operations: int
    probe_load_fraction: float
    analysis_cpu_seconds: float
    estimates_produced: int

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for tables."""
        return {
            "probe_operations": float(self.probe_operations),
            "production_operations": float(self.production_operations),
            "probe_load_fraction": self.probe_load_fraction,
            "analysis_cpu_seconds": self.analysis_cpu_seconds,
            "estimates_produced": float(self.estimates_produced),
        }


#: CPU-seconds charged per observed sample and per produced estimate.
ANALYSIS_COST_PER_SAMPLE = 1e-5
ANALYSIS_COST_PER_ESTIMATE = 1e-3


class MonitoringOverheadAccountant(ClusterListener):
    """Tracks how much load and compute the monitoring subsystem adds."""

    def __init__(self, cluster: Cluster) -> None:
        self._estimators: List[ConsistencyEstimator] = []
        self.production_operations = 0
        self.probe_operations = 0
        cluster.add_listener(self)

    def register(self, estimator: ConsistencyEstimator) -> None:
        """Track an estimator's overhead."""
        self._estimators.append(estimator)

    # ------------------------------------------------------------------
    # ClusterListener hook
    # ------------------------------------------------------------------
    def on_operation_completed(self, result: OperationResult) -> None:
        if result.operation.is_probe:
            self.probe_operations += 1
        else:
            self.production_operations += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def probe_load_fraction(self) -> float:
        """Fraction of all cluster operations that were monitoring probes."""
        total = self.probe_operations + self.production_operations
        if total == 0:
            return 0.0
        return self.probe_operations / total

    def report_for(self, estimator: ConsistencyEstimator) -> OverheadReport:
        """Overhead report for one estimator."""
        estimates = estimator.estimates()
        samples = sum(estimate.samples for estimate in estimates)
        analysis_cpu = (
            samples * ANALYSIS_COST_PER_SAMPLE
            + len(estimates) * ANALYSIS_COST_PER_ESTIMATE
        )
        probe_ops = estimator.operations_issued()
        total_ops = self.production_operations + self.probe_operations
        return OverheadReport(
            estimator=estimator.name,
            probe_operations=probe_ops,
            production_operations=self.production_operations,
            probe_load_fraction=(probe_ops / total_ops) if total_ops else 0.0,
            analysis_cpu_seconds=analysis_cpu,
            estimates_produced=len(estimates),
        )

    def reports(self) -> Dict[str, OverheadReport]:
        """Overhead reports for every registered estimator."""
        return {
            estimator.name: self.report_for(estimator) for estimator in self._estimators
        }

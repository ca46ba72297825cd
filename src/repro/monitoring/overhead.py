"""Monitoring-overhead accounting.

Research question 1 is explicitly about whether measuring the inconsistency
window is worth its cost: "the cost of additional load on the database due to
artificial queries, the cost of the computing power required to process and
analyse these measurements, ...".  The :class:`MonitoringOverheadAccountant`
turns that into numbers: every estimator registers itself and the accountant
derives, per estimator,

* the number of extra cluster operations it added (the prober's resolved
  probes; every other estimator adds none),
* the fraction of total cluster load those operations represent, and
* an analysis-CPU charge (seconds of compute) based on a per-sample cost.

The load it divides by is counted where it happens: the workload's tally of
resolved production operations and the prober's count of resolved probes.
Experiment E2 reports these next to each estimator's accuracy, and the cost
model (:mod:`repro.cost`) converts them into money.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..workload.generator import WorkloadStats
from .estimators import ConsistencyEstimator, ReadAfterWriteProber

__all__ = ["OverheadReport", "MonitoringOverheadAccountant"]


@dataclass
class OverheadReport:
    """Overhead figures for one estimator."""

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


class MonitoringOverheadAccountant:
    """Tracks how much load and compute the monitoring subsystem adds."""

    def __init__(self, stats: WorkloadStats, prober: ReadAfterWriteProber) -> None:
        self._estimators: List[ConsistencyEstimator] = []
        self._stats = stats
        self._prober = prober

    def register(self, estimator: ConsistencyEstimator) -> None:
        """Track an estimator's overhead."""
        self._estimators.append(estimator)

    @property
    def production_operations(self) -> int:
        """Production operations resolved so far (the workload's tally)."""
        return self._stats.operations_resolved

    @property
    def probe_operations(self) -> int:
        """Probe operations resolved so far (the prober's count)."""
        return self._prober.probe_operations

    def report_for(self, estimator: ConsistencyEstimator) -> OverheadReport:
        """Overhead report for one estimator."""
        estimates = estimator.estimates()
        samples = sum(estimate.samples for estimate in estimates)
        analysis_cpu = (
            samples * ANALYSIS_COST_PER_SAMPLE
            + len(estimates) * ANALYSIS_COST_PER_ESTIMATE
        )
        probe_ops = self.probe_operations if estimator is self._prober else 0
        total_ops = self.production_operations + self.probe_operations
        return OverheadReport(
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

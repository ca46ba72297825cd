"""Analysis phase of the MAPE-K loop: symptoms and root causes.

The planner must not just notice *that* an SLO is at risk but *why*, because
the right action depends on the cause (research question 3: "choosing the
wrong reconfiguration action can make the problem worse... when the
performance of the database cluster degrades due to network congestion,
adding an extra replica will only cause more network traffic").  The analyzer
therefore labels each evaluation round with:

* **symptoms** — which SLOs are violated or inside the safety margin, and
* **root causes** — CPU saturation, network congestion, replication lag,
  over-provisioning, or consistency configuration mismatches,

derived from observable metrics only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Set

from ..cluster.types import ConsistencyLevel
from .knowledge import KnowledgeBase
from .sla import SLA, SLAEvaluation, SystemObservation

__all__ = ["Symptom", "RootCause", "AnalysisResult", "Analyzer"]


class Symptom(enum.Enum):
    """What is (about to go) wrong, in SLA terms."""

    LATENCY_VIOLATION = "latency_violation"
    LATENCY_AT_RISK = "latency_at_risk"
    STALENESS_VIOLATION = "staleness_violation"
    STALENESS_AT_RISK = "staleness_at_risk"
    AVAILABILITY_VIOLATION = "availability_violation"
    COST_WASTE = "cost_waste"


class RootCause(enum.Enum):
    """Why it is going wrong, in system terms."""

    CPU_SATURATION = "cpu_saturation"
    NETWORK_CONGESTION = "network_congestion"
    REPLICATION_LAG = "replication_lag"
    CONSISTENCY_TOO_WEAK = "consistency_too_weak"
    CONSISTENCY_TOO_STRICT = "consistency_too_strict"
    OVER_PROVISIONED = "over_provisioned"
    LOAD_INCREASING = "load_increasing"
    LOAD_DECREASING = "load_decreasing"


#: An SLO whose normalised margin drops below this is "at risk".
RISK_MARGIN = 0.2
#: Max node utilisation above which the CPU is the suspected bottleneck.
SATURATION_UTILIZATION = 0.8
#: Mean utilisation below which the cluster may be over-provisioned.
IDLE_UTILIZATION = 0.35
#: Network congestion multiplier above which the network is suspected.
CONGESTION_FACTOR = 1.5
#: All SLOs need at least this margin before cost optimisation kicks in.
WASTE_MARGIN = 0.5
#: How far ahead the load is forecast (seconds): the provisioning lead time
#: the load trend and every policy read.
FORECAST_HORIZON = 300.0
#: Relative forecast change that counts as an increasing/decreasing trend.
LOAD_TREND_THRESHOLD = 0.15


@dataclass
class AnalysisResult:
    """Everything a policy needs about one evaluation round."""

    time: float
    observation: SystemObservation
    margins: Dict[str, float]
    """Each objective's normalised margin, by objective name."""
    forecast_load: float
    """Peak forecast load over the next ``FORECAST_HORIZON`` seconds."""
    symptoms: Set[Symptom] = field(default_factory=set, init=False)
    root_causes: Set[RootCause] = field(default_factory=set, init=False)

    def has(self, symptom: Symptom) -> bool:
        """Whether a symptom was detected."""
        return symptom in self.symptoms

    def caused_by(self, cause: RootCause) -> bool:
        """Whether a root cause was detected."""
        return cause in self.root_causes


class Analyzer:
    """Turns (observation, SLA outcome, knowledge) into symptoms and causes."""

    def analyze(
        self,
        observation: SystemObservation,
        evaluation: SLAEvaluation,
        knowledge: KnowledgeBase,
        sla: SLA,
    ) -> AnalysisResult:
        """Produce the analysis for one evaluation round."""
        result = AnalysisResult(
            time=observation.time,
            observation=observation,
            margins={outcome.name: outcome.margin for outcome in evaluation.outcomes},
            forecast_load=knowledge.load_forecast_peak(FORECAST_HORIZON),
        )

        self._detect_symptoms(result, evaluation)
        self._detect_root_causes(result, observation, sla)
        return result

    # ------------------------------------------------------------------
    # Symptoms
    # ------------------------------------------------------------------
    def _detect_symptoms(self, result: AnalysisResult, evaluation: SLAEvaluation) -> None:
        for outcome in evaluation.outcomes:
            is_latency = outcome.name.endswith("latency")
            is_staleness = outcome.name == "staleness"
            is_availability = outcome.name == "availability"
            if not outcome.satisfied:
                if is_latency:
                    result.symptoms.add(Symptom.LATENCY_VIOLATION)
                elif is_staleness:
                    result.symptoms.add(Symptom.STALENESS_VIOLATION)
                elif is_availability:
                    result.symptoms.add(Symptom.AVAILABILITY_VIOLATION)
            elif outcome.margin < RISK_MARGIN:
                if is_latency:
                    result.symptoms.add(Symptom.LATENCY_AT_RISK)
                elif is_staleness:
                    result.symptoms.add(Symptom.STALENESS_AT_RISK)

        all_comfortable = all(
            outcome.margin >= WASTE_MARGIN for outcome in evaluation.outcomes
        )
        if (
            all_comfortable
            and result.observation.mean_utilization < IDLE_UTILIZATION
            and result.observation.node_count > 1
        ):
            result.symptoms.add(Symptom.COST_WASTE)

    # ------------------------------------------------------------------
    # Root causes
    # ------------------------------------------------------------------
    def _detect_root_causes(
        self,
        result: AnalysisResult,
        observation: SystemObservation,
        sla: SLA,
    ) -> None:
        if observation.max_utilization >= SATURATION_UTILIZATION:
            result.root_causes.add(RootCause.CPU_SATURATION)
        if observation.network_congestion >= CONGESTION_FACTOR:
            result.root_causes.add(RootCause.NETWORK_CONGESTION)
        if observation.mean_utilization <= IDLE_UTILIZATION:
            result.root_causes.add(RootCause.OVER_PROVISIONED)

        staleness_slo = sla.staleness_objective()
        if staleness_slo is not None:
            window_ratio = (
                observation.inconsistency_window_p95 / staleness_slo.max_window_p95
                if staleness_slo.max_window_p95 > 0
                else 0.0
            )
            if window_ratio > 1.0 - RISK_MARGIN:
                result.root_causes.add(RootCause.REPLICATION_LAG)
                if observation.max_utilization < SATURATION_UTILIZATION:
                    # Lag without saturation points at the consistency config
                    # (too few replicas consulted) rather than at capacity.
                    result.root_causes.add(RootCause.CONSISTENCY_TOO_WEAK)

        # A latency problem without saturation, while staleness has a large
        # margin, suggests the consistency levels are stricter than the SLA
        # requires.
        latency_stressed = (
            Symptom.LATENCY_VIOLATION in result.symptoms
            or Symptom.LATENCY_AT_RISK in result.symptoms
        )
        staleness_margin = result.margins.get("staleness", 1.0)
        if (
            latency_stressed
            and observation.max_utilization < SATURATION_UTILIZATION
            and staleness_margin > WASTE_MARGIN
            and observation.read_consistency is not ConsistencyLevel.ONE
        ):
            result.root_causes.add(RootCause.CONSISTENCY_TOO_STRICT)

        # Load trend from the forecaster.
        current_load = max(observation.throughput_ops, observation.offered_rate, 1e-9)
        forecast = result.forecast_load
        if forecast > current_load * (1.0 + LOAD_TREND_THRESHOLD):
            result.root_causes.add(RootCause.LOAD_INCREASING)
        elif forecast < current_load * (1.0 - LOAD_TREND_THRESHOLD):
            result.root_causes.add(RootCause.LOAD_DECREASING)

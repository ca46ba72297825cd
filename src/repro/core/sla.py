"""SLA model: objectives on performance, availability *and* consistency.

The paper's central idea is an *extended* SLA: "it not only defines
constraints on performance and availability, but also on the maximum size of
the inconsistency window" (Section 4).  This module provides that SLA as a
first-class object:

* :class:`LatencySLO` — a bound on a latency percentile of reads or writes,
* :class:`AvailabilitySLO` — a bound on the fraction of failed operations,
* :class:`StalenessSLO` — a bound on the inconsistency window (p95) and on
  the fraction of stale reads clients may observe,

combined into an :class:`SLA` with per-objective penalty rates.  The
:class:`SLAEvaluator` checks the SLA against periodic
:class:`SystemObservation` records and accumulates violation time and penalty
cost, which is what every end-to-end experiment reports.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.errors import Settings, fraction, non_negative
from ..cluster.types import ConsistencyLevel

__all__ = [
    "SystemObservation",
    "SLO",
    "LatencySLO",
    "AvailabilitySLO",
    "StalenessSLO",
    "SLA",
    "SLOEvaluation",
    "SLAEvaluation",
    "SLAEvaluator",
    "default_sla",
]


@dataclass
class SystemObservation:
    """Everything the SLA (and the controller) looks at in one evaluation round.

    All fields are observable in a real deployment; the inconsistency-window
    figure comes from whichever estimator the operator configured, not from
    simulator ground truth.
    """

    time: float
    read_p95_latency: float = 0.0
    write_p95_latency: float = 0.0
    failure_fraction: float = 0.0
    stale_read_fraction: float = 0.0
    inconsistency_window_p95: float = 0.0
    inconsistency_window_mean: float = 0.0
    throughput_ops: float = 0.0
    offered_rate: float = 0.0
    mean_utilization: float = 0.0
    max_utilization: float = 0.0
    network_congestion: float = 1.0
    node_count: int = 0
    replication_factor: int = 0
    read_consistency: ConsistencyLevel = ConsistencyLevel.ONE
    write_consistency: ConsistencyLevel = ConsistencyLevel.ONE
    tier_scales: Dict[str, float] = field(default_factory=dict)
    """Admission quota scale per SLO tier (1.0 = configured quota); empty
    when the request stack has no admission stage."""


@dataclass
class SLOEvaluation:
    """The outcome of checking one objective against one observation."""

    name: str
    satisfied: bool
    margin: float
    """Positive margin = headroom remaining, negative = amount of violation,
    both normalised by the threshold so different SLOs are comparable."""


class SLO(abc.ABC):
    """One service-level objective."""

    name: str = "slo"

    @abc.abstractmethod
    def evaluate(self, observation: SystemObservation) -> SLOEvaluation:
        """Check the objective against an observation."""

    @staticmethod
    def _upper_bound_eval(
        name: str, observed: float, threshold: float
    ) -> SLOEvaluation:
        """Helper for "observed must stay below threshold" objectives."""
        if threshold <= 0.0:
            margin = 0.0 if observed <= 0.0 else -1.0
            return SLOEvaluation(name, observed <= threshold, margin)
        margin = (threshold - observed) / threshold
        return SLOEvaluation(name, observed <= threshold, margin)


@dataclass
class LatencySLO(SLO, Settings):
    """Bound on the 95th-percentile latency of reads or writes (seconds)."""

    max_latency: float = non_negative()
    operation: str = "read"
    """Either ``"read"`` or ``"write"``."""

    def __post_init__(self) -> None:
        if self.operation not in ("read", "write"):
            raise ValueError("operation must be 'read' or 'write'")
        self.name = f"{self.operation}_p95_latency"

    def evaluate(self, observation: SystemObservation) -> SLOEvaluation:
        if self.operation == "read":
            observed = observation.read_p95_latency
        else:
            observed = observation.write_p95_latency
        return self._upper_bound_eval(self.name, observed, self.max_latency)


@dataclass
class AvailabilitySLO(SLO, Settings):
    """Bound on the fraction of client operations that fail."""

    max_failure_fraction: float = fraction(0.001)

    def __post_init__(self) -> None:
        self.name = "availability"

    def evaluate(self, observation: SystemObservation) -> SLOEvaluation:
        return self._upper_bound_eval(
            self.name, observation.failure_fraction, self.max_failure_fraction
        )


@dataclass
class StalenessSLO(SLO, Settings):
    """Bound on the inconsistency window and on observed stale reads."""

    max_window_p95: float = non_negative(0.5)
    """Maximum tolerated 95th-percentile inconsistency window (seconds)."""

    max_stale_read_fraction: float = fraction(0.05)
    """Maximum tolerated fraction of stale production reads."""

    def __post_init__(self) -> None:
        self.name = "staleness"

    def evaluate(self, observation: SystemObservation) -> SLOEvaluation:
        window_eval = self._upper_bound_eval(
            self.name, observation.inconsistency_window_p95, self.max_window_p95
        )
        stale_eval = self._upper_bound_eval(
            self.name, observation.stale_read_fraction, self.max_stale_read_fraction
        )
        # The binding constraint is whichever has less margin.
        if stale_eval.margin < window_eval.margin:
            return stale_eval
        return window_eval


@dataclass
class SLA(Settings):
    """A set of objectives plus penalty rates."""

    objectives: List[SLO]
    penalty_per_violation_second: float = non_negative(0.01)
    """Penalty charged per second during which at least one SLO is violated."""

    name: str = "sla"

    def evaluate(self, observation: SystemObservation) -> List[SLOEvaluation]:
        """Evaluate every objective against one observation."""
        return [objective.evaluate(observation) for objective in self.objectives]

    def objective_names(self) -> List[str]:
        """Names of all objectives in this SLA."""
        return [objective.name for objective in self.objectives]

    def staleness_objective(self) -> Optional[StalenessSLO]:
        """The staleness objective, if the SLA has one (the planner needs it)."""
        for objective in self.objectives:
            if isinstance(objective, StalenessSLO):
                return objective
        return None


def default_sla() -> SLA:
    """A reasonable e-commerce-style SLA used by examples and tests."""
    return SLA(
        objectives=[
            LatencySLO(max_latency=0.050, operation="read"),
            LatencySLO(max_latency=0.100, operation="write"),
            AvailabilitySLO(max_failure_fraction=0.01),
            StalenessSLO(max_window_p95=0.5, max_stale_read_fraction=0.05),
        ],
        penalty_per_violation_second=0.01,
        name="default-ecommerce",
    )


@dataclass
class SLAEvaluation:
    """One evaluation round: observation time plus per-objective outcomes."""

    time: float
    outcomes: List[SLOEvaluation]

    @property
    def satisfied(self) -> bool:
        """Whether every objective was met."""
        return all(outcome.satisfied for outcome in self.outcomes)


class SLAEvaluator:
    """Accumulates SLA compliance over a run."""

    def __init__(self, sla: SLA) -> None:
        self.sla = sla
        self.evaluated = 0
        self.violated = 0
        self.violation_seconds = 0.0
        self.violation_seconds_by_objective: Dict[str, float] = {
            name: 0.0 for name in sla.objective_names()
        }
        self.penalty_cost = 0.0
        self._last_time: Optional[float] = None

    def evaluate(self, observation: SystemObservation) -> SLAEvaluation:
        """Evaluate one observation and accumulate violation time since the last one."""
        outcomes = self.sla.evaluate(observation)
        evaluation = SLAEvaluation(time=observation.time, outcomes=outcomes)
        self.evaluated += 1
        if not evaluation.satisfied:
            self.violated += 1

        if self._last_time is not None:
            interval = max(0.0, observation.time - self._last_time)
            if not evaluation.satisfied:
                self.violation_seconds += interval
                self.penalty_cost += interval * self.sla.penalty_per_violation_second
            for outcome in outcomes:
                if not outcome.satisfied:
                    self.violation_seconds_by_objective[outcome.name] = (
                        self.violation_seconds_by_objective.get(outcome.name, 0.0) + interval
                    )
        self._last_time = observation.time
        return evaluation

    @property
    def violation_fraction(self) -> float:
        """Fraction of evaluation rounds with at least one violated objective."""
        if not self.evaluated:
            return 0.0
        return self.violated / self.evaluated

    def summary(self) -> Dict[str, float]:
        """Headline compliance figures for reports."""
        out = {
            "evaluations": float(self.evaluated),
            "violation_fraction": self.violation_fraction,
            "violation_seconds": self.violation_seconds,
            "penalty_cost": self.penalty_cost,
        }
        for name, seconds in self.violation_seconds_by_objective.items():
            out[f"violation_seconds.{name}"] = seconds
        return out

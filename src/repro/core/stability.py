"""Stability guard: keeping the autonomous loop from oscillating.

Research question 3 makes convergence a first-class requirement: "it is
important that the decisions made by the autonomous system converge to a
steady state, preventing continuous configuration changes which might impact
performance".  The guard enforces three mechanisms in front of the executor:

* **cooldowns** — after an action of a given family executes, further actions
  of that family are blocked for a configurable period (longer for heavy
  actions such as adding a node, whose effect takes minutes to materialise),
* **persistence (hysteresis)** — corrective actions require the triggering
  symptom to persist across several consecutive evaluation rounds, so a
  single noisy sample cannot trigger churn, and
* **oscillation detection** — if the recent action history alternates between
  scale-out and scale-in, scaling is frozen for a damping period and the
  incident is counted (experiment E4 reports this counter).

The guard is deliberately its own object so experiment E4 can run the same
policy with and without it (ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.errors import Settings, at_least
from .actions import ActionKind, ActionOutcome, ReconfigurationAction
from .analyzer import AnalysisResult, Symptom

__all__ = ["StabilityConfig", "StabilityGuard"]

#: Symptoms that bypass the persistence requirement (but not cooldowns).
EMERGENCY_SYMPTOMS = frozenset({Symptom.AVAILABILITY_VIOLATION})

#: Seconds of action history inspected for oscillation.
OSCILLATION_WINDOW = 1800.0

#: Seconds during which scaling is frozen after oscillation is detected.
OSCILLATION_FREEZE = 900.0


@dataclass
class StabilityConfig(Settings):
    """Parameters of the stability guard."""

    cooldown_seconds: Dict[ActionKind, float] = field(
        default_factory=lambda: {
            ActionKind.SCALE_OUT: 180.0,
            ActionKind.SCALE_IN: 420.0,
            ActionKind.CONSISTENCY: 60.0,
            ActionKind.REPLICATION: 600.0,
            ActionKind.ADMISSION: 90.0,
        }
    )
    """Minimum seconds between two actions of the same family."""

    required_persistence: int = at_least(1, 2)
    """Consecutive evaluation rounds a symptom must persist before acting."""

    oscillation_flips: int = at_least(1, 3)
    """Direction changes within the window that count as oscillation."""


class StabilityGuard:
    """Gates the policy's action before it reaches the executor."""

    def __init__(self, config: Optional[StabilityConfig] = None) -> None:
        self.config = config or StabilityConfig()
        self._last_action_time: Dict[ActionKind, float] = {}
        self._scale_history: List[tuple[float, ActionKind]] = []
        self._symptom_streak: Dict[Symptom, int] = {}
        self._frozen_until: Optional[float] = None
        self.blocked_by_cooldown = 0
        self.blocked_by_persistence = 0
        self.blocked_by_freeze = 0
        self.oscillations_detected = 0

    # ------------------------------------------------------------------
    # Observation of each round
    # ------------------------------------------------------------------
    def observe_analysis(self, analysis: AnalysisResult) -> None:
        """Update symptom persistence counters with this round's analysis."""
        current = analysis.symptoms
        for symptom in Symptom:
            if symptom in current:
                self._symptom_streak[symptom] = self._symptom_streak.get(symptom, 0) + 1
            else:
                self._symptom_streak[symptom] = 0

    def record_outcome(self, outcome: ActionOutcome) -> None:
        """Record an executed action (starts its cooldown, feeds oscillation check)."""
        if not outcome.applied:
            return
        self._last_action_time[outcome.kind] = outcome.time
        if outcome.kind in (ActionKind.SCALE_OUT, ActionKind.SCALE_IN):
            self._scale_history.append((outcome.time, outcome.kind))
            self._check_oscillation(outcome.time)

    # ------------------------------------------------------------------
    # Gatekeeping
    # ------------------------------------------------------------------
    def allows(
        self,
        action: ReconfigurationAction,
        now: float,
        analysis: Optional[AnalysisResult] = None,
    ) -> bool:
        """Whether the guard lets this action through right now."""
        if self._frozen_until is not None and now < self._frozen_until:
            if action.kind in (ActionKind.SCALE_OUT, ActionKind.SCALE_IN):
                self.blocked_by_freeze += 1
                return False

        cooldown = self.config.cooldown_seconds.get(action.kind, 0.0)
        last = self._last_action_time.get(action.kind)
        if last is not None and now - last < cooldown:
            self.blocked_by_cooldown += 1
            return False

        if analysis is not None and not self._persistence_satisfied(analysis):
            self.blocked_by_persistence += 1
            return False
        return True

    def _persistence_satisfied(self, analysis: AnalysisResult) -> bool:
        """Corrective actions need their driving symptom to have persisted."""
        required = self.config.required_persistence
        if required <= 1:
            return True
        driving = analysis.symptoms
        if not driving:
            # Pure cost-optimisation moves are held to the same persistence
            # bar through the COST_WASTE symptom; if nothing at all was
            # detected there is nothing to persist and the action may pass.
            return True
        if driving & EMERGENCY_SYMPTOMS:
            return True
        return any(
            self._symptom_streak.get(symptom, 0) >= required for symptom in driving
        )

    # ------------------------------------------------------------------
    # Oscillation detection
    # ------------------------------------------------------------------
    def _check_oscillation(self, now: float) -> None:
        window_start = now - OSCILLATION_WINDOW
        self._scale_history = [
            entry for entry in self._scale_history if entry[0] >= window_start
        ]
        flips = 0
        for previous, current in zip(self._scale_history, self._scale_history[1:]):
            if previous[1] is not current[1]:
                flips += 1
        if flips >= self.config.oscillation_flips:
            self.oscillations_detected += 1
            self._frozen_until = now + OSCILLATION_FREEZE
            self._scale_history.clear()

    def stats(self) -> Dict[str, float]:
        """Counters for reports and the E4 ablation."""
        return {
            "blocked_by_cooldown": float(self.blocked_by_cooldown),
            "blocked_by_persistence": float(self.blocked_by_persistence),
            "blocked_by_freeze": float(self.blocked_by_freeze),
            "oscillations_detected": float(self.oscillations_detected),
        }

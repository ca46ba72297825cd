"""The paper's contribution: SLA-driven autonomous monitoring and auto-scaling."""

from .actions import (
    ActionKind,
    ActionOutcome,
    AddNodeAction,
    ReconfigurationAction,
    RemoveNodeAction,
    SetReadConsistencyAction,
    SetWriteConsistencyAction,
)
from .analyzer import AnalysisResult, Analyzer, RootCause, Symptom
from .controller import AutonomousController, ControllerConfig
from .forecasting import (
    FORECASTERS,
    AutoRegressiveForecaster,
    EwmaForecaster,
    Forecaster,
    HoltWintersForecaster,
    NaiveForecaster,
)
from .knowledge import CapacityModel, KnowledgeBase
from .planner import POLICIES, ConsistencyTarget
from .sla import (
    SLA,
    AvailabilitySLO,
    LatencySLO,
    SLAEvaluation,
    SLAEvaluator,
    SLOEvaluation,
    StalenessSLO,
    SystemObservation,
    default_sla,
)
from .stability import StabilityConfig, StabilityGuard

__all__ = [
    "AutonomousController",
    "ControllerConfig",
    "SLA",
    "LatencySLO",
    "AvailabilitySLO",
    "StalenessSLO",
    "SystemObservation",
    "SLAEvaluator",
    "SLAEvaluation",
    "SLOEvaluation",
    "default_sla",
    "KnowledgeBase",
    "CapacityModel",
    "Analyzer",
    "AnalysisResult",
    "Symptom",
    "RootCause",
    "POLICIES",
    "ConsistencyTarget",
    "StabilityGuard",
    "StabilityConfig",
    "Forecaster",
    "NaiveForecaster",
    "EwmaForecaster",
    "HoltWintersForecaster",
    "AutoRegressiveForecaster",
    "FORECASTERS",
    "ReconfigurationAction",
    "ActionKind",
    "ActionOutcome",
    "AddNodeAction",
    "RemoveNodeAction",
    "SetReadConsistencyAction",
    "SetWriteConsistencyAction",
]

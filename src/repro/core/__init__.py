"""The paper's contribution: SLA-driven autonomous monitoring and auto-scaling."""

from .actions import (
    ActionKind,
    ActionOutcome,
    AddNodeAction,
    NoAction,
    ReconfigurationAction,
    RemoveNodeAction,
    SetReadConsistencyAction,
    SetWriteConsistencyAction,
)
from .analyzer import AnalysisResult, Analyzer, RootCause, Symptom
from .controller import AutonomousController, ControllerConfig
from .forecasting import (
    AutoRegressiveForecaster,
    EwmaForecaster,
    Forecaster,
    HoltWintersForecaster,
    NaiveForecaster,
    make_forecaster,
)
from .knowledge import CapacityModel, KnowledgeBase
from .planner import ConsistencyTarget, SLAPlanner
from .policies import (
    OverprovisionedStaticPolicy,
    PredictivePolicy,
    ReactiveThresholdPolicy,
    ScalingPolicy,
    SLADrivenPolicy,
    StaticPolicy,
    make_policy,
)
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
    "SLAPlanner",
    "ConsistencyTarget",
    "StabilityGuard",
    "StabilityConfig",
    "Forecaster",
    "NaiveForecaster",
    "EwmaForecaster",
    "HoltWintersForecaster",
    "AutoRegressiveForecaster",
    "make_forecaster",
    "ScalingPolicy",
    "StaticPolicy",
    "OverprovisionedStaticPolicy",
    "ReactiveThresholdPolicy",
    "PredictivePolicy",
    "SLADrivenPolicy",
    "make_policy",
    "ReconfigurationAction",
    "ActionKind",
    "ActionOutcome",
    "AddNodeAction",
    "RemoveNodeAction",
    "SetReadConsistencyAction",
    "SetWriteConsistencyAction",
    "NoAction",
]

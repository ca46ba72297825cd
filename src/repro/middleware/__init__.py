"""Composable request-path middleware.

The subsystem the paper's architecture implies: every coordinated read and
write flows through an ordered :class:`MiddlewarePipeline` of
:class:`RequestMiddleware` stages, built by name from a registry.  The
default stack (:data:`DEFAULT_REQUEST_PIPELINE`) reproduces the classic
coordinator bit-identically; scenario variants swap, drop or extend stages
declaratively, named in one place (``SimulationConfig.middleware``, or
``repro.cli run --middleware ...``) and built by the cluster they serve.

See ARCHITECTURE.md for the layer stack and a custom-middleware walkthrough.
"""

from .admission import AdmissionControl, TokenBucket
from .base import (
    TENANT_HINT,
    TENANT_TIER_HINT,
    MiddlewarePipeline,
    RequestContext,
    RequestMiddleware,
)
from .builtin import (
    ConsistencyEnforcement,
    HintedHandoffMiddleware,
    MonitoringHooks,
    RandomReplicaSelection,
    ReadRepairMiddleware,
    StalenessAnnotation,
)
from .hedging import RequestHedging
from .latency import LatencyAwareReplicaSelection, NodeRttTracker
from .overrides import CONSISTENCY_HINT, PerRequestConsistencyOverride
from .registry import (
    ADMISSION_CONTROL_PIPELINE,
    CONSISTENCY_OVERRIDE_PIPELINE,
    DEFAULT_REQUEST_PIPELINE,
    HEDGED_PIPELINE,
    LATENCY_AWARE_PIPELINE,
    MiddlewareBuildContext,
    available_middlewares,
    build_pipeline,
    register_middleware,
)
from .routing import RttAwareWriteRouting

__all__ = [
    "RequestContext",
    "RequestMiddleware",
    "MiddlewarePipeline",
    "MiddlewareBuildContext",
    "register_middleware",
    "build_pipeline",
    "available_middlewares",
    "DEFAULT_REQUEST_PIPELINE",
    "LATENCY_AWARE_PIPELINE",
    "CONSISTENCY_OVERRIDE_PIPELINE",
    "HEDGED_PIPELINE",
    "ADMISSION_CONTROL_PIPELINE",
    "RandomReplicaSelection",
    "ConsistencyEnforcement",
    "HintedHandoffMiddleware",
    "ReadRepairMiddleware",
    "StalenessAnnotation",
    "MonitoringHooks",
    "LatencyAwareReplicaSelection",
    "NodeRttTracker",
    "RequestHedging",
    "RttAwareWriteRouting",
    "PerRequestConsistencyOverride",
    "CONSISTENCY_HINT",
    "AdmissionControl",
    "TokenBucket",
    "TENANT_HINT",
    "TENANT_TIER_HINT",
]

"""Scaling policies: the paper's SLA-driven controller and its baselines."""

from .base import ScalingPolicy
from .predictive import PredictivePolicy
from .reactive import ReactiveThresholdPolicy
from .sla_driven import SLADrivenPolicy
from .static import OverprovisionedStaticPolicy, StaticPolicy

__all__ = [
    "ScalingPolicy",
    "StaticPolicy",
    "OverprovisionedStaticPolicy",
    "ReactiveThresholdPolicy",
    "PredictivePolicy",
    "SLADrivenPolicy",
    "make_policy",
]


def make_policy(name: str) -> ScalingPolicy:
    """Factory mapping the policy names used in experiment specs to instances."""
    lowered = name.lower()
    if lowered == "static":
        return StaticPolicy()
    if lowered in ("overprovisioned", "overprovisioned_static"):
        return OverprovisionedStaticPolicy()
    if lowered in ("reactive", "reactive_threshold"):
        return ReactiveThresholdPolicy()
    if lowered == "predictive":
        return PredictivePolicy()
    if lowered in ("sla_driven", "sla-driven", "sladriven"):
        return SLADrivenPolicy()
    raise ValueError(f"unknown policy {name!r}")

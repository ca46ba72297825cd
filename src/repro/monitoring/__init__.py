"""Advanced monitoring: metric collection and inconsistency-window estimation."""

from .estimators import (
    ConsistencyEstimator,
    PiggybackMonitor,
    ProbeConfig,
    ReadAfterWriteProber,
    RttEstimator,
    RttEstimatorConfig,
    WindowEstimate,
)
from .metrics import MetricsCollector, MetricsConfig, MetricsSnapshot
from .overhead import MonitoringOverheadAccountant, OverheadReport
from .percentiles import WindowedPercentiles

__all__ = [
    "MetricsCollector",
    "MetricsConfig",
    "MetricsSnapshot",
    "ConsistencyEstimator",
    "WindowEstimate",
    "ReadAfterWriteProber",
    "ProbeConfig",
    "PiggybackMonitor",
    "RttEstimator",
    "RttEstimatorConfig",
    "MonitoringOverheadAccountant",
    "OverheadReport",
    "WindowedPercentiles",
]

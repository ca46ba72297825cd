"""Advanced monitoring: metric collection and inconsistency-window estimation."""

from .estimators import (
    ConsistencyEstimator,
    PiggybackMonitor,
    ProbeConfig,
    ReadAfterWriteProber,
    RttEstimator,
    WindowEstimate,
)
from .metrics import MetricsCollector, MetricsSnapshot
from .overhead import MonitoringOverheadAccountant, OverheadReport
from .percentiles import WindowedPercentiles

__all__ = [
    "MetricsCollector",
    "MetricsSnapshot",
    "ConsistencyEstimator",
    "WindowEstimate",
    "ReadAfterWriteProber",
    "ProbeConfig",
    "PiggybackMonitor",
    "RttEstimator",
    "MonitoringOverheadAccountant",
    "OverheadReport",
    "WindowedPercentiles",
]

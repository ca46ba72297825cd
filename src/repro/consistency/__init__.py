"""Consistency semantics and analytics.

Ground-truth inconsistency-window tracking (only possible inside the
simulator), client-observed staleness statistics, and the PBS-style
analytical model the controller's planner uses for what-if evaluation.
"""

from .pbs import StalenessModel
from .staleness import StalenessObserver, StalenessSnapshot
from .window_tracker import InconsistencyWindowTracker, WindowRecord

__all__ = [
    "InconsistencyWindowTracker",
    "WindowRecord",
    "StalenessObserver",
    "StalenessSnapshot",
    "StalenessModel",
]

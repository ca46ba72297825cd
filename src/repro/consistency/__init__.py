"""Consistency semantics and analytics.

Ground-truth inconsistency-window tracking (only possible inside the
simulator) and the PBS-style analytical model the controller's planner uses
for what-if evaluation.  Client-observed staleness is counted with every
other client outcome, by :class:`~repro.workload.generator.WorkloadStats`.
"""

from .pbs import StalenessModel
from .window_tracker import InconsistencyWindowTracker, WindowRecord

__all__ = [
    "InconsistencyWindowTracker",
    "WindowRecord",
    "StalenessModel",
]

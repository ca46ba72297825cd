"""Per-request consistency overrides.

The cluster has *default* read/write consistency levels the controller tunes
globally.  Real applications want finer grain: a shopping cart read can
tolerate staleness while the checkout write of the same tenant cannot.  The
workload layer expresses that as per-operation hints
(:attr:`~repro.workload.generator.WorkloadSpec.consistency_overrides`), and
this middleware is the policy point that honours them — the request path
stays in control of what applications may ask for.

Without this middleware in the pipeline, hints are carried but ignored: the
override capability is a property of the request path, not of the client API.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster.types import ConsistencyLevel
from .base import RequestContext, RequestMiddleware
from .registry import MiddlewareBuildContext, register_middleware

__all__ = ["PerRequestConsistencyOverride", "CONSISTENCY_HINT"]

#: Hint key carrying a per-request consistency level.
CONSISTENCY_HINT = "consistency_level"


def _coerce_level(value: object) -> Optional[ConsistencyLevel]:
    """Turn a hint value into a :class:`ConsistencyLevel`, or ``None`` for
    anything unrecognised: per-request hints come from application code and
    must never crash the request path."""
    if isinstance(value, ConsistencyLevel):
        return value
    if isinstance(value, str):
        try:
            return ConsistencyLevel(value.upper())
        except ValueError:
            return None
    return None


class PerRequestConsistencyOverride(RequestMiddleware):
    """Rewrite the effective consistency level from the request's hints."""

    name = "consistency-override"

    def __init__(self) -> None:
        self.overrides_applied = 0
        self.overrides_invalid = 0
        """Hints carrying an unrecognised level — counted and ignored, never
        allowed to fail the request they rode in on."""

    def on_request(self, ctx: RequestContext) -> None:
        hints = ctx.hints
        if not hints:
            return
        raw = hints.get(CONSISTENCY_HINT)
        if raw is None:
            return
        level = _coerce_level(raw)
        if level is None:
            self.overrides_invalid += 1
            return
        if level is not ctx.consistency_level:
            ctx.consistency_level = level
            self.overrides_applied += 1

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            # No level is clamped: the two keys keep the report's shape.
            "max_level": None,
            "overrides_applied": self.overrides_applied,
            "overrides_clamped": 0,
            "overrides_invalid": self.overrides_invalid,
        }


@register_middleware("consistency-override")
def _build_consistency_override(_ctx: MiddlewareBuildContext) -> PerRequestConsistencyOverride:
    return PerRequestConsistencyOverride()

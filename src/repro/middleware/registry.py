"""Name-based middleware registry.

A scenario declares its request path once, as an ordered list of middleware
*names* (:attr:`~repro.runner.SimulationConfig.middleware`, or ``--middleware``
on the CLI); the :class:`~repro.cluster.cluster.Cluster` it runs on turns
those names into a :class:`MiddlewarePipeline`.  Registering a custom
middleware is one decorator; the factory closes over its own parameters::

    from repro.middleware import RequestMiddleware, register_middleware

    @register_middleware("tenant-throttle")
    def _build(ctx):
        return TenantThrottle(limit=10)

after which ``middleware=("replica-selection", ..., "tenant-throttle")`` wires
it into every request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Sequence, Tuple

from ..cluster.errors import ConfigurationError
from .base import MiddlewarePipeline, RequestMiddleware

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..cluster.cluster import Cluster
    from ..cluster.coordinator import RequestCoordinator
    from ..simulation.engine import Simulator

__all__ = [
    "MiddlewareBuildContext",
    "register_middleware",
    "build_pipeline",
    "available_middlewares",
    "DEFAULT_REQUEST_PIPELINE",
    "LATENCY_AWARE_PIPELINE",
    "CONSISTENCY_OVERRIDE_PIPELINE",
    "HEDGED_PIPELINE",
    "ADMISSION_CONTROL_PIPELINE",
]

#: The stack that reproduces the pre-pipeline coordinator bit-identically.
DEFAULT_REQUEST_PIPELINE: Tuple[str, ...] = (
    "replica-selection",
    "consistency",
    "hinted-handoff",
    "read-repair",
    "staleness",
    "monitoring-hooks",
)

#: Default stack with reads routed to the lowest-RTT replicas instead of
#: random ones (deterministic; uses no RNG stream).
LATENCY_AWARE_PIPELINE: Tuple[str, ...] = (
    "latency-aware-selection",
    "consistency",
    "hinted-handoff",
    "read-repair",
    "staleness",
    "monitoring-hooks",
)

#: Default stack honouring per-request consistency-level hints from the
#: workload (``WorkloadSpec.consistency_overrides``).
CONSISTENCY_OVERRIDE_PIPELINE: Tuple[str, ...] = (
    "replica-selection",
    "consistency-override",
    "consistency",
    "hinted-handoff",
    "read-repair",
    "staleness",
    "monitoring-hooks",
)


#: The tail-latency stack: latency-aware read routing plus speculative
#: (hedged) backup reads and RTT-aware write fan-out/coordinator preference,
#: all ranking by the coordinator's per-node EWMA RTT tracker.
#: Deterministic — no stage draws from an RNG stream.
HEDGED_PIPELINE: Tuple[str, ...] = (
    "latency-aware-selection",
    "request-hedging",
    "rtt-aware-write-routing",
    "consistency",
    "hinted-handoff",
    "read-repair",
    "staleness",
    "monitoring-hooks",
)


#: The multi-tenant stack: per-tenant token-bucket admission control ahead of
#: the default request path.  Admission runs first so rejected requests never
#: reach replica selection or fan-out.  Deterministic — the bucket refill is
#: a pure function of simulated time, no RNG stream is consumed.
ADMISSION_CONTROL_PIPELINE: Tuple[str, ...] = (
    "admission-control",
    "replica-selection",
    "consistency",
    "hinted-handoff",
    "read-repair",
    "staleness",
    "monitoring-hooks",
)


@dataclass
class MiddlewareBuildContext:
    """What every middleware factory builds against: the system it serves."""

    simulator: "Simulator"
    cluster: "Cluster"
    coordinator: "RequestCoordinator"


_FACTORIES: Dict[str, Callable[[MiddlewareBuildContext], RequestMiddleware]] = {}


def register_middleware(
    name: str,
) -> Callable[
    [Callable[[MiddlewareBuildContext], RequestMiddleware]],
    Callable[[MiddlewareBuildContext], RequestMiddleware],
]:
    """Decorator registering a middleware factory under ``name``.

    Re-registering a name overwrites the previous factory (useful in tests).
    """

    def _register(
        factory: Callable[[MiddlewareBuildContext], RequestMiddleware],
    ) -> Callable[[MiddlewareBuildContext], RequestMiddleware]:
        _FACTORIES[name] = factory
        return factory

    return _register


def available_middlewares() -> Tuple[str, ...]:
    """Registered middleware names, sorted."""
    return tuple(sorted(_FACTORIES))


def check_stage_names(names: object, owner: str) -> None:
    """Refuse a bare string (one stage per character) as ``owner``'s stack."""
    if isinstance(names, str):
        raise ConfigurationError(
            f"{owner} must be a sequence of stage names, got str {names!r}"
        )


def build_pipeline(names: Sequence[str], context: MiddlewareBuildContext) -> MiddlewarePipeline:
    """Build an ordered pipeline from registry names.

    Raises one :class:`ConfigurationError` (a ``ValueError``) for a bare string
    or naming the first unknown stage and listing the registered ones.
    """
    check_stage_names(names, "middleware")
    middlewares = []
    for name in names:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown middleware {name!r}; registered: {', '.join(available_middlewares())}"
            )
        middleware = factory(context)
        middleware.name = name
        middlewares.append(middleware)
    return MiddlewarePipeline(middlewares)

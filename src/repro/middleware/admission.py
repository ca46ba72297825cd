"""Per-tenant token-bucket admission control.

The canonical use of the pipeline's ``on_request``/reject hook: every
coordinated operation carrying a tenant identity is charged against that
tenant's token bucket, and requests arriving faster than the bucket refills
are shed *before* fan-out — they cost the cluster nothing and are accounted
as **rejected**, not failed, all the way into :class:`WorkloadStats`,
monitoring snapshots and the cost report.

Quotas are tier-derived: the tenant's SLO tier (``gold``/``silver``/
``bronze`` by default, carried on the request as the ``tenant_tier`` hint)
selects a ``(rate, burst)`` pair, optionally scaled by a hot-reloadable
per-tier multiplier.  The multiplier is the controller's arbitration lever —
under overload the MAPE-K planner tightens low-tier quotas
(:class:`~repro.core.actions.SetTierQuotaScaleAction`) before paying for a
new node, and restores them when pressure subsides.

Determinism: bucket refill is a pure function of simulated time, so this
stage draws from **no** RNG stream (PERFORMANCE.md rule 3 is satisfied by not
rolling dice).  Tenantless requests pass through untouched — the stage only
overrides ``on_request``, and even when installed it costs a tenantless stack
one ``None`` check per operation (rule 6).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..cluster.errors import POSITIVE, check
from .base import RequestContext, RequestMiddleware
from .registry import MiddlewareBuildContext, register_middleware

__all__ = ["TokenBucket", "AdmissionControl"]

#: The ``(rate, burst)`` quota of a tier no quota was configured for
#: (operations per second, operations).
DEFAULT_RATE = 50.0
DEFAULT_BURST = 100.0


class TokenBucket:
    """A continuously-refilling token bucket (one token per operation)."""

    __slots__ = ("tier", "base_rate", "base_burst", "rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float, now: float, tier: str) -> None:
        self.tier = tier
        self.base_rate = float(rate)
        self.base_burst = float(burst)
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)  # buckets start full: bursts up to `burst` pass
        self.last = float(now)

    def try_acquire(self, now: float) -> bool:
        """Refill for elapsed time, then take one token if available."""
        elapsed = now - self.last
        if elapsed > 0.0:
            tokens = self.tokens + elapsed * self.rate
            self.tokens = tokens if tokens < self.burst else self.burst
            self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def rescale(self, scale: float) -> None:
        """Apply a tier-scale multiplier to the base quota (hot reload)."""
        self.rate = self.base_rate * scale
        self.burst = max(1.0, self.base_burst * scale)
        if self.tokens > self.burst:
            self.tokens = self.burst


class AdmissionControl(RequestMiddleware):
    """Token-bucket admission control keyed by the request's tenant id."""

    name = "admission-control"

    def __init__(self, simulator) -> None:
        self._simulator = simulator
        self._tier_quotas: Dict[str, Tuple[float, float]] = {}
        self._tier_scales: Dict[str, float] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self.admitted = 0
        self.rejected = 0
        self._rejected_by_tier: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Configuration (wired by the simulation / reconfigured by the controller)
    # ------------------------------------------------------------------
    def configure_tiers(self, tier_quotas: Dict[str, Tuple[float, float]]) -> None:
        """Install tier ``(rate, burst)`` quota defaults (e.g. from a
        :class:`~repro.workload.tenants.TenantSpec`'s tiers)."""
        for tier, (rate, burst) in tier_quotas.items():
            check(self.name, f"tiers.{tier}.rate", rate, POSITIVE)
            check(self.name, f"tiers.{tier}.burst", burst, POSITIVE)
            self._tier_quotas[tier] = (float(rate), float(burst))

    def set_tier_scale(self, tier: str, scale: float) -> float:
        """Hot-reload one tier's quota multiplier; returns the applied scale.

        Existing buckets of that tier are rescaled in place (tokens clamped
        to the new burst), new buckets inherit the scale at creation.
        """
        scale = max(0.0, float(scale))
        self._tier_scales[tier] = scale
        for bucket in self._buckets.values():
            if bucket.tier == tier:
                bucket.rescale(scale)
        return scale

    def tier_scale(self, tier: str) -> float:
        """Current quota multiplier for ``tier`` (1.0 when never touched)."""
        return self._tier_scales.get(tier, 1.0)

    def tier_scales(self) -> Dict[str, float]:
        """Quota multiplier per known tier (configured or explicitly scaled).

        Configured-but-untouched tiers report 1.0, so configuration
        snapshots expose every tier the planner could arbitrate.
        """
        tiers = sorted(set(self._tier_quotas) | set(self._tier_scales))
        return {tier: self._tier_scales.get(tier, 1.0) for tier in tiers}

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def _new_bucket(self, tenant: str, tier: Optional[str]) -> TokenBucket:
        tier_name = tier or "default"
        rate, burst = self._tier_quotas.get(tier_name, (DEFAULT_RATE, DEFAULT_BURST))
        bucket = TokenBucket(rate, burst, self._simulator.now, tier_name)
        scale = self._tier_scales.get(tier_name)
        if scale is not None:
            bucket.rescale(scale)
        self._buckets[tenant] = bucket
        return bucket

    def on_request(self, ctx: RequestContext) -> None:
        tenant = ctx.tenant
        if tenant is None:
            return  # tenantless request: admission control does not apply
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._new_bucket(tenant, ctx.tenant_tier)
        if bucket.try_acquire(self._simulator.now):
            self.admitted += 1
            return
        self.rejected += 1
        tier = bucket.tier
        self._rejected_by_tier[tier] = self._rejected_by_tier.get(tier, 0) + 1
        ctx.reject(f"admission-control: tenant {tenant} over {tier} quota")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tenants_tracked(self) -> int:
        """Number of tenants with a live bucket."""
        return len(self._buckets)

    def rejected_by_tier(self) -> Dict[str, int]:
        """Rejections per tier since the start of the run."""
        return dict(self._rejected_by_tier)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "tenants_tracked": self.tenants_tracked,
            "rejected_by_tier": self.rejected_by_tier(),
            "tier_scales": self.tier_scales(),
        }


@register_middleware("admission-control")
def _build_admission_control(ctx: MiddlewareBuildContext) -> AdmissionControl:
    return AdmissionControl(ctx.simulator)

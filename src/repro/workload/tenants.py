"""Tenant population model for multi-tenant workloads.

The ROADMAP's north star is a store serving millions of users; the unit the
middleware actually arbitrates between is the *tenant* — an application or
customer with its own key space, load shape and SLO tier.  This module models
a tenant population the way production multi-tenant stores see one:

* popularity follows a heavy-tailed (Zipf-like) law — a handful of tenants
  dominate traffic while thousands form the tail,
* each tenant owns a disjoint key-space prefix (``t17:user42``), so tenants
  never collide on keys,
* tenants are assigned an **SLO tier** (gold / silver / bronze by default);
  the tier carries the default token-bucket quota the ``admission-control``
  middleware enforces and the read-latency SLO the controller arbitrates on.

Everything here is **deterministic** — the population (weights, tiers,
prefixes) is a pure function of :class:`TenantSpec`, so constructing it draws
from no RNG stream (PERFORMANCE.md rule 3 is satisfied by not rolling dice).
The only stochastic choice — *which* tenant issues each arrival — happens in
the workload generator on a dedicated new stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.errors import Settings, at_least, non_negative, positive, positive_fraction
from .load_shapes import LoadShape

__all__ = [
    "TenantTier",
    "DEFAULT_TIERS",
    "TenantSpec",
    "TenantProfile",
    "TenantPopulation",
]


@dataclass(frozen=True)
class TenantTier(Settings):
    """One SLO tier: a population share, a default quota, and a latency SLO."""

    name: str
    population_fraction: float = positive_fraction()
    quota_rate: float = positive()
    quota_burst: float = positive()
    read_p99_slo_ms: float = positive()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be non-empty")


#: Default three-tier split.  The most popular tenants are the paying ones:
#: tiers are assigned by popularity rank, most popular first.
DEFAULT_TIERS: Tuple[TenantTier, ...] = (
    TenantTier("gold", 0.05, quota_rate=200.0, quota_burst=400.0, read_p99_slo_ms=30.0),
    TenantTier("silver", 0.25, quota_rate=80.0, quota_burst=160.0, read_p99_slo_ms=60.0),
    TenantTier("bronze", 0.70, quota_rate=30.0, quota_burst=60.0, read_p99_slo_ms=120.0),
)


@dataclass
class TenantSpec(Settings):
    """Declarative description of a tenant population.

    ``load_shape_overrides`` maps a tenant index to an *additional* arrival
    process (a :class:`LoadShape`) superposed on that tenant's share of the
    main population traffic — this is how an experiment makes one tenant a
    noisy neighbour without perturbing anyone else's RNG stream.
    """

    tenants: int = at_least(1, 1000)
    popularity_skew: float = non_negative(1.1)
    records_per_tenant: int = at_least(1, 50)
    tiers: Tuple[TenantTier, ...] = DEFAULT_TIERS
    key_prefix: str = "t"
    load_shape_overrides: Dict[int, LoadShape] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one tier is required")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        total = sum(tier.population_fraction for tier in self.tiers)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"tier population fractions must sum to 1.0, got {total}")
        for index in self.load_shape_overrides:
            if not 0 <= index < self.tenants:
                raise ValueError(
                    f"load_shape_overrides index {index} outside [0, {self.tenants})"
                )

    def describe(self) -> Dict[str, object]:
        """Summary for experiment logs."""
        return {
            "tenants": self.tenants,
            "popularity_skew": self.popularity_skew,
            "records_per_tenant": self.records_per_tenant,
            "tiers": {tier.name: tier.population_fraction for tier in self.tiers},
            "load_shape_overrides": sorted(self.load_shape_overrides),
        }


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's resolved identity: id, tier, and key-space prefix."""

    tenant_id: str
    tier: TenantTier
    key_prefix: str


class TenantPopulation:
    """A deterministic tenant population built from a :class:`TenantSpec`.

    Popularity weight of the tenant at rank ``i`` is proportional to
    ``1 / (i + 1) ** skew`` — the same discrete power law the Zipfian key
    distribution uses, applied at the tenant granularity.  Tier assignment
    follows popularity rank: the first ``population_fraction`` of ranks get
    the first tier and so on, which matches the intuition that the heaviest
    tenants are the paying (gold) ones.
    """

    __slots__ = ("spec", "_cumulative", "_profiles", "_weights", "_tier_by_name")

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        n = spec.tenants
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-float(spec.popularity_skew))
        weights /= weights.sum()
        self._weights = weights
        self._cumulative = np.cumsum(weights)
        # Guard against float round-off leaving the last cumulative < 1.0.
        self._cumulative[-1] = 1.0

        tiers = self._assign_tiers(spec, n)
        width = len(str(max(0, n - 1)))
        profiles: List[TenantProfile] = []
        for index in range(n):
            tenant_id = f"{spec.key_prefix}{index:0{width}d}"
            profiles.append(
                TenantProfile(
                    tenant_id=tenant_id,
                    tier=tiers[index],
                    key_prefix=f"{spec.key_prefix}{index}:user",
                )
            )
        self._profiles = profiles
        self._tier_by_name = {tier.name: tier for tier in spec.tiers}

    @staticmethod
    def _assign_tiers(spec: TenantSpec, n: int) -> List[TenantTier]:
        """Tier per popularity rank; fractions rounded, remainder to the last tier."""
        assignment: List[TenantTier] = []
        for tier in spec.tiers[:-1]:
            count = int(round(tier.population_fraction * n))
            count = min(count, n - len(assignment))
            assignment.extend([tier] * count)
        assignment.extend([spec.tiers[-1]] * (n - len(assignment)))
        return assignment

    def __len__(self) -> int:
        return len(self._profiles)

    @property
    def profiles(self) -> Sequence[TenantProfile]:
        """All tenant profiles, popularity rank order (most popular first)."""
        return self._profiles

    def profile(self, index: int) -> TenantProfile:
        """The profile of the tenant at popularity rank ``index``."""
        return self._profiles[index]

    def tier(self, name: str) -> Optional[TenantTier]:
        """Look a tier up by name (``None`` when unknown)."""
        return self._tier_by_name.get(name)

    def choose_index(self, u: float) -> int:
        """Map one uniform draw in ``[0, 1)`` to a tenant index.

        The caller supplies the uniform (drawn from *its* stream) so the
        population itself never touches an RNG.
        """
        index = int(np.searchsorted(self._cumulative, u, side="right"))
        if index >= len(self._profiles):
            index = len(self._profiles) - 1
        return index

    def tier_lookup(self) -> Dict[str, str]:
        """Mapping ``tenant_id -> tier name`` (for the metrics rollup)."""
        return {p.tenant_id: p.tier.name for p in self._profiles}

    def tier_counts(self) -> Dict[str, int]:
        """How many tenants each tier holds."""
        counts: Dict[str, int] = {}
        for profile in self._profiles:
            counts[profile.tier.name] = counts.get(profile.tier.name, 0) + 1
        return counts

    def describe(self) -> Dict[str, object]:
        """Summary for experiment logs."""
        top = self._weights[: min(5, len(self._profiles))]
        return {
            **self.spec.describe(),
            "tier_counts": self.tier_counts(),
            "top_tenant_weights": [round(float(w), 4) for w in top],
        }

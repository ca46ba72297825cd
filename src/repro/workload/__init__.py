"""YCSB-style workload generation for the simulated store."""

from .distributions import ZipfianKeys
from .generator import TenantOpStats, WorkloadGenerator, WorkloadSpec, WorkloadStats
from .tenants import (
    DEFAULT_TIERS,
    TenantPopulation,
    TenantProfile,
    TenantSpec,
    TenantTier,
)
from .load_shapes import (
    CompositeLoad,
    ConstantLoad,
    DiurnalLoad,
    FlashCrowdLoad,
    LoadShape,
    NoisyLoad,
    StepLoad,
)
from .operations import BALANCED, READ_HEAVY, READ_ONLY, WRITE_HEAVY, OperationMix, RecordSizer

__all__ = [
    "ZipfianKeys",
    "LoadShape",
    "ConstantLoad",
    "DiurnalLoad",
    "FlashCrowdLoad",
    "StepLoad",
    "CompositeLoad",
    "NoisyLoad",
    "OperationMix",
    "RecordSizer",
    "READ_HEAVY",
    "BALANCED",
    "WRITE_HEAVY",
    "READ_ONLY",
    "WorkloadSpec",
    "WorkloadStats",
    "WorkloadGenerator",
    "TenantOpStats",
    "TenantTier",
    "DEFAULT_TIERS",
    "TenantSpec",
    "TenantProfile",
    "TenantPopulation",
]

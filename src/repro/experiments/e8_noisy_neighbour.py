"""Experiment E8 — noisy-neighbour isolation via admission control.

The multi-tenant question the paper's SLA framing implies: when thousands
of tenants share one store, one tenant's flash crowd must not consume the
SLO budget of everyone else.  E7 attacked the *infrastructure* noisy
neighbour (a co-located VM stealing CPU); E8 attacks the *workload* noisy
neighbour — a bronze-tier tenant whose request rate suddenly exceeds its
fair share by an order of magnitude.

Three runs share the identical seed and tenant population:

* ``unloaded`` — no burst; establishes each co-tenant's baseline read p99.
* ``default`` — the burst hits the default request pipeline, which admits
  everything; the overload queues on every node and co-tenants pay for it.
* ``admission`` — the same burst against the ``admission-control`` stage:
  the noisy tenant's token bucket (bronze quota) clips it to its paid-for
  rate, the excess is rejected before fan-out, and co-tenants keep their
  baseline tail.

The isolation criterion reported per variant is the co-tenant read p99
relative to the unloaded baseline (``isolation_ratio``): with admission
control it must stay ≤ 1.5×, while the default stack demonstrably exceeds
that bound.  Rejections are accounted separately from failures throughout,
so the table also audits *who* was shed: virtually all rejected operations
belong to the noisy tenant.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..middleware import ADMISSION_CONTROL_PIPELINE
from ..runner import Simulation, SimulationConfig
from ..simulation.timeseries import exact_percentiles
from ..workload.generator import WorkloadStats
from .scenarios import build_config, standard_cluster, tenant_workload
from .tables import ExperimentResult, ResultTable

__all__ = ["run", "ISOLATION_BOUND"]

#: Co-tenant p99 under burst may grow at most this factor over unloaded.
ISOLATION_BOUND = 1.5

_COLUMNS = [
    "variant",
    "co_read_p99_ms",
    "isolation_ratio",
    "noisy_read_p99_ms",
    "operations_completed",
    "operations_rejected",
    "noisy_rejected",
    "failure_fraction",
]

_TENANTS = 40
#: Arrivals per second over the population, and the noisy tenant's burst
#: on top of them (none in the ``unloaded`` variant).
_RATE = 170.0
_BURST_RATE = 420.0
#: The least popular tenant: guaranteed bronze tier (tiers are assigned by
#: popularity rank, gold first).
_NOISY_INDEX = _TENANTS - 1

#: The request pipelines compared (``None`` = the default stack).
_VARIANTS: Dict[str, Optional[Sequence[str]]] = {
    "unloaded": None,
    "default": None,
    "admission": ADMISSION_CONTROL_PIPELINE,
}


def _read_p99_ms(stats: WorkloadStats, noisy: bool) -> float:
    """Read p99 (ms) of the noisy tenant, or pooled over every other tenant."""
    is_noisy = np.arange(_TENANTS) == _NOISY_INDEX
    latencies = stats.read_latencies_of(is_noisy if noisy else ~is_noisy)
    return exact_percentiles(latencies, (99.0,))[0] * 1000.0


def _config(variant: str, seed: int, duration: float) -> SimulationConfig:
    """One variant's scenario, ``duration`` seconds long."""
    workload = tenant_workload(
        _RATE,
        tenants=_TENANTS,
        noisy_tenant=_NOISY_INDEX,
        burst_rate=0.0 if variant == "unloaded" else _BURST_RATE,
        burst_start=60.0,
        burst_hold=max(120.0, duration - 180.0),
    )
    return build_config(
        label=f"e8-{variant}",
        seed=seed,
        duration=duration,
        cluster=standard_cluster(nodes=3, replication_factor=3, ops_capacity=150.0),
        workload=workload,
        policy="static",
        middleware=_VARIANTS[variant],
        enable_interference=False,
    )


def _run_variant(
    variant: str,
    seed: int,
    duration: float,
    table: ResultTable,
    baseline_p99_ms: Optional[float],
) -> float:
    simulation = Simulation(_config(variant, seed, duration))
    report = simulation.run()
    stats = simulation.workload.stats
    noisy_id = simulation.workload.population.profile(_NOISY_INDEX).tenant_id
    noisy_stats = stats.tenant_stats[noisy_id]
    co_p99 = _read_p99_ms(stats, noisy=False)
    summary = report.workload_summary
    table.add_row(
        {
            "variant": variant,
            "co_read_p99_ms": co_p99,
            "isolation_ratio": co_p99 / baseline_p99_ms if baseline_p99_ms else 1.0,
            "noisy_read_p99_ms": _read_p99_ms(stats, noisy=True),
            "operations_completed": summary["operations_completed"],
            "operations_rejected": summary["operations_rejected"],
            "noisy_rejected": float(noisy_stats.operations_rejected),
            "failure_fraction": summary["failure_fraction"],
        }
    )
    return co_p99


def run(seed: int = 7, scale: float = 1.0) -> ExperimentResult:
    """Run experiment E8 and return its result tables."""
    duration = max(300.0, 600.0 * scale)

    result = ExperimentResult(
        experiment="E8",
        description=(
            "Noisy-neighbour isolation: co-tenant read p99 when one "
            "bronze-tier tenant bursts to an order of magnitude over its "
            "quota, with and without token-bucket admission control "
            "(identical seed and tenant population per variant)"
        ),
    )
    table = result.add_table(
        ResultTable("E8: co-tenant read tail under a tenant burst", _COLUMNS)
    )
    baseline: Optional[float] = None
    for variant in _VARIANTS:
        co_p99 = _run_variant(variant, seed, duration, table, baseline)
        if variant == "unloaded":
            baseline = co_p99

    result.add_note(
        f"Isolation criterion: co-tenant p99 under burst <= {ISOLATION_BOUND}x "
        "the unloaded baseline. Admission control clips the noisy tenant to "
        "its bronze quota (rejections, not failures), keeping co-tenants "
        "within the bound; the default stack admits the burst and exceeds it."
    )
    return result

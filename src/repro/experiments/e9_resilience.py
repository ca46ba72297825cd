"""Experiment E9 — resilience under a gray-failure campaign.

E7 showed the hedged stack beating the default one under *stochastic*
fail-slow interference; E9 asks the operational question behind the
ROADMAP's gray-failure item: when a **deterministic chaos campaign** of
scheduled gray failures (fail-slow nodes, a flaky link) hits the cluster,
how much of the damage does each request stack absorb?

Three stacks run the identical scenario twice — once healthy, once under
the campaign (same seed, same workload, same
:meth:`~repro.cluster.faults.FaultPlan.gray_failure_campaign` derived from
``fault_seed``):

* ``default`` — random replica selection pays the full degradation: a
  fail-slow replica keeps receiving its share of CL=ONE reads.
* ``hedged`` — the tail-latency stack routes around slow replicas and
  hedges the reads that still land badly.
* ``admission`` — the multi-tenant admission stack (tenant workload): token
  buckets bound *load*, not slowness, so it documents that quota isolation
  alone does not buy gray-failure resilience.

Per variant the table reports the healthy and faulted read p99, the p99
degradation delta, availability and the inconsistency-window p95; a second
table records the injected campaign itself (from
``SimulationReport.fault_summary``).  The resilience criterion: the default
stack's p99 degradation must be at least ``RECOVERY_FACTOR`` times the
hedged stack's — i.e. hedging recovers ≥ half of the damage gray failures
do to the default stack — and the hedged faulted p99 stays within
``HEDGED_RESILIENCE_BOUND`` of its healthy baseline (both asserted by
``tests/test_experiments_harness.py``).

The whole experiment is deterministic: same ``seed`` and ``fault_seed``
give a bit-identical report (the campaign is pure data generated before any
simulation, and each run draws from its usual streams plus — only when the
flaky link is live — the dedicated ``faults:links`` stream).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..cluster.faults import FaultPlan
from ..middleware import ADMISSION_CONTROL_PIPELINE, HEDGED_PIPELINE
from ..runner import Simulation
from ..workload.operations import READ_HEAVY
from .scenarios import build_config, standard_cluster, standard_workload, tenant_workload
from .tables import ExperimentResult, ResultTable

__all__ = ["run", "RECOVERY_FACTOR", "HEDGED_RESILIENCE_BOUND", "DEFAULT_FAULT_SEED"]

#: The default stack's p99 degradation must exceed the hedged stack's by at
#: least this factor (the tentpole's "hedging recovers >= 2x" criterion).
RECOVERY_FACTOR = 2.0

#: Under the campaign the hedged stack's read p99 stays within this factor
#: of its healthy baseline (asserted by the E9 test); the default
#: stack demonstrably exceeds it.
HEDGED_RESILIENCE_BOUND = 3.0

#: Fault seed used when the caller does not pick one (CLI ``--fault-seed``).
DEFAULT_FAULT_SEED = 29

_COLUMNS = [
    "variant",
    "healthy_read_p99_ms",
    "faulted_read_p99_ms",
    "p99_delta_ms",
    "degradation_ratio",
    "healthy_availability",
    "faulted_availability",
    "faulted_window_p95_s",
    "link_drops",
]

_FAULT_COLUMNS = ["kind", "target", "start_time", "end_time"]

#: The request pipelines compared (``None`` = the default stack).
_VARIANTS: Dict[str, Optional[Sequence[str]]] = {
    "default": None,
    "hedged": HEDGED_PIPELINE,
    "admission": ADMISSION_CONTROL_PIPELINE,
}

_TENANTS = 40


def _build_workload(variant: str, rate: float):
    if variant == "admission":
        # Admission control needs tenant identity; the other stacks run the
        # classic single-tenant workload.
        return tenant_workload(rate, tenants=_TENANTS)
    return standard_workload(rate, mix=READ_HEAVY)


def _run_variant(
    variant: str,
    middleware: Optional[Sequence[str]],
    seed: int,
    duration: float,
    rate: float,
    faults: Optional[FaultPlan],
):
    config = build_config(
        label=f"e9-{variant}" + ("-faulted" if faults is not None else "-healthy"),
        seed=seed,
        duration=duration,
        cluster=standard_cluster(nodes=3, replication_factor=3, ops_capacity=600.0),
        workload=_build_workload(variant, rate),
        policy="static",
        middleware=middleware,
        enable_interference=False,
    )
    if faults is not None:
        import dataclasses

        config = dataclasses.replace(config, faults=faults)
    simulation = Simulation(config)
    report = simulation.run()
    return simulation, report


def run(
    seed: int = 7, scale: float = 1.0, fault_seed: int = DEFAULT_FAULT_SEED
) -> ExperimentResult:
    """Run experiment E9 and return its result tables."""
    duration = max(300.0, 600.0 * scale)
    rate = 150.0
    campaign = FaultPlan.gray_failure_campaign(seed=fault_seed, duration=duration)

    result = ExperimentResult(
        experiment="E9",
        description=(
            "Resilience of the default, hedged and admission request stacks "
            "under a deterministic gray-failure campaign (fail-slow nodes + "
            f"a flaky link, fault seed {fault_seed}); each stack runs the "
            "identical scenario healthy and faulted"
        ),
    )
    table = result.add_table(
        ResultTable("E9: read tail under a gray-failure campaign", _COLUMNS)
    )

    deltas: Dict[str, float] = {}
    for variant, middleware in _VARIANTS.items():
        _, healthy = _run_variant(variant, middleware, seed, duration, rate, None)
        _, faulted = _run_variant(variant, middleware, seed, duration, rate, campaign)
        healthy_p99 = healthy.workload_summary["read_p99_ms"]
        faulted_p99 = faulted.workload_summary["read_p99_ms"]
        deltas[variant] = faulted_p99 - healthy_p99
        table.add_row(
            {
                "variant": variant,
                "healthy_read_p99_ms": healthy_p99,
                "faulted_read_p99_ms": faulted_p99,
                "p99_delta_ms": faulted_p99 - healthy_p99,
                "degradation_ratio": (
                    faulted_p99 / healthy_p99 if healthy_p99 > 0.0 else 0.0
                ),
                "healthy_availability": 1.0
                - healthy.workload_summary["failure_fraction"],
                "faulted_availability": 1.0
                - faulted.workload_summary["failure_fraction"],
                "faulted_window_p95_s": faulted.ground_truth_window.get(
                    "p95_window", 0.0
                ),
                "link_drops": float(faulted.fault_summary.get("link_drops", 0)),
            }
        )
        if variant == "default":
            # The campaign table comes from the faulted run's report, so it
            # documents exactly what the simulation executed, not just what
            # the plan declared.
            fault_table = result.add_table(
                ResultTable("E9: injected gray-failure campaign", _FAULT_COLUMNS)
            )
            for event in faulted.fault_summary.get("events", []):
                fault_table.add_row(
                    {
                        "kind": event["kind"],
                        "target": event["target"],
                        "start_time": event["start_time"],
                        "end_time": (
                            event["end_time"] if event["end_time"] is not None else ""
                        ),
                    }
                )

    ratio = (
        deltas["default"] / deltas["hedged"] if deltas.get("hedged") else float("inf")
    )
    result.add_note(
        "Resilience criterion: the default stack's p99 degradation is >= "
        f"{RECOVERY_FACTOR}x the hedged stack's (measured {ratio:.1f}x) — "
        "hedging recovers at least half the damage the campaign does to the "
        "default stack. Admission control bounds load, not slowness: quota "
        "isolation alone does not protect the tail from fail-slow replicas."
    )
    return result

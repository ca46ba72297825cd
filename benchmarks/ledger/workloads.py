"""The ledger's five workloads.

Each workload is a :class:`~repro.runner.SimulationConfig` built from
``(seed, simulated duration)`` and nothing else — never from the machine.
The duration is ``sim_s_per_run_s * --seconds``: a constant number of
simulated seconds per *requested* host second, sized on the reference
sandbox so that one requested second costs about one host second of run
phase.  The work is therefore fixed by ``(workload, seed, --seconds)`` and
every simulated statistic is exact for it; only host time varies.

``why`` is the one-line reason the workload exists (``BENCHMARK.json``
carries it too); the README has the long form.  ``guard`` lists the
mechanism checks that keep a workload from silently degrading into a
measurement of a no-op: it receives the raw exact counts of one pass and
returns the problems it found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.scenarios import (
    build_config,
    diurnal_with_flash_crowd,
    standard_cluster,
    standard_sla,
    standard_workload,
    tenant_workload,
)
from repro.middleware import ADMISSION_CONTROL_PIPELINE, HEDGED_PIPELINE
from repro.runner import SimulationConfig
from repro.simulation.interference import InterferenceConfig
from repro.workload.load_shapes import ConstantLoad
from repro.workload.operations import BALANCED

__all__ = ["Workload", "WORKLOADS", "BY_NAME"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sim_s_per_run_s: float
    build: Callable[[int, float], SimulationConfig]
    guard: Callable[[Dict[str, float]], List[str]]
    shards: int = 0
    """``0``: one in-process simulation.  ``K > 0``: ``run_sharded(config, K)``."""

    def duration(self, seconds: float) -> float:
        """Simulated seconds for a run of ``--seconds`` requested host seconds."""
        return self.sim_s_per_run_s * seconds


# ----------------------------------------------------------------------
# Config builders
# ----------------------------------------------------------------------
def _ycsb_b_default(seed: int, duration: float) -> SimulationConfig:
    return SimulationConfig(seed=seed, duration=duration)


def _autoscale_diurnal(seed: int, duration: float) -> SimulationConfig:
    # E5's ``sla_driven`` variant, argument for argument as
    # ``repro.experiments.e5_autoscaling.run`` builds it.
    shape = diurnal_with_flash_crowd(
        trough=45.0,
        peak=135.0,
        period=duration,
        flash_rate=200.0,
        flash_start=duration * 0.65,
    )
    return build_config(
        label="e5-sla_driven",
        seed=seed,
        duration=duration,
        cluster=standard_cluster(nodes=3, replication_factor=3),
        workload=standard_workload(60.0, mix=BALANCED, shape=shape),
        sla=standard_sla(),
        policy="sla_driven",
        evaluation_interval=20.0,
    )


def _hedged_failslow(seed: int, duration: float) -> SimulationConfig:
    # The hedged section of benchmarks/bench_kernel.py: without fail-slow
    # interference replicas answer inside the hedge budget and nothing fires.
    return SimulationConfig(
        seed=seed,
        duration=duration,
        middleware=HEDGED_PIPELINE,
        interference=InterferenceConfig(
            noisy_neighbour_probability=0.3, noisy_neighbour_severity=0.25
        ),
    )


def _tenants_admission(seed: int, duration: float) -> SimulationConfig:
    workload = tenant_workload(
        170.0,
        tenants=200,
        records_per_tenant=40,
        noisy_tenant=190,  # low popularity rank: guaranteed bronze tier
        burst_rate=90.0,
        # E8's burst timing at full length; scaled down so that a --quick
        # run still has a burst to shed.
        burst_start=min(60.0, 0.15 * duration),
        burst_hold=max(0.3 * duration, duration - 180.0),
    )
    workload.open_loop = True
    return build_config(
        label="ledger-tenants",
        seed=seed,
        duration=duration,
        cluster=standard_cluster(nodes=3, replication_factor=3, ops_capacity=150.0),
        workload=workload,
        policy="sla_driven",
        middleware=ADMISSION_CONTROL_PIPELINE,
        enable_interference=False,
    )


def _sharded_k2(seed: int, duration: float) -> SimulationConfig:
    # The default scenario doubled (200 ops/s, 6 nodes) so that each of the
    # two shards is one default-sized simulation.
    config = SimulationConfig(seed=seed, duration=duration)
    config.workload.load_shape = ConstantLoad(200.0)
    config.cluster.initial_nodes = 6
    return config


# ----------------------------------------------------------------------
# Mechanism guards
# ----------------------------------------------------------------------
def _no_guard(raw: Dict[str, float]) -> List[str]:
    return []


def _guard_autoscale(raw: Dict[str, float]) -> List[str]:
    if raw["scale_out_actions"] < 1:
        return ["no scale-out executed: the controller path is not exercised"]
    return []


def _guard_hedged(raw: Dict[str, float]) -> List[str]:
    problems = []
    if raw["hedges_fired"] <= 0:
        problems.append("no hedge fired: interference or budget wiring broke")
    if raw["timers_wheeled"] <= 0:
        problems.append("no timer wheeled: the hedged stack lost its wheel")
    return problems


def _guard_tenants(raw: Dict[str, float]) -> List[str]:
    problems = []
    if raw["ops_rejected"] <= 0:
        problems.append("nothing rejected: admission control is not shedding")
    if raw["ops_failed"] != 0:
        problems.append(f"{raw['ops_failed']:.0f} operations failed; shedding must not")
    return problems


WORKLOADS = (
    Workload(
        name="ycsb_b_default",
        why=(
            "Seed-pinned default config (YCSB-B 95/5, ONE/ONE, 3 nodes): coordinator "
            "read path, network, kernel and scalar draws; most ops, so also memory growth"
        ),
        sim_s_per_run_s=100.0,
        build=_ycsb_b_default,
        guard=_no_guard,
    ),
    Workload(
        name="autoscale_diurnal",
        why=(
            "E5 sla_driven day (50/50 mix, diurnal + flash crowd): RF-3 write fan-out, "
            "storage apply, window tracker, saturation queueing, controller and rebalance"
        ),
        sim_s_per_run_s=60.0,
        build=_autoscale_diurnal,
        guard=_guard_autoscale,
    ),
    Workload(
        name="hedged_failslow",
        why=(
            "Hedged pipeline under fail-slow interference: the only workload where the "
            "timer wheel, hedging, latency-aware selection and the RTT tracker do work"
        ),
        sim_s_per_run_s=90.0,
        build=_hedged_failslow,
        guard=_guard_hedged,
    ),
    Workload(
        name="tenants_admission",
        why=(
            "200 tenants, open loop, one bursting bronze tenant shed by token buckets: "
            "the chunked per-stream draw path, tenant pick, admission and tenant rollup"
        ),
        sim_s_per_run_s=50.0,
        build=_tenants_admission,
        guard=_guard_tenants,
    ),
    Workload(
        name="sharded_k2",
        why=(
            "Default scenario at 200 ops/s on 6 nodes as two spawned shard processes, "
            "kept short: spawn, import, duplicated preload, sketches and merge dominate"
        ),
        sim_s_per_run_s=20.0,
        build=_sharded_k2,
        guard=_no_guard,
        shards=2,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

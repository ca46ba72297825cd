"""Shared scenario builders for the experiment suite.

All experiments build their :class:`~repro.runner.SimulationConfig` objects
through these helpers so that cluster sizing, node capacity and SLAs stay
comparable across experiments, and so a single ``scale`` knob shrinks every
experiment proportionally (``tests/test_experiments_harness.py`` uses
``scale < 1`` to keep wall-clock time reasonable).

A note on time compression: the paper's scenarios talk about diurnal cycles
(a day) and cloud billing (hours).  Simulating a full day per scenario is
wasteful when all the dynamics of interest — scaling lead time, rebalancing
cost, controller convergence — play out on the scale of minutes.  The
standard scenarios therefore compress "one day" into one simulated hour and
size node capacity low (120 ops/s) so the interesting operating points are
reachable at low event rates.  Relative comparisons (who wins, by what
factor) are unaffected by this compression.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..cluster.cluster import ClusterConfig
from ..cluster.node import NodeConfig
from ..cluster.types import ConsistencyLevel
from ..core.controller import ControllerConfig
from ..core.sla import SLA, AvailabilitySLO, LatencySLO, StalenessSLO
from ..monitoring.estimators import ProbeConfig
from ..runner import MonitoringOptions, SimulationConfig
from ..simulation.interference import InterferenceConfig
from ..workload.generator import WorkloadSpec
from ..workload.load_shapes import (
    CompositeLoad,
    ConstantLoad,
    DiurnalLoad,
    FlashCrowdLoad,
    LoadShape,
    NoisyLoad,
)
from ..workload.operations import BALANCED, READ_HEAVY, OperationMix
from ..workload.tenants import TenantSpec

__all__ = [
    "DEFAULT_NODE_CAPACITY",
    "standard_node_config",
    "standard_cluster",
    "standard_sla",
    "strict_sla",
    "relaxed_sla",
    "standard_workload",
    "tenant_workload",
    "diurnal_with_flash_crowd",
    "build_config",
]

#: Per-node capacity used throughout the experiments (deliberately small so
#: the interesting operating points are reachable at low event rates).
DEFAULT_NODE_CAPACITY = 120.0


def standard_node_config(ops_capacity: float = DEFAULT_NODE_CAPACITY) -> NodeConfig:
    """Node configuration shared by all experiments."""
    return NodeConfig(ops_capacity=ops_capacity)


def standard_cluster(
    nodes: int = 3,
    replication_factor: int = 3,
    read_consistency: ConsistencyLevel = ConsistencyLevel.ONE,
    write_consistency: ConsistencyLevel = ConsistencyLevel.ONE,
    ops_capacity: float = DEFAULT_NODE_CAPACITY,
) -> ClusterConfig:
    """Cluster configuration shared by all experiments."""
    return ClusterConfig(
        initial_nodes=nodes,
        replication_factor=min(replication_factor, nodes),
        read_consistency=read_consistency,
        write_consistency=write_consistency,
        node=standard_node_config(ops_capacity),
    )


def standard_sla() -> SLA:
    """The moderate SLA used by the end-to-end experiments."""
    return SLA(
        objectives=[
            LatencySLO(max_latency=0.120, percentile=95.0, operation="read"),
            LatencySLO(max_latency=0.200, percentile=95.0, operation="write"),
            AvailabilitySLO(max_failure_fraction=0.02),
            StalenessSLO(max_window_p95=0.4, max_stale_read_fraction=0.02),
        ],
        penalty_per_violation_second=0.01,
        name="standard",
    )


def strict_sla() -> SLA:
    """A consistency-strict SLA (tight staleness bound)."""
    return SLA(
        objectives=[
            LatencySLO(max_latency=0.150, percentile=95.0, operation="read"),
            LatencySLO(max_latency=0.250, percentile=95.0, operation="write"),
            AvailabilitySLO(max_failure_fraction=0.02),
            StalenessSLO(max_window_p95=0.1, max_stale_read_fraction=0.002),
        ],
        penalty_per_violation_second=0.02,
        name="strict",
    )


def relaxed_sla() -> SLA:
    """A latency-focused SLA with a loose staleness bound."""
    return SLA(
        objectives=[
            LatencySLO(max_latency=0.080, percentile=95.0, operation="read"),
            LatencySLO(max_latency=0.150, percentile=95.0, operation="write"),
            AvailabilitySLO(max_failure_fraction=0.02),
            StalenessSLO(max_window_p95=5.0, max_stale_read_fraction=0.2),
        ],
        penalty_per_violation_second=0.005,
        name="relaxed",
    )


def standard_workload(
    rate: float,
    mix: OperationMix = BALANCED,
    records: int = 3000,
    shape: Optional[LoadShape] = None,
) -> WorkloadSpec:
    """Workload specification shared by all experiments."""
    return WorkloadSpec(
        record_count=records,
        key_distribution="zipfian",
        operation_mix=mix,
        load_shape=shape or ConstantLoad(rate),
        mean_record_size=1024,
    )


def tenant_workload(
    rate: float,
    tenants: int = 40,
    records_per_tenant: int = 40,
    mix: OperationMix = READ_HEAVY,
    noisy_tenant: Optional[int] = None,
    burst_rate: float = 0.0,
    burst_start: float = 60.0,
    burst_hold: float = 180.0,
) -> WorkloadSpec:
    """A multi-tenant workload, optionally with one noisy neighbour.

    ``noisy_tenant`` (a tenant index; pick a high index to land in the
    bronze tier, which is assigned by popularity rank) gets a
    :class:`FlashCrowdLoad` burst of ``burst_rate`` extra ops/s layered on
    top of its organic share of the base load.  Used by experiment E8.
    """
    overrides = {}
    if noisy_tenant is not None and burst_rate > 0.0:
        overrides[noisy_tenant] = FlashCrowdLoad(
            base_rate=0.0,
            spike_rate=burst_rate,
            spike_start=burst_start,
            ramp_duration=10.0,
            hold_duration=burst_hold,
            decay_duration=30.0,
        )
    return WorkloadSpec(
        key_distribution="zipfian",
        operation_mix=mix,
        load_shape=ConstantLoad(rate),
        mean_record_size=1024,
        tenants=TenantSpec(
            tenants=tenants,
            records_per_tenant=records_per_tenant,
            load_shape_overrides=overrides,
        ),
    )


def diurnal_with_flash_crowd(
    trough: float = 40.0,
    peak: float = 110.0,
    period: float = 3600.0,
    flash_rate: float = 160.0,
    flash_start: float = 2400.0,
) -> LoadShape:
    """The E5/E6 load: a compressed diurnal cycle plus a flash crowd."""
    diurnal = DiurnalLoad(trough_rate=trough, peak_rate=peak, period=period, peak_time=0.45)
    flash = FlashCrowdLoad(
        base_rate=0.0,
        spike_rate=flash_rate - peak,
        spike_start=flash_start,
        ramp_duration=60.0,
        hold_duration=240.0,
        decay_duration=300.0,
    )
    return NoisyLoad(CompositeLoad([diurnal, flash]), amplitude=0.08, period=90.0)


def build_config(
    label: str,
    seed: int,
    duration: float,
    cluster: ClusterConfig,
    workload: WorkloadSpec,
    sla: Optional[SLA] = None,
    policy: str = "static",
    evaluation_interval: float = 30.0,
    probe_interval: float = 5.0,
    enable_interference: bool = True,
    middleware: Optional[Sequence[str]] = None,
    middleware_params: Optional[Dict[str, Dict[str, object]]] = None,
    interference: Optional[InterferenceConfig] = None,
) -> SimulationConfig:
    """Assemble a :class:`SimulationConfig` with the experiment defaults.

    ``middleware`` selects the request-pipeline variant (``None`` keeps the
    default stack; see :mod:`repro.middleware` for the named alternatives)
    and ``middleware_params`` its per-stage construction parameters.
    ``interference`` replaces the default interference model outright (for
    scenarios that need specific fail-slow dynamics); ``enable_interference``
    is ignored when it is given.
    """
    controller = ControllerConfig(
        policy=policy,
        evaluation_interval=evaluation_interval,
        estimator_source="probe",
    )
    if interference is None:
        interference = InterferenceConfig(enabled=enable_interference)
    config = SimulationConfig(
        seed=seed,
        duration=duration,
        cluster=cluster,
        workload=workload,
        sla=sla or standard_sla(),
        controller=controller,
        monitoring=MonitoringOptions(probe=ProbeConfig(probe_interval=probe_interval)),
        interference=interference,
        middleware=middleware,
        middleware_params=middleware_params,
        label=label,
    )
    return config

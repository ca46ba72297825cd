"""repro — SLA-driven monitoring and smart auto-scaling of NoSQL systems.

A full-system reproduction of Schoonjans, Lagaisse & Joosen, *Advanced
monitoring and smart auto-scaling of NoSQL systems* (Middleware Doctoral
Symposium 2015), built on a discrete-event-simulated, Dynamo/Cassandra-style
eventually consistent store.

Public API highlights
---------------------
* :class:`~repro.runner.Simulation` / :class:`~repro.runner.SimulationConfig`
  — run a complete scenario (cluster + workload + monitoring + controller).
* :class:`~repro.cluster.Cluster` — the store substrate and its knobs.
* :class:`~repro.core.AutonomousController` — the SLA-driven MAPE-K
  controller (the paper's contribution); :data:`~repro.core.POLICIES` names
  its policy and the baselines.
* :class:`~repro.core.SLA` and friends — SLAs with latency, availability and
  staleness objectives.
* :mod:`repro.monitoring` — inconsistency-window estimators (probe,
  piggyback, RTT model) and their overhead accounting.
* :mod:`repro.experiments` — the E1–E9 experiment harness behind the
  benchmarks.
* :func:`~repro.simulation.sharding.run_sharded` /
  :class:`~repro.simulation.sharding.ShardedReport` — the opt-in sharded
  parallel mode: K independent shard processes merged through exact,
  order-independent reducers (counters + mergeable percentile sketches).
"""

from .cluster import (
    Cluster,
    ClusterConfig,
    ConsistencyLevel,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NodeConfig,
)
from .core import (
    SLA,
    AutonomousController,
    AvailabilitySLO,
    ControllerConfig,
    POLICIES,
    LatencySLO,
    StalenessSLO,
    default_sla,
)
from .monitoring.percentiles import MergeableHistogramSketch
from .runner import MonitoringOptions, Simulation, SimulationConfig, SimulationReport
from .simulation import Simulator
from .simulation.sharding import ShardedReport, plan_shards, run_sharded
from .workload import (
    BALANCED,
    READ_HEAVY,
    READ_ONLY,
    WRITE_HEAVY,
    ConstantLoad,
    DiurnalLoad,
    FlashCrowdLoad,
    LoadShape,
    OperationMix,
    StepLoad,
    WorkloadSpec,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Simulation",
    "SimulationConfig",
    "SimulationReport",
    "MonitoringOptions",
    "Simulator",
    "run_sharded",
    "plan_shards",
    "ShardedReport",
    "MergeableHistogramSketch",
    "Cluster",
    "ClusterConfig",
    "NodeConfig",
    "ConsistencyLevel",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "AutonomousController",
    "ControllerConfig",
    "POLICIES",
    "SLA",
    "LatencySLO",
    "AvailabilitySLO",
    "StalenessSLO",
    "default_sla",
    "WorkloadSpec",
    "OperationMix",
    "LoadShape",
    "ConstantLoad",
    "DiurnalLoad",
    "FlashCrowdLoad",
    "StepLoad",
    "READ_HEAVY",
    "BALANCED",
    "WRITE_HEAVY",
    "READ_ONLY",
]

"""Golden digests for the request path, one per (stack x faults) cell.

``tests/test_seed_identity.py`` pins the default stack on a healthy cluster.
The other four named stacks, and every stack under crashes and partitions,
were protected only by loose bound assertions.  This matrix is the stack
axis of ROADMAP item 4's scenario matrix: five stacks, each on a healthy
cluster and under one generated crash/partition campaign.  A sixth row,
``autoscale``, is the autoscaling-on axis: E5's ``sla_driven`` day as the
ledger's ``autoscale_diurnal`` workload builds it, 240 simulated seconds.
A last row, ``sharded_k2``, is the sharded axis: the merged report of the
ledger's two-shard scenario, run in this process.

Each digest covers what the request path can change: the run report, the
pipeline's ``describe()`` (every stage's counters), the coordinator's public
counters and the timer wheel's.  Each cell also asserts that the mechanism
it exists for did fire, so that no digest is the digest of a no-op.

The values were captured at the commit that keeps the cluster's known keys
in insertion order (the ``autoscale`` pair at 0469955, before the window
tracker and the ack registry stopped scanning their histories), on an
otherwise unmodified request path
(``Cluster.read/write`` -> ``RequestCoordinator`` -> ``MiddlewarePipeline``);
a change to that path must not move them (the ``sharded_k2`` row was
captured later, on the request path of 783b8eb).  If one moves on purpose,
re-capture it and say why in the commit.

Below the matrix, two differentials between configurations that must be one
run (ROADMAP item 2): a ``FaultPlan`` of no specs against ``faults=None``, and
the admission stack on a tenantless run against the default stack.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import FaultPlan
from repro.cluster import faults as fault_engine
from repro.cluster.types import ConsistencyLevel
from repro.experiments.e7_tail_latency import _fail_slow_interference
from repro.experiments.scenarios import (
    build_config,
    diurnal_with_flash_crowd,
    standard_cluster,
    standard_sla,
    standard_workload,
    tenant_workload,
)
from repro.middleware import (
    ADMISSION_CONTROL_PIPELINE,
    CONSISTENCY_OVERRIDE_PIPELINE,
    HEDGED_PIPELINE,
    LATENCY_AWARE_PIPELINE,
)
from repro.runner import Simulation, SimulationConfig
from repro.simulation.sharding import run_sharded
from repro.workload.load_shapes import ConstantLoad
from repro.workload.operations import BALANCED, READ_HEAVY, WRITE_HEAVY

DURATION = 60.0
AUTOSCALE_DURATION = 240.0
STACKS = (
    "default",
    "latency_aware",
    "consistency_override",
    "hedged",
    "admission",
    "autoscale",
)

GOLDEN = {
    ("default", "healthy"): (
        "384a99b43ce1329bf5e39fbd685dcbed958c12ec014c974a0d8a5109e6d68359"
    ),
    ("default", "faulted"): (
        "a504b36b0302c7c0e200299a6535ff998e148013cabc43b349780ac87cf37a1d"
    ),
    ("latency_aware", "healthy"): (
        "5f639440ffdbfb181b81033285413a6a0721a27c74eaed9c8bfe82cd991c3435"
    ),
    ("latency_aware", "faulted"): (
        "6bd76b56195fb14a26b499bf7eec75c40b227bfd6d951488590676bde2df81ca"
    ),
    ("consistency_override", "healthy"): (
        "feec1016aa1fb0e31ea49500f2fc62764265e084c33b0f4423c35632363f3a7d"
    ),
    ("consistency_override", "faulted"): (
        "bc48d3f790ecb472f88b97c6cd6a831582cf8d9973a4d14512f0d3401a37f2e9"
    ),
    ("hedged", "healthy"): (
        "cfdaf2e5758f60e0a1e429d5e61c69912585cffa7237bde8eb6ad54787bd3bc2"
    ),
    ("hedged", "faulted"): (
        "fb5d1cf1a9ac732dce0726d583e2ad6f0d554d48a93fb75b43c606fb459dfbdc"
    ),
    ("admission", "healthy"): (
        "9bc14e93e1fc6022a3e717af07d219f14895315a69b923dae5bdce92bd9fff38"
    ),
    ("admission", "faulted"): (
        "55c83daaa83d2986c453abe72f6cb6203dc40fe8cc8a3a92cab6d1d9140318ad"
    ),
    ("autoscale", "healthy"): (
        "5ad57e28d1d2f39308b56480b636150a73f94e787089aa93b4f7c42a4725e565"
    ),
    ("autoscale", "faulted"): (
        "f13e1211bc10bc1de7bd534d572b64e664860b6d072880d1b5e595bf4c82d836"
    ),
}

_COUNTERS = (
    "writes_started",
    "reads_started",
    "writes_failed",
    "reads_failed",
    "writes_rejected",
    "reads_rejected",
    "unavailable_errors",
    "timeouts",
    "hinted_writes",
    "hedged_reads",
)


def _config(stack: str) -> SimulationConfig:
    if stack == "default":
        return SimulationConfig(seed=42, duration=DURATION)
    if stack == "latency_aware":
        return SimulationConfig(
            seed=42, duration=DURATION, middleware=LATENCY_AWARE_PIPELINE
        )
    if stack == "consistency_override":
        workload = standard_workload(80.0, mix=WRITE_HEAVY)
        workload.consistency_overrides = {"update": ConsistencyLevel.QUORUM}
        return build_config(
            label="pin-override",
            seed=42,
            duration=DURATION,
            cluster=standard_cluster(nodes=3, replication_factor=3),
            workload=workload,
            middleware=CONSISTENCY_OVERRIDE_PIPELINE,
        )
    if stack == "hedged":
        # E7's scenario: without fail-slow interference replicas answer
        # inside the hedge budget and nothing fires.
        return build_config(
            label="pin-hedged",
            seed=7,
            duration=DURATION,
            cluster=standard_cluster(nodes=3, replication_factor=3, ops_capacity=600.0),
            workload=standard_workload(150.0, mix=READ_HEAVY),
            middleware=HEDGED_PIPELINE,
            interference=_fail_slow_interference(),
        )
    if stack == "autoscale":
        # benchmarks/ledger/workloads.py::_autoscale_diurnal, argument for
        # argument: the day is compressed into the run, so the flash crowd
        # lands at 65% of it and the controller has to scale out.
        shape = diurnal_with_flash_crowd(
            trough=45.0,
            peak=135.0,
            period=AUTOSCALE_DURATION,
            flash_rate=200.0,
            flash_start=AUTOSCALE_DURATION * 0.65,
        )
        return build_config(
            label="e5-sla_driven",
            seed=42,
            duration=AUTOSCALE_DURATION,
            cluster=standard_cluster(nodes=3, replication_factor=3),
            workload=standard_workload(60.0, mix=BALANCED, shape=shape),
            sla=standard_sla(),
            policy="sla_driven",
            evaluation_interval=20.0,
        )
    assert stack == "admission"
    # E8's scenario, shortened: the least popular tenant (bronze tier by
    # rank) bursts to several times its quota.
    return build_config(
        label="pin-admission",
        seed=42,
        duration=DURATION,
        cluster=standard_cluster(nodes=3, replication_factor=3, ops_capacity=150.0),
        workload=tenant_workload(
            100.0,
            tenants=40,
            noisy_tenant=39,
            burst_rate=90.0,
            burst_start=10.0,
            burst_hold=30.0,
        ),
        middleware=ADMISSION_CONTROL_PIPELINE,
        enable_interference=False,
    )


def crash_and_partition_campaign(duration: float, count: int) -> FaultPlan:
    """A generated campaign of ``count`` crashes and partitions on 3 nodes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fault_engine, "CAMPAIGN_KINDS", ("crash", "partition"))
        return FaultPlan.generate(seed=3, duration=duration, faults=count, nodes=3)


def run_cell(stack: str, health: str):
    """Run one cell; return ``(digest, observed)``."""
    config = _config(stack)
    if health == "faulted":
        config.faults = crash_and_partition_campaign(config.duration, 5)
    simulation = Simulation(config)
    report = simulation.run()
    coordinator = simulation.cluster.coordinator
    observed = {
        "report": report.as_dict(),
        "pipeline": simulation.cluster.pipeline.describe(),
        "coordinator": {name: getattr(coordinator, name) for name in _COUNTERS},
        "timers": coordinator.timer_stats(),
    }
    blob = json.dumps(observed, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest(), observed


def _stage(observed, name):
    return next(stage for stage in observed["pipeline"] if stage["name"] == name)


@pytest.mark.parametrize("health", ("healthy", "faulted"))
@pytest.mark.parametrize("stack", STACKS)
def test_request_path_digest(stack, health):
    digest, observed = run_cell(stack, health)
    counters = observed["coordinator"]
    assert counters["reads_started"] > 500 and counters["writes_started"] > 100

    if stack == "latency_aware":
        selection = _stage(observed, "latency-aware-selection")
        assert selection["selections"] > 0 and selection["avoidances"] > 0
    elif stack == "consistency_override":
        assert _stage(observed, "consistency-override")["overrides_applied"] > 1000
    elif stack == "hedged":
        hedging = _stage(observed, "request-hedging")
        assert hedging["hedges_fired"] > 0 and counters["hedged_reads"] > 0
        assert observed["timers"]["timers_wheeled"] > 0
        assert _stage(observed, "rtt-aware-write-routing")["writes_ordered"] > 0
    elif stack == "admission":
        assert _stage(observed, "admission-control")["rejected"] > 0
        assert counters["reads_rejected"] > 0
        noisy = observed["report"]["tenants"]["top_tenants"][0]
        assert noisy["tier"] == "bronze" and noisy["rejected"] > 0
    elif stack == "autoscale":
        report = observed["report"]
        assert report["controller"]["scale_out_actions"] >= 1
        windows = report["ground_truth_window"]
        # A positive mean means at least one window closed after its ack.
        assert windows["windows_closed"] > 0 and windows["mean_window"] > 0.0
        assert report["staleness"]["stale_reads"] >= 1

    if health == "faulted":
        assert observed["report"]["faults"]["count"] == 5
        assert counters["timeouts"] > 0
        assert counters["hinted_writes"] > 0
        assert counters["reads_failed"] > 0
        if stack == "consistency_override":
            # QUORUM writes are the ones a single crash makes unavailable.
            assert counters["unavailable_errors"] > 0 and counters["writes_failed"] > 0
    else:
        assert counters["timeouts"] == 0

    assert digest == GOLDEN[(stack, health)]


# ----------------------------------------------------------------------
# The sharded axis: the merged report of a K=2 run
# ----------------------------------------------------------------------
#: ``sharded_k2`` as the ledger builds it (the default scenario at 200 ops/s
#: on 6 nodes), run as two in-process shards; the digest is of ``merged``,
#: the part of the report that is bit-identical across shard orders.
GOLDEN_SHARDED_K2 = (
    "295fefd069a2f364ab9117e4d79b9108f6888b4e812db1f00c9d6e44a5c4eb7a"
)


def test_sharded_k2_merged_digest():
    config = SimulationConfig(seed=42, duration=DURATION)
    config.workload.load_shape = ConstantLoad(200.0)
    config.cluster.initial_nodes = 6
    merged = run_sharded(config, 2, parallel=False).merged
    assert merged["workload"]["operations_completed"] > 10000
    blob = json.dumps(merged, sort_keys=True, default=repr)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_SHARDED_K2


# ----------------------------------------------------------------------
# Configurations that must be the same run
# ----------------------------------------------------------------------
def _flat_report(**overrides):
    """The default scenario's ``as_dict()`` with nested keys joined by ``/``
    (an empty dict stays a value, so that a key holding one is still seen)."""
    report = Simulation(SimulationConfig(seed=42, duration=DURATION, **overrides)).run()
    flat = {}

    def flatten(prefix, nested):
        for key, value in nested.items():
            if isinstance(value, dict) and value:
                flatten(f"{prefix}{key}/", value)
            else:
                flat[f"{prefix}{key}"] = value

    flatten("", report.as_dict())
    return flat


@pytest.fixture(scope="module")
def default_report():
    report = _flat_report()
    assert report["workload/operations_completed"] > 1000
    return report


def test_a_fault_plan_of_no_specs_is_no_fault_plan(default_report):
    empty_plan = _flat_report(faults=FaultPlan())
    assert list(empty_plan) == list(default_report)
    for key, value in default_report.items():
        assert empty_plan[key] == value, key


def test_the_admission_stack_without_tenants_moves_only_the_keys_that_name_it(
    default_report,
):
    admitted = _flat_report(middleware=ADMISSION_CONTROL_PIPELINE)
    absent = object()
    moved = {
        key
        for key in default_report.keys() | admitted.keys()
        if default_report.get(key, absent) != admitted.get(key, absent)
    }
    assert moved == {
        "cost/admission.rejected_operations",
        "final_configuration/admission_tier_scales",
        "final_configuration/middleware",
    }
    assert admitted["cost/admission.rejected_operations"] == 0.0
    assert admitted["final_configuration/admission_tier_scales"] == {}
    assert admitted["final_configuration/middleware"][1:] == (
        default_report["final_configuration/middleware"]
    )

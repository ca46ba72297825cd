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

Each healthy cell also pins the metrics collector's gauges, one digest per
series: they are what the controller is shown, and the report carries only
what it did.

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
        "65bbddab77e18685e9ea3c1da08762f76676c7a6f545009d6c7bb5c7d94a1583"
    ),
    ("default", "faulted"): (
        "535fdd6c628477636bad6108f2ec16e48dadede0ca4960c31f0dadf028c3b702"
    ),
    ("latency_aware", "healthy"): (
        "a458f5dee9ca4947922be3390b43519ca4191b283e1dc10d289064ee8ca7c00d"
    ),
    ("latency_aware", "faulted"): (
        "5b639e4da6209a35bb18b65d7439f9069592760fe89d6fafe4c5d2b381c0a323"
    ),
    ("consistency_override", "healthy"): (
        "3a9dd7ea224442a081b0940ca847d1a234239d001f0dc639b9fb9ad7e641b4ed"
    ),
    ("consistency_override", "faulted"): (
        "490a56946e4e0440bafd80dee69a7504e61dce42d4a8584e9f21faf36f9043e7"
    ),
    ("hedged", "healthy"): (
        "dcab6af2738d1883079f91dd1d22737ef900cd0af428424bbc91755787e3cc93"
    ),
    ("hedged", "faulted"): (
        "536156e6ec4e39e8554ab454b60e9091f0d3f15d8c974b48515aef70ef55f9a6"
    ),
    ("admission", "healthy"): (
        "8b7e74cf3d7a51d82a5f19b765877a1ff2324d91b26fa42a667e6ba64d04dec1"
    ),
    ("admission", "faulted"): (
        "5d4a8de422c9889574e96281c0aa49d5396183638438459c24054531bbf26de5"
    ),
    ("autoscale", "healthy"): (
        "963e5b8bad19d52bd886a50812366791b7bd901286b3afcd5a8b74b76611592b"
    ),
    ("autoscale", "faulted"): (
        "e46d0f5e16f7a0fcc41e3077c6ccde674cc7433efe859a746801ea500528fe65"
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
# The controller's inputs: every gauge the metrics collector samples
# ----------------------------------------------------------------------
#: sha256 of each gauge series (its times, then its values, as float64
#: bytes) on each healthy cell.  The run report carries only what the
#: controller decided, so these pin what it was shown.
GAUGE_GOLDEN = {
    "default": {
        "throughput_ops": "814e2c31d1a6d9d0238053045d66d442b4ac8670d2ec67ca3eed5bf6ee805889",
        "read_p95_latency": "d290d2432b90c2e7ab05bf3125c67590a72ea06f34a34d24ec7a2b653c48b501",
        "read_p99_latency": "58126338a7a79ffab660da800a0a4aa2b5582b8f632499945bb3a0598c5356f1",
        "write_p95_latency": "94c6e8590c4075013034b357b7e4bd8bc80a73a8ab69d4b99a096e3245e001f9",
        "write_p99_latency": "b242c6854163923416133c113cdf541ed02bbc0525f6727330314dda33608ecf",
        "failure_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "mean_utilization": "9db6edc1fa51aa74c2f4c7a16cc4aa534d176d3bc969da1f019ce14a6d46317b",
        "max_utilization": "bfa5f707df8789dfb39a1638946551d76688d8272d17abc77db84f2ca1618560",
        "node_count": "e5aa3e31bc32f0819f70816b2c9adba1610be494b2b27cc5eb0a8f6192ec4ebf",
        "pending_hints": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "network_congestion": "fbb8630cf2b4a3965420ec6ba5ede9951066a7e6c2df159ea9424eea6aa7d573",
        "stale_read_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "rejected_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
    },
    "latency_aware": {
        "throughput_ops": "e8fc52f2dc3a17e51ef2731cc29131aff8b54a5ea56c263192434f11c1669b30",
        "read_p95_latency": "e6df89fc94948b7a464c67dbb261e7208e505e0ddc0ea2ac8726c59011e21b68",
        "read_p99_latency": "974eae6074812de3807ffb70757adaa16d6b84a2b6259490c842586ea740270d",
        "write_p95_latency": "e8b5d9e3af7a85b5eb903cc4d1dda96534562e0910ecb325e3ce4549f2d7547e",
        "write_p99_latency": "61afa0fae1e48dea94b7bc81c2308ddc97abcbdc5bd42f82ee807006c536d481",
        "failure_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "mean_utilization": "8f96f855c1932f1490ef5859e23773934010259613d05ac886e27952db83b568",
        "max_utilization": "f18865c51152d80a0ef0386ec81581dbd9ed6abf6f974a2d7b8630859b796d46",
        "node_count": "e5aa3e31bc32f0819f70816b2c9adba1610be494b2b27cc5eb0a8f6192ec4ebf",
        "pending_hints": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "network_congestion": "fbb8630cf2b4a3965420ec6ba5ede9951066a7e6c2df159ea9424eea6aa7d573",
        "stale_read_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "rejected_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
    },
    "consistency_override": {
        "throughput_ops": "a90f053774bec270d9ff571ac56e0dd526d5c59ec33285f2fa49dcfc7ebfd204",
        "read_p95_latency": "528fcc7b67ce2a1de161d855de35a18fe2e512fa7078bcb08cfbef546bc34172",
        "read_p99_latency": "8597d406566ba4345cb921c29a38bed9e5e218c6560ae28fbafb87aeefea778a",
        "write_p95_latency": "3077528ea108938e7065cf8e0d69db23b756d063787bb82b618359ea7665deb9",
        "write_p99_latency": "44e25846e3ec1d139b1fe3df0d6e1c285c0a7594efb85cb3796886927e54c1c1",
        "failure_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "mean_utilization": "3860274bb3111619b4df9737075783074f71c3243b0388f12f4cc10e08792d7f",
        "max_utilization": "8153789ecadc0645f4f49a3b88998388cd8609935e467360b7cd46b96c7074d9",
        "node_count": "e5aa3e31bc32f0819f70816b2c9adba1610be494b2b27cc5eb0a8f6192ec4ebf",
        "pending_hints": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "network_congestion": "fbb8630cf2b4a3965420ec6ba5ede9951066a7e6c2df159ea9424eea6aa7d573",
        "stale_read_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "rejected_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
    },
    "hedged": {
        "throughput_ops": "7bba4a4e998188f14268c639770c96b41dcf72d78021a21174e4fab22c919ea5",
        "read_p95_latency": "2765023a36e886d0b1aa8fc06dd19fe4be6d2b415a4cfc1f12c027d262a4528e",
        "read_p99_latency": "d34400a5f530ccfd7a7157f2336032493468c36102cb59989b96f96d3eb7b105",
        "write_p95_latency": "7265e80e3e75a3349ea2ec34a80ebcd0367ae06a170a07a8c9e1943a0aeab8bf",
        "write_p99_latency": "a2c71553fc6a91f7a196acfa1743b1cd20b60b3b2f6d6fe90593f69815e86388",
        "failure_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "mean_utilization": "a9559fe6fae791d2ff204f3cc6e0b6aa077a8f7d749a37a794ee8e41a039a7ca",
        "max_utilization": "a8bb7f7c287956352ac7d3d13fcee2cb1b18dca275bfae0af4d4dfd7994cca44",
        "node_count": "e5aa3e31bc32f0819f70816b2c9adba1610be494b2b27cc5eb0a8f6192ec4ebf",
        "pending_hints": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "network_congestion": "fbb8630cf2b4a3965420ec6ba5ede9951066a7e6c2df159ea9424eea6aa7d573",
        "stale_read_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "rejected_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
    },
    "admission": {
        "throughput_ops": "acf86c219460df50fc905b7fb07fd625d23d4502694ef6e740b987ac1315a780",
        "read_p95_latency": "b304820065098784846a4777400c89c636ac23a07c33113e7e4101063567c2e1",
        "read_p99_latency": "435f578bc1b8569a6ae22d888657dcb4fca7a73beece266fde01f656c1306b8c",
        "write_p95_latency": "144a7b75019420a7fd22713a3fe3735e4d20f90a49aeb538cbae217ec01a4d90",
        "write_p99_latency": "c6ea0a7a3976a144e25ad74f9713ff43d3dc09f2107a75988a21765e0961ed39",
        "failure_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "mean_utilization": "f7c1de9fd0752aecd7335660ea84656644f1e2101bf314decc521a51d28f620f",
        "max_utilization": "3ce690dde67da6fa00e3c00874230c9d38df464a0144b8e90c32adbe39ad877d",
        "node_count": "e5aa3e31bc32f0819f70816b2c9adba1610be494b2b27cc5eb0a8f6192ec4ebf",
        "pending_hints": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "network_congestion": "fbb8630cf2b4a3965420ec6ba5ede9951066a7e6c2df159ea9424eea6aa7d573",
        "stale_read_fraction": "a878490c6c7584965accd57b0503e7d3232242b4ceb0233fc54513d934d10eaa",
        "rejected_fraction": "f24f1b04d76bb0fda195b3781527e832d36e0847904b3a8e72b7c97e87f4dd6a",
    },
    "autoscale": {
        "throughput_ops": "246dac997e71c592194eff5b47b7769bfbae529d5fb407777d150413d4f4655d",
        "read_p95_latency": "62a95f9fc317af3617ebefc8fa9b9ef17e69406d7252f2cfadc74f4db02e7cc0",
        "read_p99_latency": "42461a5f7a9431cbd3131b0dce9f35a65201e3ec93d01e1ae1fb92682a0af13f",
        "write_p95_latency": "f18e24094c1cf514c6d6a45907436ef2d1740b066cc6c9b7166f035db965d5b0",
        "write_p99_latency": "9863135b7b8c6a4f5955f028fc9a23396c049d05598384931433384eeb03bf88",
        "failure_fraction": "fb30aa3f28463aa1586d688b314a2a54f6e1fce62d6e18f877b80e24657fcc6a",
        "mean_utilization": "017fce96561f474c32b3ae3eaa47f5e69dce5cfd17d18b8a043d11d6566c1e73",
        "max_utilization": "21d35a1d3b6ec119024bf066bac88105f830bb37834e66de3ecd6f6116c18864",
        "node_count": "3c77ae3cbd673d05bd7486bd71cb6789a8423b8ff6055a771a0d2e6f0c971aa8",
        "pending_hints": "fb30aa3f28463aa1586d688b314a2a54f6e1fce62d6e18f877b80e24657fcc6a",
        "network_congestion": "82d4127ed7b38ac44674b4613035ff63ea4ac8ea9153ce35d3398f64a0f47dc1",
        "stale_read_fraction": "edee7fc4784ca3499c96e0fd4698e372c906c4a6a5bd992424b1df3e724f3ca6",
        "rejected_fraction": "fb30aa3f28463aa1586d688b314a2a54f6e1fce62d6e18f877b80e24657fcc6a",
    },
}


def _series_digest(series) -> str:
    return hashlib.sha256(series.times.tobytes() + series.values.tobytes()).hexdigest()


@pytest.mark.parametrize("stack", STACKS)
def test_controller_inputs_digest(stack):
    simulation = Simulation(_config(stack))
    simulation.run()
    gauges = simulation.metrics.series._series
    assert {name: _series_digest(series) for name, series in gauges.items()} == (
        GAUGE_GOLDEN[stack]
    )


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

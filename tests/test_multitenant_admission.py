"""Tests for token-bucket admission control and per-tenant SLA arbitration.

Covers the whole vertical slice: the bucket math, the ``on_request`` reject
path through the coordinator, the planner's quota-arbitration lever
(:class:`SetTierQuotaScaleAction` / ``Cluster.set_admission_tier_scale``),
and the rejected-vs-failed accounting from :class:`WorkloadStats` up to the
report and cost lines.
"""

from __future__ import annotations

import pytest

from repro import (
    ClusterConfig,
    ConstantLoad,
    NodeConfig,
    Simulation,
    SimulationConfig,
    WorkloadSpec,
)
from repro.cluster import Cluster, ConsistencyLevel, FaultPlan, FaultSpec
from repro.cluster.types import OperationType
from repro.core import (
    POLICIES,
    AddNodeAction,
    Analyzer,
    KnowledgeBase,
    SLAEvaluator,
    StabilityConfig,
    Symptom,
    SystemObservation,
    default_sla,
)
from repro.core.actions import ActionKind, SetTierQuotaScaleAction
from repro.core.controller import ControllerConfig
from repro.middleware import (
    ADMISSION_CONTROL_PIPELINE,
    AdmissionControl,
    TENANT_HINT,
    TENANT_TIER_HINT,
    TokenBucket,
    RequestContext,
)
from repro.simulation import Simulator
from repro.workload import READ_HEAVY, TenantSpec, TenantTier


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_token_bucket_burst_then_sustained_rate():
    bucket = TokenBucket(rate=1.0, burst=5.0, now=0.0, tier="bronze")
    # Starts full: the whole burst passes instantly.
    assert all(bucket.try_acquire(0.0) for _ in range(5))
    assert not bucket.try_acquire(0.0)
    # Refill is a pure function of elapsed time.
    assert not bucket.try_acquire(0.5)  # only half a token back
    assert bucket.try_acquire(1.5)      # 1.5 tokens accumulated
    assert not bucket.try_acquire(1.5)
    # Refill clamps at the burst size.
    assert bucket.try_acquire(1000.0)
    assert bucket.tokens == pytest.approx(4.0)


def test_token_bucket_rescale_clamps_and_restores():
    bucket = TokenBucket(rate=10.0, burst=20.0, now=0.0, tier="bronze")
    bucket.rescale(0.5)
    assert bucket.rate == pytest.approx(5.0)
    assert bucket.burst == pytest.approx(10.0)
    assert bucket.tokens == pytest.approx(10.0)  # clamped to the new burst
    bucket.rescale(1.0)  # scales apply to the *base* quota, not compounding
    assert bucket.rate == pytest.approx(10.0)
    assert bucket.burst == pytest.approx(20.0)
    # A zero scale still leaves a 1-token burst floor but no refill.
    bucket.rescale(0.0)
    assert bucket.rate == 0.0
    assert bucket.burst == 1.0


# ----------------------------------------------------------------------
# AdmissionControl (unit, fake clock)
# ----------------------------------------------------------------------
class FakeSimulator:
    def __init__(self):
        self.now = 0.0


def make_ctx(tenant=None, tier=None):
    return RequestContext(
        key="k",
        operation=OperationType.READ,
        is_read=True,
        coordinator_id="node-0",
        replication_factor=3,
        requested_level=ConsistencyLevel.ONE,
        consistency_level=ConsistencyLevel.ONE,
        tenant=tenant,
        tenant_tier=tier,
    )


def test_admission_ignores_tenantless_requests():
    control = AdmissionControl(FakeSimulator())
    ctx = make_ctx()
    control.on_request(ctx)
    assert ctx.rejection is None
    assert control.admitted == 0 and control.rejected == 0
    assert control.tenants_tracked == 0


def test_admission_enforces_tier_quota_and_accounts_by_tier():
    sim = FakeSimulator()
    control = AdmissionControl(sim)
    control.configure_tiers({"bronze": (1.0, 2.0)})
    for _ in range(2):
        ctx = make_ctx(tenant="tA", tier="bronze")
        control.on_request(ctx)
        assert ctx.rejection is None
    over = make_ctx(tenant="tA", tier="bronze")
    control.on_request(over)
    assert over.rejection is not None and "bronze" in over.rejection
    assert control.admitted == 2 and control.rejected == 1
    assert control.rejected_by_tier() == {"bronze": 1}
    # Unknown tiers fall back to the default quota (and are not starved).
    other = make_ctx(tenant="tB", tier="mystery")
    control.on_request(other)
    assert other.rejection is None
    assert control.tenants_tracked == 2
    described = control.describe()
    assert described["admitted"] == 3 and described["rejected"] == 1


def test_admission_hot_reload_rescales_live_and_future_buckets():
    sim = FakeSimulator()
    control = AdmissionControl(sim)
    control.configure_tiers({"bronze": (10.0, 4.0), "gold": (10.0, 4.0)})
    first = make_ctx(tenant="tA", tier="bronze")
    control.on_request(first)  # creates tA's bucket with burst 4
    assert control.set_tier_scale("bronze", 0.25) == 0.25
    # Live bucket: burst clamped to the 1-token floor, so exactly one more
    # request passes and the next is shed (rate 2.5, no time has passed).
    last_token = make_ctx(tenant="tA", tier="bronze")
    control.on_request(last_token)
    assert last_token.rejection is None
    blocked = make_ctx(tenant="tA", tier="bronze")
    control.on_request(blocked)
    assert blocked.rejection is not None
    # Future bucket of the same tier inherits the scale at creation.
    fresh = make_ctx(tenant="tB", tier="bronze")
    control.on_request(fresh)
    assert fresh.rejection is None  # 1-token burst floor admits exactly one
    again = make_ctx(tenant="tB", tier="bronze")
    control.on_request(again)
    assert again.rejection is not None
    # Gold is untouched; tier_scales reports every known tier.
    gold = make_ctx(tenant="tG", tier="gold")
    control.on_request(gold)
    assert gold.rejection is None
    assert control.tier_scales() == {"bronze": 0.25, "gold": 1.0}
    assert control.tier_scale("gold") == 1.0


def test_admission_configuration_validation():
    control = AdmissionControl(FakeSimulator())
    with pytest.raises(ValueError):
        control.configure_tiers({"bronze": (0.0, 10.0)})


# ----------------------------------------------------------------------
# Factory / pipeline wiring
# ----------------------------------------------------------------------
def admission_cluster(simulator, tier_quotas):
    """A cluster on the admission stack with ``tier_quotas`` installed."""
    cluster = Cluster(
        simulator,
        ClusterConfig(
            initial_nodes=3,
            replication_factor=3,
            node=NodeConfig(ops_capacity=500.0),
        ),
        middleware=ADMISSION_CONTROL_PIPELINE,
    )
    cluster.pipeline.get("admission-control").configure_tiers(tier_quotas)
    return cluster


def test_coordinator_rejects_over_quota_requests_before_fanout():
    simulator = Simulator(seed=7)
    cluster = admission_cluster(simulator, {"bronze": (0.1, 1.0)})
    cluster.preload({"tA:user0": b"\x00"}, {"tA:user0": 64})
    results = []
    hints = {TENANT_HINT: "tA", TENANT_TIER_HINT: "bronze"}
    for _ in range(3):
        cluster.read("tA:user0", on_complete=results.append, hints=hints)
    simulator.run_until(5.0)
    assert len(results) == 3
    rejected = [r for r in results if r.rejected]
    admitted = [r for r in results if not r.rejected]
    assert len(admitted) == 1 and len(rejected) == 2  # burst of 1, no refill yet
    # Rejected results are not failures and carry the tenant identity.
    for result in rejected:
        assert not result.success
        assert result.tenant == "tA"
    assert cluster.coordinator.reads_rejected == 2
    # Rejection happens before fan-out: no replica was contacted.
    stage = cluster.pipeline.get("admission-control")
    assert stage.rejected == 2 and stage.admitted == 1


# ----------------------------------------------------------------------
# The arbitration lever: action, cluster surface, snapshot
# ----------------------------------------------------------------------
def test_set_tier_quota_scale_action_applies_through_the_cluster():
    simulator = Simulator(seed=9)
    cluster = admission_cluster(simulator, {"bronze": (30.0, 60.0)})
    action = SetTierQuotaScaleAction("bronze", 0.5)
    assert action.kind is ActionKind.ADMISSION
    assert action.describe() == "set_tier_quota_scale:bronze:0.5"
    outcome = action.apply(cluster, simulator.now)
    assert outcome.applied
    stage = cluster.pipeline.get("admission-control")
    assert stage.tier_scale("bronze") == 0.5
    snapshot = cluster.configuration_snapshot()
    assert snapshot["admission_tier_scales"] == {"bronze": 0.5}
    with pytest.raises(ValueError):
        SetTierQuotaScaleAction("bronze", -0.1)


def test_set_tier_quota_scale_fails_without_admission_stage():
    simulator = Simulator(seed=10)
    cluster = Cluster(
        simulator,
        ClusterConfig(initial_nodes=3, replication_factor=3),
    )
    outcome = SetTierQuotaScaleAction("bronze", 0.5).apply(cluster, simulator.now)
    assert not outcome.applied
    assert "admission-control" in outcome.error
    assert "admission_tier_scales" not in cluster.configuration_snapshot()


def test_admission_actions_have_a_cooldown():
    assert StabilityConfig().cooldown_seconds[ActionKind.ADMISSION] > 0.0


# ----------------------------------------------------------------------
# Planner arbitration
# ----------------------------------------------------------------------
def observation(**overrides):
    base = dict(
        time=overrides.pop("time", 100.0),
        read_p95_latency=0.02,
        write_p95_latency=0.03,
        failure_fraction=0.0,
        stale_read_fraction=0.0,
        inconsistency_window_p95=0.05,
        inconsistency_window_mean=0.02,
        throughput_ops=100.0,
        offered_rate=100.0,
        mean_utilization=0.5,
        max_utilization=0.6,
        network_congestion=1.0,
        node_count=3,
        replication_factor=3,
    )
    base.update(overrides)
    return SystemObservation(**base)


def plan(symptoms, tier_scales, **overrides):
    """The SLA-driven policy's action for a round with these symptoms, on a
    cluster whose admission stage holds ``tier_scales``."""
    obs = observation(tier_scales=dict(tier_scales), **overrides)
    sla = default_sla()
    knowledge = KnowledgeBase()
    knowledge.record_observation(obs)
    evaluation = SLAEvaluator(sla).evaluate(obs)
    analysis = Analyzer().analyze(obs, evaluation, knowledge, sla)
    analysis.symptoms = set(symptoms)
    return POLICIES["sla_driven"](analysis, knowledge, sla)


def test_planner_sheds_lowest_tier_before_scaling_out_under_overload():
    overload = dict(read_p95_latency=0.5, max_utilization=0.95)
    latency = [Symptom.LATENCY_VIOLATION]
    action = plan(latency, {"bronze": 1.0, "silver": 1.0, "gold": 1.0}, **overload)
    assert isinstance(action, SetTierQuotaScaleAction)
    assert action.describe() == "set_tier_quota_scale:bronze:0.5"
    # Bronze at the floor: silver goes next.
    action = plan(latency, {"bronze": 0.25, "silver": 1.0, "gold": 1.0}, **overload)
    assert action.describe() == "set_tier_quota_scale:silver:0.5"
    # Everything sheddable at the floor: only then pay for a node.
    action = plan(latency, {"bronze": 0.25, "silver": 0.25, "gold": 1.0}, **overload)
    assert isinstance(action, AddNodeAction)
    # Gold is never shed, regardless of pressure.
    assert not isinstance(plan(latency, {"gold": 1.0}, **overload), SetTierQuotaScaleAction)


def test_planner_does_not_shed_tenants_without_overload():
    # Latency violation but low utilisation: tighten nothing, keep capacity.
    action = plan(
        [Symptom.LATENCY_VIOLATION],
        {"bronze": 1.0, "silver": 1.0},
        read_p95_latency=0.5,
        max_utilization=0.4,
    )
    assert not isinstance(action, SetTierQuotaScaleAction)


def test_planner_sheds_before_adding_nodes_on_availability_emergency():
    emergency = [Symptom.AVAILABILITY_VIOLATION]
    action = plan(emergency, {"bronze": 1.0, "silver": 1.0})
    assert isinstance(action, SetTierQuotaScaleAction)
    assert action.describe() == "set_tier_quota_scale:bronze:0.5"
    # Without an admission stage the observation carries no scales, and the
    # old behaviour stands.
    assert isinstance(plan(emergency, {}), AddNodeAction)


def test_planner_restores_quotas_first_under_cost_waste():
    waste = [Symptom.COST_WASTE]
    action = plan(waste, {"bronze": 0.25, "silver": 0.5, "gold": 1.0})
    # Highest tier first: silver back towards 1.0 before bronze.
    assert isinstance(action, SetTierQuotaScaleAction)
    assert action.describe() == "set_tier_quota_scale:silver:1"
    # Fully restored: the quota lever stays quiet.
    action = plan(waste, {"bronze": 1.0, "silver": 1.0, "gold": 1.0})
    assert not isinstance(action, SetTierQuotaScaleAction)


# ----------------------------------------------------------------------
# End-to-end accounting: rejected is not failed, rollup, report, cost
# ----------------------------------------------------------------------
TIGHT_TIERS = (
    TenantTier("gold", 0.25, quota_rate=200.0, quota_burst=400.0, read_p99_slo_ms=50.0),
    TenantTier("bronze", 0.75, quota_rate=2.0, quota_burst=4.0, read_p99_slo_ms=150.0),
)


def tenant_simulation(middleware, faults=None):
    config = SimulationConfig(
        seed=21,
        duration=120.0,
        cluster=ClusterConfig(
            initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=500.0)
        ),
        workload=WorkloadSpec(
            operation_mix=READ_HEAVY,
            load_shape=ConstantLoad(120.0),
            tenants=TenantSpec(tenants=8, records_per_tenant=25, tiers=TIGHT_TIERS),
        ),
        controller=ControllerConfig(policy="static"),
        middleware=middleware,
        faults=faults,
    )
    return Simulation(config)


def test_rejections_flow_into_stats_report_rollup_and_cost():
    simulation = tenant_simulation(ADMISSION_CONTROL_PIPELINE)
    report = simulation.run()
    workload = report.workload_summary
    # Bronze quotas are far below bronze demand: rejections happen, and they
    # are accounted as shed load, not as failures.
    assert workload["operations_rejected"] > 0
    assert workload["rejected_fraction"] > 0.05
    assert workload["failure_fraction"] < 0.01
    assert (
        workload["operations_completed"] + workload["operations_rejected"]
        <= workload["operations_issued"]
    )
    stage = simulation.pipeline.get("admission-control")
    assert stage.rejected == workload["operations_rejected"]
    assert set(stage.rejected_by_tier()) == {"bronze"}
    # The runner derived the tier quotas from the TenantSpec's tiers.
    assert stage.tier_scales() == {"bronze": 1.0, "gold": 1.0}
    # Rollup: top tenants and per-tier latency, billed to monitoring.
    rollup = simulation.tenant_rollup
    top = rollup.top_tenants(3)
    assert len(top) == 3
    assert top[0]["operations"] >= top[1]["operations"] >= top[2]["operations"]
    tiers = rollup.tier_summary()
    assert "gold" in tiers and tiers["gold"]["count"] > 0
    assert tiers["gold"]["read_p99_slo_ms"] == 50.0
    assert report.monitoring_overhead["tenant-rollup"]["probe_operations"] == 0.0
    # Its volumes are the workload's per-tenant tally: one sample per
    # resolved tenant operation.
    assert rollup.estimates()[0].samples == simulation.workload.stats.operations_resolved > 0
    # Report carries the tenant summary and the cost line.
    nested = report.as_dict()
    assert nested["tenants"]["admission"]["rejected"] == stage.rejected
    assert len(nested["tenants"]["top_tenants"]) == 5
    assert report.cost.as_dict()["admission.rejected_operations"] == float(stage.rejected)
    # The headline must not grow keys (seed-identity contract).
    assert "tenants" not in report.headline()


def test_without_admission_stage_nothing_is_rejected():
    simulation = tenant_simulation(None)
    report = simulation.run()
    workload = report.workload_summary
    assert workload["operations_rejected"] == 0
    assert workload["rejected_fraction"] == 0.0
    # The rollup still tracks tenants even without admission control.
    assert simulation.tenant_rollup is not None
    assert len(simulation.tenant_rollup.top_tenants(8)) == 8
    assert "admission" not in report.as_dict()["tenants"]


def test_full_outage_is_attributed_to_tenants():
    """With no serving node the cluster fails requests itself, before any
    coordinator sees them; those results must still carry their tenant."""
    outage = FaultPlan(
        tuple(
            FaultSpec(kind="crash", at=40.0, duration=30.0, node=node)
            for node in range(3)
        )
    )
    simulation = tenant_simulation(None, faults=outage)
    simulation.run()
    stats = simulation.workload.stats
    assert stats.reads_failed + stats.writes_failed > 1000  # the outage was total
    rolled_up = {row["tenant"]: row for row in simulation.tenant_rollup.top_tenants(8)}
    assert set(rolled_up) == set(stats.tenant_stats)
    for tenant_id, tenant in stats.tenant_stats.items():
        row = rolled_up[tenant_id]
        assert row["failed"] == tenant.reads_failed + tenant.writes_failed
        assert row["operations"] == (
            row["failed"] + tenant.reads_completed + tenant.writes_completed
        )
    assert sum(row["failed"] for row in rolled_up.values()) == (
        stats.reads_failed + stats.writes_failed
    )

"""Tests for the gray-failure fault engine and declarative fault plans."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ConfigurationError,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NodeConfig,
)
from repro.cluster.faults import FAULT_KIND_FIELDS
from repro.runner import Simulation, SimulationConfig
from repro.simulation import Simulator, sharding
from repro.simulation.sharding import run_sharded


def make_setup(seed=1, nodes=3, rf=3):
    simulator = Simulator(seed=seed)
    cluster = Cluster(
        simulator,
        ClusterConfig(
            initial_nodes=nodes,
            replication_factor=rf,
            node=NodeConfig(ops_capacity=500.0),
        ),
    )
    injector = FaultInjector(simulator, cluster)
    return simulator, cluster, injector


# ----------------------------------------------------------------------
# Fail-slow injection
# ----------------------------------------------------------------------
def test_degrade_scales_effective_rate_and_recovers():
    simulator, cluster, injector = make_setup()
    node_id = cluster.node_ids()[0]
    server = cluster.nodes[node_id].server
    baseline = server.effective_rate
    injector.degrade_node(node_id, at=10.0, factor=0.25, duration=30.0)
    simulator.run_until(5.0)
    assert server.effective_rate == baseline  # not yet
    simulator.run_until(20.0)
    assert server.effective_rate == pytest.approx(baseline * 0.25)
    simulator.run_until(50.0)
    assert server.effective_rate == baseline  # recovered


def test_overlapping_degrades_compose_multiplicatively():
    simulator, cluster, injector = make_setup()
    node_id = cluster.node_ids()[0]
    server = cluster.nodes[node_id].server
    baseline = server.effective_rate
    injector.degrade_node(node_id, at=10.0, factor=0.5, duration=40.0)
    injector.degrade_node(node_id, at=20.0, factor=0.5, duration=10.0)
    simulator.run_until(25.0)
    assert server.effective_rate == pytest.approx(baseline * 0.25)
    simulator.run_until(35.0)  # inner window lifted
    assert server.effective_rate == pytest.approx(baseline * 0.5)
    simulator.run_until(60.0)  # outer window lifted
    assert server.effective_rate == baseline


def test_degrade_composes_with_interference_speed_factor():
    """Fault factor and interference speed factor are independent axes."""
    simulator, cluster, injector = make_setup()
    node_id = cluster.node_ids()[0]
    server = cluster.nodes[node_id].server
    baseline = server.effective_rate / server.speed_factor
    server.set_speed_factor(0.8)  # what NodeInterference.update() does
    injector.degrade_node(node_id, at=10.0, factor=0.5)
    simulator.run_until(20.0)
    assert server.effective_rate == pytest.approx(baseline * 0.8 * 0.5)
    # Interference re-ticking its factor must not erase the fault factor.
    server.set_speed_factor(1.0)
    assert server.effective_rate == pytest.approx(baseline * 0.5)


def test_degrade_rejects_out_of_range_factor():
    simulator, cluster, injector = make_setup()
    node_id = cluster.node_ids()[0]
    with pytest.raises(ValueError):
        injector.degrade_node(node_id, at=1.0, factor=0.0)
    with pytest.raises(ValueError):
        injector.degrade_node(node_id, at=1.0, factor=1.5)


# ----------------------------------------------------------------------
# Flaky links
# ----------------------------------------------------------------------
def test_flaky_link_drops_messages_then_heals():
    simulator, cluster, injector = make_setup()
    nodes = list(cluster.node_ids())
    injector.flaky_link(
        nodes[0], nodes[1], at=10.0, duration=20.0, drop_probability=1.0
    )
    delivered = []
    outcomes = []

    def probe(when):
        simulator.schedule(
            when,
            lambda: outcomes.append(
                cluster.network.send(
                    nodes[0], nodes[1], lambda: delivered.append(simulator.now)
                )
            ),
        )

    probe(15.0)  # inside the window: dropped
    probe(40.0)  # after the heal: delivered
    simulator.run_until(60.0)
    assert outcomes == [False, True]
    assert len(delivered) == 1
    # Background cluster traffic crosses the link too, so the counter can
    # exceed the probe's single drop — but it must be counting.
    assert cluster.network.link_drops >= 1


def test_flaky_link_extra_delay_slows_surviving_messages():
    simulator, cluster, injector = make_setup()
    nodes = list(cluster.node_ids())
    injector.flaky_link(
        nodes[0], nodes[1], at=10.0, drop_probability=0.0, extra_delay=0.5
    )
    delivered = []
    simulator.schedule(
        20.0,
        lambda: cluster.network.send(
            nodes[0], nodes[1], lambda: delivered.append(simulator.now)
        ),
    )
    simulator.run_until(30.0)
    assert len(delivered) == 1
    assert delivered[0] >= 20.5  # base latency plus the injected half second


def test_fault_free_runs_never_open_the_faults_stream():
    """PERFORMANCE.md rule 3: default runs must not open faults:links."""
    config = SimulationConfig(seed=42, duration=30.0)
    simulation = Simulation(config)
    simulation.run()
    assert simulation.cluster.network._faults_rng is None


# ----------------------------------------------------------------------
# Rolling restarts
# ----------------------------------------------------------------------
def test_rolling_restart_keeps_at_most_one_node_down():
    simulator, cluster, injector = make_setup()
    event = injector.rolling_restart(at=10.0, downtime=15.0, settle=30.0)
    down_counts = []
    ever_down = set()

    def sample():
        down = [nid for nid, node in cluster.nodes.items() if not node.is_up]
        down_counts.append(len(down))
        ever_down.update(down)

    for tick in range(0, 160):
        simulator.schedule(float(tick), sample)
    simulator.run_until(170.0)
    assert max(down_counts) <= 1
    assert ever_down == set(cluster.node_ids())  # every node was restarted
    assert down_counts[-1] == 0  # campaign over, cluster whole
    assert event.end_time == pytest.approx(10.0 + 3 * 45.0 - 30.0)


# ----------------------------------------------------------------------
# Declarative fault plans
# ----------------------------------------------------------------------
def test_fault_spec_validates_kind_and_time():
    with pytest.raises(ValueError):
        FaultSpec(kind="meteor", at=1.0)
    with pytest.raises(ValueError):
        FaultSpec(kind="crash", at=-1.0)
    assert set(FAULT_KINDS) >= {"crash", "degrade", "flaky_link"}


class _RecordingInjector:
    """Stands in for a FaultInjector: keeps the calls ``apply`` makes on it."""

    def __init__(self):
        self._cluster = self
        self.calls = []

    def node_ids(self):
        return ("node-0", "node-1", "node-2")

    def __getattr__(self, method):
        return lambda *args, **kwargs: self.calls.append((method, args, kwargs))


# A second value for every FaultSpec field, different from the first.
_FIRST = dict(at=5.0, duration=9.0, node=0, peer=1, factor=0.5)
_SECOND = dict(
    at=7.0,
    duration=3.0,
    node=1,
    peer=2,
    factor=0.25,
    drop_probability=0.3,
    extra_delay=0.002,
    downtime=4.0,
    settle=6.0,
)


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_kind_fields_lists_exactly_what_apply_reads(kind):
    # The table is what the CLI refuses parameters by: hold it to the code it
    # describes.  A field is read if changing it alone changes the calls.
    def calls(**changed):
        injector = _RecordingInjector()
        spec = FaultSpec(kind=kind, **{**_FIRST, **changed})
        FaultPlan(specs=(spec,)).apply(injector)
        return injector.calls

    assert {"kind", *_SECOND} == {field.name for field in dataclasses.fields(FaultSpec)}
    read = {
        field for field, value in _SECOND.items() if calls(**{field: value}) != calls()
    }
    assert read == set(FAULT_KIND_FIELDS[kind])


def test_fault_plan_generate_is_deterministic():
    plan_a = FaultPlan.generate(seed=11, duration=600.0, faults=8)
    plan_b = FaultPlan.generate(seed=11, duration=600.0, faults=8)
    plan_c = FaultPlan.generate(seed=12, duration=600.0, faults=8)
    assert plan_a == plan_b
    assert plan_a != plan_c
    assert len(plan_a.specs) == 8
    assert all(spec.at <= 0.7 * 600.0 for spec in plan_a.specs)


def test_gray_failure_campaign_is_pure_gray():
    plan = FaultPlan.gray_failure_campaign(seed=29, duration=300.0)
    kinds = {spec.kind for spec in plan.specs}
    assert kinds <= {"degrade", "flaky_link"}
    assert sum(1 for s in plan.specs if s.kind == "degrade") == 3
    assert sum(1 for s in plan.specs if s.kind == "flaky_link") == 1


@pytest.mark.parametrize("duration", [-5.0, math.nan, math.inf, 0.0])
def test_a_gray_failure_campaign_checks_its_duration_by_name(duration):
    # The duration used to reach FaultSpec unchecked: -5 was refused as
    # "FaultSpec.at must be finite and >= 0, got -1.52...", a value the
    # caller never passed, and 0 as FaultSpec.duration.
    with pytest.raises(ConfigurationError) as refusal:
        FaultPlan.gray_failure_campaign(seed=29, duration=duration)
    assert str(refusal.value) == (
        f"FaultPlan.gray_failure_campaign.duration must be finite and > 0, got {duration!r}"
    )


@pytest.mark.parametrize("sample", [FaultPlan.generate, FaultPlan.gray_failure_campaign])
@pytest.mark.parametrize("seed", [-1, float("nan")])
def test_a_sampled_plan_checks_its_seed_before_seeding_a_generator(sample, seed):
    # numpy's SeedSequence used to see the seed first: "expected non-negative
    # integer" for -1, a TypeError for NaN, neither naming the field.
    with pytest.raises(ConfigurationError) as refusal:
        sample(seed=seed, duration=300.0)
    assert str(refusal.value) == f"FaultPlan.seed must be finite and >= 0, got {seed!r}"


def test_fault_plan_shard_partitions_the_specs():
    plan = FaultPlan.generate(seed=3, duration=600.0, faults=7)
    shards = [plan.shard(i, 3) for i in range(3)]
    recombined = [spec for shard in shards for spec in shard.specs]
    assert sorted(recombined, key=lambda s: s.at) == list(plan.specs)
    assert len(shards[0].specs) == 3  # round-robin: positions 0, 3, 6
    with pytest.raises(ValueError):
        plan.shard(3, 3)


def test_fault_plan_applies_through_simulation_config():
    plan = FaultPlan(
        specs=(
            FaultSpec(kind="degrade", at=5.0, duration=10.0, node=0, factor=0.5),
            FaultSpec(kind="crash", at=8.0, duration=5.0, node=1),
        )
    )
    config = SimulationConfig(seed=42, duration=30.0, faults=plan)
    simulation = Simulation(config)
    report = simulation.run()
    assert report.fault_summary["count"] == 2
    assert report.fault_summary["by_kind"] == {"node_crash": 1, "node_degrade": 1}
    assert len(report.fault_summary["events"]) == 2


def test_default_report_has_empty_fault_summary():
    config = SimulationConfig(seed=42, duration=20.0)
    report = Simulation(config).run()
    assert report.fault_summary == {}
    assert report.as_dict()["faults"] == {}


# ----------------------------------------------------------------------
# Sharded runs: fault records merge order-independently
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_sharded_fault_merge_is_order_independent(monkeypatch):
    plan = FaultPlan.generate(seed=5, duration=120.0, faults=4, nodes=3)
    config = dataclasses.replace(
        SimulationConfig(seed=21, duration=120.0), faults=plan
    )
    forward = run_sharded(config, shards=2, parallel=False)
    monkeypatch.setattr(sharding, "SHARD_ORDER", [1, 0])
    backward = run_sharded(config, shards=2, parallel=False)
    assert forward.merged["faults"] == backward.merged["faults"]
    merged = forward.merged["faults"]
    assert merged["count"] == 4
    assert sum(merged["by_kind"].values()) == 4
    # Every event is tagged with the shard that executed it.
    shards_seen = {event["shard"] for event in merged["events"]}
    assert shards_seen <= {0, 1}


# ----------------------------------------------------------------------
# Reports must not depend on str hashing
# ----------------------------------------------------------------------
_HASH_ORDER_PROBE = """
import hashlib, json
from repro.cluster import FaultPlan
from repro.runner import Simulation, SimulationConfig

simulation = Simulation(
    SimulationConfig(
        seed=7, duration=240.0, faults=FaultPlan.gray_failure_campaign(29, 240.0)
    )
)
report = simulation.run()
repairs = simulation.cluster.anti_entropy.repairs_sent
assert repairs > 0, "no anti-entropy repair: the sampled keys were never used"
blob = json.dumps([report.as_dict(), repairs], sort_keys=True, default=repr)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def test_report_is_independent_of_pythonhashseed():
    """Anti-entropy samples and join catch-up index into the cluster's known
    keys; kept in a ``set`` their order, and with it the report, moved with
    ``PYTHONHASHSEED``."""
    source = str(Path(__file__).resolve().parents[1] / "src")
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _HASH_ORDER_PROBE],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": source},
            stdout=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("1", "12345")
    ]
    digests = [run.communicate(timeout=120)[0].strip() for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert digests[0] and digests[0] == digests[1]

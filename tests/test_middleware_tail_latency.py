"""Tests for the tail-latency stack and its satellite fixes.

Covers the ``request-hedging`` and ``rtt-aware-write-routing`` stages plus
cold-start-safe latency-aware ranking (an unsampled replica must never rank
as "fastest" or poison the badness cutoff), counted-and-ignored bad
per-request hints, the completed ``describe()`` surfaces, and RTT-tracker
cleanup on node decommission.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import pytest

from repro.cluster import Cluster, ClusterConfig, ConfigurationError, ConsistencyLevel, NodeConfig
from repro.cluster.types import OperationType
from repro.middleware import (
    HEDGED_PIPELINE,
    LATENCY_AWARE_PIPELINE,
    LatencyAwareReplicaSelection,
    NodeRttTracker,
    PerRequestConsistencyOverride,
    RequestHedging,
    RttAwareWriteRouting,
)
from repro.middleware import hedging as hedging_module
from repro.middleware import latency
from repro.middleware.base import RequestContext
from repro.runner import Simulation, SimulationConfig
from repro.simulation import Simulator
from repro.simulation.interference import InterferenceConfig
from repro.workload.generator import WorkloadSpec
from repro.workload.load_shapes import ConstantLoad
from repro.workload.operations import BALANCED


def make_cluster(simulator, middleware=None, **overrides):
    config = ClusterConfig(
        initial_nodes=overrides.pop("nodes", 3),
        replication_factor=overrides.pop("rf", 3),
        node=NodeConfig(ops_capacity=500.0),
        **overrides,
    )
    return Cluster(simulator, config, middleware=middleware)


def make_read_ctx(**overrides) -> RequestContext:
    defaults = dict(
        key="k",
        operation=OperationType.READ,
        is_read=True,
        coordinator_id="node-1",
        replication_factor=3,
        requested_level=ConsistencyLevel.ONE,
        consistency_level=ConsistencyLevel.ONE,
    )
    defaults.update(overrides)
    return RequestContext(**defaults)


# ----------------------------------------------------------------------
# Cold-start ranking fix (latency-aware selection)
# ----------------------------------------------------------------------
@pytest.fixture
def newest_sample_wins(monkeypatch):
    """Trackers built in the test take each node's newest RTT outright."""
    monkeypatch.setattr(latency, "RTT_ALPHA", 1.0)


def test_unsampled_nodes_are_not_ranked_fastest_on_cold_start(newest_sample_wins):
    # No fallback: unsampled nodes are genuinely unknown.  The old code
    # treated them as 0.0 RTT — ranked fastest AND collapsing the badness
    # cutoff to 0, which marked every sampled replica "slow".
    tracker = NodeRttTracker()
    selection = LatencyAwareReplicaSelection(tracker)
    tracker.observe("a", 0.010)

    picks = [tuple(selection.select_read_targets(None, ["a", "b", "c"], 1)) for _ in range(6)]
    # The single sampled node must not be avoided on the strength of
    # zero-information neighbours...
    assert selection.avoidances == 0
    # ...and the unknown nodes stay in rotation so they get probed.
    seen = {node for pick in picks for node in pick}
    assert seen == {"a", "b", "c"}


def test_no_samples_at_all_falls_back_to_plain_rotation():
    tracker = NodeRttTracker()
    selection = LatencyAwareReplicaSelection(tracker)
    picks = [tuple(selection.select_read_targets(None, ["c", "a", "b"], 2)) for _ in range(3)]
    assert picks == [("a", "b"), ("b", "c"), ("c", "a")]
    assert selection.avoidances == 0


def test_exploration_with_unknown_nodes_never_duplicates_targets(newest_sample_wins, monkeypatch):
    monkeypatch.setattr(latency, "EXPLORE_EVERY", 2)
    tracker = NodeRttTracker()
    selection = LatencyAwareReplicaSelection(tracker)
    tracker.observe("a", 0.010)
    tracker.observe("b", 0.200)  # slow: avoided, then explored
    for _ in range(4):
        targets = selection.select_read_targets(None, ["a", "b", "c"], 2)
        assert len(targets) == len(set(targets))
    assert selection.explorations >= 1


# ----------------------------------------------------------------------
# Consistency-override fixes
# ----------------------------------------------------------------------
def test_a_nan_budget_fraction_fails_at_build_time_naming_it():
    # NaN passed the "<= 0.0" checks: a NaN budget stopped the run mid-way
    # with "event time must be finite, got nan".  The fraction is a declared
    # setting now, so the config refuses it before any cluster is built.
    message = r"^ClusterConfig\.hedge_budget_fraction must be in \(0, 1\], got nan$"
    with pytest.raises(ConfigurationError, match=message):
        ClusterConfig(hedge_budget_fraction=math.nan)


def test_invalid_per_request_hint_is_counted_and_ignored():
    override = PerRequestConsistencyOverride()
    ctx = make_read_ctx(hints={"consistency_level": "NOT-A-LEVEL"})
    override.on_request(ctx)  # must not raise
    assert ctx.consistency_level is ConsistencyLevel.ONE
    assert override.overrides_invalid == 1
    assert override.overrides_applied == 0


def test_describe_reports_applied_and_invalid():
    override = PerRequestConsistencyOverride()
    override.on_request(make_read_ctx(hints={"consistency_level": "QUORUM"}))
    override.on_request(make_read_ctx(hints={"consistency_level": "junk"}))
    described = override.describe()
    assert described["overrides_applied"] == 1
    assert described["overrides_invalid"] == 1


# ----------------------------------------------------------------------
# RTT-aware write routing
# ----------------------------------------------------------------------
def test_write_targets_ordered_by_estimate_with_unknown_last(newest_sample_wins):
    tracker = NodeRttTracker()
    tracker.observe("slow", 0.100)
    tracker.observe("fast", 0.002)
    routing = RttAwareWriteRouting(tracker)
    ordered = routing.order_write_targets(None, ["slow", "unknown", "fast"])
    assert ordered == ["fast", "slow", "unknown"]
    assert routing.writes_ordered == 1


def test_preferred_coordinator_skips_slow_nodes_and_rotates(newest_sample_wins):
    tracker = NodeRttTracker()
    tracker.observe("a", 0.002)
    tracker.observe("b", 0.003)
    tracker.observe("c", 0.100)  # meaningfully slower than the best
    routing = RttAwareWriteRouting(tracker)
    picks = [routing.preferred_coordinator(["a", "b", "c"]) for _ in range(4)]
    assert picks == ["a", "b", "a", "b"]


def test_preferred_coordinator_defers_when_nothing_to_avoid(newest_sample_wins):
    tracker = NodeRttTracker()
    routing = RttAwareWriteRouting(tracker)
    # No signal at all -> leave the cluster's round-robin alone.
    assert routing.preferred_coordinator(["a", "b"]) is None
    tracker.observe("a", 0.002)
    tracker.observe("b", 0.002)
    # Everyone healthy -> likewise.
    assert routing.preferred_coordinator(["a", "b"]) is None
    assert routing.coordinators_preferred == 0


# ----------------------------------------------------------------------
# Hedging: budget and bookkeeping
# ----------------------------------------------------------------------
def test_hedge_budget_source_is_clamped_between_min_and_static():
    clock = {"now": 0.0}
    hedging = _bare_hedging(clock=lambda: clock["now"])
    assert hedging.current_budget() == pytest.approx(0.05)

    source_value = [0.0]
    hedging.attach_budget_source(lambda: source_value[0])
    # No signal yet, then the source, the MIN_BUDGET floor and the static
    # ceiling; each step moves the clock a refresh interval on, past the cache.
    for value, budget in ((0.0, 0.05), (0.012, 0.012), (1e-9, 0.001), (10.0, 0.05)):
        source_value[0] = value
        assert hedging.current_budget() == pytest.approx(budget)
        clock["now"] += hedging_module.BUDGET_REFRESH_INTERVAL


def test_hedge_candidates_are_spares_ranked_fast_first_unknown_last(newest_sample_wins):
    tracker = NodeRttTracker()
    tracker.observe("b", 0.050)
    tracker.observe("c", 0.002)
    hedging = RequestHedging(tracker, operation_timeout=1.0, clock=lambda: 0.0, budget_fraction=0.05)
    plan = hedging.hedge_read(None, ["a", "b", "c", "d"], ["d"])
    assert plan is not None
    budget, candidates = plan
    assert budget == pytest.approx(0.05)
    assert candidates == ["c", "b", "a"]
    assert hedging.hedges_armed == 1
    # No spare replicas -> no opinion, nothing armed.
    assert hedging.hedge_read(None, ["a"], ["a"]) is None
    assert hedging.hedges_armed == 1


def test_hedged_reads_fire_and_complete_exactly_once():
    simulator = Simulator(seed=5)
    cluster = make_cluster(
        simulator,
        middleware=HEDGED_PIPELINE,
        # A budget far below any network RTT: every read hedges.
        hedge_budget_fraction=1e-6,
    )
    results = []
    for index in range(20):
        cluster.write(f"key-{index}", b"v")
    simulator.run_until(simulator.now + 5.0)
    for index in range(20):
        cluster.read(f"key-{index}", on_complete=results.append)
    simulator.run_until(simulator.now + 10.0)

    # Every read completed exactly once despite two in-flight replica reads.
    assert len(results) == 20
    assert all(result.success for result in results)
    hedging = cluster.pipeline.get("request-hedging")
    assert cluster.coordinator.hedged_reads == hedging.hedges_fired
    assert hedging.hedges_fired > 0
    assert hedging.hedges_armed == hedging.hedges_fired + hedging.hedges_cancelled
    # A fired hedge contacts one extra replica, and the dedup bookkeeping
    # never lets one node satisfy the quorum twice.
    for result in results:
        assert result.replicas_responded <= result.replicas_contacted
        assert result.replicas_contacted <= 2


def test_hedge_timer_is_cancelled_when_read_completes_in_budget():
    simulator = Simulator(seed=6)
    cluster = make_cluster(
        simulator,
        middleware=HEDGED_PIPELINE,
        # A budget close to the timeout: no healthy read ever reaches it.
        hedge_budget_fraction=0.9,
    )
    results = []
    cluster.write("key", b"v")
    simulator.run_until(simulator.now + 5.0)
    for _ in range(10):
        cluster.read("key", on_complete=results.append)
    simulator.run_until(simulator.now + 10.0)

    assert len(results) == 10
    hedging = cluster.pipeline.get("request-hedging")
    assert hedging.hedges_armed == hedging.hedges_cancelled > 0
    assert hedging.hedges_fired == 0
    assert cluster.coordinator.hedged_reads == 0
    assert all(result.replicas_contacted == 1 for result in results)


#: The report of ``hedged_simulation(HEDGED_PIPELINE)``, captured when the
#: budget fraction reached the stage as
#: ``{"request-hedging": {"budget_fraction": 0.02}}``; 0.05 gives 8ed3b29c...
#: Re-captured when the overhead report began counting resolved probes (its
#: two probe figures were all that moved).
HEDGED_REPORT_DIGEST = "d994dfc53df52f85b878dd02960fabb2c8890659ea1a575c27bfd071df0f26dc"


def hedged_simulation(stack):
    return Simulation(
        SimulationConfig(
            seed=3,
            duration=20.0,
            cluster=ClusterConfig(
                node=NodeConfig(ops_capacity=150.0), hedge_budget_fraction=0.02
            ),
            workload=WorkloadSpec(operation_mix=BALANCED, load_shape=ConstantLoad(120.0)),
            middleware=stack,
        )
    )


def report_digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True, default=str).encode()).hexdigest()


def test_the_budget_fraction_reaches_the_stage_as_it_did_through_stage_params():
    simulation = hedged_simulation(HEDGED_PIPELINE)
    report = simulation.run().as_dict()
    hedging = simulation.cluster.pipeline.get("request-hedging")
    assert hedging.describe()["static_budget"] == pytest.approx(0.02)
    assert hedging.hedges_fired > 0
    assert report_digest(report) == HEDGED_REPORT_DIGEST


@pytest.mark.parametrize(
    "rtt_stages", list(itertools.permutations(HEDGED_PIPELINE[:3]))[1:]
)
def test_the_rtt_stages_in_any_order_give_the_pinned_hedged_report(rtt_stages):
    # The coordinator feeds the one tracker whichever stage asked for it
    # first; only the stack's own listing follows the order.
    stack = rtt_stages + HEDGED_PIPELINE[3:]
    report = hedged_simulation(stack).run().as_dict()
    assert report["final_configuration"]["middleware"] == list(stack)
    report["final_configuration"]["middleware"] = list(HEDGED_PIPELINE)
    assert report_digest(report) == HEDGED_REPORT_DIGEST


# ----------------------------------------------------------------------
# Decommission cleanup
# ----------------------------------------------------------------------
def test_decommission_forgets_rtt_state_for_the_removed_node():
    simulator = Simulator(seed=7)
    cluster = make_cluster(simulator, middleware=LATENCY_AWARE_PIPELINE, nodes=4, rf=3)
    for index in range(30):
        cluster.write(f"key-{index}", b"v")
    simulator.run_until(simulator.now + 5.0)
    for index in range(30):
        cluster.read(f"key-{index}")
    simulator.run_until(simulator.now + 10.0)

    tracker = cluster.coordinator.rtt
    removed, _ = cluster.remove_node()
    assert removed in tracker.snapshot()  # still tracked while draining
    simulator.run_until(simulator.now + 120.0)
    assert removed not in tracker.snapshot()


def test_hedged_pipeline_shares_one_tracker_across_stages():
    simulator = Simulator(seed=8)
    cluster = make_cluster(simulator, middleware=HEDGED_PIPELINE)
    selection = cluster.pipeline.get("latency-aware-selection")
    hedging = cluster.pipeline.get("request-hedging")
    routing = cluster.pipeline.get("rtt-aware-write-routing")
    tracker = cluster.coordinator.rtt
    assert tracker is not None
    assert selection._tracker is hedging._tracker is routing._tracker is tracker


def _rtt_estimates_after_traffic(stack):
    simulator = Simulator(seed=8)
    cluster = make_cluster(simulator, middleware=stack)
    for index in range(30):
        cluster.write(f"key-{index}", b"v")
    simulator.run_until(simulator.now + 5.0)
    for index in range(30):
        cluster.read(f"key-{index}")
    simulator.run_until(simulator.now + 10.0)
    tracker = cluster.coordinator.rtt
    return tracker.snapshot()


@pytest.mark.parametrize("twice", HEDGED_PIPELINE[:3])
def test_a_stage_named_twice_folds_each_response_in_once(twice):
    once = _rtt_estimates_after_traffic(HEDGED_PIPELINE)
    at = HEDGED_PIPELINE.index(twice)
    stack = HEDGED_PIPELINE[: at + 1] + (twice,) + HEDGED_PIPELINE[at + 1 :]
    assert once
    assert _rtt_estimates_after_traffic(stack) == once


# ----------------------------------------------------------------------
# Per-key hedging budget (hot keys hedge at a tighter fraction)
# ----------------------------------------------------------------------
def _bare_hedging(**overrides):
    defaults = dict(operation_timeout=1.0, clock=lambda: 0.0, budget_fraction=0.05)
    defaults.update(overrides)
    return RequestHedging(NodeRttTracker(), **defaults)


def test_hot_key_hedges_at_tighter_budget_cold_keys_do_not(monkeypatch):
    monkeypatch.setattr(hedging_module, "HOT_KEY_THRESHOLD", 4)
    hedging = _bare_hedging()
    live, targets = ["n1", "n2"], ["n1"]
    base = hedging.static_budget
    hot = make_read_ctx(key="hot")
    budgets = [hedging.hedge_read(hot, live, targets)[0] for _ in range(6)]
    # Below the threshold the full budget applies; at and past it, half.
    assert budgets[:3] == [base] * 3
    assert budgets[3:] == [base * 0.5] * 3
    assert hedging.hot_key_hedges == 3
    # A cold key is unaffected by the hot one.
    cold = make_read_ctx(key="cold")
    assert hedging.hedge_read(cold, live, targets)[0] == base


def test_hot_key_budget_never_goes_below_min_budget(monkeypatch):
    monkeypatch.setattr(hedging_module, "MIN_BUDGET", 0.0015)
    monkeypatch.setattr(hedging_module, "HOT_KEY_FRACTION", 0.25)
    monkeypatch.setattr(hedging_module, "HOT_KEY_THRESHOLD", 1)
    hedging = _bare_hedging(budget_fraction=0.002)
    ctx = make_read_ctx(key="hot")
    budget, _ = hedging.hedge_read(ctx, ["n1", "n2"], ["n1"])
    assert budget == 0.0015  # 0.002 * 0.25 clamped up to min_budget


def test_hot_key_counts_decay_by_halving(monkeypatch):
    monkeypatch.setattr(hedging_module, "HOT_KEY_THRESHOLD", 100)
    monkeypatch.setattr(hedging_module, "HOT_KEY_DECAY_EVERY", 4)
    hedging = _bare_hedging()
    ctx = make_read_ctx(key="k")
    for _ in range(4):
        hedging.hedge_read(ctx, ["n1", "n2"], ["n1"])
    # 4 arms then decay: count 4 -> 2; a 5th arm makes it 3.
    hedging.hedge_read(ctx, ["n1", "n2"], ["n1"])
    assert hedging._key_counts["k"] == 3
    assert hedging.describe()["hot_keys_tracked"] == 1


def test_hedge_read_tolerates_missing_context(monkeypatch):
    # Unit-level callers (and some tools) pass ctx=None; no key tracking.
    monkeypatch.setattr(hedging_module, "HOT_KEY_THRESHOLD", 1)
    hedging = _bare_hedging()
    budget, spares = hedging.hedge_read(None, ["n1", "n2"], ["n1"])
    assert budget == hedging.static_budget
    assert spares == ["n2"]


# ----------------------------------------------------------------------
# Amortised (cached) dynamic budget
# ----------------------------------------------------------------------
def test_budget_source_is_polled_once_per_refresh_interval():
    clock = {"now": 0.0}
    calls = {"n": 0}

    def source():
        calls["n"] += 1
        return 0.012

    hedging = _bare_hedging(clock=lambda: clock["now"])
    hedging.attach_budget_source(source)
    for _ in range(10):
        assert hedging.current_budget() == 0.012
    assert calls["n"] == 1  # cached within the interval
    clock["now"] = hedging_module.BUDGET_REFRESH_INTERVAL
    assert hedging.current_budget() == 0.012
    assert calls["n"] == 2  # refreshed exactly once at expiry


def test_hedging_declares_wheel_granularity_and_pipeline_surfaces_it():
    from repro.middleware.base import MiddlewarePipeline

    hedging = _bare_hedging()
    pipeline = MiddlewarePipeline([hedging])
    assert pipeline.implements("hedge_read")
    assert pipeline.timer_granularity == 0.025
    # Opting out keeps the pipeline on the direct heap path.
    plain_stage = _bare_hedging()
    plain_stage.timer_wheel_granularity = None
    plain = MiddlewarePipeline([plain_stage])
    assert plain.implements("hedge_read")
    assert plain.timer_granularity is None
    # The tightest declared granularity wins; no hedging stage, no wheel.
    finer_stage = _bare_hedging()
    finer_stage.timer_wheel_granularity = 0.01
    tighter = MiddlewarePipeline([hedging, finer_stage])
    assert tighter.timer_granularity == 0.01
    assert MiddlewarePipeline().timer_granularity is None


def test_hedged_cluster_routes_timers_through_the_wheel():
    simulator = Simulator(seed=11)
    cluster = make_cluster(simulator, middleware=HEDGED_PIPELINE)
    coordinator = cluster.coordinator
    assert coordinator._timers is not None
    assert coordinator._timers.granularity == 0.025
    cluster.preload({"k": b"v"}, {"k": 1})
    done = []
    cluster.read("k", on_complete=done.append)
    simulator.run_until(5.0)
    assert done and done[0].success
    stats = coordinator.timer_stats()
    assert stats["timers_armed"] > 0


def test_wheel_and_direct_timers_produce_the_same_report(monkeypatch):
    """The wheel only changes *how* timers reach the heap: survivors fire at
    the same time and in the same order, so the hedged stack's report is the
    same with the wheel on and off, apart from the tick events it processes.
    Guards the ``_arm_timer`` binding made when the pipeline is installed."""
    reports = {}
    for label in ("wheel", "direct"):
        if label == "direct":
            monkeypatch.setattr(RequestHedging, "timer_wheel_granularity", None)
        simulation = Simulation(
            SimulationConfig(
                seed=11,
                duration=60.0,
                middleware=HEDGED_PIPELINE,
                interference=InterferenceConfig(
                    noisy_neighbour_probability=0.3, noisy_neighbour_severity=0.25
                ),
            )
        )
        reports[label] = simulation.run().as_dict()
        coordinator = simulation.cluster.coordinator
        assert (coordinator._timers is not None) == (label == "wheel")
        assert coordinator.hedged_reads > 0
    assert reports["wheel"].pop("events_processed") > reports["direct"].pop(
        "events_processed"
    )
    assert reports["wheel"] == reports["direct"]


def test_default_cluster_never_constructs_a_timer_wheel():
    simulator = Simulator(seed=11)
    cluster = make_cluster(simulator)
    assert cluster.coordinator._timers is None
    assert cluster.coordinator.timer_stats() == {}

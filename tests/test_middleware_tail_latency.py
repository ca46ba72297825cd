"""Tests for the tail-latency stack and its satellite fixes.

Covers the ``request-hedging`` and ``rtt-aware-write-routing`` stages plus
the PR's bug fixes: cold-start-safe latency-aware ranking (an unsampled
replica must never rank as "fastest" or poison the badness cutoff), strict
build-time ``max_level`` validation with counted-and-ignored bad per-request
hints, the completed ``describe()`` surfaces, and RTT-tracker cleanup on
node decommission.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import Cluster, ClusterConfig, ConfigurationError, ConsistencyLevel, NodeConfig
from repro.cluster.types import OperationType
from repro.middleware import (
    HEDGED_PIPELINE,
    LATENCY_AWARE_PIPELINE,
    LatencyAwareReplicaSelection,
    MiddlewareBuildContext,
    NodeRttTracker,
    PerRequestConsistencyOverride,
    RequestHedging,
    RttAwareWriteRouting,
    build_pipeline,
)
from repro.middleware.base import RequestContext
from repro.runner import Simulation, SimulationConfig
from repro.simulation import Simulator
from repro.simulation.interference import InterferenceConfig


def make_cluster(simulator, middleware=None, middleware_params=None, **overrides):
    config = ClusterConfig(
        initial_nodes=overrides.pop("nodes", 3),
        replication_factor=overrides.pop("rf", 3),
        node=NodeConfig(ops_capacity=500.0),
        middleware=middleware,
        middleware_params=middleware_params or {},
        **overrides,
    )
    return Cluster(simulator, config)


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
def test_unsampled_nodes_are_not_ranked_fastest_on_cold_start():
    # No fallback: unsampled nodes are genuinely unknown.  The old code
    # treated them as 0.0 RTT — ranked fastest AND collapsing the badness
    # cutoff to 0, which marked every sampled replica "slow".
    tracker = NodeRttTracker(alpha=1.0)
    selection = LatencyAwareReplicaSelection(tracker, badness_threshold=0.5)
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


def test_exploration_with_unknown_nodes_never_duplicates_targets():
    tracker = NodeRttTracker(alpha=1.0)
    selection = LatencyAwareReplicaSelection(
        tracker, badness_threshold=0.5, explore_every=2
    )
    tracker.observe("a", 0.010)
    tracker.observe("b", 0.200)  # slow: avoided, then explored
    for _ in range(4):
        targets = selection.select_read_targets(None, ["a", "b", "c"], 2)
        assert len(targets) == len(set(targets))
    assert selection.explorations >= 1


# ----------------------------------------------------------------------
# Consistency-override fixes
# ----------------------------------------------------------------------
def test_invalid_max_level_fails_at_build_time_with_valid_levels_listed():
    simulator = Simulator(seed=1)
    with pytest.raises(ValueError, match="bad max_level.*BOGUS"):
        build_pipeline(
            ["consistency-override"],
            MiddlewareBuildContext(simulator=simulator),
            params={"consistency-override": {"max_level": "BOGUS"}},
        )


@pytest.mark.parametrize("name", ["min_budget", "budget", "budget_refresh_interval"])
def test_a_nan_hedging_parameter_fails_at_build_time_naming_it(name):
    # NaN passed the "<= 0.0" checks: a NaN budget or min_budget stopped the
    # run mid-way with "event time must be finite, got nan", and a NaN
    # refresh interval ran to a normal-looking report.
    with pytest.raises(ConfigurationError, match=rf"^request-hedging\.{name} must be "):
        make_cluster(Simulator(seed=1), HEDGED_PIPELINE, {"request-hedging": {name: math.nan}})


def test_invalid_per_request_hint_is_counted_and_ignored():
    override = PerRequestConsistencyOverride()
    ctx = make_read_ctx(hints={"consistency_level": "NOT-A-LEVEL"})
    override.on_request(ctx)  # must not raise
    assert ctx.consistency_level is ConsistencyLevel.ONE
    assert override.overrides_invalid == 1
    assert override.overrides_applied == 0


def test_describe_reports_applied_clamped_and_invalid():
    override = PerRequestConsistencyOverride(max_level=ConsistencyLevel.ONE)
    override.on_request(make_read_ctx(hints={"consistency_level": "QUORUM"}))
    override.on_request(make_read_ctx(hints={"consistency_level": "junk"}))
    described = override.describe()
    assert described["overrides_clamped"] == 1
    assert described["overrides_invalid"] == 1
    assert described["overrides_applied"] == 0  # clamped back to the default ONE


# ----------------------------------------------------------------------
# RTT-aware write routing
# ----------------------------------------------------------------------
def test_write_targets_ordered_by_estimate_with_unknown_last():
    tracker = NodeRttTracker(alpha=1.0)
    tracker.observe("slow", 0.100)
    tracker.observe("fast", 0.002)
    routing = RttAwareWriteRouting(tracker)
    ordered = routing.order_write_targets(None, ["slow", "unknown", "fast"])
    assert ordered == ["fast", "slow", "unknown"]
    assert routing.writes_ordered == 1


def test_preferred_coordinator_skips_slow_nodes_and_rotates():
    tracker = NodeRttTracker(alpha=1.0)
    tracker.observe("a", 0.002)
    tracker.observe("b", 0.003)
    tracker.observe("c", 0.100)  # meaningfully slower than the best
    routing = RttAwareWriteRouting(tracker, badness_threshold=0.5)
    picks = [routing.preferred_coordinator(["a", "b", "c"]) for _ in range(4)]
    assert picks == ["a", "b", "a", "b"]


def test_preferred_coordinator_defers_when_nothing_to_avoid():
    tracker = NodeRttTracker(alpha=1.0)
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
    tracker = NodeRttTracker()
    hedging = RequestHedging(tracker, operation_timeout=1.0, budget_fraction=0.05)
    assert hedging.current_budget() == pytest.approx(0.05)

    source_value = [0.0]
    hedging.attach_budget_source(lambda: source_value[0])
    assert hedging.current_budget() == pytest.approx(0.05)  # no signal yet
    source_value[0] = 0.012
    assert hedging.current_budget() == pytest.approx(0.012)
    source_value[0] = 1e-9
    assert hedging.current_budget() == pytest.approx(0.001)  # min_budget floor
    source_value[0] = 10.0
    assert hedging.current_budget() == pytest.approx(0.05)  # static ceiling


def test_hedge_candidates_are_spares_ranked_fast_first_unknown_last():
    tracker = NodeRttTracker(alpha=1.0)
    tracker.observe("b", 0.050)
    tracker.observe("c", 0.002)
    hedging = RequestHedging(tracker, operation_timeout=1.0)
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
        middleware_params={"request-hedging": {"budget": 1e-6}},
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
        middleware_params={"request-hedging": {"budget": 0.9}},
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

    tracker = cluster.pipeline.get("latency-aware-selection").tracker
    removed, _ = cluster.remove_node()
    assert removed in tracker.snapshot()  # still tracked while draining
    simulator.run_until(simulator.now + 120.0)
    assert removed not in tracker.snapshot()
    assert tracker.samples(removed) == 0


def test_hedged_pipeline_shares_one_tracker_across_stages():
    simulator = Simulator(seed=8)
    cluster = make_cluster(simulator, middleware=HEDGED_PIPELINE)
    selection = cluster.pipeline.get("latency-aware-selection")
    hedging = cluster.pipeline.get("request-hedging")
    routing = cluster.pipeline.get("rtt-aware-write-routing")
    assert selection.tracker is hedging.tracker is routing.tracker


# ----------------------------------------------------------------------
# Per-key hedging budget (hot keys hedge at a tighter fraction)
# ----------------------------------------------------------------------
def _bare_hedging(**overrides):
    defaults = dict(operation_timeout=1.0, budget_fraction=0.05)
    defaults.update(overrides)
    return RequestHedging(NodeRttTracker(), **defaults)


def test_hot_key_hedges_at_tighter_budget_cold_keys_do_not():
    hedging = _bare_hedging(hot_key_fraction=0.5, hot_key_threshold=4)
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


def test_hot_key_budget_never_goes_below_min_budget():
    hedging = _bare_hedging(
        budget=0.002, min_budget=0.0015, hot_key_fraction=0.25, hot_key_threshold=1
    )
    ctx = make_read_ctx(key="hot")
    budget, _ = hedging.hedge_read(ctx, ["n1", "n2"], ["n1"])
    assert budget == 0.0015  # 0.002 * 0.25 clamped up to min_budget


def test_hot_key_counts_decay_by_halving():
    hedging = _bare_hedging(
        hot_key_fraction=0.5, hot_key_threshold=100, hot_key_decay_every=4
    )
    ctx = make_read_ctx(key="k")
    for _ in range(4):
        hedging.hedge_read(ctx, ["n1", "n2"], ["n1"])
    # 4 arms then decay: count 4 -> 2; a 5th arm makes it 3.
    hedging.hedge_read(ctx, ["n1", "n2"], ["n1"])
    assert hedging._key_counts["k"] == 3
    assert hedging.describe()["hot_keys_tracked"] == 1


def test_hot_key_tracking_disabled_at_fraction_one():
    hedging = _bare_hedging(hot_key_fraction=1.0, hot_key_threshold=1)
    ctx = make_read_ctx(key="k")
    for _ in range(5):
        hedging.hedge_read(ctx, ["n1", "n2"], ["n1"])
    assert hedging.hot_key_hedges == 0
    assert hedging._key_counts == {}


def test_hedge_read_tolerates_missing_context():
    # Unit-level callers (and some tools) pass ctx=None; no key tracking.
    hedging = _bare_hedging(hot_key_threshold=1)
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

    hedging = _bare_hedging(
        clock=lambda: clock["now"], budget_refresh_interval=0.5
    )
    hedging.attach_budget_source(source)
    for _ in range(10):
        assert hedging.current_budget() == 0.012
    assert calls["n"] == 1  # cached within the interval
    clock["now"] = 0.5
    assert hedging.current_budget() == 0.012
    assert calls["n"] == 2  # refreshed exactly once at expiry


def test_budget_cache_absent_without_clock():
    calls = {"n": 0}

    def source():
        calls["n"] += 1
        return 0.012

    hedging = _bare_hedging()
    hedging.attach_budget_source(source)
    hedging.current_budget()
    hedging.current_budget()
    assert calls["n"] == 2  # original recompute-every-call semantics


def test_hedging_declares_wheel_granularity_and_pipeline_surfaces_it():
    from repro.middleware.base import MiddlewarePipeline

    hedging = _bare_hedging(timer_granularity=0.025)
    pipeline = MiddlewarePipeline([hedging])
    assert pipeline.implements("hedge_read")
    assert pipeline.timer_granularity == 0.025
    # Opting out keeps the pipeline on the direct heap path.
    plain = MiddlewarePipeline([_bare_hedging(timer_granularity=None)])
    assert plain.implements("hedge_read")
    assert plain.timer_granularity is None
    # The tightest declared granularity wins; no hedging stage, no wheel.
    tighter = MiddlewarePipeline([hedging, _bare_hedging(timer_granularity=0.01)])
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


def test_wheel_and_direct_timers_produce_the_same_report():
    """The wheel only changes *how* timers reach the heap: survivors fire at
    the same time and in the same order, so the hedged stack's report is the
    same with the wheel on and off, apart from the tick events it processes.
    Guards the ``_arm_timer`` binding made when the pipeline is installed."""
    reports = {}
    for label, params in (
        ("wheel", None),
        ("direct", {"request-hedging": {"timer_granularity": None}}),
    ):
        simulation = Simulation(
            SimulationConfig(
                seed=11,
                duration=60.0,
                middleware=HEDGED_PIPELINE,
                middleware_params=params,
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

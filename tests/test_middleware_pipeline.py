"""Tests for the composable request-path middleware subsystem."""

from __future__ import annotations

import re

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ConsistencyLevel,
    NodeConfig,
)
from repro.cluster.errors import ConfigurationError
from repro.middleware import (
    ADMISSION_CONTROL_PIPELINE,
    CONSISTENCY_OVERRIDE_PIPELINE,
    DEFAULT_REQUEST_PIPELINE,
    LATENCY_AWARE_PIPELINE,
    LatencyAwareReplicaSelection,
    MiddlewarePipeline,
    NodeRttTracker,
    RequestMiddleware,
    available_middlewares,
    register_middleware,
)
from repro.middleware import latency
from repro.middleware.base import HOOKS
from repro.runner import Simulation, SimulationConfig
from repro.simulation import Simulator
from repro.workload.generator import WorkloadSpec


def make_cluster(simulator, middleware=None, **overrides):
    config = ClusterConfig(
        initial_nodes=overrides.pop("nodes", 3),
        replication_factor=overrides.pop("rf", 3),
        node=NodeConfig(ops_capacity=500.0),
        **overrides,
    )
    return Cluster(simulator, config, middleware=middleware)


def run_sync(simulator, issue, horizon=2.0):
    results = []
    issue(results.append)
    simulator.run_until(simulator.now + horizon)
    return results[0]


# ----------------------------------------------------------------------
# Registry and pipeline construction
# ----------------------------------------------------------------------
def test_builtin_middlewares_are_registered():
    names = available_middlewares()
    for name in DEFAULT_REQUEST_PIPELINE + ("latency-aware-selection", "consistency-override"):
        assert name in names


def test_an_unknown_stage_is_refused_by_name_with_the_registered_ones_listed():
    names = ("replica-selection", "no-such-stage")
    registered = ", ".join(available_middlewares())
    message = re.escape(f"unknown middleware 'no-such-stage'; registered: {registered}")
    with pytest.raises(ConfigurationError, match=message):
        make_cluster(Simulator(seed=1), middleware=names)


def test_unknown_middleware_name_is_rejected_at_validation():
    # The stack is checked where the scenario builds its cluster, so the
    # refusal is a ValueError (which the CLI answers in one line) raised
    # before the scenario can run.
    config = SimulationConfig(seed=1, duration=5.0, middleware=("replica-selection", "no-such-stage"))
    with pytest.raises(ValueError, match="unknown middleware 'no-such-stage'"):
        Simulation(config)


def test_a_bare_stage_name_is_refused_as_the_wrong_type_of_stack():
    # A string is a sequence of one-character names; the refusal names the
    # field and what it needs instead of the stage ``'r'``.
    with pytest.raises(ConfigurationError) as refused:
        SimulationConfig(seed=1, duration=5.0, middleware="replica-selection")
    assert str(refused.value) == (
        "SimulationConfig.middleware must be a sequence of stage names, "
        "got str 'replica-selection'"
    )


def test_a_bare_stage_name_is_refused_by_the_cluster_too():
    # The cluster is the other way in: the same rule refuses the string
    # before one stage per character is looked up.
    with pytest.raises(ConfigurationError) as refused:
        Cluster(Simulator(seed=1), ClusterConfig(), middleware="replica-selection")
    assert str(refused.value) == (
        "middleware must be a sequence of stage names, got str 'replica-selection'"
    )


@pytest.mark.parametrize(
    "stack, ranks_by_rtt",
    (
        (DEFAULT_REQUEST_PIPELINE, False),
        (CONSISTENCY_OVERRIDE_PIPELINE, False),
        (ADMISSION_CONTROL_PIPELINE, False),
        (LATENCY_AWARE_PIPELINE, True),
    ),
)
def test_only_a_stack_that_ranks_by_rtt_builds_a_tracker_and_times_reads(stack, ranks_by_rtt):
    simulator = Simulator(seed=6)
    cluster = make_cluster(simulator, middleware=stack + ("test-ctx-recorder",))
    recorder = cluster.pipeline.get("test-ctx-recorder")
    for key in ("k0", "k1", "k2", "k3", "k4"):
        assert run_sync(simulator, lambda cb: cluster.write(key, b"v", on_complete=cb)).success
        assert run_sync(simulator, lambda cb: cluster.read(key, on_complete=cb)).success
    done = [ctx for hook, ctx in recorder.seen if hook == "on_complete"]
    assert sorted(ctx.is_read for ctx in done) == [False] * 5 + [True] * 5
    # Only a read through a stack that ranks by RTT keeps send times.
    assert [ctx.send_times is not None for ctx in done if ctx.is_read] == [ranks_by_rtt] * 5
    assert all(ctx.send_times is None for ctx in done if not ctx.is_read)
    rtt = cluster.coordinator.rtt
    if ranks_by_rtt:
        assert set(rtt.snapshot()) <= set(cluster.node_ids()) and rtt.snapshot()
    else:
        assert rtt is None


_probed_contexts = []


def _context_probe(ctx):
    """Test factory: keeps the build context it was handed."""
    _probed_contexts.append(ctx)
    return RequestMiddleware()


register_middleware("test-context-probe")(_context_probe)


def test_every_stage_is_built_from_the_cluster_it_serves():
    _probed_contexts.clear()
    simulator = Simulator(seed=1)
    stack = DEFAULT_REQUEST_PIPELINE + ("test-context-probe", "test-context-probe")
    clusters = [make_cluster(simulator, middleware=stack) for _ in range(2)]
    assert len(_probed_contexts) == 4
    for index, cluster in enumerate(clusters):
        assert cluster.pipeline.get("test-context-probe").name == "test-context-probe"
        contexts = _probed_contexts[2 * index : 2 * index + 2]
        for ctx in contexts:
            assert ctx.simulator is simulator
            assert ctx.cluster is cluster
            assert ctx.coordinator is cluster.coordinator


def test_cluster_default_pipeline_and_snapshot():
    simulator = Simulator(seed=1)
    cluster = make_cluster(simulator)
    assert cluster.pipeline.names() == DEFAULT_REQUEST_PIPELINE
    assert cluster.coordinator._pipeline is cluster.pipeline
    snapshot = cluster.configuration_snapshot()
    assert snapshot["middleware"] == list(DEFAULT_REQUEST_PIPELINE)
    # The built-in stages bind to the cluster's own services.
    assert cluster.pipeline.get("hinted-handoff")._manager is cluster.hinted_handoff
    assert cluster.pipeline.get("read-repair")._repairer is cluster.read_repairer


def test_pipeline_dispatches_only_to_overriders():
    class OnlySelect(RequestMiddleware):
        def select_read_targets(self, ctx, live, required):
            return list(live[:required])

    pipeline = MiddlewarePipeline([OnlySelect(), RequestMiddleware()])
    assert pipeline.implements("select_read_targets")
    assert [hook for hook in HOOKS if pipeline.implements(hook)] == ["select_read_targets"]
    assert pipeline.select_read_targets(None, ["a", "b"], 1) == ["a"]
    # No-op hooks fall through to their defaults.
    assert pipeline.inspect_read_responses(None, []) is None
    assert pipeline.on_unreachable_replica(None, "a", None) is False
    with pytest.raises(KeyError):
        pipeline.implements("no_such_hook")


def test_hook_table_matches_the_middleware_protocol():
    """A hook is one ``RequestMiddleware`` method plus one ``HOOKS`` row."""
    overridable = {
        name
        for name, member in vars(RequestMiddleware).items()
        if callable(member) and not name.startswith("_")
    } - {"describe"}
    assert set(HOOKS) == overridable
    assert len(HOOKS) == 10
    # Every fold rule in use is one that ``_FOLD_CASES`` exercises.
    assert {fold.__name__ for fold in HOOKS.values()} == {f"_{rule}" for rule in _FOLD_CASES}
    pipeline = MiddlewarePipeline()
    for hook in HOOKS:
        assert callable(getattr(pipeline, hook))
        assert not pipeline.implements(hook)


class _Level:
    """Stands in for a consistency level in the ``required_acks`` fallback."""

    @staticmethod
    def required_acks(effective_rf):
        return effective_rf * 10


class _Ctx:
    consistency_level = _Level()


def _stub(hook, label, answer, calls):
    """A stage overriding ``hook`` alone: logs the call, returns ``answer``."""

    def method(self, *args):
        calls.append((label, args))
        return answer

    return type(f"Stub{label}", (RequestMiddleware,), {hook: method})()


#: Per fold rule: a hook it governs, that hook's arguments, and one case per
#: tuple of stage answers: ``(answers, folded result, labels of stages called)``.
_FOLD_CASES = {
    "call_each": (
        "on_complete",
        (_Ctx(), "result"),
        [((), None, ""), ((None,), None, "a"), ((None, None), None, "ab")],
    ),
    "first_opinion": (
        "select_read_targets",
        (_Ctx(), ["n1", "n2"], 1),
        [
            ((), None, ""),
            ((None,), None, "a"),
            ((["n2"],), ["n2"], "a"),
            ((None, ["n1"]), ["n1"], "ab"),
            ((["n2"], ["n1"]), ["n2"], "a"),  # short-circuit: b is never asked
            ((None, None), None, "ab"),
        ],
    ),
    "last_opinion_else_quorum": (
        "required_acks",
        (_Ctx(), 3),
        [
            ((), 30, ""),
            ((None,), 30, "a"),
            ((2,), 2, "a"),
            ((2, 1), 1, "ab"),
            ((2, None), 2, "ab"),
            ((None, None), 30, "ab"),
        ],
    ),
    "any_true": (
        "on_unreachable_replica",
        (_Ctx(), "n1", "version"),
        [
            ((), False, ""),
            ((False,), False, "a"),
            ((True,), True, "a"),
            ((True, False), True, "ab"),  # no short-circuit: every store is offered it
            ((False, False), False, "ab"),
        ],
    ),
}


@pytest.mark.parametrize("rule", sorted(_FOLD_CASES))
def test_fold_rule_with_zero_one_and_two_opinionated_stages(rule):
    hook, args, cases = _FOLD_CASES[rule]
    assert HOOKS[hook].__name__ == f"_{rule}"
    assert {len(answers) for answers, _, _ in cases} == {0, 1, 2}
    for answers, expected, expected_calls in cases:
        calls = []
        stages = [
            _stub(hook, label, answer, calls) for label, answer in zip("ab", answers)
        ]
        # An unopinionated bystander between the stages is never consulted.
        pipeline = MiddlewarePipeline(stages[:1] + [RequestMiddleware()] + stages[1:])
        assert pipeline.implements(hook) == bool(answers)
        assert getattr(pipeline, hook)(*args) == expected, (rule, answers)
        assert "".join(label for label, _ in calls) == expected_calls, (rule, answers)
        assert all(seen == args for _, seen in calls)


def test_default_pipeline_is_equivalent_to_explicit_names():
    summaries = []
    for middleware in (None, DEFAULT_REQUEST_PIPELINE):
        report = Simulation(
            SimulationConfig(seed=11, duration=40.0, middleware=middleware)
        ).run()
        summaries.append(report.workload_summary)
    assert summaries[0] == summaries[1]


# ----------------------------------------------------------------------
# Custom middleware (the registry as an extension point)
# ----------------------------------------------------------------------
class _TenantAdmission(RequestMiddleware):
    """Test middleware: reject requests from a blocked tenant."""

    def on_request(self, ctx):
        if ctx.hints and ctx.hints.get("tenant") == "blocked":
            ctx.reject("admission denied: tenant blocked")


register_middleware("test-tenant-admission")(lambda ctx: _TenantAdmission())


def test_custom_admission_middleware_rejects_before_fanout():
    simulator = Simulator(seed=2)
    cluster = make_cluster(
        simulator, middleware=("test-tenant-admission",) + DEFAULT_REQUEST_PIPELINE
    )
    blocked = run_sync(
        simulator,
        lambda cb: cluster.write("k", b"v", on_complete=cb, hints={"tenant": "blocked"}),
    )
    assert not blocked.success
    assert blocked.rejected
    assert blocked.error == "admission denied: tenant blocked"
    allowed = run_sync(
        simulator,
        lambda cb: cluster.write("k", b"v", on_complete=cb, hints={"tenant": "other"}),
    )
    assert allowed.success
    assert not allowed.rejected
    # Shed load is accounted as rejected, not failed (it is intentional).
    assert cluster.coordinator.writes_rejected == 1
    assert cluster.coordinator.writes_failed == 0


class _CtxRecorder(RequestMiddleware):
    """Test middleware: records the ``ctx`` each per-request hook is handed."""

    name = "test-ctx-recorder"

    def __init__(self):
        self.seen = []

    def on_request(self, ctx):
        self.seen.append(("on_request", ctx))

    def required_acks(self, ctx, effective_rf):
        self.seen.append(("required_acks", ctx))

    def select_read_targets(self, ctx, live, required):
        self.seen.append(("select_read_targets", ctx))

    def order_write_targets(self, ctx, live):
        self.seen.append(("order_write_targets", ctx))

    def hedge_read(self, ctx, live, targets):
        self.seen.append(("hedge_read", ctx))

    def inspect_read_responses(self, ctx, responses):
        self.seen.append(("inspect_read_responses", ctx))

    def annotate_read(self, ctx, newest):
        self.seen.append(("annotate_read", ctx))

    def on_complete(self, ctx, result):
        self.seen.append(("on_complete", ctx))


register_middleware("test-ctx-recorder")(lambda ctx: _CtxRecorder())


def test_every_hook_of_a_request_is_handed_the_record_its_timeout_carries():
    simulator = Simulator(seed=6)
    cluster = make_cluster(
        simulator, middleware=("test-ctx-recorder",) + DEFAULT_REQUEST_PIPELINE
    )
    recorder = cluster.pipeline.get("test-ctx-recorder")
    coordinator = cluster.coordinator
    armed = []
    arm = coordinator._arm_timer

    def recording_arm(delay, callback, *args, label):
        armed.append((label, args))
        return arm(delay, callback, *args, label=label)

    coordinator._arm_timer = recording_arm
    write_hooks = {"on_request", "required_acks", "order_write_targets", "on_complete"}
    read_hooks = {
        "on_request",
        "required_acks",
        "select_read_targets",
        "hedge_read",
        "inspect_read_responses",
        "annotate_read",
        "on_complete",
    }
    for issue, hooks, label in (
        (lambda cb: cluster.write("k", b"v", on_complete=cb), write_hooks, "write:timeout"),
        (lambda cb: cluster.read("k", on_complete=cb), read_hooks, "read:timeout"),
    ):
        recorder.seen.clear()
        armed.clear()
        assert run_sync(simulator, issue).success
        assert {hook for hook, _ in recorder.seen} == hooks
        ctx = recorder.seen[0][1]
        assert all(seen is ctx for _, seen in recorder.seen)
        ((armed_label, args),) = armed
        assert armed_label == label and args[0] is ctx


# ----------------------------------------------------------------------
# Per-request consistency override
# ----------------------------------------------------------------------
def test_consistency_override_honours_hints():
    simulator = Simulator(seed=3)
    cluster = make_cluster(simulator, middleware=CONSISTENCY_OVERRIDE_PIPELINE)
    result = run_sync(
        simulator,
        lambda cb: cluster.write(
            "k", b"v", on_complete=cb, hints={"consistency_level": ConsistencyLevel.ALL}
        ),
    )
    assert result.success
    assert result.consistency_level is ConsistencyLevel.ALL
    assert result.replicas_responded == 3
    # String levels are accepted too.
    result = run_sync(
        simulator,
        lambda cb: cluster.read("k", on_complete=cb, hints={"consistency_level": "quorum"}),
    )
    assert result.consistency_level is ConsistencyLevel.QUORUM
    assert cluster.pipeline.get("consistency-override").overrides_applied >= 2


def test_hints_are_ignored_without_override_middleware():
    simulator = Simulator(seed=4)
    cluster = make_cluster(simulator)  # default stack: no consistency-override
    result = run_sync(
        simulator,
        lambda cb: cluster.write(
            "k", b"v", on_complete=cb, hints={"consistency_level": ConsistencyLevel.ALL}
        ),
    )
    assert result.success
    assert result.consistency_level is ConsistencyLevel.ONE


def test_workload_spec_overrides_flow_through_pipeline():
    config = SimulationConfig(
        seed=7,
        duration=20.0,
        middleware=CONSISTENCY_OVERRIDE_PIPELINE,
        workload=WorkloadSpec(consistency_overrides={"update": ConsistencyLevel.QUORUM}),
    )
    simulation = Simulation(config)
    levels = set()
    original = simulation.workload.stats.record_write

    def record(result):
        levels.add(result.consistency_level)
        original(result)

    simulation.workload.stats.record_write = record
    simulation.run_until(20.0)
    assert levels == {ConsistencyLevel.QUORUM}
    assert simulation.pipeline.get("consistency-override").overrides_applied > 0


def test_workload_spec_rejects_unknown_override_kind():
    with pytest.raises(ValueError, match="unknown consistency_overrides"):
        WorkloadSpec(consistency_overrides={"delete": ConsistencyLevel.ONE})


# ----------------------------------------------------------------------
# Latency-aware replica selection
# ----------------------------------------------------------------------
@pytest.fixture
def half_weight_samples(monkeypatch):
    """Trackers built in the test weigh each new RTT sample by one half."""
    monkeypatch.setattr(latency, "RTT_ALPHA", 0.5)


def test_node_rtt_tracker_ewma_and_fallback(half_weight_samples):
    tracker = NodeRttTracker(fallback=lambda: 0.25)
    assert tracker.ranked(["n1"]) == ([(0.25, "n1")], [], 0)  # unsampled -> fallback
    tracker.observe("n1", 0.1)
    assert tracker.ranked(["n1"]) == ([(0.1, "n1")], [], 0)
    tracker.observe("n1", 0.2)
    assert tracker.snapshot() == {"n1": pytest.approx(0.15)}
    tracker.forget("n1")
    assert tracker.ranked(["n1"]) == ([(0.25, "n1")], [], 0)


def test_latency_aware_selection_avoids_slow_replicas(half_weight_samples):
    tracker = NodeRttTracker()
    middleware = LatencyAwareReplicaSelection(tracker)
    tracker.observe("a", 0.010)
    tracker.observe("b", 0.011)
    tracker.observe("c", 0.100)  # degraded: beyond the badness cutoff
    live = ["a", "b", "c"]
    picks = [middleware.select_read_targets(None, live, 1)[0] for _ in range(6)]
    assert "c" not in picks
    # Healthy replicas share the load round-robin instead of herding.
    assert set(picks) == {"a", "b"}
    assert middleware.avoidances == 6
    # Nothing to choose when every live replica is needed.
    assert middleware.select_read_targets(None, ["a"], 1) is None


def test_latency_aware_selection_degrades_to_fastest_when_all_slow(half_weight_samples, monkeypatch):
    monkeypatch.setattr(latency, "BADNESS_THRESHOLD", 0.1)
    tracker = NodeRttTracker()
    middleware = LatencyAwareReplicaSelection(tracker)
    tracker.observe("a", 0.010)
    tracker.observe("b", 0.050)
    tracker.observe("c", 0.100)
    assert middleware.select_read_targets(None, ["a", "b", "c"], 2) == ["a", "b"]


def test_latency_aware_pipeline_tracks_rtts_on_cluster():
    simulator = Simulator(seed=6)
    cluster = make_cluster(simulator, middleware=LATENCY_AWARE_PIPELINE)
    for i in range(20):
        run_sync(simulator, lambda cb, k=f"k{i}": cluster.write(k, b"v", on_complete=cb))
    router = cluster.pipeline.get("latency-aware-selection")
    for i in range(20):
        result = run_sync(simulator, lambda cb, k=f"k{i}": cluster.read(k, on_complete=cb))
        assert result.success
    assert router.selections > 0
    assert len(cluster.coordinator.rtt.snapshot()) > 0


def test_latency_aware_tracker_is_shared_with_rtt_estimator():
    config = SimulationConfig(seed=9, duration=20.0, middleware=LATENCY_AWARE_PIPELINE)
    simulation = Simulation(config)
    simulation.run_until(20.0)
    estimates = simulation.estimators["rtt"].node_rtt_estimates()
    assert estimates  # populated by production reads
    assert estimates == simulation.cluster.coordinator.rtt.snapshot()


# ----------------------------------------------------------------------
# Monitoring hooks as a removable stage
# ----------------------------------------------------------------------
def test_dropping_monitoring_hooks_silences_listeners_only():
    simulator = Simulator(seed=8)
    without_hooks = tuple(
        name for name in DEFAULT_REQUEST_PIPELINE if name != "monitoring-hooks"
    )
    cluster = make_cluster(simulator, middleware=without_hooks)
    completed = []

    class Listener:
        def on_write_acked(self, *args):
            pass

        def on_replica_applied(self, *args):
            pass

        def on_operation_completed(self, result):
            completed.append(result)

        def on_topology_changed(self, change):
            pass

        def on_reconfiguration(self, change):
            pass

    cluster.add_listener(Listener())
    result = run_sync(simulator, lambda cb: cluster.write("k", b"v", on_complete=cb))
    assert result.success  # the data path is untouched
    assert completed == []  # but the passive-monitoring feed is silent


def test_simulation_middleware_does_not_mutate_shared_cluster_config():
    shared = ClusterConfig(node=NodeConfig(ops_capacity=500.0))
    latency = Simulation(
        SimulationConfig(seed=1, duration=5.0, cluster=shared, middleware=LATENCY_AWARE_PIPELINE)
    )
    assert shared == ClusterConfig(node=NodeConfig(ops_capacity=500.0))  # caller's config untouched
    default = Simulation(SimulationConfig(seed=1, duration=5.0, cluster=shared))
    assert latency.pipeline.names() == LATENCY_AWARE_PIPELINE
    assert default.pipeline.names() == DEFAULT_REQUEST_PIPELINE


def test_hinted_counters_not_incremented_without_the_handoff_stage():
    simulator = Simulator(seed=12)
    without_handoff = [name for name in DEFAULT_REQUEST_PIPELINE if name != "hinted-handoff"]
    cluster = make_cluster(simulator, middleware=without_handoff)
    victim = cluster.node_ids()[0]
    cluster.crash_node(victim)
    simulator.run_until(simulator.now + 30.0)
    result = run_sync(simulator, lambda cb: cluster.write("k", b"v", on_complete=cb))
    assert result.success
    # No stage stored a hint, so nothing may claim one was stored.
    assert cluster.coordinator.hinted_writes == 0
    assert cluster.hinted_handoff.hints_stored == 0


def test_latency_aware_selection_reprobes_avoided_replicas(monkeypatch):
    monkeypatch.setattr(latency, "RTT_ALPHA", 1.0)  # newest sample wins outright
    monkeypatch.setattr(latency, "EXPLORE_EVERY", 4)
    tracker = NodeRttTracker()
    middleware = LatencyAwareReplicaSelection(tracker)
    tracker.observe("a", 0.010)
    tracker.observe("b", 0.011)
    tracker.observe("c", 0.100)  # degraded at first
    live = ["a", "b", "c"]
    picks = [middleware.select_read_targets(None, live, 1)[0] for _ in range(4)]
    # The fourth avoidance explores the slow replica instead of skipping it.
    assert picks[:3] == ["a", "b", "a"] and picks[3] == "c"
    assert middleware.explorations == 1
    # The exploration read found c recovered; it rejoins the rotation.
    tracker.observe("c", 0.010)
    later = {middleware.select_read_targets(None, live, 1)[0] for _ in range(6)}
    assert later == {"a", "b", "c"}

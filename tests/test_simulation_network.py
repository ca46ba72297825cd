"""Unit tests for the network latency / congestion / partition model."""

from __future__ import annotations

import dataclasses
import inspect
import math
import typing

import pytest

import repro.simulation.network as network_module
from repro.cluster import ClusterConfig, ConfigurationError
from repro.cluster.errors import NON_NEGATIVE, POSITIVE, Bound
from repro.consistency.pbs import StalenessModel
from repro.core.actions import SetTierQuotaScaleAction
from repro.experiments.scenarios import build_config
from repro.runner import SimulationConfig
from repro.simulation import NetworkModel, Simulator
from repro.workload.generator import WorkloadSpec
from repro.workload.operations import RecordSizer


@pytest.fixture
def make_network(monkeypatch):
    """Builds a network with the named constants of the network module
    (``jitter_cv=0.0`` patches ``JITTER_CV``) replaced for the test."""

    def make(simulator, **constants):
        for name, value in constants.items():
            monkeypatch.setattr(network_module, name.upper(), value)
        return NetworkModel(simulator)

    return make


def _settings_classes():
    """Every dataclass reachable from ``SimulationConfig`` through field
    annotations, plus every concrete dataclass subclass of a class an
    annotation names (the ``SLO``s behind ``SLA.objectives``)."""
    found, todo = [], [SimulationConfig]
    while todo:
        cls = todo.pop(0)
        if cls in found:
            continue
        found.append(cls)
        named, hints = [], list(typing.get_type_hints(cls).values())
        while hints:
            hint = hints.pop()
            hints.extend(typing.get_args(hint))
            if isinstance(hint, type) and hint.__module__.startswith("repro."):
                named.append(hint)
        for kind in named:
            todo.extend(
                sub
                for sub in [kind, *kind.__subclasses__()]
                if dataclasses.is_dataclass(sub) and not inspect.isabstract(sub)
            )
    return found


#: Required arguments of the classes that have some.
_BASELINE = {
    "SLA": dict(objectives=[]),
    "LatencySLO": dict(max_latency=0.05),
    "FaultSpec": dict(kind="crash", at=1.0),
    "TenantTier": dict(
        name="gold", population_fraction=0.5, quota_rate=1.0, quota_burst=1.0, read_p99_slo_ms=1.0
    ),
}


def _members(hint):
    """``hint``'s types: both sides of an ``Optional``, else ``hint`` itself."""
    return typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)


def _refused_values():
    for cls in _settings_classes():
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            hint = hints[field.name]
            if any(kind in (int, float) for kind in _members(hint)):
                yield pytest.param(cls, field, id=f"{cls.__name__}.{field.name}")


@pytest.mark.parametrize("cls, field", _refused_values())
def test_every_numeric_setting_declares_a_bound_and_refuses_what_it_excludes(cls, field):
    # Each of these used to be accepted somewhere: NaN passed "< 0" checks
    # (a NaN tenant skew sent every operation to tenant 0), and infinite or
    # negative intervals, rates and timeouts stopped runs mid-way in the
    # kernel with an error that named no setting.
    bound = field.metadata.get("bound")
    assert isinstance(bound, Bound), f"{cls.__name__}.{field.name} declares no bound"
    excluded = [math.nan, math.inf, -math.inf, -1, 0, bound.low - 0.5, bound.high + 0.5]
    for value in [value for value in excluded if not bound.admits(value)]:
        with pytest.raises(ConfigurationError) as refusal:
            cls(**{**_BASELINE.get(cls.__name__, {}), field.name: value})
        assert str(refusal.value) == f"{cls.__name__}.{field.name} must be {bound}, got {value!r}"


def _nested_fields():
    for cls in _settings_classes():
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            kinds = [kind for kind in _members(hints[field.name]) if dataclasses.is_dataclass(kind)]
            if len(kinds) == 1:
                yield pytest.param(cls, field.name, kinds[0], id=f"{cls.__name__}.{field.name}")


@pytest.mark.parametrize("cls, name, kind", _nested_fields())
def test_a_nested_setting_of_the_wrong_type_is_refused_at_construction(cls, name, kind):
    # ``WorkloadSpec(operation_mix="read-heavy")`` used to construct and then
    # fail at build time with "'str' object has no attribute 'choose'".
    with pytest.raises(ConfigurationError) as refusal:
        cls(**{**_BASELINE.get(cls.__name__, {}), name: "read-heavy"})
    assert str(refusal.value) == f"{cls.__name__}.{name} must be {kind.__name__}, got str"


_EXCLUDED = [math.nan, math.inf, -1.0]


@pytest.mark.parametrize("value", _EXCLUDED)
def test_build_config_refuses_a_probe_interval_outside_its_bound(value):
    # ``build_config`` stored the interval after constructing the probe
    # settings, past their check: a NaN interval was accepted.
    with pytest.raises(ConfigurationError) as refusal:
        build_config("probe", 0, 60.0, ClusterConfig(), WorkloadSpec(), probe_interval=value)
    assert str(refusal.value) == f"ProbeConfig.probe_interval must be {POSITIVE}, got {value!r}"


@pytest.mark.parametrize("value", _EXCLUDED)
@pytest.mark.parametrize(
    "call, where, bound",
    [
        pytest.param(
            StalenessModel, "StalenessModel.mean_replication_lag", NON_NEGATIVE, id="StalenessModel"
        ),
        pytest.param(
            StalenessModel(0.1).update_lag,
            "StalenessModel.mean_replication_lag",
            NON_NEGATIVE,
            id="StalenessModel.update_lag",
        ),
        pytest.param(
            lambda value: SetTierQuotaScaleAction("bronze", value),
            "SetTierQuotaScaleAction.scale",
            NON_NEGATIVE,
            id="SetTierQuotaScaleAction",
        ),
        pytest.param(RecordSizer, "RecordSizer.mean_size", POSITIVE, id="RecordSizer"),
    ],
)
def test_a_checked_argument_refuses_nan_infinity_and_a_negative_by_name(call, where, bound, value):
    # Each of these tested ``< 0`` (or ``<= 0``) by hand, which NaN and +inf pass.
    with pytest.raises(ConfigurationError) as refusal:
        call(value)
    assert str(refusal.value) == f"{where} must be {bound}, got {value!r}"


def test_send_delivers_after_latency(make_network):
    simulator = Simulator(seed=0)
    network = make_network(simulator, jitter_cv=0.0, base_latency=0.001)
    delivered = []
    network.send("a", "b", lambda: delivered.append(simulator.now))
    simulator.run_until(1.0)
    assert len(delivered) == 1
    assert delivered[0] == pytest.approx(0.001, rel=0.01)


def test_partition_drops_messages_and_calls_on_drop(make_network):
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    network.partition({"a"}, {"b"})
    delivered, dropped = [], []
    ok = network.send("a", "b", lambda: delivered.append(1), on_drop=lambda: dropped.append(1))
    simulator.run_until(1.0)
    assert not ok
    assert delivered == []
    assert dropped == [1]
    assert network.messages_dropped == 1


def test_partition_is_symmetric_and_healable(make_network):
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    network.partition({"a"}, {"b", "c"})
    assert network.is_partitioned("b", "a")
    assert network.is_partitioned("a", "c")
    assert not network.is_partitioned("b", "c")
    network.heal_partition()
    assert not network.is_partitioned("a", "b")


def test_unrelated_pairs_unaffected_by_partition(make_network):
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    network.partition({"a"}, {"b"})
    delivered = []
    assert network.send("c", "d", lambda: delivered.append(1))
    simulator.run_until(1.0)
    assert delivered == [1]


def test_congestion_factor_grows_when_capacity_exceeded(make_network):
    simulator = Simulator(seed=0)
    network = make_network(
        simulator,
        capacity_msgs_per_sec=100.0,
        congestion_window=0.5,
        jitter_cv=0.0,
    )
    # Push far more than 100 msgs/s for over a second of simulated time.
    for i in range(400):
        simulator.schedule(i * 0.005, lambda: network.send("a", "b", lambda: None))
    simulator.run_until(3.0)
    assert network.congestion_factor > 1.0


def test_congestion_factor_bounded_by_max(make_network):
    simulator = Simulator(seed=0)
    network = make_network(
        simulator,
        capacity_msgs_per_sec=1.0,
        congestion_window=0.5,
        max_congestion_factor=5.0,
    )
    for i in range(500):
        simulator.schedule(i * 0.002, lambda: network.send("a", "b", lambda: None))
    simulator.run_until(2.0)
    assert network.congestion_factor <= 5.0


def test_external_load_factor_increases_congestion(make_network):
    simulator = Simulator(seed=0)
    network = make_network(simulator, capacity_msgs_per_sec=200.0, congestion_window=0.5)
    network.set_external_load_factor(50.0)
    for i in range(300):
        simulator.schedule(i * 0.01, lambda: network.send("a", "b", lambda: None))
    simulator.run_until(4.0)
    assert network.congestion_factor > 1.0


def test_round_trip_estimate_scales_with_congestion(make_network):
    simulator = Simulator(seed=0)
    network = make_network(simulator, base_latency=0.001, jitter_cv=0.0)
    baseline = network.round_trip_estimate()
    assert baseline == pytest.approx(0.002)


def test_messages_sent_counter(make_network):
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    for _ in range(5):
        network.send("a", "b", lambda: None)
    assert network.messages_sent == 5


# ----------------------------------------------------------------------
# send() is one frame: with jitter off, every number it produces is exact
# ----------------------------------------------------------------------
def test_send_without_jitter_is_exact_and_draws_nothing(make_network):
    simulator = Simulator(seed=3)
    network = make_network(simulator, jitter_cv=0.0, base_latency=0.001, client_latency=0.004)
    fired = []
    simulator.add_trace_hook(lambda time, label: fired.append((time, label)))
    assert network.send("a", "b", lambda: None)
    assert network.send("client", "a", lambda: None, client_facing=True)
    simulator.run_until(1.0)
    assert fired == [(0.001, "net:a->b"), (0.004, "net:client->a")]
    assert network.messages_sent == 2
    assert network.messages_dropped == 0
    # cv 0 means no draw at all, as LognormalSampler.sample has it.
    untouched = Simulator(seed=3).streams.stream("network")
    assert simulator.streams.stream("network").random() == untouched.random()


def test_congestion_window_rolls_over_at_the_boundary_not_before(make_network):
    simulator = Simulator(seed=0)
    network = make_network(
        simulator,
        jitter_cv=0.0,
        base_latency=0.001,
        capacity_msgs_per_sec=5.0,
        congestion_window=1.0,
    )
    delivered = []

    def send():
        sent_at = simulator.now
        network.send("a", "b", lambda: delivered.append((sent_at, simulator.now)))

    for _ in range(10):
        send()
    just_before = 1.0 - 1e-9
    simulator.schedule(just_before, send)
    simulator.schedule(1.0, send)
    simulator.schedule(1.5, send)
    simulator.run_until(3.0)

    # 12 messages closed the first window (the one that closes it counts),
    # over exactly 1.0 s: rate 12/s against a capacity of 5/s.
    factor = (12 / 1.0 / 5.0) ** 2.0
    assert network.congestion_factor == factor
    assert network.round_trip_estimate() == 2.0 * 0.001 * factor
    by_send_time = dict(delivered[10:])
    assert [latency_end - sent for sent, latency_end in delivered[:10]] == [0.001] * 10
    assert by_send_time[just_before] == just_before + 0.001
    assert by_send_time[1.0] == 1.0 + 0.001 * factor
    assert by_send_time[1.5] == 1.5 + 0.001 * factor
    assert network.messages_sent == 13


def test_drops_are_honoured_and_counted_without_jitter(make_network):
    simulator = Simulator(seed=0)
    network = make_network(simulator, jitter_cv=0.0, base_latency=0.001)
    delivered, dropped = [], []

    def send(source, destination):
        return network.send(
            source,
            destination,
            lambda: delivered.append((source, destination, simulator.now)),
            on_drop=lambda: dropped.append((source, destination)),
        )

    partition = network.partition({"a"}, {"b"})
    lossy = network.set_link_fault("a", "c", drop_probability=1.0)
    slow = network.set_link_fault("b", "c", extra_delay=0.25)
    assert not send("a", "b")
    assert not send("b", "a")
    assert not send("c", "a")
    assert send("c", "b")
    assert (network.messages_sent, network.messages_dropped, network.link_drops) == (4, 3, 1)
    assert dropped == [("a", "b"), ("b", "a"), ("c", "a")]

    network.heal_partition(partition)
    network.clear_link_fault(lossy)
    network.clear_link_fault(slow)
    assert send("a", "b") and send("c", "a") and send("b", "c")
    simulator.run_until(1.0)
    assert delivered == [
        ("a", "b", 0.001),
        ("c", "a", 0.001),
        ("b", "c", 0.001),
        ("c", "b", 0.001 + 0.25),
    ]
    assert network.messages_dropped == 3

"""Unit tests for the network latency / congestion / partition model."""

from __future__ import annotations

import math

import pytest

from repro.cluster import NodeConfig
from repro.simulation import NetworkConfig, NetworkModel, Simulator


def make_network(simulator, **overrides):
    config = NetworkConfig(**overrides)
    return NetworkModel(simulator, config)


@pytest.mark.parametrize(
    "config, field, value",
    [
        # A bare ZeroDivisionError mid-run.
        (NetworkConfig, "capacity_msgs_per_sec", 0.0),
        # Congestion silently off.
        (NetworkConfig, "capacity_msgs_per_sec", -1.0),
        (NetworkConfig, "capacity_msgs_per_sec", math.nan),
        # "event time must be finite" mid-run, naming no field.
        (NetworkConfig, "base_latency", math.nan),
        (NetworkConfig, "client_latency", math.inf),
        # Silently zero latency.
        (NetworkConfig, "base_latency", -0.001),
        # Silently no jitter.
        (NetworkConfig, "jitter_cv", math.nan),
        (NetworkConfig, "jitter_cv", -0.1),
        # A window that rolls on every message.
        (NetworkConfig, "congestion_window", 0.0),
        (NetworkConfig, "congestion_exponent", math.nan),
        (NetworkConfig, "congestion_exponent", -2.0),
        # A congested network that gets faster.
        (NetworkConfig, "max_congestion_factor", 0.5),
        (NetworkConfig, "max_congestion_factor", math.nan),
        # Silently no service noise: max(0.0, nan) is 0.0.
        (NodeConfig, "service_cv", math.nan),
        (NodeConfig, "service_cv", math.inf),
        (NodeConfig, "read_demand_factor", math.nan),
        (NodeConfig, "write_demand_factor", -1.0),
        (NodeConfig, "stream_demand_factor", math.inf),
        (NodeConfig, "repair_demand_factor", -0.5),
    ],
)
def test_a_config_that_cannot_give_a_finite_latency_fails_at_declaration(config, field, value):
    with pytest.raises(ValueError) as refusal:
        config(**{field: value})
    message = str(refusal.value)
    assert message.startswith(f"{config.__name__}.{field} must be ")
    assert message.endswith(f"got {value}") and "\n" not in message


def test_send_delivers_after_latency():
    simulator = Simulator(seed=0)
    network = make_network(simulator, jitter_cv=0.0, base_latency=0.001)
    delivered = []
    network.send("a", "b", lambda: delivered.append(simulator.now))
    simulator.run_until(1.0)
    assert len(delivered) == 1
    assert delivered[0] == pytest.approx(0.001, rel=0.01)


def test_partition_drops_messages_and_calls_on_drop():
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


def test_partition_is_symmetric_and_healable():
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    network.partition({"a"}, {"b", "c"})
    assert network.is_partitioned("b", "a")
    assert network.is_partitioned("a", "c")
    assert not network.is_partitioned("b", "c")
    network.heal_partition()
    assert not network.is_partitioned("a", "b")


def test_unrelated_pairs_unaffected_by_partition():
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    network.partition({"a"}, {"b"})
    delivered = []
    assert network.send("c", "d", lambda: delivered.append(1))
    simulator.run_until(1.0)
    assert delivered == [1]


def test_congestion_factor_grows_when_capacity_exceeded():
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


def test_congestion_factor_bounded_by_max():
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


def test_external_load_factor_increases_congestion():
    simulator = Simulator(seed=0)
    network = make_network(simulator, capacity_msgs_per_sec=200.0, congestion_window=0.5)
    network.set_external_load_factor(50.0)
    for i in range(300):
        simulator.schedule(i * 0.01, lambda: network.send("a", "b", lambda: None))
    simulator.run_until(4.0)
    assert network.congestion_factor > 1.0


def test_round_trip_estimate_scales_with_congestion():
    simulator = Simulator(seed=0)
    network = make_network(simulator, base_latency=0.001, jitter_cv=0.0)
    baseline = network.round_trip_estimate()
    assert baseline == pytest.approx(0.002)


def test_messages_sent_counter():
    simulator = Simulator(seed=0)
    network = make_network(simulator)
    for _ in range(5):
        network.send("a", "b", lambda: None)
    assert network.messages_sent == 5


# ----------------------------------------------------------------------
# send() is one frame: with jitter off, every number it produces is exact
# ----------------------------------------------------------------------
def test_send_without_jitter_is_exact_and_draws_nothing():
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


def test_congestion_window_rolls_over_at_the_boundary_not_before():
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


def test_drops_are_honoured_and_counted_without_jitter():
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

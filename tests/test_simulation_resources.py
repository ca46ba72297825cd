"""Unit tests for the queueing-server resource model."""

from __future__ import annotations

import pytest

from repro.simulation import QueueingServer, ResourceError, Simulator


def make_server(simulator, rate=1.0, cv=0.0):
    return QueueingServer(simulator, name="test", service_rate=rate, service_cv=cv)


def test_single_request_completes_after_service_time():
    simulator = Simulator(seed=0)
    server = make_server(simulator)
    completions = []
    server.submit(2.0, completions.append)
    simulator.run_until(10.0)
    assert completions == [2.0]
    assert server.completed == 1


def test_requests_are_served_fifo():
    simulator = Simulator(seed=0)
    server = make_server(simulator)
    completions = []
    server.submit(1.0, lambda t: completions.append(("a", t)))
    server.submit(1.0, lambda t: completions.append(("b", t)))
    simulator.run_until(10.0)
    assert completions == [("a", 1.0), ("b", 2.0)]


def test_speed_factor_slows_down_service():
    simulator = Simulator(seed=0)
    server = make_server(simulator)
    server.set_speed_factor(0.5)
    completions = []
    server.submit(1.0, completions.append)
    simulator.run_until(10.0)
    assert completions == [2.0]


def test_service_rate_change_speeds_up_service():
    simulator = Simulator(seed=0)
    server = make_server(simulator, rate=2.0)
    completions = []
    server.submit(1.0, completions.append)
    simulator.run_until(10.0)
    assert completions == [0.5]


def test_queue_length_and_busy_flags():
    simulator = Simulator(seed=0)
    server = make_server(simulator)
    server.submit(5.0, lambda t: None)
    server.submit(5.0, lambda t: None)
    assert server.busy
    assert server.queue_length == 1
    simulator.run_until(20.0)
    assert not server.busy
    assert server.queue_length == 0


def test_invalid_parameters_raise():
    simulator = Simulator(seed=0)
    with pytest.raises(ResourceError):
        QueueingServer(simulator, "bad", service_rate=0.0)
    server = make_server(simulator)
    with pytest.raises(ResourceError):
        server.submit(-1.0, lambda t: None)
    with pytest.raises(ResourceError):
        server.set_speed_factor(0.0)


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize(
    "where, value, named",
    [
        ("service_rate", _NAN, "service_rate"),
        ("service_rate", _INF, "service_rate"),
        ("service_cv", _NAN, "service_cv"),
        ("service_cv", _INF, "service_cv"),
        ("service_cv", -0.1, "service_cv"),
        ("set_speed_factor", _NAN, "speed factor"),
        ("set_speed_factor", _INF, "speed factor"),
        ("set_fault_factor", _NAN, "fault factor"),
        ("set_fault_factor", _INF, "fault factor"),
        ("submit", _NAN, "service demand"),
        ("submit", _INF, "service demand"),
    ],
)
def test_a_value_that_cannot_give_a_finite_service_time_is_refused_where_it_is_given(
    where, value, named
):
    # NaN fails every comparison, so a range tested as "not outside" let it
    # in: a NaN rate or factor failed mid-run on an unschedulable event time,
    # an infinite one served everything in zero time, and a NaN or negative
    # cv silently dropped the noise.
    simulator = Simulator(seed=0)
    with pytest.raises(ResourceError, match=f"^{named} must be finite"):
        if where in ("service_rate", "service_cv"):
            QueueingServer(simulator, "bad", **{where: value})
        elif where == "submit":
            make_server(simulator).submit(value, lambda t: None)
        else:
            getattr(make_server(simulator), where)(value)
    assert simulator.pending_events == 0


def test_utilization_tracks_busy_fraction():
    simulator = Simulator(seed=0)
    server = make_server(simulator)
    server.submit(5.0, lambda t: None)
    simulator.run_until(10.0)
    utilization = server.utilization.sample(simulator.now)
    assert utilization == pytest.approx(0.5, abs=0.01)


def test_utilization_window_resets_between_samples():
    simulator = Simulator(seed=0)
    server = make_server(simulator)
    server.submit(2.0, lambda t: None)
    simulator.run_until(2.0)
    first = server.utilization.sample(simulator.now)
    simulator.run_until(4.0)
    second = server.utilization.sample(simulator.now)
    assert first == pytest.approx(1.0, abs=0.01)
    assert second == pytest.approx(0.0, abs=0.01)


def test_estimated_wait_grows_with_backlog():
    simulator = Simulator(seed=0)
    server = make_server(simulator)
    assert server.estimated_wait() == 0.0
    server.submit(1.0, lambda t: None)
    server.submit(1.0, lambda t: None)
    server.submit(1.0, lambda t: None)
    assert server.estimated_wait() > 1.0


def test_mean_queue_delay_accounts_waiting_time():
    simulator = Simulator(seed=0)
    server = make_server(simulator)
    server.submit(2.0, lambda t: None)
    server.submit(2.0, lambda t: None)
    simulator.run_until(10.0)
    # First waits 0, second waits 2 seconds -> mean 1.
    assert server.mean_queue_delay == pytest.approx(1.0, abs=0.01)


def test_service_noise_respects_mean():
    simulator = Simulator(seed=0)
    server = QueueingServer(simulator, "noisy", service_rate=1.0, service_cv=0.5)
    completions = []
    for _ in range(200):
        server.submit(0.01, completions.append)
    simulator.run_until(1000.0)
    assert len(completions) == 200
    assert server.total_busy_time == pytest.approx(2.0, rel=0.3)

"""A finished request is freed by reference count, not found by the collector.

The coordinator's per-request record (its ``_Request``, the
``RequestContext`` every stage is handed) is the argument of the timers armed
for it.  If the record also kept the handles of those timers it would sit in
a reference cycle — record -> ``Event`` -> ``args`` -> record — that drags
the result, the response list and the bound methods along, and only the
cyclic collector could free any of it: 8.9 collector-only objects per
operation on every stack (``method``, ``tuple``, ``Event``, ``_InFlight``,
``RequestContext``, ``list``, ``ReadResult``, ``ReplicaReadResponse``; the
first and second are one record now).  ``_Request.close()`` drops each
handle it cancels, so the last reference to a finished request is its
timer's corpse, and the request dies when that leaves the heap or the wheel
(PERFORMANCE.md rule 14).  Both tests run with the collector off, so
anything it alone could free is still there to be counted.

About 311 ``function``/``cell``/``tuple`` objects per run used to be left over
even with the cycle broken.  Background-write closures were the suspect; they
are not it.  The objects are the self-referential local functions of
``inspect._signature_fromstr`` and ``ast.literal_eval``, run once per process
when numpy imports ``numpy.ma`` lazily, as the first ``np.percentile`` call
did when the gauge samples went through it.  The import is made up front
here, so the bound below measures the request path alone.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import numpy.ma  # noqa: F401  (see the module docstring)
import pytest
from test_middleware_tail_latency import make_cluster
from test_request_path_digests import DURATION, STACKS, _config, crash_and_partition_campaign

from repro.middleware import HEDGED_PIPELINE
from repro.runner import Simulation
from repro.simulation import Simulator

MAX_COLLECTED_PER_OP = 0.2


@pytest.fixture
def collector_off():
    """Run the test with the cyclic collector off (explicit collections only)."""
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("health", ("healthy", "faulted"))
@pytest.mark.parametrize("stack", STACKS)
def test_the_collector_finds_nothing_a_run_left_behind(stack, health, collector_off):
    config = _config(stack)
    if health == "faulted":
        config.faults = crash_and_partition_campaign(DURATION, 5)
    simulation = Simulation(config)
    gc.collect()  # whatever building the scenario left is not the run's
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what is found, to name it
    simulation.run()
    found = gc.collect()
    offenders = Counter(type(item).__name__ for item in gc.garbage)
    coordinator = simulation.cluster.coordinator
    issued = coordinator.reads_started + coordinator.writes_started
    assert issued >= 2000
    assert found < MAX_COLLECTED_PER_OP * issued, (
        f"{found} collector-only objects after {issued} operations "
        f"({found / issued:.2f} per operation): {offenders.most_common(12)}"
    )


@pytest.mark.parametrize("middleware", (None, HEDGED_PIPELINE), ids=("heap", "wheel"))
def test_a_finished_request_dies_when_its_timeout_corpse_is_popped(
    middleware, collector_off
):
    simulator = Simulator(seed=11)
    cluster = make_cluster(simulator, middleware=middleware)
    # ``None`` arms the timeout on the heap; the hedged stack on its wheel.
    assert (cluster.coordinator._timers is not None) is (middleware is not None)
    cluster.write("key", b"v")
    simulator.run_until(5.0)

    finished = []
    cluster.read("key", on_complete=lambda result: finished.append(weakref.ref(result)))
    issued_at = simulator.now
    simulator.run_until(issued_at + 0.5)
    (record,) = finished
    # Answered long before the timeout: only the cancelled timer, still
    # parked until its deadline, holds the request's records now.
    assert record() is not None and record().success
    simulator.run_until(issued_at + 2.0 * cluster.coordinator.config.operation_timeout)
    assert record() is None

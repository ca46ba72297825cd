"""Isolated per-layer drivers (``run.py --layers``; ROADMAP item 1's bench_layers).

Each driver times one layer's public entry point directly, with everything
around it stubbed by no-op callbacks, and reports calibrated nanoseconds per
call as ``<layer>.iso_ns_per_call``.  These are the "what would this layer
cost if nothing else existed" figures: compare them with the layer's share in
a workload's traced pass to see how much of that share is the layer's own
work and how much is what it calls.  About ten seconds in total.

The inputs are fixed (no seed): the drivers exist to compare two commits, not
two scenarios.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.cluster.ring import HashRing
from repro.cluster.storage import StorageEngine
from repro.cluster.types import ConsistencyLevel, OperationType
from repro.cluster.versioning import VersionedValue, VersionStamp
from repro.middleware import RequestContext
from repro.monitoring.percentiles import MergeableHistogramSketch
from repro.runner import Simulation, SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.network import NetworkModel
from repro.simulation.randomness import RandomStreams
from repro.simulation.resources import QueueingServer
from repro.workload.distributions import ZipfianKeys

from measure import HostClock

__all__ = ["DRIVERS", "main"]

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _noop(*args: object) -> None:
    pass


def _kernel() -> Tuple[Callable[[], object], int]:
    """Bare schedule/fire through 512 self-rescheduling chains, 1-in-5 cancels.

    The shape of the kernel section of benchmarks/bench_kernel.py.
    """
    events = 150_000
    simulator = Simulator(seed=0)
    fired = [0]

    def make_chain(index: int) -> Callable[[], None]:
        state = [index * 2654435761 % 1_000_003]

        def fire() -> None:
            fired[0] += 1
            if fired[0] >= events:
                return
            state[0] = (state[0] * 48271 + 11) % 1_000_003
            delay = 1e-6 + (state[0] / 1_000_003) * 1e-3
            if fired[0] % 5 == 0:
                simulator.schedule_in(delay * 2.0, _noop).cancel()
            simulator.schedule_in(delay, fire)

        return fire

    for index in range(512):
        simulator.schedule_in(1e-6 * (index + 1), make_chain(index))
    return (lambda: simulator.run_until(1e9)), events


def _network() -> Tuple[Callable[[], object], int]:
    """``NetworkModel.send`` to delivery of a no-op, 500 messages in flight."""
    batches, batch = 160, 500
    simulator = Simulator(seed=0)
    network = NetworkModel(simulator)

    def run() -> None:
        send = network.send
        for _ in range(batches):
            for _ in range(batch):
                send("node-1", "node-2", _noop)
            simulator.run_until(simulator.now + 1.0)

    return run, batches * batch


def _queueing() -> Tuple[Callable[[], object], int]:
    """``QueueingServer.submit`` through service to the completion callback."""
    batches, batch = 160, 250
    simulator = Simulator(seed=0)
    server = QueueingServer(simulator, "iso", service_rate=1.0)

    def run() -> None:
        submit = server.submit
        for _ in range(batches):
            for _ in range(batch):
                submit(0.001, _noop)
            simulator.run_until(simulator.now + 10.0)

    return run, batches * batch


def _storage() -> Tuple[Callable[[], object], int]:
    """``StorageEngine.apply`` of ever-newer versions over 10k keys."""
    writes = 120_000
    engine = StorageEngine("iso")
    versions = [
        (
            f"user{index % 10_000:08d}",
            VersionedValue(VersionStamp(float(index), index), b"\x00" * 64, index, 1024),
        )
        for index in range(writes)
    ]

    def run() -> None:
        apply = engine.apply
        for key, version in versions:
            apply(key, version)

    return run, writes


def _ring() -> Tuple[Callable[[], object], int]:
    """``HashRing.preference_list`` on a warm ring (every key seen before)."""
    lookups = 200_000
    ring = HashRing()
    for index in range(3):
        ring.add_node(f"node-{index + 1}")
    keys = [f"user{index:08d}" for index in range(10_000)]
    for key in keys:
        ring.preference_list(key, 3)

    def run() -> None:
        preference_list = ring.preference_list
        for index in range(lookups):
            preference_list(keys[index % 10_000], 3)

    return run, lookups


def _pipeline() -> Tuple[Callable[[], object], int]:
    """Default-stack dispatch of the three hooks a read pays before fan-out.

    ``on_request``, ``required_acks`` and ``select_read_targets``; a call is
    one hook dispatch.
    """
    requests = 60_000
    cluster = Simulation(SimulationConfig(seed=0)).cluster
    pipeline = cluster.pipeline
    live = list(cluster.node_ids())

    ctx = RequestContext(
        key="user00000001",
        operation=OperationType.READ,
        is_read=True,
        coordinator_id=live[0],
        replication_factor=3,
        requested_level=ConsistencyLevel.ONE,
        consistency_level=ConsistencyLevel.ONE,
    )

    def run() -> None:
        for _ in range(requests):
            pipeline.on_request(ctx)
            required = pipeline.required_acks(ctx, 3)
            pipeline.select_read_targets(ctx, live, required)

    return run, requests * 3


def _zipf_scalar() -> Tuple[Callable[[], object], int]:
    """``ZipfianKeys.next_index``: the interleaved scalar draw path."""
    draws = 40_000
    distribution = ZipfianKeys(10_000, theta=0.99)
    rng = RandomStreams(0).stream("iso:keys")

    def run() -> None:
        next_index = distribution.next_index
        for _ in range(draws):
            next_index(rng)

    return run, draws


def _zipf_chunked() -> Tuple[Callable[[], object], int]:
    """``ZipfianKeys.next_indices`` in chunks of 4096: the per-stream path."""
    chunks, chunk = 250, 4096
    distribution = ZipfianKeys(10_000, theta=0.99)
    rng = RandomStreams(0).stream("iso:keys")

    def run() -> None:
        for _ in range(chunks):
            distribution.next_indices(rng, chunk)

    return run, chunks * chunk


def _sketch() -> Tuple[Callable[[], object], int]:
    """``MergeableHistogramSketch.observe`` of latencies between 1 and 100 ms."""
    samples = 200_000
    sketch = MergeableHistogramSketch()
    values = [0.001 + (index * 7919 % 1000) * 1e-4 for index in range(samples)]

    def run() -> None:
        observe = sketch.observe
        for value in values:
            observe(value)

    return run, samples


#: metric name -> driver; each driver returns ``(timed callable, calls made)``.
DRIVERS: Dict[str, Callable[[], Tuple[Callable[[], object], int]]] = {
    "simulation.engine.iso_ns_per_call": _kernel,
    "simulation.network.iso_ns_per_call": _network,
    "simulation.resources.iso_ns_per_call": _queueing,
    "cluster.replica.iso_ns_per_call": _storage,
    "cluster.placement.iso_ns_per_call": _ring,
    "middleware.iso_ns_per_call": _pipeline,
    "workload.zipf_scalar.iso_ns_per_call": _zipf_scalar,
    "workload.zipf_chunked.iso_ns_per_call": _zipf_chunked,
    "monitoring.sketch.iso_ns_per_call": _sketch,
}


def main() -> int:
    clock = HostClock()
    rows: List[Dict[str, object]] = []
    print(f"{'metric':<44} {'ns/call (cal)':>14} {'ns/call (raw)':>14} {'calls':>9}  what")
    for name, driver in DRIVERS.items():
        run, calls = driver()
        _, raw_s, cal_s = clock.timed(run)
        row = {
            "name": name,
            "unit": "ns",
            "value": cal_s / calls * 1e9,
            "raw_ns_per_call": raw_s / calls * 1e9,
            "calls": calls,
        }
        rows.append(row)
        what = driver.__doc__.splitlines()[0]
        print(
            f"{name:<44} {row['value']:>14.1f} {row['raw_ns_per_call']:>14.1f} {calls:>9d}  {what}"
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "layers.json").write_text(json.dumps(rows, indent=2) + "\n")
    return 0

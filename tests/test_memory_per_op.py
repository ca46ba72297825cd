"""Retained memory per operation on the default stack (PERFORMANCE.md rule 15).

What a run keeps per operation is its samples: 16 bytes in one of the
workload's two latency series, 16 more per read for the staleness observer's
flag, 16 per closed window, plus the slack of columns that double.  Measured
with ``tracemalloc`` over five simulated minutes this is about 80 bytes; a
second copy of a per-operation sample as boxed floats in lists (which is how
each one was held, three times over, at 157 bytes) does not fit under the
ceiling.

What the data set keeps per preloaded record has its own ceiling (rule 17),
below.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.runner import Simulation, SimulationConfig

BYTES_PER_OPERATION_CEILING = 110.0
BYTES_PER_RECORD_CEILING = 800.0


def test_retained_bytes_per_operation_on_the_default_stack():
    simulation = Simulation(SimulationConfig(seed=42, duration=330.0))
    simulation.run_until(30.0)
    issued_before = simulation.workload.stats.operations_issued
    gc.collect()
    tracemalloc.start()
    try:
        simulation.run_until(330.0)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    operations = simulation.workload.stats.operations_issued - issued_before
    assert operations > 20_000
    assert retained / operations <= BYTES_PER_OPERATION_CEILING


def test_retained_bytes_per_preloaded_record_on_the_default_config():
    """671 bytes a record at RF 3 (1,301 while every replica also kept a
    ``VersionHistory`` per key that nothing read, and each record its own
    payload and its own owner tuple):

    * the ring, 199: the key's entry in ``_preference_cache`` with its
      ``(key, rf)`` tuple (86) and its entry in ``hash_key``'s memo with the
      64-bit position (113); the owner tuple is its token range's, shared;
    * the ack registry, 141: a dict entry, the one-pair list and its
      ``(ack_time, stamp)`` pair;
    * the version, 221: the ``VersionStamp`` with its sequence number (95) and
      the ``VersionedValue`` (64), one of each for the three replicas, and
      their three ``_data`` entries (62);
    * the key string (57), its boxed size (32) and its ``known_keys`` entry
      (21); the payload is shared.

    The next per-record structure has to argue with this number.
    """
    simulation = Simulation(SimulationConfig(seed=42))
    gc.collect()
    tracemalloc.start()
    try:
        loaded = simulation.workload.preload()
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == 10_000
    assert retained / loaded <= BYTES_PER_RECORD_CEILING

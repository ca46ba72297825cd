"""Retained memory per operation on the default stack (PERFORMANCE.md rule 15).

What a run keeps per operation is its samples: 16 bytes in one of the
workload's two latency series, 16 more per read for the staleness observer's
flag, 16 per closed window, plus the slack of columns that double.  Measured
with ``tracemalloc`` over five simulated minutes this is about 80 bytes; a
second copy of a per-operation sample as boxed floats in lists (which is how
each one was held, three times over, at 157 bytes) does not fit under the
ceiling.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.runner import Simulation, SimulationConfig

BYTES_PER_OPERATION_CEILING = 110.0


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

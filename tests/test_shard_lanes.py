"""The lanes a parallel sharded run forks.

A lane is a process forked from the caller, so it starts from the caller's
state instead of re-importing the caller's ``__main__``: a script without a
``__main__`` guard runs its top level once, and a script read from standard
input works at all.  A run forks at most one lane per core this process may
use, and on a platform without ``fork`` the parallel path refuses with an
error that points at the serial one.  A run that forks no lane never loads
``multiprocessing`` or ``concurrent.futures``.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import SimulationConfig
from repro.simulation import sharding
from repro.simulation.errors import SimulationError
from repro.simulation.sharding import run_sharded
from repro.workload.generator import WorkloadSpec
from repro.workload.load_shapes import ConstantLoad

# No ``__main__`` guard, read from standard input: the line before the run
# must print once, and the two-lane run must merge to the serial figures.
_UNGUARDED_SCRIPT = """
import json
print("top level ran")
from repro.runner import SimulationConfig
from repro.simulation import sharding
from repro.workload.generator import WorkloadSpec
from repro.workload.load_shapes import ConstantLoad
sharding.MAX_WORKERS = 2
config = SimulationConfig(
    seed=13,
    duration=20.0,
    label="stdin",
    workload=WorkloadSpec(record_count=400, load_shape=ConstantLoad(40.0)),
)
parallel = sharding.run_sharded(config, 2, parallel=True)
serial = sharding.run_sharded(config, 2, parallel=False)
print(json.dumps(parallel.merged, sort_keys=True) == json.dumps(serial.merged, sort_keys=True))
"""


def short_config() -> SimulationConfig:
    return SimulationConfig(
        seed=13,
        duration=20.0,
        label="lanes",
        workload=WorkloadSpec(record_count=300, load_shape=ConstantLoad(40.0)),
    )


def test_an_unguarded_script_on_stdin_runs_its_top_level_once():
    source = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-"],
        input=_UNGUARDED_SCRIPT,
        env={**os.environ, "PYTHONPATH": source},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["top level ran", "True"]


# The lane runner is replaced by one that records ``workers`` and runs the
# jobs here, in order: these tests start no process.
# ``cores=None``: no ``sched_getaffinity`` (macOS, Windows), two CPUs.
@pytest.mark.parametrize(
    "cores, max_workers, lanes", ((2, None, 2), (64, None, 3), (64, 1, 1), (None, None, 2))
)
def test_a_run_forks_one_lane_per_usable_core(monkeypatch, cores, max_workers, lanes):
    seen = []

    def run_in_lanes(jobs, workers):
        seen.append(workers)
        return [job() for job in jobs]

    monkeypatch.setattr(sharding, "_run_in_lanes", run_in_lanes)
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cores)))
    monkeypatch.setattr(sharding, "MAX_WORKERS", max_workers)
    config = short_config()
    parallel = run_sharded(config, 3, parallel=True)
    assert seen == [lanes]
    assert parallel.merged == run_sharded(config, 3, parallel=False).merged


def test_without_fork_the_parallel_path_points_at_the_serial_one(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(SimulationError, match="--serial-shards"):
        run_sharded(short_config(), 3, parallel=True)


def test_without_sched_getaffinity_the_parallel_path_still_points_at_the_serial_one(monkeypatch):
    # macOS and Windows have no ``sched_getaffinity``: counting cores must
    # not fail first, or a platform without fork never hears of the serial path.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(SimulationError, match="--serial-shards"):
        run_sharded(short_config(), 3, parallel=True)


def test_a_classic_run_loads_neither_multiprocessing_nor_concurrent_futures():
    # Only a run that forks lanes needs them; every other run would carry
    # their modules in its resident set.
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "sys.argv = ['repro', 'run', '--duration', '5', '--seed', '3']\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    source = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": source},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]"]

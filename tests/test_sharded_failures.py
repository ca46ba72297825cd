"""A failed shard names itself.

``run_sharded`` used to surface a shard's failure anonymously: the serial
path raised from inside ``run_shard``, a raising worker gave the remote
exception with no shard index, and a dying worker a bare
``BrokenProcessPool``.  Every path now raises one
:class:`~repro.simulation.errors.ShardError` that names the shard, ``K`` and
the cause, and a parallel run leaves no lane process behind.

The failure is injected through the plan of one shard alone: its load shape
is replaced by one that raises, raises an exception that cannot be pickled,
or kills its process, the first time the workload asks it for a rate.  The
forked lanes inherit the patched plan, so nothing here needs to pickle.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import re
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cluster import ClusterConfig, ConfigurationError
from repro.runner import Simulation, SimulationConfig
from repro.simulation import sharding
from repro.simulation.errors import ShardError, SimulationError
from repro.simulation.sharding import plan_shards, run_sharded
from repro.workload.generator import WorkloadSpec
from repro.workload.load_shapes import ConstantLoad, LoadShape

SHARDS = 2
FAILING = 1


class LockedError(Exception):
    """An exception that cannot be pickled: it holds a lock."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.lock = threading.Lock()


class SabotagedLoad(LoadShape):
    """Raises (``"raise"``), raises an unpicklable exception (``"lock"``) or
    kills the process with exit code 3 (``"die"``) when asked a rate."""

    def __init__(self, mode: str) -> None:
        self._mode = mode

    def rate(self, t: float) -> float:
        if self._mode == "die":
            os._exit(3)
        if self._mode == "lock":
            raise LockedError("sabotaged while holding a lock")
        raise RuntimeError("sabotaged load shape")


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        seed=13,
        duration=20.0,
        label="shard-failure",
        workload=WorkloadSpec(record_count=400, load_shape=ConstantLoad(40.0)),
    )


@pytest.fixture
def deadline():
    """Turn a parallel run that hangs (a lane holding another lane's pipe
    write end never lets the parent see EOF) into a failure after 60 s."""

    def expire(_signum, _frame):
        raise TimeoutError("the parallel run hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def sabotage(monkeypatch, config: SimulationConfig, mode: str, failing: int = FAILING) -> None:
    """Make ``run_sharded`` plan ``config`` with shard ``failing`` sabotaged."""
    plans = plan_shards(config, SHARDS)
    plans[failing] = dataclasses.replace(
        plans[failing],
        workload=dataclasses.replace(
            plans[failing].workload, load_shape=SabotagedLoad(mode)
        ),
    )
    monkeypatch.setattr(sharding, "plan_shards", lambda _config, _shards: plans)


def assert_names_the_shard(error: ShardError, cause_type: type, failing: int = FAILING) -> None:
    assert isinstance(error, SimulationError)
    assert (error.index, error.shards) == (failing, SHARDS)
    assert f"shard {failing} of {SHARDS}" in str(error)
    assert cause_type.__name__ in str(error)
    assert isinstance(error.__cause__, cause_type)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("order", ([0, 1], [1, 0]))
def test_serial_shard_that_raises_is_named(monkeypatch, config, order):
    sabotage(monkeypatch, config, "raise")
    monkeypatch.setattr(sharding, "SHARD_ORDER", order)
    with pytest.raises(ShardError) as caught:
        run_sharded(config, SHARDS, parallel=False)
    assert_names_the_shard(caught.value, RuntimeError)
    assert "sabotaged load shape" in str(caught.value)


def test_parallel_shard_that_raises_is_named(monkeypatch, config):
    sabotage(monkeypatch, config, "raise")
    with pytest.raises(ShardError) as caught:
        run_sharded(config, SHARDS, parallel=True)
    assert_names_the_shard(caught.value, RuntimeError)
    assert "sabotaged load shape" in str(caught.value)


def test_an_exception_that_cannot_be_pickled_keeps_its_name_and_message(monkeypatch, config):
    sabotage(monkeypatch, config, "lock")
    with pytest.raises(ShardError) as caught:
        run_sharded(config, SHARDS, parallel=True)
    assert_names_the_shard(caught.value, RuntimeError)
    assert "LockedError: sabotaged while holding a lock" in str(caught.value)


# Shard 0 dying while lane 1 still runs is the case a lane holding another
# lane's pipe end would turn into a hang.
@pytest.mark.parametrize("failing", (0, 1))
@pytest.mark.usefixtures("deadline")
def test_parallel_shard_whose_worker_dies_is_named(monkeypatch, config, failing):
    sabotage(monkeypatch, config, "die", failing)
    with pytest.raises(ShardError) as caught:
        run_sharded(config, SHARDS, parallel=True)
    assert_names_the_shard(caught.value, BrokenProcessPool, failing)
    assert "exited with code 3" in str(caught.value)


@pytest.mark.usefixtures("deadline")
def test_a_capped_pool_still_names_the_shard_that_died(monkeypatch, config):
    # One worker for both shards: shard 0 finishes, then shard 1 kills it.
    sabotage(monkeypatch, config, "die")
    monkeypatch.setattr(sharding, "MAX_WORKERS", 1)
    with pytest.raises(ShardError) as caught:
        run_sharded(config, SHARDS, parallel=True)
    assert_names_the_shard(caught.value, BrokenProcessPool)
    assert "exited with code 3" in str(caught.value)


# A shard's cluster is lifted to the replication factor, so planning used to
# accept a cluster the classic run refuses and ran 3-node shards.
@pytest.mark.parametrize("parallel", (False, True))
@pytest.mark.usefixtures("deadline")
def test_a_cluster_the_classic_run_refuses_is_refused_before_any_shard_runs(parallel):
    config = SimulationConfig(duration=5.0, cluster=ClusterConfig(initial_nodes=2))
    refusal = re.escape("replication_factor cannot exceed the number of initial nodes (3 > 2)")
    with pytest.raises(ConfigurationError, match=refusal):
        Simulation(config)
    with pytest.raises(ConfigurationError, match=refusal):
        run_sharded(config, SHARDS, parallel=parallel)
    assert multiprocessing.active_children() == []

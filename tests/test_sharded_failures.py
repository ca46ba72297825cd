"""A failed shard names itself.

``run_sharded`` used to surface a shard's failure anonymously: the serial
path raised from inside ``run_shard``, a raising worker gave the remote
exception with no shard index, and a dying worker a bare
``BrokenProcessPool``.  Every path now raises one
:class:`~repro.simulation.errors.ShardError` that names the shard, ``K`` and
the cause.

The failure is injected through the plan of shard 1 alone: its load shape is
replaced by one that raises, or kills its process, the first time the
workload asks it for a rate.  The shape is a module-level class so that a
spawned worker can unpickle it.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runner import SimulationConfig
from repro.simulation import sharding
from repro.simulation.errors import ShardError, SimulationError
from repro.simulation.sharding import plan_shards, run_sharded
from repro.workload.generator import WorkloadSpec
from repro.workload.load_shapes import ConstantLoad, LoadShape

SHARDS = 2
FAILING = 1


class SabotagedLoad(LoadShape):
    """Raises (``"raise"``) or kills the process (``"die"``) when asked a rate."""

    def __init__(self, mode: str) -> None:
        self._mode = mode

    def rate(self, t: float) -> float:
        if self._mode == "die":
            os._exit(3)
        raise RuntimeError("sabotaged load shape")


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        seed=13,
        duration=20.0,
        label="shard-failure",
        workload=WorkloadSpec(record_count=400, load_shape=ConstantLoad(40.0)),
    )


def sabotage(monkeypatch, config: SimulationConfig, mode: str) -> None:
    """Make ``run_sharded`` plan ``config`` with shard ``FAILING`` sabotaged."""
    plans = plan_shards(config, SHARDS)
    plans[FAILING] = dataclasses.replace(
        plans[FAILING],
        workload=dataclasses.replace(
            plans[FAILING].workload, load_shape=SabotagedLoad(mode)
        ),
    )
    monkeypatch.setattr(sharding, "plan_shards", lambda _config, _shards: plans)


def assert_names_the_shard(error: ShardError, cause_type: type) -> None:
    assert isinstance(error, SimulationError)
    assert (error.index, error.shards) == (FAILING, SHARDS)
    assert f"shard {FAILING} of {SHARDS}" in str(error)
    assert cause_type.__name__ in str(error)
    assert isinstance(error.__cause__, cause_type)


@pytest.mark.parametrize("order", ([0, 1], [1, 0]))
def test_serial_shard_that_raises_is_named(monkeypatch, config, order):
    sabotage(monkeypatch, config, "raise")
    monkeypatch.setattr(sharding, "SHARD_ORDER", order)
    with pytest.raises(ShardError) as caught:
        run_sharded(config, SHARDS, parallel=False)
    assert_names_the_shard(caught.value, RuntimeError)
    assert "sabotaged load shape" in str(caught.value)


@pytest.mark.slow
def test_parallel_shard_that_raises_is_named(monkeypatch, config):
    sabotage(monkeypatch, config, "raise")
    with pytest.raises(ShardError) as caught:
        run_sharded(config, SHARDS, parallel=True)
    assert_names_the_shard(caught.value, RuntimeError)
    assert "sabotaged load shape" in str(caught.value)


@pytest.mark.slow
def test_parallel_shard_whose_worker_dies_is_named(monkeypatch, config):
    sabotage(monkeypatch, config, "die")
    with pytest.raises(ShardError) as caught:
        run_sharded(config, SHARDS, parallel=True)
    assert_names_the_shard(caught.value, BrokenProcessPool)


@pytest.mark.slow
def test_a_capped_pool_still_names_the_shard_that_died(monkeypatch, config):
    # One worker for both shards: shard 0 finishes, then shard 1 kills it.
    sabotage(monkeypatch, config, "die")
    monkeypatch.setattr(sharding, "MAX_WORKERS", 1)
    with pytest.raises(ShardError) as caught:
        run_sharded(config, SHARDS, parallel=True)
    assert_names_the_shard(caught.value, BrokenProcessPool)

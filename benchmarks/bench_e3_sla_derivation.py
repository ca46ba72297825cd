"""Benchmark / regeneration target for experiment E3 (SLA-derived configuration).

Regenerates the "deriving consistency-related parameters from the SLA" grid
(experiment E3, paper research question 2).  The assertions check
the qualitative shape: the strict SLA pushes the controller to stricter
consistency levels (or extra capacity) than the relaxed SLA, and the relaxed
SLA stays cheap.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark

from repro.cluster import ConsistencyLevel
from repro.experiments import e3_sla_derivation


def _strictness(level_name: str) -> int:
    return ConsistencyLevel(level_name).strictness


def test_e3_sla_derivation(benchmark):
    result = run_experiment_benchmark(benchmark, e3_sla_derivation, "E3")
    table = result.tables[0]
    assert len(table) == 9

    by_sla = {}
    for row in table.rows:
        by_sla.setdefault(row["sla"], []).append(row)

    strict_effort = sum(
        _strictness(row["final_read_cl"]) + _strictness(row["final_write_cl"]) + row["final_nodes"]
        for row in by_sla["strict"]
    )
    relaxed_effort = sum(
        _strictness(row["final_read_cl"]) + _strictness(row["final_write_cl"]) + row["final_nodes"]
        for row in by_sla["relaxed"]
    )
    # The strict SLA must cost more effort (stricter levels and/or more nodes).
    assert strict_effort >= relaxed_effort

    # The controller actually reconfigured something somewhere in the grid.
    total_actions = sum(row["consistency_actions"] + row["scaling_actions"] for row in table.rows)
    assert total_actions > 0

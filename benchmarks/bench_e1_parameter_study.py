"""Benchmark / regeneration target for experiment E1 (parameter study).

Regenerates the table "inconsistency window versus load, cluster size,
replication factor and read consistency level" (experiment E1,
paper research-plan task 1).  The assertions check the qualitative shape the
paper's problem statement predicts: the window grows with load and shrinks
with added capacity, and quorum reads suppress client-observed staleness.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark

from repro.experiments import e1_parameter_study


def test_e1_parameter_study(benchmark):
    result = run_experiment_benchmark(benchmark, e1_parameter_study, "E1")
    table = result.tables[0]

    load_rows = [row for row in table.rows if row["sweep"] == "load"]
    assert len(load_rows) >= 3
    # Window grows with offered load (compare the lightest and heaviest points).
    assert load_rows[-1]["window_p95_ms"] > load_rows[0]["window_p95_ms"]

    node_rows = sorted(
        (row for row in table.rows if row["sweep"] == "nodes"), key=lambda r: r["nodes"]
    )
    # Adding nodes at the same offered load lowers utilisation.
    assert node_rows[-1]["mean_utilization"] < node_rows[0]["mean_utilization"]

    cl_rows = {row["read_cl"]: row for row in table.rows if row["sweep"] == "read_consistency"}
    if "ONE" in cl_rows and "QUORUM" in cl_rows:
        # Stricter read levels mask staleness from clients but cost latency.
        assert cl_rows["QUORUM"]["stale_fraction"] <= cl_rows["ONE"]["stale_fraction"]
        assert cl_rows["QUORUM"]["read_p95_ms"] >= cl_rows["ONE"]["read_p95_ms"]

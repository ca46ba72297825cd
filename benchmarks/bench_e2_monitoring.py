"""Benchmark / regeneration target for experiment E2 (monitoring efficiency).

Regenerates the "accuracy versus overhead of inconsistency-window estimators"
table (experiment E2, paper research question 1).  The assertions
check the qualitative shape: probing cost scales with the probe rate, the
passive estimators inject zero extra operations, and every estimator produced
periodic estimates.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark

from repro.experiments import e2_monitoring


def test_e2_monitoring(benchmark):
    result = run_experiment_benchmark(benchmark, e2_monitoring, "E2")
    table = result.tables[0]

    probe_rows = sorted(
        (row for row in table.rows if row["estimator"] == "probe"),
        key=lambda row: row["probe_interval_s"],
    )
    assert len(probe_rows) >= 2
    # More frequent probing issues more probe operations and a larger load share.
    assert probe_rows[0]["probe_ops"] > probe_rows[-1]["probe_ops"]
    assert probe_rows[0]["probe_load_fraction"] >= probe_rows[-1]["probe_load_fraction"]

    passive_rows = [row for row in table.rows if row["estimator"] in ("piggyback", "rtt")]
    assert passive_rows
    for row in passive_rows:
        assert row["probe_ops"] == 0
        assert row["probe_load_fraction"] == 0.0

    for row in table.rows:
        assert row["estimates"] > 0

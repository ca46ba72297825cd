"""Benchmark / regeneration target for experiment E6 (predictive scaling).

Regenerates the forecaster-comparison table (experiment E6, the
"smart" half of the paper's title): reactive threshold scaling versus
forecast-based scaling with EWMA, Holt-Winters and autoregressive
forecasters on a flash-crowd-heavy trace.  The assertions check the expected
shape: every variant scales, and the best predictive variant spends no more
time above the utilisation ceiling (i.e. is never later with capacity) than
the reactive baseline.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark

from repro.experiments import e6_predictive


def test_e6_predictive(benchmark):
    result = run_experiment_benchmark(benchmark, e6_predictive, "E6")
    table = result.tables[0]
    rows = {row["variant"]: row for row in table.rows}
    assert set(rows) == {
        "reactive",
        "predictive_ewma",
        "predictive_holt_winters",
        "predictive_ar",
    }

    # Every policy scaled out at least once for the surges.
    for row in rows.values():
        assert row["scale_out_actions"] >= 1

    reactive = rows["reactive"]
    best_predictive_lateness = min(
        rows[name]["seconds_above_ceiling"]
        for name in ("predictive_ewma", "predictive_holt_winters", "predictive_ar")
    )
    # Forecast-based provisioning is never later with capacity than reacting.
    assert best_predictive_lateness <= reactive["seconds_above_ceiling"] + 1e-6

    best_predictive_violation = min(
        rows[name]["violation_seconds"]
        for name in ("predictive_ewma", "predictive_holt_winters", "predictive_ar")
    )
    assert best_predictive_violation <= reactive["violation_seconds"] + 1e-6

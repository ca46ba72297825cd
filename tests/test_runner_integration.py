"""End-to-end integration tests of the Simulation façade and experiment plumbing."""

from __future__ import annotations

import pytest

from repro import (
    ClusterConfig,
    ConstantLoad,
    NodeConfig,
    Simulation,
    SimulationConfig,
    StepLoad,
    WorkloadSpec,
)
from repro.core.controller import ControllerConfig
from repro.experiments.tables import ExperimentResult, ResultTable
from repro.workload import BALANCED


def small_config(seed=1, duration=180.0, rate=60.0, policy="static", nodes=3, capacity=150.0):
    config = SimulationConfig(
        seed=seed,
        duration=duration,
        cluster=ClusterConfig(
            initial_nodes=nodes,
            replication_factor=3,
            node=NodeConfig(ops_capacity=capacity),
        ),
        workload=WorkloadSpec(
            record_count=500, operation_mix=BALANCED, load_shape=ConstantLoad(rate)
        ),
        label=f"test-{policy}",
    )
    config.controller = ControllerConfig(policy=policy, evaluation_interval=20.0)
    return config


def test_simulation_end_to_end_produces_consistent_report():
    simulation = Simulation(small_config())
    report = simulation.run()
    assert report.duration == pytest.approx(180.0)
    assert report.events_processed > 1000
    workload = report.workload_summary
    assert workload["operations_issued"] > 0
    assert workload["operations_completed"] <= workload["operations_issued"]
    assert report.ground_truth_window["windows_opened"] > 0
    assert report.cost.node_hours == pytest.approx(3 * 180.0 / 3600.0, rel=0.05)
    assert report.final_configuration["node_count"] == 3
    headline = report.headline()
    assert headline["total_cost"] > 0
    nested = report.as_dict()
    assert nested["label"] == "test-static"
    assert "sla" in nested


def test_simulation_is_deterministic_for_a_seed():
    report_a = Simulation(small_config(seed=7, duration=120.0)).run()
    report_b = Simulation(small_config(seed=7, duration=120.0)).run()
    assert report_a.workload_summary == report_b.workload_summary
    assert report_a.ground_truth_window == report_b.ground_truth_window
    report_c = Simulation(small_config(seed=8, duration=120.0)).run()
    assert report_c.workload_summary != report_a.workload_summary


def test_simulation_run_can_only_be_called_once():
    simulation = Simulation(small_config(duration=60.0))
    simulation.run()
    with pytest.raises(RuntimeError):
        simulation.run()


@pytest.mark.slow
def test_controller_policy_changes_cluster_size_under_step_load():
    config = small_config(seed=3, duration=500.0, policy="reactive_threshold", capacity=120.0)
    config.workload.load_shape = StepLoad(before_rate=40.0, after_rate=200.0, step_time=120.0)
    simulation = Simulation(config)
    report = simulation.run()
    assert report.final_configuration["node_count"] > 3
    assert report.controller_summary["scale_out_actions"] >= 1
    # Billing must reflect the extra nodes.
    assert report.cost.node_hours > 3 * 500.0 / 3600.0


@pytest.mark.slow
def test_sla_driven_beats_static_on_violations_under_stress():
    static = Simulation(small_config(seed=5, duration=420.0, rate=170.0, policy="static")).run()
    adaptive = Simulation(
        small_config(seed=5, duration=420.0, rate=170.0, policy="sla_driven")
    ).run()
    assert adaptive.controller_summary["actions_executed"] >= 1
    assert (
        adaptive.sla_summary["violation_seconds"] <= static.sla_summary["violation_seconds"]
    )


def test_report_contains_estimates_and_overhead_when_enabled():
    report = Simulation(small_config(duration=120.0)).run()
    assert set(report.estimator_estimates) == {"probe", "piggyback", "rtt"}
    assert report.monitoring_overhead["probe"]["probe_operations"] > 0


# ----------------------------------------------------------------------
# Result tables
# ----------------------------------------------------------------------
def test_result_table_rendering():
    table = ResultTable("demo", ["name", "value"])
    table.add_row({"name": "a", "value": 1.23456})
    table.add_row({"name": "b", "value": 12345.6})
    text = table.render()
    assert "demo" in text
    assert "a" in text and "b" in text
    assert len(table) == 2
    assert [row["name"] for row in table.rows] == ["a", "b"]
    with pytest.raises(ValueError):
        ResultTable("empty", [])


def test_experiment_result_rendering():
    result = ExperimentResult(experiment="EX", description="demo experiment")
    table = result.add_table(ResultTable("t", ["a"]))
    table.add_row({"a": 1})
    result.add_note("a note")
    text = result.render()
    assert "EX" in text
    assert "a note" in text


def test_run_until_stops_workload_at_duration_and_reports_idempotently():
    simulation = Simulation(SimulationConfig(seed=5, duration=40.0))
    simulation.run_until(20.0)
    first = simulation.build_report()
    again = simulation.build_report()
    # Same state, same bill: build_report() must not double-charge.
    assert again.cost.total_cost == first.cost.total_cost
    assert again.cost.monitoring_cost == first.cost.monitoring_cost
    assert simulation.workload._running  # still mid-run

    simulation.run_until(40.0)  # reaching the duration stops the workload
    assert not simulation.workload._running
    final = simulation.build_report()
    final_again = simulation.build_report()
    assert final_again.cost.total_cost == final.cost.total_cost
    assert final.duration >= first.duration


def test_a_set_up_that_preloads_before_run_reports_what_run_alone_does():
    """``s.workload.preload(); s.run()`` (the ledger worker's set-up followed
    by the documented entry point) used to load the data set twice: 10,000
    more sizes drawn on the workload's base stream, every record re-stamped."""
    alone = Simulation(SimulationConfig(seed=42, duration=30.0)).run()
    for entry_point in ("run", "run_until"):
        prepared = Simulation(SimulationConfig(seed=42, duration=30.0))
        assert prepared.workload.preload() == 10_000
        if entry_point == "run":
            report = prepared.run()
        else:
            prepared.run_until(30.0)
            report = prepared.build_report()
        assert report.events_processed == alone.events_processed
        assert report.as_dict() == alone.as_dict()


def test_run_until_overshoot_matches_run_workload():
    reference = Simulation(SimulationConfig(seed=5, duration=40.0))
    reference.run()
    stepped = Simulation(SimulationConfig(seed=5, duration=40.0))
    stepped.run_until(100.0)  # overshoot: arrivals must still stop at 40 s
    assert (
        stepped.workload.stats.operations_issued
        == reference.workload.stats.operations_issued
    )
    assert not stepped.workload._running


def test_run_until_can_keep_stepping_past_the_duration():
    simulation = Simulation(SimulationConfig(seed=5, duration=10.0))
    simulation.run_until(15.0)
    issued_at_stop = simulation.workload.stats.operations_issued
    simulation.run_until(20.0)  # must not try to rewind to the duration
    simulation.run_until(25.0)
    assert simulation.simulator.now >= 25.0
    assert simulation.workload.stats.operations_issued == issued_at_stop
    simulation.build_report()  # checkpointing between steps stays safe

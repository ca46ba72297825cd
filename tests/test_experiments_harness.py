"""The experiment harness: its registry, and what E1–E9 claim.

The paper is a doctoral-symposium proposal with no evaluation section, so the
nine experiments *are* this reproduction's results.  Each has one ``slow``
test here that runs it once, asserts the qualitative shape its research
question predicts, and holds the rendered tables to a golden digest so a
headline cannot drift silently.

The digests are sha256 over ``ExperimentResult.render()`` (every table and
note, cells at the precision the tables print), captured at 2ee20d6.  An
experiment's table moves only when the simulation underneath it does: if one
moves on purpose, re-capture it and say why in the commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import ConsistencyLevel
from repro.experiments import (
    EXPERIMENTS,
    e1_parameter_study,
    e8_noisy_neighbour,
    e9_resilience,
)
from repro.experiments.tables import ExperimentResult
from repro.middleware import HEDGED_PIPELINE
from repro.runner import Simulation, SimulationConfig
from repro.simulation.interference import InterferenceConfig

#: (seed, scale) each experiment is run at.  E7–E9 floor their duration at
#: 240–300 simulated seconds, so a smaller scale would not shorten them.
POINTS = {
    **{experiment: (1, 0.35) for experiment in ("E1", "E2", "E3", "E4", "E5", "E6")},
    "E7": (7, 0.4),
    "E8": (7, 0.4),
    "E9": (7, 0.5),
}

GOLDEN = {
    "E1": "defeac4d65edb2faf93fe69a27da220dc8135074272d650f0db0262a1f420ada",
    "E2": "0c78beeb9c60a03a9ccbe61be1bba6f0aa85171b8a49ab789ef99c87046548df",
    "E3": "48acad5f0a1ff9508eefb0ebcb86ee73f5c92f1fab7bae26af144e9552863894",
    "E4": "c0a0050d372baaac2679634a340336cfa049b9afb67c49bf75f30cc4a5a3b0f4",
    "E5": "cef3cb907125f921bcf195f2fcdb7f58449b99fb4b0c816dd218184650c63209",
    "E6": "64e76c9239f8dcbff660aa0bd591eace56ae72b11a12f3167fcfe0063dfe9c84",
    "E7": "ac8c2f2f344ded6f228e461d49aa491e0c4f617fbce48088597087cb18b1012d",
    "E8": "c7c0744dd8696cb3a6485e710903bd853bfae145f41f104d0d47a12e4352526b",
    "E9": "a3ae759640ebb111e04f40281fc895d1fb5c33c7b21150f5b55484ae627c3b50",
}


def _run(experiment: str) -> ExperimentResult:
    seed, scale = POINTS[experiment]
    return EXPERIMENTS[experiment].run(seed=seed, scale=scale)


def _assert_pinned(result: ExperimentResult) -> None:
    """Last in each test: a broken claim is reported before a moved digest."""
    rendered = result.render()
    digest = hashlib.sha256(rendered.encode()).hexdigest()
    assert digest == GOLDEN[result.experiment], f"{result.experiment} moved:\n{rendered}"


def _by(table, column):
    return {row[column]: row for row in table.rows}


def test_experiment_registry_is_complete():
    assert set(EXPERIMENTS) == set(POINTS) == set(GOLDEN)
    for module in EXPERIMENTS.values():
        assert hasattr(module, "run")


@pytest.mark.slow
def test_e1_small_grid_produces_expected_rows():
    result = e1_parameter_study.run(
        seed=9,
        scale=0.34,  # 120-second runs
        rates=(60.0, 140.0),
        node_counts=(3,),
        replication_factors=(2,),
        read_levels=(ConsistencyLevel.ONE,),
    )
    assert isinstance(result, ExperimentResult)
    table = result.tables[0]
    assert len(table) == 5  # 2 load points + 1 node point + 1 RF point + 1 CL point
    # The load sweep must show the window growing with load.
    load_rows = [row for row in table.rows if row["sweep"] == "load"]
    assert load_rows[0]["offered_rate"] < load_rows[1]["offered_rate"]
    assert load_rows[1]["window_p95_ms"] > load_rows[0]["window_p95_ms"]
    # Utilisation should also grow with load.
    assert load_rows[1]["mean_utilization"] > load_rows[0]["mean_utilization"]
    # Rendering works and contains the sweep labels.
    text = result.render()
    assert "E1" in text and "load" in text


@pytest.mark.slow
def test_e1_window_grows_with_load_and_quorum_reads_mask_staleness():
    """Research-plan task 1: the inconsistency window against load, cluster
    size, replication factor and read consistency level."""
    result = _run("E1")
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

    cl_rows = {
        row["read_cl"]: row for row in table.rows if row["sweep"] == "read_consistency"
    }
    # Stricter read levels mask staleness from clients but cost latency.
    assert cl_rows["QUORUM"]["stale_fraction"] <= cl_rows["ONE"]["stale_fraction"]
    assert cl_rows["QUORUM"]["read_p95_ms"] >= cl_rows["ONE"]["read_p95_ms"]
    _assert_pinned(result)


@pytest.mark.slow
def test_e2_probing_cost_scales_with_rate_and_passive_estimators_are_free():
    """Research question 1: accuracy against overhead of the window estimators."""
    result = _run("E2")
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
    _assert_pinned(result)


def _effort(rows) -> int:
    """Consistency strictness plus node count the controller ended on."""
    return sum(
        ConsistencyLevel(row["final_read_cl"]).strictness
        + ConsistencyLevel(row["final_write_cl"]).strictness
        + row["final_nodes"]
        for row in rows
    )


@pytest.mark.slow
def test_e3_strict_sla_costs_more_effort_than_relaxed():
    """Research question 2: deriving the configuration from the SLA."""
    result = _run("E3")
    table = result.tables[0]
    assert len(table) == 9

    by_sla = {}
    for row in table.rows:
        by_sla.setdefault(row["sla"], []).append(row)
    # The strict SLA must cost more effort (stricter levels and/or more nodes).
    assert _effort(by_sla["strict"]) >= _effort(by_sla["relaxed"])

    # The controller actually reconfigured something somewhere in the grid.
    assert sum(row["consistency_actions"] + row["scaling_actions"] for row in table.rows) > 0
    _assert_pinned(result)


@pytest.mark.slow
def test_e4_reconfiguration_transients_and_stability_guard():
    """Research question 3: what each action costs while it runs, and whether
    the guarded controller converges without oscillating."""
    result = _run("E4")
    action_table, stability_table = result.tables

    def after(action):
        for row in action_table.rows:
            if row["action"] == action and row["phase"] == "after":
                return row
        raise AssertionError(f"missing row {action}/after")

    # Adding a node lowers steady-state utilisation relative to doing nothing.
    baseline_after = after("baseline_no_action")
    add_after = after("add_node")
    assert add_after["mean_utilization"] < baseline_after["mean_utilization"]

    # Strengthening reads costs read latency in steady state.
    assert after("read_cl_one_to_quorum")["read_p95_ms"] > baseline_after["read_p95_ms"] * 0.9

    # Removing a node raises utilisation on the survivors.
    assert after("remove_node")["mean_utilization"] > add_after["mean_utilization"]

    # Stability ablation: the guarded controller executes no more scaling
    # actions than the unguarded one and never oscillates more.
    variants = _by(stability_table, "variant")
    guarded, unguarded = variants["guard_enabled"], variants["guard_disabled"]
    assert guarded["actions_executed"] <= unguarded["actions_executed"]
    assert guarded["direction_flips"] <= unguarded["direction_flips"]
    _assert_pinned(result)


@pytest.mark.slow
def test_e5_sla_driven_beats_static_on_violations_and_peak_provisioning_on_cost():
    """Sections 3–4: five policies serving the same diurnal day with a flash crowd."""
    result = _run("E5")
    rows = _by(result.tables[0], "policy")
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
    _assert_pinned(result)


@pytest.mark.slow
def test_e6_forecasting_is_never_later_with_capacity_than_reacting():
    """The "smart" half of the title: reactive against forecast-based scaling."""
    result = _run("E6")
    rows = _by(result.tables[0], "variant")
    predictive = ("predictive_ewma", "predictive_holt_winters", "predictive_ar")
    assert set(rows) == {"reactive", *predictive}

    # Every policy scaled out at least once for the surges.
    for row in rows.values():
        assert row["scale_out_actions"] >= 1

    reactive = rows["reactive"]
    # Forecast-based provisioning is never later with capacity than reacting.
    assert (
        min(rows[name]["seconds_above_ceiling"] for name in predictive)
        <= reactive["seconds_above_ceiling"] + 1e-6
    )
    assert (
        min(rows[name]["violation_seconds"] for name in predictive)
        <= reactive["violation_seconds"] + 1e-6
    )
    _assert_pinned(result)


@pytest.mark.slow
def test_e7_hedging_cuts_the_read_tail_and_cancels_its_timers_in_the_wheel():
    """The data-plane claim: under fail-slow interference the hedged stack's
    hedges fire and its read p99 does not exceed the default stack's."""
    result = _run("E7")
    rows = _by(result.tables[0], "variant")
    hedged, default = rows["hedged"], rows["default"]
    assert hedged["hedges_fired"] > 0, "no hedge fired under fail-slow"
    assert hedged["read_p99_ms"] <= default["read_p99_ms"]

    # E7's table does not show *how* the hedge timers are paid for: a short
    # hedged run must route them through the TimerService and cancel most of
    # them in the wheel, before they ever reach the heap.
    simulation = Simulation(
        SimulationConfig(
            seed=7,
            duration=120.0,
            middleware=HEDGED_PIPELINE,
            interference=InterferenceConfig(
                noisy_neighbour_probability=0.3,
                noisy_neighbour_severity=0.25,
            ),
        )
    )
    simulation.run()
    stats = simulation.cluster.coordinator.timer_stats()
    assert stats["timers_wheeled"] > 0, "wheel never engaged"
    assert stats["timers_cancelled"] > stats["timers_promoted"], (
        "lazy cancel did not dominate promotion"
    )
    _assert_pinned(result)


@pytest.mark.slow
def test_e8_admission_control_isolates_co_tenants_and_the_default_stack_does_not():
    """With admission control the co-tenant read p99 under a tenant burst stays
    within ISOLATION_BOUND of the unloaded baseline; the default stack exceeds it."""
    result = _run("E8")
    rows = _by(result.tables[0], "variant")
    assert rows["admission"]["isolation_ratio"] <= e8_noisy_neighbour.ISOLATION_BOUND
    assert rows["default"]["isolation_ratio"] > e8_noisy_neighbour.ISOLATION_BOUND
    _assert_pinned(result)


@pytest.mark.slow
def test_e9_hedging_absorbs_a_gray_failure_campaign_the_default_stack_pays_for():
    """Under the deterministic campaign the hedged stack's read p99 stays within
    HEDGED_RESILIENCE_BOUND of its healthy baseline (the default stack exceeds
    it), and the default stack degrades at least RECOVERY_FACTOR times as much."""
    result = _run("E9")
    rows = _by(result.tables[0], "variant")
    hedged, default = rows["hedged"], rows["default"]
    assert hedged["degradation_ratio"] <= e9_resilience.HEDGED_RESILIENCE_BOUND
    assert default["degradation_ratio"] > e9_resilience.HEDGED_RESILIENCE_BOUND
    assert default["p99_delta_ms"] >= e9_resilience.RECOVERY_FACTOR * hedged["p99_delta_ms"]
    _assert_pinned(result)

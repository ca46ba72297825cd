"""Tests of the ledger itself.

    python -m pytest benchmarks/ledger -q        (about 25 s)

``pytest.ini`` keeps the tier-1 suite on ``tests/``; these run only when the
directory is named.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
for path in (str(ROOT / "src"), str(LEDGER_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from calibrate import NOMINAL_BURST_S  # noqa: E402
from measure import SEGMENTS, calibrated_seconds, segment_edges  # noqa: E402
from metrics import END_TO_END, PER_LAYER, benchmark_json_lists  # noqa: E402
from tracing import LAYERS, EventMix, layer_of_module  # noqa: E402
from worker import digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.runner import Simulation  # noqa: E402


# ----------------------------------------------------------------------
# The estimator, on synthetic timings
# ----------------------------------------------------------------------
def _synthetic(drift: float, spikes: dict):
    """64 segments whose true cost follows a load phase, on a host that slows
    down linearly to ``drift`` x, with isolated spikes on some segments."""
    true_cost = [0.10 + 0.05 * (20 <= index < 40) for index in range(SEGMENTS)]
    slowness = [1.0 + (drift - 1.0) * index / SEGMENTS for index in range(SEGMENTS + 1)]
    bursts = [NOMINAL_BURST_S * factor for factor in slowness]
    segments = [
        cost * (slowness[index] + slowness[index + 1]) / 2.0 * spikes.get(index, 1.0)
        for index, cost in enumerate(true_cost)
    ]
    return sum(true_cost), segments, bursts


def test_estimator_removes_a_2x_speed_drift():
    truth, segments, bursts = _synthetic(drift=2.0, spikes={})
    assert sum(segments) > 1.4 * truth  # raw wall is far off
    assert calibrated_seconds(segments, bursts) == pytest.approx(truth, rel=0.01)


def test_estimator_drops_isolated_spikes_but_follows_load_phases():
    truth, segments, bursts = _synthetic(drift=2.0, spikes={5: 4.0, 30: 3.0, 31: 3.0, 60: 5.0})
    assert calibrated_seconds(segments, bursts) == pytest.approx(truth, rel=0.01)
    # The 20-segment load phase is not mistaken for a spike.
    flat_truth = 0.10 * SEGMENTS
    assert calibrated_seconds(segments, bursts) > 1.1 * flat_truth


def test_estimator_survives_a_hiccup_in_one_burst():
    truth, segments, bursts = _synthetic(drift=1.0, spikes={})
    bursts[10] *= 6.0
    assert calibrated_seconds(segments, bursts) == pytest.approx(truth, rel=0.01)


def test_estimator_wants_a_burst_around_every_segment():
    with pytest.raises(ValueError):
        calibrated_seconds([0.1, 0.1], [0.02, 0.02])


def test_segment_edges_end_exactly_at_the_end():
    edges = segment_edges(0.0, 800.0)
    assert len(edges) == SEGMENTS and edges[-1] == 800.0
    assert edges == sorted(edges)


# ----------------------------------------------------------------------
# The file -> layer fold
# ----------------------------------------------------------------------
def test_every_module_of_the_program_is_assigned_to_a_layer():
    package = ROOT / "src" / "repro"
    modules = sorted(path.relative_to(package).as_posix() for path in package.rglob("*.py"))
    assert len(modules) > 80
    unassigned = [module for module in modules if layer_of_module(module) is None]
    assert not unassigned, f"assign these to a layer in tracing.py: {unassigned}"
    assert {layer_of_module(module) for module in modules} <= set(LAYERS)


def test_event_classes_partition_the_labels_the_source_sets():
    mix = EventMix()
    hook = mix.hook()
    labels = {
        "net:node-1->node-2": "net",
        "server:node-1:finish": "service",
        "workload:arrival": "arrival",
        "workload:tenant-burst:190": "arrival",
        "read:timeout": "timer",
        "write:timeout": "timer",
        "read:hedge": "timer",
        "timer:tick": "timer",
        "controller:round": "background",
        None: "background",
    }
    for label in labels:
        hook(0.0, label)
    expected = {name: 0 for name in ("net", "service", "arrival", "timer", "background")}
    for name in labels.values():
        expected[name] += 1
    assert mix.by_class() == expected


# ----------------------------------------------------------------------
# BENCHMARK.json says what the code does, within the driver's limits
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_dictionary_and_the_contract():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["benchmarks/ledger"]
    assert document["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    lists = benchmark_json_lists()
    assert document["end_to_end"] == lists["end_to_end"]
    assert document["per_layer"] == lists["per_layer"]

    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w.name for w in WORKLOADS] + [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m.unit) for m in END_TO_END + PER_LAYER)
    assert all("\n" not in w.why and len(w.why) <= 200 for w in WORKLOADS)
    assert 2 <= len(WORKLOADS) <= 8 and len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    assert all(0.0 < m.bound <= 0.25 for m in END_TO_END)
    setup = {m.name: m for m in END_TO_END}["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


# ----------------------------------------------------------------------
# Segmenting the run changes nothing that is simulated
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload", [w for w in WORKLOADS if not w.shards], ids=lambda w: w.name
)
def test_segmented_run_has_the_digest_of_a_single_run_until(workload):
    simulation = Simulation(workload.build(7, 60.0))
    simulation.workload.preload()
    simulation.workload.start()
    for edge in segment_edges(0.0, 60.0):
        simulation.simulator.run_until(edge)
    simulation.workload.stop()
    segmented = digest(simulation.build_report().as_dict())
    # Simulation.run() advances with one run_until(duration).
    assert segmented == digest(Simulation(workload.build(7, 60.0)).run().as_dict())


# ----------------------------------------------------------------------
# Exact metrics are exact: two processes, two hash seeds
# ----------------------------------------------------------------------
def test_exact_metrics_and_call_counts_do_not_depend_on_the_hash_seed():
    passes = [
        run._spawn_pass("hedged_failslow", seed=5, seconds=0.4, trace=True, hash_seed=seed)
        for seed in ("0", "12345")
    ]
    for result in passes:
        assert result["problems"] == []
    first, second = (result["per_layer"] for result in passes)
    exact = [m.name for m in PER_LAYER if m.kind in ("exact", "sim")]
    assert "trace.calls_per_op" in exact and len(exact) > 50
    assert {name: first[name] for name in exact} == {name: second[name] for name in exact}
    assert first["trace.calls_per_op"] > 100
    assert first["simulation.timers.armed_per_op"] > 0
    assert passes[0]["info"]["sim_digest"] == passes[1]["info"]["sim_digest"]
    assert passes[0]["raw"] == passes[1]["raw"]

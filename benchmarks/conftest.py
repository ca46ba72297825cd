"""Shared helpers for the benchmark suite.

Every benchmark runs one experiment from :mod:`repro.experiments` exactly once
(``rounds=1, iterations=1`` — these are system simulations, not micro
benchmarks), renders its result tables, stores them under
``benchmarks/results/`` and prints them so the captured benchmark output is
the regenerated experiment table.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

#: Scale factor applied to every experiment when run from the benchmark suite.
#: 1.0 runs every experiment at its full duration; the default is reduced so
#: the whole suite completes in a few minutes.
BENCH_SCALE = 0.35

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_experiment_benchmark(benchmark, module, experiment_id: str, seed: int = 1, **kwargs):
    """Run one experiment once under pytest-benchmark and persist its tables."""
    result_holder = {}

    def _run():
        result_holder["result"] = module.run(seed=seed, scale=BENCH_SCALE, **kwargs)
        return result_holder["result"]

    benchmark.pedantic(_run, rounds=1, iterations=1)
    result = result_holder["result"]

    RESULTS_DIR.mkdir(exist_ok=True)
    rendered = result.render()
    (RESULTS_DIR / f"{experiment_id.lower()}.txt").write_text(rendered + "\n")
    print(f"\n{rendered}\n", file=sys.stderr)
    return result

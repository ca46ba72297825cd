"""The tenant rollup and E8 against a listener that keeps its own samples.

A tenant's and a tier's read latencies are slices of the workload's one read
series, selected by its tenant column.  The reference is a completion
listener that keeps the last
``TIER_LATENCY_WINDOW`` successful reads of each tier in a deque and every
read of each tenant in a list, in completion order.  Both must give the same
figures, bit for bit, on the admission cell of the request-path digests and
on a short run of E8's default-stack variant (the burst starts at 60 s).
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np
import pytest

from repro.cluster.cluster import ClusterListener
from repro.experiments import e8_noisy_neighbour as e8
from repro.monitoring.metrics import TIER_LATENCY_WINDOW
from repro.runner import Simulation
from repro.simulation.timeseries import exact_percentiles

from test_request_path_digests import _config


class _ReferenceReads(ClusterListener):
    def __init__(self, simulation):
        self._tier_of = simulation.workload.population.tier_lookup()
        self.by_tier = defaultdict(lambda: deque(maxlen=TIER_LATENCY_WINDOW))
        self.by_tenant = defaultdict(list)
        simulation.cluster.add_listener(self)

    def on_operation_completed(self, result):
        if result.tenant is None or not result.success or not result.is_read:
            return
        self.by_tier[self._tier_of[result.tenant]].append(result.latency)
        self.by_tenant[result.tenant].append(result.latency)

    def tier_summary(self, slos):
        summary = {}
        for tier, window in sorted(self.by_tier.items()):
            p50, p95, p99 = exact_percentiles(np.fromiter(window, float))
            summary[tier] = {
                "count": float(len(window)),
                "read_p50_ms": p50 * 1000.0,
                "read_p95_ms": p95 * 1000.0,
                "read_p99_ms": p99 * 1000.0,
                "read_p99_slo_ms": slos[tier],
                "slo_met": 1.0 if p99 * 1000.0 <= slos[tier] else 0.0,
            }
        return summary


def _p99_ms(latencies):
    return exact_percentiles(np.asarray(latencies, dtype=float), (99.0,))[0] * 1000.0


@pytest.mark.parametrize(
    "scenario", ("admission_cell", "e8_default"), ids=("admission_cell", "e8_default")
)
def test_tier_and_tenant_latencies_match_a_listener_that_keeps_its_own(scenario):
    config = _config("admission") if scenario == "admission_cell" else e8._config(
        "default", seed=7, duration=90.0
    )
    simulation = Simulation(config)
    reference = _ReferenceReads(simulation)
    simulation.run()
    stats = simulation.workload.stats
    population = simulation.workload.population
    assert sum(map(len, reference.by_tenant.values())) == stats.reads_completed > 1000
    # The window drops reads: some tier completed more than it holds.
    tier_of = population.tier_lookup()
    reads_per_tier = defaultdict(int)
    for tenant_id, reads in reference.by_tenant.items():
        reads_per_tier[tier_of[tenant_id]] += len(reads)
    assert max(reads_per_tier.values()) > TIER_LATENCY_WINDOW

    slos = {tier.name: tier.read_p99_slo_ms for tier in population.spec.tiers}
    assert simulation.tenant_rollup.tier_summary() == reference.tier_summary(slos)

    indices = np.arange(len(population))
    for tenant_id, entry in stats.tenant_stats.items():
        mine = stats.read_latencies_of(indices == entry.index)
        assert mine.tolist() == reference.by_tenant.get(tenant_id, [])
        assert _p99_ms(mine) == _p99_ms(reference.by_tenant.get(tenant_id, []))

    noisy_id = population.profile(e8._NOISY_INDEX).tenant_id
    pooled = [
        latency
        for tenant_id, reads in reference.by_tenant.items()
        if tenant_id != noisy_id
        for latency in reads
    ]
    assert e8._read_p99_ms(stats, noisy=True) == _p99_ms(reference.by_tenant[noisy_id])
    assert e8._read_p99_ms(stats, noisy=False) == _p99_ms(pooled)

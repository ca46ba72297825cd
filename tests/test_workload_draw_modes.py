"""Golden digests for the workload generator's draw modes.

The generator has four modes — {interleaved draws on one stream, chunked
draws on per-type streams} × {tenantless, tenant population with burst
overrides} — and only the interleaved tenantless one is pinned by
``tests/test_seed_identity.py``.  This matrix pins all four on two mixes,
one that inserts (tenantless inserts grow the shared popularity
distribution, tenant inserts only their private key space) and one that
does not (the key space never grows), with a consistency override (so hint
dicts are part of what is pinned).

Each digest covers everything the generator hands to the rest of the system:
the preloaded records, the exact ``(time, kind, key, size, hints)`` sequence
issued to the cluster, per-tenant issued counts, the labels of the
generator's own events, the set of RNG streams opened, and the *next* draw of
every opened stream (so a draw that moved between streams, or an extra draw
that did not change an issued operation, still shows).

The values were captured at commit f91bc59, before the issue paths were
merged into one, and re-captured once when the ``network`` and ``server:*``
probes began reading ``normals()`` (the payload without those probes hashes
as it did).  The ``balanced`` cells were captured at commit 8f4ff0c, before
the unused key distributions were deleted.  A change to the generator must
not move them.  If one moves on purpose (a new scenario mode would use new
stream names instead — PERFORMANCE.md rule 3), re-capture it and say why in
the commit.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

import repro.workload.generator as generator_module
from repro.cluster import Cluster, ClusterConfig, NodeConfig
from repro.cluster.types import ConsistencyLevel
from repro.simulation import Simulator
from repro.workload import (
    BALANCED,
    WRITE_HEAVY,
    ConstantLoad,
    FlashCrowdLoad,
    TenantSpec,
    WorkloadGenerator,
    WorkloadSpec,
)

GOLDEN = {
    ("write_heavy", "interleaved", "tenantless"): (
        "c8993a50eca1215ecc036cf6f3a870a1e480bbc1b79f1d08897aacf3b515590a"
    ),
    ("write_heavy", "interleaved", "tenants"): (
        "6e11ecd0f082bb8fbf1d7815d5ffd95f0d6b9e09ee6c42f303f0fb8c8db1febb"
    ),
    ("write_heavy", "chunked", "tenantless"): (
        "094f722d5aaaa880dad05a7154178c4c0f0eb0bdd92cad15d709874edd2aaaeb"
    ),
    ("write_heavy", "chunked", "tenants"): (
        "2b34afacb0c3fdf29f64b5c04087b9923f33788b35032488b81f3879ed28869b"
    ),
    ("balanced", "interleaved", "tenantless"): (
        "4a2b245a45a433a9ba848c055a71589d0d1263687304e5a4543e756c68e540f3"
    ),
    ("balanced", "interleaved", "tenants"): (
        "d8065691bfc30819fd62a20f296eb1df2d0eb654c483c2fbe5ccf8476c7300a0"
    ),
    ("balanced", "chunked", "tenantless"): (
        "acd337c56ef8ab8242110636581a0befc21062c173a7c71bd805dd68eedfa4b3"
    ),
    ("balanced", "chunked", "tenants"): (
        "7558d393151493496da9868dbd662eddad9bfed4431c01e60b86a6b07b4a495e"
    ),
}


def _tenant_spec() -> TenantSpec:
    return TenantSpec(
        tenants=7,
        records_per_tenant=30,
        load_shape_overrides={
            # Starts quiescent (idle polls, no draw), spikes, then decays
            # back to quiescent before the run ends.
            5: FlashCrowdLoad(
                base_rate=0.0,
                spike_rate=40.0,
                spike_start=4.0,
                ramp_duration=2.0,
                hold_duration=8.0,
                decay_duration=3.0,
            ),
            2: ConstantLoad(15.0),
        },
    )


def _hints_view(hints):
    if hints is None:
        return None
    return sorted((name, getattr(value, "value", value)) for name, value in hints.items())


def _next_draw(streams, name: str) -> float:
    """The next value stream ``name``'s consumer would get.

    Every draw of the network jitter and of a server's service noise is a
    lognormal of its stream's next standard normal.  Read a chunk at a time
    through ``streams.normals``, such a stream's generator sits at a chunk
    boundary after a run, so the probe reads the shared source's next normal.
    """
    if name == "network" or name.startswith("server:"):
        return streams.normals(name)()
    return float(streams.stream(name).random())


MIXES = {"write_heavy": WRITE_HEAVY, "balanced": BALANCED}


def run_cell(monkeypatch, mix: str, draws: str, tenancy: str) -> str:
    """Run one cell of the matrix and digest everything it emitted.

    The cells were recorded with the generator named ``golden`` and three
    quarters of the key space preloaded."""
    monkeypatch.setattr(generator_module, "WORKLOAD_NAME", "golden")
    monkeypatch.setattr(generator_module, "PRELOAD_FRACTION", 0.75)
    simulator = Simulator(seed=1234)
    cluster = Cluster(
        simulator,
        ClusterConfig(
            initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=2000.0)
        ),
    )
    preloaded = []
    issued = []
    real_preload, real_read, real_write = cluster.preload, cluster.read, cluster.write

    def preload(items, sizes=None):
        preloaded.append([(key, len(value), sizes[key]) for key, value in items.items()])
        return real_preload(items, sizes)

    def read(key, on_complete=None, hints=None):
        issued.append((simulator.now, "read", key, None, _hints_view(hints)))
        real_read(key, on_complete=on_complete, hints=hints)

    def write(key, value=b"", size=None, on_complete=None, hints=None):
        issued.append((simulator.now, "write", key, [len(value), size], _hints_view(hints)))
        real_write(key, value=value, size=size, on_complete=on_complete, hints=hints)

    cluster.preload, cluster.read, cluster.write = preload, read, write

    spec = WorkloadSpec(
        record_count=300,
        operation_mix=MIXES[mix],
        load_shape=ConstantLoad(60.0),
        consistency_overrides={"update": ConsistencyLevel.QUORUM},
        open_loop=(draws == "chunked"),
        tenants=_tenant_spec() if tenancy == "tenants" else None,
    )
    generator = WorkloadGenerator(simulator, cluster, spec)
    labels: Counter = Counter()

    def count_generator_events(_time, label):
        if label is not None and label.startswith("golden:"):
            labels[label] += 1

    simulator.add_trace_hook(count_generator_events)
    loaded = generator.preload()
    generator.start()
    simulator.run_until(25.0)
    generator.stop()

    tenant_stats = generator.stats.tenant_stats
    streams = simulator.streams.known_streams()
    payload = {
        "loaded": loaded,
        "preloaded": preloaded,
        "issued": issued,
        "totals": [generator.stats.reads_issued, generator.stats.writes_issued],
        "per_tenant": (
            None
            if tenant_stats is None
            else {
                tenant: [entry.reads_issued, entry.writes_issued]
                for tenant, entry in sorted(tenant_stats.items())
            }
        ),
        "labels": sorted(labels.items()),
        "streams": streams,
        "next_draws": [_next_draw(simulator.streams, name) for name in streams],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mix,draws,tenancy", sorted(GOLDEN))
def test_draw_mode_digest_is_unchanged(monkeypatch, mix, draws, tenancy):
    assert run_cell(monkeypatch, mix, draws, tenancy) == GOLDEN[(mix, draws, tenancy)]


def test_matrix_cells_are_distinct():
    """Guards the harness itself: a digest blind to the mode pins nothing."""
    assert len(set(GOLDEN.values())) == len(GOLDEN)

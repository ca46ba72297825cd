"""Unit tests for the tenant population model and the multi-tenant workload.

The RNG discipline tests here enforce PERFORMANCE.md rule 3 for the tenant
feature: every tenant-related stochastic choice lives on a *new* named
stream (``workload:<name>:tenant`` for the tenant pick,
``workload:<name>:tenant:<index>`` for per-tenant burst processes), and a
tenantless seed-42 run is bit-identical whether or not the admission-control
stage is installed.
"""

from __future__ import annotations

import pytest

from repro import (
    ClusterConfig,
    ConstantLoad,
    NodeConfig,
    Simulation,
    SimulationConfig,
    WorkloadSpec,
)
from repro.cluster import Cluster
from repro.core.controller import ControllerConfig
from repro.middleware import ADMISSION_CONTROL_PIPELINE
from repro.simulation import Simulator
from repro.workload import (
    BALANCED,
    DEFAULT_TIERS,
    FlashCrowdLoad,
    TenantPopulation,
    TenantSpec,
    TenantTier,
    WorkloadGenerator,
)


# ----------------------------------------------------------------------
# TenantTier / TenantSpec validation
# ----------------------------------------------------------------------
def test_tenant_tier_validation():
    with pytest.raises(ValueError):
        TenantTier("", 0.5, quota_rate=10.0, quota_burst=20.0, read_p99_slo_ms=50.0)
    with pytest.raises(ValueError):
        TenantTier("gold", 0.0, quota_rate=10.0, quota_burst=20.0, read_p99_slo_ms=50.0)
    with pytest.raises(ValueError):
        TenantTier("gold", 0.5, quota_rate=0.0, quota_burst=20.0, read_p99_slo_ms=50.0)
    with pytest.raises(ValueError):
        TenantTier("gold", 0.5, quota_rate=10.0, quota_burst=20.0, read_p99_slo_ms=0.0)


def test_default_tiers_fractions_sum_to_one():
    assert sum(t.population_fraction for t in DEFAULT_TIERS) == pytest.approx(1.0)


def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec(tenants=0)
    with pytest.raises(ValueError):
        TenantSpec(popularity_skew=-0.1)
    with pytest.raises(ValueError):
        TenantSpec(records_per_tenant=0)
    with pytest.raises(ValueError):
        TenantSpec(tiers=())
    half = TenantTier("only", 0.5, quota_rate=10.0, quota_burst=20.0, read_p99_slo_ms=50.0)
    with pytest.raises(ValueError):
        TenantSpec(tiers=(half,))  # fractions must sum to 1.0
    dup = TenantTier("x", 0.5, quota_rate=10.0, quota_burst=20.0, read_p99_slo_ms=50.0)
    with pytest.raises(ValueError):
        TenantSpec(tiers=(dup, dup))  # duplicate tier names
    with pytest.raises(ValueError):
        TenantSpec(tenants=10, load_shape_overrides={10: ConstantLoad(1.0)})


# ----------------------------------------------------------------------
# TenantPopulation: determinism, popularity, tier assignment
# ----------------------------------------------------------------------
def test_population_is_deterministic_and_zipf_ordered():
    spec = TenantSpec(tenants=100, popularity_skew=1.1)
    a = TenantPopulation(spec)
    b = TenantPopulation(spec)
    assert [p.tenant_id for p in a.profiles] == [p.tenant_id for p in b.profiles]
    assert a._weights.tolist() == b._weights.tolist()
    assert a._weights.sum() == pytest.approx(1.0)
    # Rank order: most popular first, strictly decreasing for skew > 0.
    assert all(a._weights[i] > a._weights[i + 1] for i in range(len(a) - 1))
    # Zero skew degenerates to a uniform population.
    uniform = TenantPopulation(TenantSpec(tenants=10, popularity_skew=0.0))
    assert all(w == pytest.approx(0.1) for w in uniform._weights)


def test_tier_assignment_follows_popularity_rank():
    population = TenantPopulation(TenantSpec(tenants=100))
    counts = population.tier_counts()
    assert counts == {"gold": 5, "silver": 25, "bronze": 70}
    # Gold tenants are the most popular ranks, bronze the least popular.
    assert population.profile(0).tier.name == "gold"
    assert population.profile(4).tier.name == "gold"
    assert population.profile(5).tier.name == "silver"
    assert population.profile(99).tier.name == "bronze"
    lookup = population.tier_lookup()
    assert lookup[population.profile(0).tenant_id] == "gold"
    assert len(lookup) == 100


def test_tenant_identity_and_key_prefixes_are_disjoint():
    population = TenantPopulation(TenantSpec(tenants=12))
    ids = [p.tenant_id for p in population.profiles]
    assert len(set(ids)) == 12
    assert ids[0] == "t00"  # zero-padded to the population width
    prefixes = [p.key_prefix for p in population.profiles]
    assert prefixes[3] == "t3:user"
    assert len(set(prefixes)) == 12


def test_choose_index_maps_uniform_to_rank():
    population = TenantPopulation(TenantSpec(tenants=50, popularity_skew=1.1))
    assert population.choose_index(0.0) == 0
    assert population.choose_index(0.999999) == 49
    # Monotone: a larger uniform never selects a more popular rank.
    picks = [population.choose_index(u / 1000.0) for u in range(1000)]
    assert picks == sorted(picks)
    # The most popular tenant absorbs at least its weight's share.
    first_share = picks.count(0) / len(picks)
    assert first_share == pytest.approx(float(population._weights[0]), abs=0.01)


# ----------------------------------------------------------------------
# Generator in tenant mode: streams, preload, per-tenant accounting
# ----------------------------------------------------------------------
def make_tenant_generator(simulator, tenants=8, rate=100.0, overrides=None):
    cluster = Cluster(
        simulator,
        ClusterConfig(
            initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=2000.0)
        ),
    )
    spec = WorkloadSpec(
        operation_mix=BALANCED,
        load_shape=ConstantLoad(rate),
        tenants=TenantSpec(
            tenants=tenants,
            records_per_tenant=20,
            load_shape_overrides=overrides or {},
        ),
    )
    return cluster, WorkloadGenerator(simulator, cluster, spec)


def _next_draw(simulator, name):
    return float(simulator.streams.stream(name).random())


def test_tenant_draws_use_new_named_streams():
    """PERFORMANCE.md rule 3: tenant stochastic choices live on new streams."""
    pick, burst = "workload:workload:tenant", "workload:workload:tenant:3"
    fresh = Simulator(seed=42)
    untouched = {name: _next_draw(fresh, name) for name in (pick, burst)}

    def run(until):
        simulator = Simulator(seed=42)
        _cluster, generator = make_tenant_generator(
            simulator,
            tenants=8,
            overrides={3: FlashCrowdLoad(0.0, 50.0, 10.0, 5.0, 20.0, 5.0)},
        )
        before = set(simulator.streams.known_streams())
        generator.preload()
        generator.start()
        simulator.run_until(until)
        generator.stop()
        return simulator, before

    # Both streams exist as soon as the generator does, and running opens no
    # further workload stream: the burst owns one interleaved per-index
    # stream, not the chunked mode's four.
    simulator, before = run(5.0)
    assert {pick, burst} <= before
    opened = set(simulator.streams.known_streams())
    assert {name for name in opened if name.startswith("workload:")} == {
        "workload:workload",
        pick,
        burst,
    }
    # The tenant pick draws from its dedicated stream; the burst, still
    # quiescent before its spike at t=10, has polled without drawing.
    assert _next_draw(simulator, pick) != untouched[pick]
    assert _next_draw(simulator, burst) == untouched[burst]
    # Once the spike starts the burst draws from its own stream.
    simulator, _before = run(15.0)
    assert _next_draw(simulator, burst) != untouched[burst]

    # A tenantless generator opens none of them.
    plain_sim = Simulator(seed=42)
    _c, plain = make_plain_generator(plain_sim)
    plain.preload()
    plain.start()
    plain_sim.run_until(5.0)
    assert not any(":tenant" in name for name in plain_sim.streams.known_streams())
    assert plain.population is None
    assert plain.stats.tenant_stats is None


def make_plain_generator(simulator, rate=100.0):
    cluster = Cluster(
        simulator,
        ClusterConfig(
            initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=2000.0)
        ),
    )
    spec = WorkloadSpec(
        record_count=200, operation_mix=BALANCED, load_shape=ConstantLoad(rate)
    )
    return cluster, WorkloadGenerator(simulator, cluster, spec)


def test_tenant_preload_populates_each_tenant_key_space():
    simulator = Simulator(seed=5)
    cluster, generator = make_tenant_generator(simulator, tenants=4)
    loaded = generator.preload()
    assert loaded == 4 * 20
    for index in range(4):
        versions = cluster.replica_versions(f"t{index}:user0")
        assert any(v is not None for v in versions.values())


def test_tenant_stats_partition_the_totals():
    simulator = Simulator(seed=6)
    _cluster, generator = make_tenant_generator(simulator, tenants=6, rate=150.0)
    generator.preload()
    generator.start()
    simulator.run_until(20.0)
    stats = generator.stats
    tenants = stats.tenant_stats
    assert tenants is not None and len(tenants) == 6
    assert sum(t.operations_issued for t in tenants.values()) == stats.operations_issued
    assert stats.operations_issued == pytest.approx(150.0 * 20.0, rel=0.15)
    # Popularity skew shows up in traffic: rank 0 issues the most.
    by_rank = [
        tenants[generator.population.profile(i).tenant_id].operations_issued
        for i in range(6)
    ]
    assert by_rank[0] == max(by_rank)
    summary = stats.summary()
    assert summary["operations_rejected"] == 0
    assert summary["rejected_fraction"] == 0.0


def test_tenant_runs_are_deterministic_for_a_seed():
    def issued_by_tenant(seed):
        simulator = Simulator(seed=seed)
        _cluster, generator = make_tenant_generator(simulator, tenants=5, rate=120.0)
        generator.preload()
        generator.start()
        simulator.run_until(15.0)
        return {
            tenant: stats.operations_issued
            for tenant, stats in generator.stats.tenant_stats.items()
        }

    assert issued_by_tenant(11) == issued_by_tenant(11)
    assert issued_by_tenant(11) != issued_by_tenant(12)


def test_burst_override_adds_traffic_only_for_its_tenant():
    def run(overrides):
        simulator = Simulator(seed=13)
        _cluster, generator = make_tenant_generator(
            simulator, tenants=5, rate=80.0, overrides=overrides
        )
        generator.preload()
        generator.start()
        simulator.run_until(30.0)
        return {
            generator.population.profile(i).index: generator.stats.tenant_stats[
                generator.population.profile(i).tenant_id
            ].operations_issued
            for i in range(5)
        }

    burst = FlashCrowdLoad(
        base_rate=0.0,
        spike_rate=60.0,
        spike_start=5.0,
        ramp_duration=2.0,
        hold_duration=20.0,
        decay_duration=2.0,
    )
    calm = run({})
    noisy = run({4: burst})
    # The bursting tenant gains a large surplus; everyone else's organic
    # traffic is drawn from untouched streams and stays bit-identical.
    assert noisy[4] > calm[4] + 500
    for index in range(4):
        assert noisy[index] == calm[index]


# ----------------------------------------------------------------------
# Tenantless bit-identity (rule 3 end-to-end)
# ----------------------------------------------------------------------
def test_tenantless_run_is_bit_identical_with_admission_stage_installed():
    """Installing admission control on a tenantless stack changes nothing."""

    def run(middleware):
        config = SimulationConfig(
            seed=42,
            duration=120.0,
            cluster=ClusterConfig(
                initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=300.0)
            ),
            workload=WorkloadSpec(
                record_count=500, operation_mix=BALANCED, load_shape=ConstantLoad(80.0)
            ),
            controller=ControllerConfig(policy="static"),
            middleware=middleware,
        )
        return Simulation(config).run()

    plain = run(None)
    shielded = run(ADMISSION_CONTROL_PIPELINE)
    assert shielded.workload_summary == plain.workload_summary
    assert shielded.events_processed == plain.events_processed
    assert shielded.ground_truth_window == plain.ground_truth_window
    assert shielded.workload_summary["operations_rejected"] == 0


# ----------------------------------------------------------------------
# Open-loop tenant arrivals (per-tenant chunked streams; rule 3)
# ----------------------------------------------------------------------
def make_open_loop_generator(simulator, tenants=None, rate=100.0, overrides=None):
    cluster = Cluster(
        simulator,
        ClusterConfig(
            initial_nodes=3, replication_factor=3, node=NodeConfig(ops_capacity=2000.0)
        ),
    )
    spec = WorkloadSpec(
        record_count=200,
        operation_mix=BALANCED,
        load_shape=ConstantLoad(rate),
        open_loop=True,
        tenants=(
            TenantSpec(
                tenants=tenants,
                records_per_tenant=20,
                load_shape_overrides=overrides or {},
            )
            if tenants is not None
            else None
        ),
    )
    return cluster, WorkloadGenerator(simulator, cluster, spec)


def test_open_loop_tenant_run_partitions_stats_and_completes():
    simulator = Simulator(seed=13)
    _cluster, generator = make_open_loop_generator(simulator, tenants=6, rate=150.0)
    generator.preload()
    generator.start()
    simulator.run_until(20.0)
    stats = generator.stats
    assert stats.operations_issued > 0
    per_tenant = stats.tenant_stats
    assert per_tenant is not None and len(per_tenant) == 6
    assert sum(t.reads_issued for t in per_tenant.values()) == stats.reads_issued
    assert sum(t.writes_issued for t in per_tenant.values()) == stats.writes_issued
    assert stats.reads_completed + stats.writes_completed > 0


def test_open_loop_tenant_draws_use_dedicated_chunked_streams():
    """Rule 3: the open-loop tenant mode opens only its own new streams."""
    simulator = Simulator(seed=13)
    _cluster, generator = make_open_loop_generator(
        simulator,
        tenants=8,
        overrides={2: FlashCrowdLoad(0.0, 50.0, 10.0, 5.0, 20.0, 5.0)},
    )
    generator.preload()
    generator.start()
    simulator.run_until(15.0)
    opened = set(simulator.streams.known_streams())
    # Shared open-loop streams plus the chunked tenant pick.
    for name in (
        "workload:workload:gap",
        "workload:workload:mix",
        "workload:workload:key",
        "workload:workload:size",
        "workload:workload:tenant",
    ):
        assert name in opened, opened
    # The burst override owns four dedicated chunked streams...
    for suffix in ("gap", "mix", "key", "size"):
        assert f"workload:workload:tenant:2:{suffix}" in opened, opened
    # ...and the classic interleaved per-tenant stream is never opened.
    assert "workload:workload:tenant:2" not in opened


def test_open_loop_tenant_mode_keeps_shared_streams_tenantless_identical():
    """The tenant dimension must not reorder the shared open-loop draws.

    Both runs issue the same main-process arrival sequence, so after equal
    sim time each shared stream must sit at the same position — probed by
    comparing the *next* draw from each.
    """
    results = []
    for tenants in (None, 6):
        simulator = Simulator(seed=29)
        _cluster, generator = make_open_loop_generator(
            simulator, tenants=tenants, rate=120.0
        )
        generator.preload()
        generator.start()
        simulator.run_until(20.0)
        generator.stop()
        probes = tuple(
            float(simulator.streams.stream(f"workload:workload:{suffix}").random())
            for suffix in ("gap", "mix", "key", "size")
        )
        results.append((generator.stats.operations_issued, probes))
    (plain_issued, plain_probes), (tenant_issued, tenant_probes) = results
    assert tenant_issued == plain_issued
    assert tenant_probes == plain_probes


def test_tenantless_open_loop_never_opens_tenant_streams():
    simulator = Simulator(seed=29)
    _cluster, generator = make_open_loop_generator(simulator, tenants=None)
    generator.preload()
    generator.start()
    simulator.run_until(10.0)
    opened = simulator.streams.known_streams()
    assert not any(":tenant" in name for name in opened), opened


def test_open_loop_tenant_runs_are_deterministic_for_a_seed():
    def run():
        simulator = Simulator(seed=31)
        _cluster, generator = make_open_loop_generator(
            simulator,
            tenants=5,
            rate=120.0,
            overrides={1: FlashCrowdLoad(0.0, 60.0, 5.0, 4.0, 15.0, 4.0)},
        )
        generator.preload()
        generator.start()
        simulator.run_until(25.0)
        stats = generator.stats
        return (
            stats.operations_issued,
            stats.reads_completed,
            stats.writes_completed,
            tuple(
                (tid, t.reads_issued, t.writes_issued)
                for tid, t in sorted(stats.tenant_stats.items())
            ),
        )

    assert run() == run()


def test_open_loop_burst_override_adds_traffic_only_for_its_tenant():
    def issued_by_tenant(overrides):
        simulator = Simulator(seed=37)
        _cluster, generator = make_open_loop_generator(
            simulator, tenants=6, rate=100.0, overrides=overrides
        )
        generator.preload()
        generator.start()
        simulator.run_until(30.0)
        return {
            tid: t.operations_issued
            for tid, t in generator.stats.tenant_stats.items()
        }

    base = issued_by_tenant({})
    boosted = issued_by_tenant({4: ConstantLoad(60.0)})
    assert boosted["t4"] > base["t4"]
    # Other tenants' main-process traffic is untouched (dedicated streams).
    for tid in base:
        if tid != "t4":
            assert boosted[tid] == base[tid]

"""Workload specification and open-loop generator.

The generator drives the cluster with an open-loop (arrival-rate controlled)
stream of operations, the standard way to evaluate storage systems: arrivals
follow a non-homogeneous Poisson process whose intensity is given by the
spec's :class:`~repro.workload.load_shapes.LoadShape`, keys are drawn from
a Zipfian key popularity, and the read/update/insert decision follows the
spec's operation mix.  Arrivals never wait on completions.  Results are
recorded per operation so the harness can report client-observed latency,
throughput and error rates alongside the consistency metrics.

One issue routine serves every mode.  What varies is *when* operations
arrive (one arrival process per load shape), *where the randomness comes from*
(a draw source: interleaved on one stream, or chunked on one stream per draw
type) and *on whose behalf* they are issued (an issuer: a tenant's key space,
or the single tenantless one).  See ARCHITECTURE.md, "Workload generator".
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.errors import Settings, at_least
from ..cluster.types import ConsistencyLevel, ReadResult, WriteResult
from ..middleware.base import TENANT_HINT, TENANT_TIER_HINT
from ..middleware.overrides import CONSISTENCY_HINT
from ..simulation.engine import Simulator
from ..simulation.randomness import _CHUNK, RandomStreams, _chunked
from ..simulation.timeseries import TimeSeries
from .distributions import ZipfianKeys
from .load_shapes import ConstantLoad, LoadShape
from . import operations
from .operations import OperationMix, READ_HEAVY, RecordSizer
from .tenants import TenantPopulation, TenantProfile, TenantSpec

__all__ = [
    "CONSISTENCY_OVERRIDE_KINDS",
    "WorkloadSpec",
    "WorkloadStats",
    "TenantOpStats",
    "WorkloadGenerator",
]

#: Operation kinds that accept a per-kind consistency override (the single
#: source of truth for WorkloadSpec validation and the CLI flag).
CONSISTENCY_OVERRIDE_KINDS = ("read", "update", "insert")

#: The generator's name: its streams are ``workload:<name>...`` and its
#: event labels ``<name>:...``.
WORKLOAD_NAME = "workload"

#: Fraction of the key space inserted before the run starts.
PRELOAD_FRACTION = 1.0

#: Floor on the arrival rate used when the shape returns ~0 ops/s.
MIN_RATE = 0.1


@dataclass
class WorkloadSpec(Settings):
    """Everything needed to reproduce one workload."""

    record_count: int = at_least(1, 10_000)
    operation_mix: OperationMix = field(default_factory=lambda: READ_HEAVY)
    load_shape: LoadShape = field(default_factory=lambda: ConstantLoad(100.0))
    key_prefix: str = "user"
    consistency_overrides: Dict[str, ConsistencyLevel] = field(default_factory=dict)
    """Per-operation-kind consistency levels (keys: ``read``, ``update``,
    ``insert``).  Carried as request hints; they only take effect when the
    cluster's pipeline includes the ``consistency-override`` middleware —
    the override capability belongs to the request path, not the client."""

    tenants: Optional[TenantSpec] = None
    """Optional multi-tenant population.  ``None`` (the default) keeps the
    classic tenantless workload and is guaranteed bit-identical to the seed:
    the tenant path draws from *new* RNG streams
    (``workload:<name>:tenant`` and ``workload:<name>:tenant:<idx>``) that a
    tenantless run never opens (PERFORMANCE.md rule 3)."""

    open_loop: bool = False
    """Opt-in chunked draws on per-type streams.  Both settings are open-loop
    Poisson arrivals; the name is historical and is kept because configs and
    the ``--open-loop`` flag use it.  Instead of interleaving gap/mix/key/size
    draws on the single ``workload:<name>`` stream (which forces every draw
    to stay scalar — rule 1), each draw type gets its own dedicated stream
    (``workload:<name>:gap`` / ``:mix`` / ``:key`` / ``:size``) consumed in
    chunks.  This is a *new scenario mode* on new stream names (rule 3):
    results differ from the interleaved mode by design, while the default
    ``False`` keeps the seed-pinned bitstream untouched.  Two semantic
    differences to be aware of: the preload still draws sizes on the base
    stream (it was already chunked there), and key indices are pre-drawn a
    chunk at a time, so inserts only widen the key-popularity distribution
    for draws in *later* chunks.

    Composes with ``tenants``: main arrivals consume the *same* chunked
    ``:gap``/``:mix``/``:key``/``:size`` sequences a tenantless chunked run
    does (no draw is reordered — rule 3); the tenant pick is chunked on the
    dedicated ``:tenant`` stream, and each burst override draws from its own
    four chunked ``:tenant:<idx>:gap``/``:mix``/``:key``/``:size`` streams
    (distinct names from the interleaved mode's ``:tenant:<idx>`` stream,
    which a chunked tenant run never opens)."""

    def __post_init__(self) -> None:
        unknown = set(self.consistency_overrides) - set(CONSISTENCY_OVERRIDE_KINDS)
        if unknown:
            raise ValueError(
                f"unknown consistency_overrides keys {sorted(unknown)}; "
                f"expected a subset of {CONSISTENCY_OVERRIDE_KINDS}"
            )

    def build_distribution(self) -> ZipfianKeys:
        """Instantiate the key distribution.

        In tenant mode the distribution spans one tenant's key space
        (``records_per_tenant``); every tenant shares the same popularity
        shape over its own prefix.
        """
        record_count = (
            self.tenants.records_per_tenant if self.tenants is not None
            else self.record_count
        )
        return ZipfianKeys(record_count)

    def describe(self) -> Dict[str, object]:
        """Flat description for experiment tables."""
        description: Dict[str, object] = {
            "record_count": self.record_count,
            "key_distribution": "zipfian",
            "read_fraction": self.operation_mix.read_fraction,
            "update_fraction": self.operation_mix.update_fraction,
            "insert_fraction": self.operation_mix.insert_fraction,
            "mean_record_size": operations.MEAN_RECORD_SIZE,
            "open_loop": self.open_loop,
            "consistency_overrides": {
                kind: level.value for kind, level in self.consistency_overrides.items()
            },
        }
        if self.tenants is not None:
            description["tenants"] = self.tenants.describe()
        return description


class TenantOpStats:
    """Per-tenant operation accounting (multi-tenant workloads only).

    A tenant's read latencies are not kept here: they are the entries of the
    tally's ``read_latency_series`` whose ``read_tenants`` entry is its
    ``index`` (:meth:`WorkloadStats.read_latencies_of`)."""

    __slots__ = (
        "index",
        "reads_issued",
        "writes_issued",
        "reads_completed",
        "writes_completed",
        "reads_rejected",
        "writes_rejected",
        "reads_failed",
        "writes_failed",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.reads_issued = 0
        self.writes_issued = 0
        self.reads_completed = 0
        self.writes_completed = 0
        self.reads_rejected = 0
        self.writes_rejected = 0
        self.reads_failed = 0
        self.writes_failed = 0

    @property
    def operations_issued(self) -> int:
        """Total operations this tenant issued."""
        return self.reads_issued + self.writes_issued

    @property
    def operations_rejected(self) -> int:
        """Total operations admission control shed for this tenant."""
        return self.reads_rejected + self.writes_rejected


class WorkloadStats:
    """The one tally of what clients observed, read by the report's workload,
    staleness, compensation and monitoring figures.  A stale read returned a
    version older than one acknowledged before it was issued (client-centric
    staleness; its age is t-visibility), whatever the replicas' convergence."""

    def __init__(self) -> None:
        self.reads_issued = 0
        self.writes_issued = 0
        self.reads_completed = 0
        self.writes_completed = 0
        self.reads_failed = 0
        self.writes_failed = 0
        self.reads_rejected = 0
        self.writes_rejected = 0
        self.stale_reads = 0
        # The one store of each completed operation's (completion time,
        # latency): the report's percentiles and E4's phase slices read it.
        self.read_latency_series = TimeSeries("read_latency")
        self.write_latency_series = TimeSeries("write_latency")
        # One age per stale read, at the read's completion time.
        self.staleness_series = TimeSeries("staleness_age")
        # Per-tenant breakdown; stays None (zero-cost) for tenantless runs.
        self.tenant_stats: Optional[Dict[str, TenantOpStats]] = None
        # On a tenant run, the index of the tenant of each entry of
        # ``read_latency_series``, in the narrowest unsigned type that holds
        # every index: ``read_latencies_of`` masks the series with it.
        self.read_tenants: Optional[array] = None

    def enable_tenant_tracking(self, tenant_ids: Sequence[str]) -> Dict[str, TenantOpStats]:
        """Create one :class:`TenantOpStats` per tenant, indexed in the order
        given, and return the map."""
        self.tenant_stats = {
            tenant_id: TenantOpStats(index) for index, tenant_id in enumerate(tenant_ids)
        }
        self.read_tenants = array(
            next(code for code in "BHIQ" if len(tenant_ids) <= 256 ** array(code).itemsize)
        )
        return self.tenant_stats

    def record_read(self, result: ReadResult) -> None:
        """Record one completed read."""
        if result.rejected:
            self.reads_rejected += 1
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].reads_rejected += 1
            return
        if result.success:
            self.reads_completed += 1
            self.read_latency_series.record(result.completed_at, result.latency)
            if result.stale:
                self.stale_reads += 1
                self.staleness_series.record(result.completed_at, result.staleness)
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                entry = tenants[result.tenant]
                entry.reads_completed += 1
                self.read_tenants.append(entry.index)
        else:
            self.reads_failed += 1
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].reads_failed += 1

    def record_write(self, result: WriteResult) -> None:
        """Record one completed write."""
        if result.rejected:
            self.writes_rejected += 1
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].writes_rejected += 1
            return
        if result.success:
            self.writes_completed += 1
            self.write_latency_series.record(result.completed_at, result.latency)
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].writes_completed += 1
        else:
            self.writes_failed += 1
            tenants = self.tenant_stats
            if tenants is not None and result.tenant is not None:
                tenants[result.tenant].writes_failed += 1

    @property
    def operations_issued(self) -> int:
        """Total operations issued (reads + writes)."""
        return self.reads_issued + self.writes_issued

    @property
    def operations_completed(self) -> int:
        """Total operations that completed successfully."""
        return self.reads_completed + self.writes_completed

    @property
    def operations_failed(self) -> int:
        """Total operations that failed (timeout/unavailable)."""
        return self.reads_failed + self.writes_failed

    @property
    def operations_rejected(self) -> int:
        """Total operations shed by admission control (not failures)."""
        return self.reads_rejected + self.writes_rejected

    @property
    def operations_resolved(self) -> int:
        """Total operations that completed, failed or were shed."""
        return self.operations_completed + self.operations_failed + self.operations_rejected

    @property
    def failure_fraction(self) -> float:
        """Fraction of issued operations that failed (timeout/unavailable).

        Rejections are deliberately excluded: intentional load shedding must
        not read as unavailability (see :attr:`rejected_fraction`).
        """
        issued = self.operations_issued
        if issued == 0:
            return 0.0
        return self.operations_failed / issued

    @property
    def rejected_fraction(self) -> float:
        """Fraction of issued operations shed by admission control."""
        issued = self.operations_issued
        if issued == 0:
            return 0.0
        return self.operations_rejected / issued

    def summary(self) -> Dict[str, float]:
        """Headline figures for experiment tables."""
        read = self.read_latency_series.summary()
        write = self.write_latency_series.summary()
        return {
            "operations_issued": float(self.operations_issued),
            "operations_completed": float(self.operations_completed),
            "failure_fraction": self.failure_fraction,
            "operations_rejected": float(self.operations_rejected),
            "rejected_fraction": self.rejected_fraction,
            "stale_reads": float(self.stale_reads),
            "read_p50_ms": read.p50 * 1000.0,
            "read_p95_ms": read.p95 * 1000.0,
            "read_p99_ms": read.p99 * 1000.0,
            "write_p50_ms": write.p50 * 1000.0,
            "write_p95_ms": write.p95 * 1000.0,
            "write_p99_ms": write.p99 * 1000.0,
        }

    def read_latencies_of(self, tenants: np.ndarray) -> np.ndarray:
        """The latencies of the completed reads of the tenants ``tenants``
        marks (one boolean per tenant index), in completion order."""
        return self.read_latency_series.values[tenants[np.asarray(self.read_tenants)]]

    def stale_reads_at_least(self, age: float) -> int:
        """Stale reads whose returned data was at least ``age`` seconds old."""
        return int((self.staleness_series.values >= age).sum())

    def staleness(self) -> Dict[str, float]:
        """Whole-run staleness figures over the completed reads."""
        reads, stale = self.reads_completed, self.stale_reads
        ages = self.staleness_series.summary()
        return {
            "reads": reads,
            "stale_reads": stale,
            "stale_fraction": (stale / reads) if reads else 0.0,
            "mean_staleness": ages.mean,
            "p95_staleness": ages.p95,
            "max_staleness": ages.maximum,
        }


#: How often a quiescent arrival process (rate ~0) looks at its shape again.
_IDLE_POLL = 1.0


def _nothing() -> None:
    """The callback of the generator's rate-sample tick."""


class _InterleavedDraws:
    """Draw source with all four draw types interleaved on one stream.

    This is the seed-pinned order, so every draw stays scalar (rule 1).  The
    per-operation draws are partials of the methods the issue routine has
    always called, which keeps the pinned path free of extra Python frames.
    """

    __slots__ = ("_exponential", "kind", "key_index", "size")

    def __init__(
        self,
        streams: RandomStreams,
        base: str,
        mix: OperationMix,
        distribution: ZipfianKeys,
        sizer: RecordSizer,
    ) -> None:
        rng = streams.stream(base)
        self._exponential = rng.exponential
        self.kind = partial(mix.choose, rng)
        self.key_index = partial(distribution.next_index, rng)
        self.size = partial(sizer.next_size, rng)

    def gap(self, rate: float) -> float:
        """Seconds until the next arrival at ``rate`` ops/s."""
        return self._exponential(1.0 / rate)


class _ChunkedDraws:
    """Draw source with one dedicated, chunked stream per draw type.

    ``{base}:gap`` / ``:mix`` / ``:key`` / ``:size`` each have this source as
    their only consumer, so each can be drawn a chunk at a time.  The streams
    are opened on construction and first drawn from on first use.
    """

    __slots__ = ("_unit_gap", "_uniform", "_kind_for", "key_index", "size")

    def __init__(
        self,
        streams: RandomStreams,
        base: str,
        mix: OperationMix,
        distribution: ZipfianKeys,
        sizer: RecordSizer,
    ) -> None:
        gap_rng = streams.stream(f"{base}:gap")
        mix_rng = streams.stream(f"{base}:mix")
        key_rng = streams.stream(f"{base}:key")
        size_rng = streams.stream(f"{base}:size")
        self._unit_gap = _chunked(lambda: gap_rng.exponential(1.0, size=_CHUNK))
        self._uniform = _chunked(lambda: mix_rng.random(_CHUNK))
        self._kind_for = mix.kind_for
        self.key_index = _chunked(lambda: distribution.next_indices(key_rng, _CHUNK))
        self.size = _chunked(lambda: sizer.next_sizes(size_rng, _CHUNK))

    def gap(self, rate: float) -> float:
        """Seconds until the next arrival at ``rate`` ops/s.

        A unit exponential divided by the rate has exactly the
        ``Exponential(1/rate)`` distribution the interleaved source draws,
        while keeping the ``:gap`` stream free of the rate and so chunkable.
        """
        return self._unit_gap() / rate

    def kind(self) -> str:
        """The next operation kind."""
        return self._kind_for(self._uniform())


class _Issuer:
    """On whose behalf operations are issued: a key space and its hints.

    A tenant population has one issuer per tenant.  A tenantless workload is
    a population of one that owns the key-popularity distribution: its
    inserts widen the distribution, whereas a tenant's inserts only extend
    that tenant's private key space — the shared distribution spans one
    tenant's *initial* key space for every tenant alike.
    """

    __slots__ = (
        "key_prefix",
        "read_hints",
        "update_hints",
        "insert_hints",
        "next_record_index",
        "stats",
        "owns_distribution",
    )

    def __init__(
        self,
        key_prefix: str,
        records: int,
        overrides: Dict[str, ConsistencyLevel],
        tenant: Optional[TenantProfile] = None,
        stats: Optional[TenantOpStats] = None,
    ) -> None:
        self.key_prefix = key_prefix
        self.next_record_index = records
        self.stats = stats
        self.owns_distribution = tenant is None
        tenant_hints = (
            {}
            if tenant is None
            else {TENANT_HINT: tenant.tenant_id, TENANT_TIER_HINT: tenant.tier.name}
        )

        def hints_for(kind: str) -> Optional[Dict[str, object]]:
            if kind in overrides:
                return {**tenant_hints, CONSISTENCY_HINT: overrides[kind]}
            # Nothing to say stays None, so the default path allocates and
            # carries nothing per request.
            return tenant_hints or None

        self.read_hints = hints_for("read")
        self.update_hints = hints_for("update")
        self.insert_hints = hints_for("insert")


@dataclass(slots=True)
class _ArrivalProcess:
    """When operations arrive: one Poisson process following a load shape.

    ``issuer`` is who every arrival of this process is issued for, or
    ``None`` for the main process of a tenant population, which picks a
    tenant per arrival.  Each process owns its draw source, so adding or
    removing one leaves every other stream's bitstream untouched (rule 3).
    """

    shape: LoadShape
    min_rate: float
    draws: object
    issuer: Optional[_Issuer]
    label: str

    def rate(self, now: float) -> float:
        """Target arrival rate at ``now``: the shape's, floored at ``min_rate``."""
        return max(self.min_rate, self.shape.rate(now))


class WorkloadGenerator:
    """Open-loop Poisson workload driver for one cluster."""

    def __init__(
        self,
        simulator: Simulator,
        cluster: Cluster,
        spec: Optional[WorkloadSpec] = None,
    ) -> None:
        self._simulator = simulator
        self._cluster = cluster
        spec = spec or WorkloadSpec()
        self.name = name = WORKLOAD_NAME
        streams = simulator.streams
        base = f"workload:{name}"
        # The base stream carries the preload sizes in every mode, and the
        # main process's draws in the interleaved mode.
        self._rng = streams.stream(base)
        self._distribution = distribution = spec.build_distribution()
        # The distribution spans one issuer's initial key space: the whole
        # record count, or one tenant's share of it.
        self._records_per_issuer = records = distribution.record_count
        self._sizer = sizer = RecordSizer()
        self._running = False
        self._preloaded = False
        self.stats = WorkloadStats()
        overrides = spec.consistency_overrides

        def draw_source(stream: str):
            source = _ChunkedDraws if spec.open_loop else _InterleavedDraws
            return source(streams, stream, spec.operation_mix, distribution, sizer)

        # Every tenant-related stochastic choice lives on a *new* named
        # stream, so a tenantless run opens none of them and stays
        # bit-identical to seed (rule 3).
        tenant_spec = spec.tenants
        if tenant_spec is None:
            self.population: Optional[TenantPopulation] = None
            self._issuers = [_Issuer(spec.key_prefix, records, overrides)]
            main_issuer = self._issuers[0]
            burst_shapes: Dict[int, LoadShape] = {}
        else:
            self.population = TenantPopulation(tenant_spec)
            profiles = self.population.profiles
            tenant_stats = self.stats.enable_tenant_tracking(
                [profile.tenant_id for profile in profiles]
            )
            self._issuers = [
                _Issuer(
                    profile.key_prefix,
                    records,
                    overrides,
                    profile,
                    tenant_stats[profile.tenant_id],
                )
                for profile in profiles
            ]
            main_issuer = None
            burst_shapes = tenant_spec.load_shape_overrides
            # The tenant pick is the only extra draw of a main arrival, on
            # its own stream; kind/key/size stay exactly where a tenantless
            # run draws them.
            tenant_rng = streams.stream(f"{base}:tenant")
            self._tenant_pick: Callable[[], float] = (
                _chunked(lambda: tenant_rng.random(_CHUNK))
                if spec.open_loop
                else tenant_rng.random
            )
        self._main = _ArrivalProcess(
            spec.load_shape, MIN_RATE, draw_source(base), main_issuer, f"{name}:arrival"
        )
        # A burst has no rate floor: while its shape is quiescent it idles.
        self._bursts = [
            _ArrivalProcess(
                shape,
                0.0,
                draw_source(f"{base}:tenant:{index}"),
                self._issuers[index],
                f"{name}:tenant-burst:{index}",
            )
            for index, shape in sorted(burst_shapes.items())
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def preload(self) -> int:
        """Insert the initial data set directly into the cluster, once.

        A later call returns 0 and draws, stamps and applies nothing: a set-up
        that preloads and then calls ``Simulation.run()`` (which preloads too)
        must not shift every later draw on the base stream.
        """
        if self._preloaded:
            return 0
        self._preloaded = True
        per_issuer = int(self._records_per_issuer * PRELOAD_FRACTION)
        key_for = self._distribution.key_for
        keys = [
            key_for(index, issuer.key_prefix)
            for issuer in self._issuers
            for index in range(per_issuer)
        ]
        # Sizes are the only draws on the base stream during preload, so the
        # whole batch is drawn in one chunk — bitwise-equal to a per-record
        # loop (single-consumer stream; see PERFORMANCE.md).
        sizes = dict(zip(keys, self._sizer.next_sizes(self._rng, len(keys)).tolist()))
        # A payload is one of at most 65 values: built once and shared.
        payloads = [b"\x00" * length for length in range(65)]
        items = {key: payloads[min(size, 64)] for key, size in sizes.items()}
        return self._cluster.preload(items, sizes)

    def start(self) -> None:
        """Begin issuing operations according to the load shape."""
        if self._running:
            return
        self._running = True
        for process in (self._main, *self._bursts):
            self._schedule(process)
        # A tick every 10 s that does nothing: the report's
        # ``events_processed``, the event sequence numbers and the ledger's
        # exact events per operation all count it, so the seed's numbers
        # hold only with it (PERFORMANCE.md rules 1-5).
        self._simulator.call_every(
            10.0,
            _nothing,
            label=f"{self.name}:rate-sample",
            priority=Simulator.PRIORITY_LATE,
        )

    def stop(self) -> None:
        """Stop issuing new operations (in-flight ones still complete)."""
        self._running = False

    # ------------------------------------------------------------------
    # Arrival processes
    # ------------------------------------------------------------------
    def current_rate(self) -> float:
        """The main process's target arrival rate right now (ops/second)."""
        return self._main.rate(self._simulator.now)

    def _schedule(self, process: _ArrivalProcess) -> None:
        if not self._running:
            return
        simulator = self._simulator
        rate = process.rate(simulator.now)
        if rate <= 1e-9:
            # Quiescent (e.g. a flash crowd before its spike): poll
            # deterministically without consuming a draw.
            simulator.post_in(
                _IDLE_POLL, self._tick, process, False, label=process.label
            )
            return
        simulator.post_in(
            process.draws.gap(rate), self._tick, process, True, label=process.label
        )

    def _tick(self, process: _ArrivalProcess, issue: bool) -> None:
        if not self._running:
            return
        if issue:
            issuer = process.issuer
            if issuer is None:
                issuer = self._issuers[self.population.choose_index(self._tenant_pick())]
            self._issue(issuer, process.draws)
        self._schedule(process)

    def _issue(self, issuer: _Issuer, draws) -> None:
        """Draw and issue one operation on behalf of ``issuer``.

        The draw order per operation kind (kind; key unless inserting; size
        when writing) is what the seed-pinned bitstream depends on.
        """
        distribution = self._distribution
        stats = self.stats
        entry = issuer.stats
        kind = draws.kind()
        if kind == "read":
            key = distribution.key_for(draws.key_index(), issuer.key_prefix)
            stats.reads_issued += 1
            if entry is not None:
                entry.reads_issued += 1
            self._cluster.read(
                key, on_complete=stats.record_read, hints=issuer.read_hints
            )
            return
        if kind == "insert":
            index = issuer.next_record_index
            issuer.next_record_index = index + 1
            if issuer.owns_distribution:
                distribution.grow(index + 1)
            hints = issuer.insert_hints
        else:
            index = draws.key_index()
            hints = issuer.update_hints
        key = distribution.key_for(index, issuer.key_prefix)
        size = draws.size()
        stats.writes_issued += 1
        if entry is not None:
            entry.writes_issued += 1
        self._cluster.write(
            key,
            value=b"\x00" * min(size, 64),
            size=size,
            on_complete=stats.record_write,
            hints=hints,
        )

"""Fault injection: crash-stop, gray failures and lifecycle churn.

Failures are first-class in the paper's problem statement: eventual
consistency exists because stores choose availability under partitions, and
the size of the inconsistency window blows up when replicas crash or get cut
off.  Real incidents, however, are dominated by *gray* failures — nodes that
keep answering, just much slower — and by lifecycle churn (rolling upgrades),
not by clean deaths.  The fault engine therefore speaks four dialects:

* **crash-stop** — :meth:`FaultInjector.crash_node` (with optional recovery),
* **partitions** — :meth:`FaultInjector.partition` /
  :meth:`FaultInjector.isolate_node`; each partition heals only itself, so
  overlapping partition windows compose,
* **gray failures** — :meth:`FaultInjector.degrade_node` (fail-slow: the
  node's service rate is scaled without killing it; overlapping degrades
  compose multiplicatively and survive crash/recover) and
  :meth:`FaultInjector.flaky_link` (probabilistic per-message drop/delay on
  one link, drawing from the dedicated ``faults:links`` RNG stream),
* **lifecycle** — :meth:`FaultInjector.rolling_restart` (crash/recover the
  nodes one at a time with a settle delay, modelling an upgrade).

Scheduling contract: every fault is *scheduled* against the simulator (never
applied inline), so a fault at time ``t`` interleaves deterministically with
the workload regardless of when it was declared.  :class:`FaultPlan` makes
whole campaigns declarative and reproducible: a plan is a tuple of plain
:class:`FaultSpec` records (picklable, shardable via :meth:`FaultPlan.shard`)
that can be sampled from a seeded generator (:meth:`FaultPlan.generate`,
:meth:`FaultPlan.gray_failure_campaign`) and applied to any injector.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..simulation.engine import Simulator
from .errors import (
    POSITIVE,
    Settings,
    UnknownNodeError,
    check,
    fraction,
    non_negative,
    positive,
    positive_fraction,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .cluster import Cluster

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "FaultPlan",
    "FAULT_KINDS",
    "FAULT_KIND_FIELDS",
]


@dataclass
class FaultEvent:
    """Record of one injected fault (for reports and assertions)."""

    kind: str
    target: str
    start_time: float
    end_time: Optional[float] = None


def _check_fault(**arguments: Optional[float]) -> None:
    """Refuse, before anything is scheduled, an injector argument outside the
    bound :class:`FaultSpec` declares for its name (``duration=None`` is open-ended)."""
    for field in dataclasses.fields(FaultSpec):
        value = arguments.get(field.name)
        if value is not None:
            check("FaultInjector", field.name, value, field.metadata["bound"])


class FaultInjector:
    """Schedules node, link and lifecycle faults on a cluster."""

    def __init__(self, simulator: Simulator, cluster: "Cluster") -> None:
        self._simulator = simulator
        self._cluster = cluster
        self.events: List[FaultEvent] = []
        # Active fail-slow factors per node: overlapping degrades compose as
        # the product of every factor still in its window.
        self._degrade_factors: Dict[str, List[float]] = {}

    def _check_nodes(self, node_ids: Iterable[str]) -> None:
        """Every fault names nodes the cluster has (the check its event would
        otherwise fail at fire time; a decommissioned node is still known)."""
        for node_id in node_ids:
            if node_id not in self._cluster.nodes:
                raise UnknownNodeError(f"unknown node {node_id!r}")

    # ------------------------------------------------------------------
    # Node crashes
    # ------------------------------------------------------------------
    def crash_node(
        self, node_id: str, at: float, duration: Optional[float] = None
    ) -> FaultEvent:
        """Crash ``node_id`` at time ``at``; recover after ``duration`` if given."""
        _check_fault(at=at, duration=duration)
        self._check_nodes((node_id,))
        event = FaultEvent(kind="node_crash", target=node_id, start_time=at)
        self.events.append(event)

        def _crash() -> None:
            self._cluster.crash_node(node_id)

        self._simulator.schedule(at, _crash, label=f"fault:crash:{node_id}")
        if duration is not None:
            event.end_time = at + duration

            def _recover() -> None:
                self._cluster.recover_node(node_id)

            self._simulator.schedule(
                at + duration, _recover, label=f"fault:recover:{node_id}"
            )
        return event

    # ------------------------------------------------------------------
    # Gray failures: fail-slow nodes and flaky links
    # ------------------------------------------------------------------
    def degrade_node(
        self,
        node_id: str,
        at: float,
        factor: float,
        duration: Optional[float] = None,
    ) -> FaultEvent:
        """Fail-slow ``node_id`` at ``at``: scale its service rate by ``factor``.

        The node keeps serving — this is the gray failure that defeats quorum
        math, because a degraded replica still acks, just late.  ``factor``
        must lie in (0, 1]; the degradation lifts after ``duration`` seconds
        (or never, if ``None``).  Overlapping degrades on one node compose
        multiplicatively, and the composed factor survives crash/recover.
        """
        _check_fault(at=at, duration=duration, factor=factor)
        self._check_nodes((node_id,))
        event = FaultEvent(kind="node_degrade", target=node_id, start_time=at)
        self.events.append(event)

        def _apply_composed() -> None:
            factors = self._degrade_factors.get(node_id, [])
            composed = 1.0
            for active in factors:
                composed *= active
            self._cluster.set_node_fault_factor(node_id, composed)

        def _degrade() -> None:
            self._degrade_factors.setdefault(node_id, []).append(factor)
            _apply_composed()

        self._simulator.schedule(at, _degrade, label=f"fault:degrade:{node_id}")
        if duration is not None:
            event.end_time = at + duration

            def _restore() -> None:
                factors = self._degrade_factors.get(node_id, [])
                if factor in factors:
                    factors.remove(factor)
                _apply_composed()

            self._simulator.schedule(
                at + duration, _restore, label=f"fault:restore:{node_id}"
            )
        return event

    def flaky_link(
        self,
        node_a: str,
        node_b: str,
        at: float,
        duration: Optional[float] = None,
        drop_probability: float = 0.1,
        extra_delay: float = 0.0,
    ) -> FaultEvent:
        """Make the link between two nodes flaky from ``at`` for ``duration``.

        While installed, each message on the (undirected) link is dropped
        with ``drop_probability`` — drawing from the dedicated
        ``faults:links`` stream, opened lazily so fault-free runs never touch
        it — and surviving messages pay ``extra_delay`` extra seconds.
        """
        _check_fault(
            at=at, duration=duration, drop_probability=drop_probability, extra_delay=extra_delay
        )
        if node_a == node_b:
            raise ValueError(
                f"a flaky link needs two distinct endpoints, got {node_a!r} twice"
            )
        self._check_nodes((node_a, node_b))
        label = "|".join(sorted((node_a, node_b)))
        event = FaultEvent(kind="flaky_link", target=label, start_time=at)
        self.events.append(event)
        handle: Dict[str, int] = {}

        def _install() -> None:
            handle["id"] = self._cluster.network.set_link_fault(
                node_a, node_b, drop_probability, extra_delay
            )

        self._simulator.schedule(at, _install, label=f"fault:flaky:{label}")
        if duration is not None:
            event.end_time = at + duration

            def _clear() -> None:
                fault_id = handle.pop("id", None)
                if fault_id is not None:
                    self._cluster.network.clear_link_fault(fault_id)

            self._simulator.schedule(
                at + duration, _clear, label=f"fault:unflaky:{label}"
            )
        return event

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(
        self,
        group_a: Sequence[str],
        group_b: Sequence[str],
        at: float,
        duration: Optional[float] = None,
    ) -> FaultEvent:
        """Partition two groups of nodes at ``at``; heal after ``duration``.

        Heals only the partition it installed — overlapping partition windows
        compose, and healing one leaves the others severed.
        """
        _check_fault(at=at, duration=duration)
        self._check_nodes((*group_a, *group_b))
        label = f"{'|'.join(sorted(group_a))} <-> {'|'.join(sorted(group_b))}"
        event = FaultEvent(kind="partition", target=label, start_time=at)
        self.events.append(event)
        handle: Dict[str, int] = {}

        def _install() -> None:
            handle["id"] = self._cluster.network.partition(
                set(group_a), set(group_b)
            )

        self._simulator.schedule(at, _install, label="fault:partition")
        if duration is not None:
            event.end_time = at + duration

            def _heal() -> None:
                partition_id = handle.pop("id", None)
                if partition_id is not None:
                    self._cluster.network.heal_partition(partition_id)

            self._simulator.schedule(at + duration, _heal, label="fault:heal")
        return event

    def isolate_node(
        self, node_id: str, at: float, duration: Optional[float] = None
    ) -> FaultEvent:
        """Partition one node away from the rest of the cluster."""
        others = [other for other in self._cluster.node_ids() if other != node_id]
        return self.partition([node_id], others, at, duration)

    # ------------------------------------------------------------------
    # Lifecycle: rolling restarts
    # ------------------------------------------------------------------
    def rolling_restart(
        self,
        at: float,
        downtime: float = 15.0,
        settle: float = 30.0,
        node_ids: Optional[Sequence[str]] = None,
    ) -> FaultEvent:
        """Restart nodes one at a time (an upgrade): crash, recover, settle.

        Node ``i`` goes down at ``at + i * (downtime + settle)`` and comes
        back ``downtime`` seconds later; the next node waits out the
        ``settle`` delay (hint replay, membership convergence) before its
        turn, so at most one node is ever down.  Defaults to every node the
        cluster had when the campaign was declared, in sorted id order.
        """
        _check_fault(at=at, downtime=downtime, settle=settle)
        targets = tuple(node_ids) if node_ids is not None else self._cluster.node_ids()
        self._check_nodes(targets)
        event = FaultEvent(
            kind="rolling_restart", target="|".join(targets), start_time=at
        )
        self.events.append(event)
        start = at
        for node_id in targets:
            self.crash_node(node_id, at=start, duration=downtime)
            start += downtime + settle
        event.end_time = start - settle if targets else at
        return event

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> List[dict]:
        """All injected faults as plain dictionaries (for experiment reports)."""
        return [
            {
                "kind": event.kind,
                "target": event.target,
                "start_time": event.start_time,
                "end_time": event.end_time,
            }
            for event in self.events
        ]

    def counts(self) -> Dict[str, int]:
        """Injected-fault counts by kind, keys sorted (merge-friendly)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return {kind: counts[kind] for kind in sorted(counts)}


# ----------------------------------------------------------------------
# Declarative fault plans (chaos campaigns)
# ----------------------------------------------------------------------

#: The :class:`FaultSpec` fields each kind reads in :meth:`FaultPlan.apply`,
#: which passes them to the kind's :data:`_INJECTOR_METHODS` entry: ``node``
#: then ``peer`` (resolved to node ids) by position, the rest by keyword.
#: A spec may carry the others (:meth:`FaultPlan.generate` fills every field
#: whatever the kind) and ``apply`` ignores them; a front end that takes a
#: spec from a person refuses a field outside its kind's row.
FAULT_KIND_FIELDS = {
    "crash": ("at", "duration", "node"),
    "degrade": ("at", "duration", "node", "factor"),
    "flaky_link": (
        "at",
        "duration",
        "node",
        "peer",
        "drop_probability",
        "extra_delay",
    ),
    "partition": ("at", "duration", "node"),
    "restart": ("at", "downtime", "settle"),
}

#: Fault kinds a :class:`FaultSpec` may carry.
FAULT_KINDS = tuple(FAULT_KIND_FIELDS)

#: The kinds :meth:`FaultPlan.generate` samples from.
CAMPAIGN_KINDS = ("crash", "degrade", "flaky_link", "partition")

#: The cluster size a gray-failure campaign addresses its nodes in, and how
#: many fail-slow nodes and flaky links it draws.
GRAY_FAILURE_NODES = 3
GRAY_FAILURE_DEGRADES = 3
GRAY_FAILURE_FLAKY_LINKS = 1

#: The :class:`FaultInjector` method that injects each kind.
_INJECTOR_METHODS = {
    "crash": "crash_node",
    "degrade": "degrade_node",
    "flaky_link": "flaky_link",
    "partition": "isolate_node",
    "restart": "rolling_restart",
}


@dataclass(frozen=True)
class FaultSpec(Settings):
    """One declarative fault: plain data, picklable, node-index based.

    Node references are *indices into the sorted node-id list* at apply time
    (taken modulo the node count), not node-id strings — a plan does not need
    to know how large the cluster it lands on is, and the same plan can be
    split across shards whose clusters are smaller than the original.
    """

    kind: str
    at: float = non_negative()
    duration: Optional[float] = positive(None)
    node: int = non_negative(0)
    peer: int = non_negative(1)
    factor: float = positive_fraction(0.5)
    drop_probability: float = fraction(0.1)
    extra_delay: float = non_negative(0.0)
    downtime: float = positive(15.0)
    settle: float = non_negative(30.0)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )


@dataclass(frozen=True)
class FaultPlan(Settings):
    """A reproducible campaign of scheduled faults.

    Plans are pure data: building one runs nothing and draws from no
    simulator stream.  :meth:`apply` schedules every spec against a concrete
    injector; :meth:`shard` deals the specs round-robin across shards so a
    sharded run injects each fault exactly once, on a deterministic shard.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: Optional[int] = non_negative(None)

    @classmethod
    def _seeded_generator(cls, seed: int) -> np.random.Generator:
        """The standalone generator a sampled plan draws from, once ``seed``
        has passed the bound the ``seed`` field declares."""
        check(cls.__name__, "seed", seed, cls.__dataclass_fields__["seed"].metadata["bound"])
        return np.random.default_rng(np.random.SeedSequence(seed))

    @classmethod
    def generate(
        cls,
        seed: int,
        duration: float,
        faults: int = 6,
        nodes: int = 3,
    ) -> "FaultPlan":
        """Sample a mixed chaos campaign from a seeded generator.

        Deterministic: the campaign is a pure function of the arguments.  The
        generator is a standalone ``numpy`` RNG seeded with ``seed`` — plans
        are built *before* the simulation, so no simulator stream is touched
        (PERFORMANCE.md rule 3 trivially holds).  Faults start inside
        ``[0.1, 0.7] * duration`` and last 5–25% of the run, so every fault
        both takes effect and (usually) recovers on the record.
        """
        check("FaultPlan.generate", "duration", duration, POSITIVE)
        if faults < 0:
            raise ValueError(f"faults must be >= 0, got {faults}")
        kinds = CAMPAIGN_KINDS
        rng = cls._seeded_generator(seed)
        specs: List[FaultSpec] = []
        for _ in range(faults):
            kind = str(kinds[int(rng.integers(0, len(kinds)))])
            at = float(rng.uniform(0.1, 0.7) * duration)
            fault_duration = float(rng.uniform(0.05, 0.25) * duration)
            node = int(rng.integers(0, max(nodes, 1)))
            peer = int(rng.integers(0, max(nodes, 1)))
            if peer == node:
                peer = (peer + 1) % max(nodes, 1) if nodes > 1 else peer + 1
            specs.append(
                FaultSpec(
                    kind=kind,
                    at=at,
                    duration=fault_duration,
                    node=node,
                    peer=peer,
                    factor=float(rng.uniform(0.2, 0.6)),
                    drop_probability=float(rng.uniform(0.05, 0.3)),
                    extra_delay=float(rng.uniform(0.0, 0.005)),
                )
            )
        return cls(specs=tuple(sorted(specs, key=lambda s: s.at)), seed=seed)

    @classmethod
    def gray_failure_campaign(cls, seed: int, duration: float) -> "FaultPlan":
        """A campaign of pure gray failures: fail-slow nodes plus flaky links.

        The failure mode that defeats quorum math — every node keeps
        answering, so availability stays nominal while the tail explodes.
        Used by experiment E9.
        """
        check("FaultPlan.gray_failure_campaign", "duration", duration, POSITIVE)
        nodes = GRAY_FAILURE_NODES
        rng = cls._seeded_generator(seed)
        specs: List[FaultSpec] = []
        for _ in range(GRAY_FAILURE_DEGRADES):
            specs.append(
                FaultSpec(
                    kind="degrade",
                    at=float(rng.uniform(0.1, 0.5) * duration),
                    duration=float(rng.uniform(0.2, 0.4) * duration),
                    node=int(rng.integers(0, max(nodes, 1))),
                    factor=float(rng.uniform(0.1, 0.25)),
                )
            )
        for _ in range(GRAY_FAILURE_FLAKY_LINKS):
            node = int(rng.integers(0, max(nodes, 1)))
            peer = int(rng.integers(0, max(nodes, 1)))
            if peer == node:
                peer = (peer + 1) % max(nodes, 1) if nodes > 1 else peer + 1
            specs.append(
                FaultSpec(
                    kind="flaky_link",
                    at=float(rng.uniform(0.1, 0.5) * duration),
                    duration=float(rng.uniform(0.2, 0.4) * duration),
                    node=node,
                    peer=peer,
                    drop_probability=float(rng.uniform(0.05, 0.15)),
                    extra_delay=float(rng.uniform(0.001, 0.004)),
                )
            )
        return cls(specs=tuple(sorted(specs, key=lambda s: s.at)), seed=seed)

    def shard(self, index: int, shards: int) -> "FaultPlan":
        """The sub-plan shard ``index`` of ``shards`` executes.

        Specs are dealt round-robin by position, so the union over all shards
        is the whole plan and every spec lands on exactly one deterministic
        shard regardless of execution order.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not (0 <= index < shards):
            raise ValueError(f"shard index must be in [0, {shards}), got {index}")
        return FaultPlan(
            specs=tuple(
                spec for i, spec in enumerate(self.specs) if i % shards == index
            ),
            seed=self.seed,
        )

    def apply(self, injector: FaultInjector) -> List[FaultEvent]:
        """Schedule every spec against ``injector``'s cluster.

        Node indices resolve against the sorted node-id list at apply time,
        modulo the node count — a plan generated for 6 nodes lands cleanly on
        a 3-node shard cluster.
        """
        node_ids = injector._cluster.node_ids()
        if not node_ids:
            raise ValueError("cannot apply a fault plan to an empty cluster")
        events: List[FaultEvent] = []
        for spec in self.specs:
            node = node_ids[spec.node % len(node_ids)]
            peer = node_ids[spec.peer % len(node_ids)]
            if peer == node and len(node_ids) > 1:
                peer = node_ids[(spec.peer + 1) % len(node_ids)]
            fields = FAULT_KIND_FIELDS[spec.kind]
            if "peer" in fields and peer == node:
                # Single-node cluster: there is no link to make flaky.
                continue
            targets = {"node": node, "peer": peer}
            inject = getattr(injector, _INJECTOR_METHODS[spec.kind])
            events.append(
                inject(
                    *(targets[field] for field in fields if field in targets),
                    **{field: getattr(spec, field) for field in fields if field not in targets},
                )
            )
        return events

"""Network model: message latency between nodes and clients.

The paper repeatedly stresses that network conditions (congestion, shared
cloud infrastructure) influence both performance and the inconsistency
window, and that the controller must not pick actions that aggravate a
network bottleneck (RQ3's "adding a replica under congestion only causes
more traffic").  The :class:`NetworkModel` therefore exposes:

* a base one-way latency with lognormal jitter,
* a global congestion factor that grows with the current message rate
  relative to the configured capacity, and
* partition injection between groups of nodes (used by the fault-injection
  tests and the availability experiments).
"""

from __future__ import annotations

import itertools
from math import exp
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..cluster.errors import FRACTION, NON_NEGATIVE, check
from .engine import Simulator
from .randomness import LognormalSampler

__all__ = ["NetworkModel"]

#: Mean one-way latency between nodes in seconds (0.5 ms LAN).
BASE_LATENCY = 0.0005

#: Mean one-way latency between clients and coordinators (2 ms).
CLIENT_LATENCY = 0.002

#: Coefficient of variation of the lognormal jitter on every message.
JITTER_CV = 0.35

#: Aggregate message rate above which congestion kicks in.
CAPACITY_MSGS_PER_SEC = 50_000.0

#: How sharply latency grows once the capacity is exceeded.
CONGESTION_EXPONENT = 2.0

#: Upper bound on the congestion multiplier (keeps the model stable).
MAX_CONGESTION_FACTOR = 20.0

#: Length in seconds of the window over which the message rate is measured.
CONGESTION_WINDOW = 1.0


class NetworkModel:
    """Latency oracle and message-delivery helper for the whole cluster."""

    def __init__(self, simulator: Simulator) -> None:
        self._simulator = simulator
        # Every draw of the "network" stream is a jitter normal, so it is
        # read a chunk at a time through its shared source (PERFORMANCE.md
        # rule 20).
        self._normal = simulator.streams.normals("network")
        # Partitions are identified so overlapping windows compose: each
        # installed partition owns its pair set, and a pair stays severed
        # until every partition covering it is healed (refcount per pair).
        self._partitioned_pairs: Dict[FrozenSet[str], int] = {}
        self._partitions: Dict[int, List[FrozenSet[str]]] = {}
        self._next_partition_id = itertools.count(1)
        # Flaky links: per-pair (drop probability, extra one-way delay),
        # rebuilt from the installed faults whenever one is added or cleared.
        # The drop draws come from a dedicated "faults:links" stream created
        # lazily on first use, so runs without link faults never open it
        # (PERFORMANCE.md rule 3).
        self._link_faults: Dict[FrozenSet[str], Tuple[float, float]] = {}
        self._link_fault_entries: Dict[int, Tuple[FrozenSet[str], float, float]] = {}
        self._next_link_fault_id = itertools.count(1)
        self._faults_rng = None
        self._link_drops = 0
        self._window_start = simulator.now
        self._window_messages = 0
        self._messages_sent = 0
        self._messages_dropped = 0
        self._external_load_factor = 1.0
        # Per-message hot-path data, written where it changes
        # (PERFORMANCE.md rule 12): the latency constants of both message
        # classes move only with the congestion factor, and event labels are
        # rendered once per (source, destination) pair instead of per message.
        self._jitter = LognormalSampler(JITTER_CV)
        self._sigma = self._jitter.sigma
        self._set_congestion_factor(1.0)
        self._labels: Dict[Tuple[str, str], str] = {}
        self._post_in = simulator.post_in

    @property
    def congestion_factor(self) -> float:
        """Current latency multiplier due to congestion (>= 1)."""
        return self._congestion_factor

    @property
    def messages_sent(self) -> int:
        """Total messages delivered (or attempted) so far."""
        return self._messages_sent

    @property
    def messages_dropped(self) -> int:
        """Messages dropped by a partition or a flaky link."""
        return self._messages_dropped

    def set_external_load_factor(self, factor: float) -> None:
        """Scale congestion as if other tenants used the same network.

        A factor of ``1.5`` means background traffic contributes 50% of the
        measured message rate on top of the cluster's own traffic.
        """
        self._external_load_factor = max(1.0, float(factor))

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, group_a: Set[str], group_b: Set[str]) -> int:
        """Install a partition: messages between the two groups are dropped.

        Returns a partition id that :meth:`heal_partition` accepts, so a
        caller heals exactly the partition it installed.  Overlapping
        partitions compose: a pair severed by two partitions stays severed
        until both are healed.
        """
        pairs: List[FrozenSet[str]] = []
        for a in group_a:
            for b in group_b:
                if a != b:
                    pair = frozenset((a, b))
                    pairs.append(pair)
                    self._partitioned_pairs[pair] = (
                        self._partitioned_pairs.get(pair, 0) + 1
                    )
        partition_id = next(self._next_partition_id)
        self._partitions[partition_id] = pairs
        return partition_id

    def heal_partition(self, partition_id: Optional[int] = None) -> None:
        """Heal one partition by id, or every partition when id is ``None``.

        Healing an unknown or already-healed id is a no-op (a heal scheduled
        before a blanket heal must not underflow the pair refcounts).
        """
        if partition_id is None:
            self._partitioned_pairs.clear()
            self._partitions.clear()
            return
        pairs = self._partitions.pop(partition_id, None)
        if pairs is None:
            return
        for pair in pairs:
            count = self._partitioned_pairs.get(pair, 0) - 1
            if count <= 0:
                self._partitioned_pairs.pop(pair, None)
            else:
                self._partitioned_pairs[pair] = count

    def is_partitioned(self, source: str, destination: str) -> bool:
        """Whether messages from ``source`` to ``destination`` are dropped."""
        if not self._partitioned_pairs:
            return False
        return frozenset((source, destination)) in self._partitioned_pairs

    # ------------------------------------------------------------------
    # Flaky links
    # ------------------------------------------------------------------
    def set_link_fault(
        self,
        node_a: str,
        node_b: str,
        drop_probability: float = 0.0,
        extra_delay: float = 0.0,
    ) -> int:
        """Make the (undirected) link between two nodes flaky.

        Every message crossing the link is independently dropped with
        ``drop_probability``; survivors pay ``extra_delay`` seconds on top of
        the sampled latency.  Returns a fault id for :meth:`clear_link_fault`.
        Overlapping faults on one link compose: drop probabilities combine as
        independent events and delays add.
        """
        check("NetworkModel", "drop_probability", drop_probability, FRACTION)
        check("NetworkModel", "extra_delay", extra_delay, NON_NEGATIVE)
        if node_a == node_b:
            raise ValueError("a link fault needs two distinct endpoints")
        fault_id = next(self._next_link_fault_id)
        pair = frozenset((node_a, node_b))
        self._link_fault_entries[fault_id] = (pair, drop_probability, extra_delay)
        self._rebuild_link_faults()
        return fault_id

    def clear_link_fault(self, fault_id: int) -> None:
        """Remove one link fault by id (no-op for unknown ids)."""
        if self._link_fault_entries.pop(fault_id, None) is not None:
            self._rebuild_link_faults()

    def _rebuild_link_faults(self) -> None:
        faults: Dict[FrozenSet[str], Tuple[float, float]] = {}
        for pair, drop, delay in self._link_fault_entries.values():
            survive, extra = faults.get(pair, (1.0, 0.0))
            faults[pair] = (survive * (1.0 - drop), extra + delay)
        self._link_faults = {
            pair: (1.0 - survive, extra) for pair, (survive, extra) in faults.items()
        }

    def _link_fault_rng(self):
        if self._faults_rng is None:
            self._faults_rng = self._simulator.streams.stream("faults:links")
        return self._faults_rng

    @property
    def link_drops(self) -> int:
        """Messages dropped by flaky links (subset of :attr:`messages_dropped`)."""
        return self._link_drops

    # ------------------------------------------------------------------
    # Latency and delivery
    # ------------------------------------------------------------------
    def _set_congestion_factor(self, factor: float) -> None:
        """The one place the congestion factor changes: refresh what hangs off it."""
        self._congestion_factor = factor
        self._node_hop = self._hop_constants(BASE_LATENCY * factor)
        self._client_hop = self._hop_constants(CLIENT_LATENCY * factor)

    def _hop_constants(self, mean: float) -> Tuple[float, Optional[float]]:
        """``(latency, mu)`` of one message class at mean latency ``mean``.

        ``mu`` is the lognormal constant of the jittered draw, memoised by
        the sampler; ``None`` means no draw is made and ``latency`` is the
        answer (no jitter configured, or a zero mean) — the cases
        :meth:`LognormalSampler.sample_with` settles without drawing.
        """
        if mean <= 0.0:
            return 0.0, None
        if self._jitter.cv <= 0.0:
            return float(mean), None
        return mean, self._jitter.mu_for(mean)

    def _roll_congestion_window(self, now: float) -> None:
        """Close the elapsed window: its message rate sets the next factor."""
        rate = self._window_messages / max(now - self._window_start, 1e-9)
        rate *= self._external_load_factor
        overload = rate / CAPACITY_MSGS_PER_SEC
        if overload <= 1.0:
            factor = 1.0
        else:
            factor = min(overload**CONGESTION_EXPONENT, MAX_CONGESTION_FACTOR)
        if factor != self._congestion_factor:
            self._set_congestion_factor(factor)
        self._window_start = now
        self._window_messages = 0

    def send(
        self,
        source: str,
        destination: str,
        deliver: Callable[[], None],
        client_facing: bool = False,
        on_drop: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Deliver ``deliver()`` at the destination after a latency delay.

        Returns ``True`` if the message was scheduled for delivery, ``False``
        if a partition or a flaky link dropped it (``on_drop`` is then
        invoked immediately, if provided).

        One frame per hop: the window test, the partition test and the
        jitter draw are written out here, so a message costs this call, the
        next chunked normal, one ``exp`` and ``post_in`` (a delivery is never
        cancelled, so it has no handle).  The jittered latency is
        ``exp(mu + sigma * z)``, the value ``rng.lognormal(mu, sigma)`` gave
        (PERFORMANCE.md rule 20); a mean latency so large that the draw
        passes the largest float raises ``OverflowError`` here.
        """
        self._messages_sent += 1
        self._window_messages += 1
        now = self._simulator.now
        if now - self._window_start >= CONGESTION_WINDOW:
            self._roll_congestion_window(now)
        if self._partitioned_pairs and (
            frozenset((source, destination)) in self._partitioned_pairs
        ):
            self._messages_dropped += 1
            if on_drop is not None:
                on_drop()
            return False
        link_delay = 0.0
        if self._link_faults:
            fault = self._link_faults.get(frozenset((source, destination)))
            if fault is not None:
                drop_probability, link_delay = fault
                if (
                    drop_probability > 0.0
                    and self._link_fault_rng().random() < drop_probability
                ):
                    self._messages_dropped += 1
                    self._link_drops += 1
                    if on_drop is not None:
                        on_drop()
                    return False
        latency, mu = self._client_hop if client_facing else self._node_hop
        if mu is not None:
            latency = exp(mu + self._sigma * self._normal())
        if link_delay > 0.0:
            latency += link_delay
        pair = (source, destination)
        label = self._labels.get(pair)
        if label is None:
            label = f"net:{source}->{destination}"
            self._labels[pair] = label
        self._post_in(latency, deliver, label=label)
        return True

    def round_trip_estimate(self, client_facing: bool = False) -> float:
        """Expected round-trip time under current congestion (no jitter)."""
        base = CLIENT_LATENCY if client_facing else BASE_LATENCY
        return 2.0 * base * self._congestion_factor

"""Key-popularity distributions (YCSB style).

The workload generator needs to decide *which* key each operation touches.
The distributions here mirror the ones YCSB ships, because those are the
request patterns the paper's motivating applications (large interactive web
applications, e-commerce catalogues) exhibit:

* ``UniformKeys`` — every record equally likely; the base case.
* ``ZipfianKeys`` — a heavy-tailed popularity skew (Gray et al.'s generator,
  the same construction YCSB uses), with an optional scrambling step so the
  hot keys are spread over the key space instead of clustered.
* ``LatestKeys`` — recency skew: recently inserted records are the popular
  ones (news feeds, timelines).
* ``HotspotKeys`` — a small hot set receives a fixed fraction of the traffic.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "KeyDistribution",
    "UniformKeys",
    "ZipfianKeys",
    "LatestKeys",
    "HotspotKeys",
    "make_distribution",
]

#: Share of the records in the hotspot distribution's hot set, and share of
#: the operations that go to it.
HOT_FRACTION = 0.2
HOT_OPERATION_FRACTION = 0.8


class KeyDistribution(abc.ABC):
    """Chooses record indexes in ``[0, record_count)``."""

    def __init__(self, record_count: int) -> None:
        if record_count < 1:
            raise ValueError(f"record_count must be >= 1, got {record_count}")
        self._record_count = record_count

    @property
    def record_count(self) -> int:
        """Number of records in the key space."""
        return self._record_count

    @abc.abstractmethod
    def next_index(self, rng: np.random.Generator) -> int:
        """Draw the index of the record the next operation should touch."""

    def next_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` record indexes in one chunk (dtype ``int64``).

        Subclasses whose draw pattern allows it override this with a
        vectorised implementation that is bitwise-equal to ``count``
        successive :meth:`next_index` calls on the same generator (chunked
        draws on a single-consumer stream; see PERFORMANCE.md).  The default
        falls back to the scalar path, which is always correct.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return np.fromiter(
            (self.next_index(rng) for _ in range(count)), dtype=np.int64, count=count
        )

    def grow(self, new_record_count: int) -> None:
        """Extend the key space (called when the workload inserts new records)."""
        if new_record_count > self._record_count:
            self._record_count = new_record_count

    def key_for(self, index: int, prefix: str = "user") -> str:
        """Render a record index as the store key the cluster sees."""
        return f"{prefix}{index}"


class UniformKeys(KeyDistribution):
    """Every record is equally popular."""

    def next_index(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self._record_count))

    def next_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return rng.integers(0, self._record_count, size=count)


class ZipfianKeys(KeyDistribution):
    """Zipfian popularity with YCSB's scrambling.

    Implements the bounded Zipfian generator of Gray et al. ("Quickly
    generating billion-record synthetic databases"): item ranks follow a
    Zipf law with exponent ``theta`` and the rank-to-record mapping is
    scrambled with a hash so that adjacent records are not correlated in
    popularity.
    """

    def __init__(
        self,
        record_count: int,
        theta: float = 0.99,
        scrambled: bool = True,
    ) -> None:
        super().__init__(record_count)
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self._theta = theta
        self._scrambled = scrambled
        self._recompute_constants()

    def _zeta(self, n: int) -> float:
        return float(sum(1.0 / (i ** self._theta) for i in range(1, n + 1)))

    def _recompute_constants(self) -> None:
        n = self._record_count
        self._zetan = self._zeta(n)
        self._zeta2 = self._zeta(min(2, n))
        self._alpha = 1.0 / (1.0 - self._theta)
        denominator = 1.0 - self._zeta2 / self._zetan
        if abs(denominator) < 1e-12:
            # Degenerate key spaces (n <= 2): the closed-form constant blows
            # up; fall back to a neutral eta, which keeps draws in range.
            self._eta = 1.0
        else:
            self._eta = (1.0 - (2.0 / n) ** (1.0 - self._theta)) / denominator

    def grow(self, new_record_count: int) -> None:
        if new_record_count > self._record_count:
            super().grow(new_record_count)
            self._recompute_constants()

    def _next_rank(self, rng: np.random.Generator) -> int:
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self._theta:
            return 1
        rank = int(self._record_count * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(rank, self._record_count - 1)

    def _next_ranks(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Vectorised :meth:`_next_rank`: bitwise-equal to ``count`` scalar draws.

        ``rng.random(count)`` fills sequentially with the same doubles the
        scalar calls would produce, and the elementwise float64 arithmetic
        matches the scalar C-double arithmetic.  The power-law expression is
        evaluated for *all* draws (the scalar path early-exits for the two
        hottest ranks), so its base is clamped to zero there — those lanes
        are overwritten by the early-exit masks below, and any lane where a
        negative base survived the masks would have crashed the scalar path
        too.
        """
        u = rng.random(count)
        uz = u * self._zetan
        base = self._eta * u - self._eta + 1.0
        np.maximum(base, 0.0, out=base)
        ranks = (self._record_count * base**self._alpha).astype(np.int64)
        np.minimum(ranks, self._record_count - 1, out=ranks)
        ranks[uz < 1.0 + 0.5**self._theta] = 1
        ranks[uz < 1.0] = 0
        return ranks

    def next_index(self, rng: np.random.Generator) -> int:
        rank = self._next_rank(rng)
        if not self._scrambled:
            return rank
        # FNV-style scramble so popularity is spread across the key space.
        value = (rank * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF
        value ^= value >> 31
        return int(value % self._record_count)

    def next_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        ranks = self._next_ranks(rng, count)
        if not self._scrambled:
            return ranks
        # Same scramble as the scalar path; uint64 wraparound is the scalar
        # path's explicit ``& 0xFFFFFFFFFFFFFFFF``.
        values = ranks.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(
            0xD1B54A32D192ED03
        )
        values ^= values >> np.uint64(31)
        return (values % np.uint64(self._record_count)).astype(np.int64)


class LatestKeys(ZipfianKeys):
    """Recency-skewed popularity: the newest records are the hottest."""

    def __init__(self, record_count: int) -> None:
        super().__init__(record_count, scrambled=False)

    def next_index(self, rng: np.random.Generator) -> int:
        rank = self._next_rank(rng)
        return max(0, self._record_count - 1 - rank)

    def next_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        ranks = self._next_ranks(rng, count)
        return np.maximum(0, self._record_count - 1 - ranks)


class HotspotKeys(KeyDistribution):
    """A hot set of records receives a fixed fraction of operations."""

    @property
    def hot_set_size(self) -> int:
        """Number of records in the hot set (at least one)."""
        return max(1, int(self._record_count * HOT_FRACTION))

    def next_index(self, rng: np.random.Generator) -> int:
        if rng.random() < HOT_OPERATION_FRACTION:
            return int(rng.integers(0, self.hot_set_size))
        if self.hot_set_size >= self._record_count:
            return int(rng.integers(0, self._record_count))
        return int(rng.integers(self.hot_set_size, self._record_count))

    # ``next_indices`` deliberately keeps the base-class scalar fallback: each
    # draw interleaves two draw types (a uniform for the hot/cold decision,
    # then a bounded integer whose range depends on it), so a chunked variant
    # cannot consume the generator in the same order and would change the
    # numbers.  See PERFORMANCE.md.


def make_distribution(name: str, record_count: int) -> KeyDistribution:
    """Factory used by workload specs serialised as plain strings; each
    distribution takes its default shape (Zipf theta 0.99, hotspot 20/80)."""
    lowered = name.lower()
    if lowered == "uniform":
        return UniformKeys(record_count)
    if lowered == "zipfian":
        return ZipfianKeys(record_count)
    if lowered == "latest":
        return LatestKeys(record_count)
    if lowered == "hotspot":
        return HotspotKeys(record_count)
    raise ValueError(f"unknown key distribution {name!r}")

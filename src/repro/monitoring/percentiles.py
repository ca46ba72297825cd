"""Mergeable streaming percentiles.

Exact percentiles of stored samples all go through
:func:`repro.simulation.timeseries.exact_percentiles`, over a slice of the
series that stores them (PERFORMANCE.md rule 15): a window is the series'
tail, a tier's or a tenant's reads are a mask of the workload's read series.
What this module keeps is the one summary that needs no stored samples.

:class:`MergeableHistogramSketch` is the sharded-mode workhorse: a fixed-bin
log-spaced histogram (DDSketch-style) whose merge is *exact* — merging the
sketches of K shards yields bit-identical counts to one sketch fed the
concatenated stream, in any order and for any split — while every quantile
carries a bounded relative error set by the accuracy parameter.  Stored
samples cannot be merged across processes without shipping them; the sketch
can, which is what lets ``run_sharded`` combine per-shard latency
distributions into one deterministic report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..simulation.timeseries import percentile_fractions

__all__ = ["MergeableHistogramSketch"]


class MergeableHistogramSketch:
    """Fixed-bin log-histogram with exact, order-independent merge.

    Bins are geometrically spaced between ``min_value`` and ``max_value``
    with ratio ``gamma = (1 + accuracy) ** 2``; a value lands in the bin
    whose range covers it and is reported back as the bin's geometric
    midpoint, which is at most a factor ``sqrt(gamma) = 1 + accuracy`` from
    either bin edge — so any quantile of in-range values is within
    ``accuracy`` *relative* error of the exact sample quantile.  Values at or
    below zero are counted separately (and reported as ``0.0``); values
    outside ``[min_value, max_value]`` clamp into the edge bins, where only
    the absolute bound of that bin holds.

    Merging adds bin counts, so it is exact and order-independent: for any
    partition of a sample stream into K sketches, ``merge`` of the K equals
    one sketch over the concatenated stream, bin for bin.  That property is
    what the sharded simulation mode's report combiner relies on, and it is
    property-tested in ``tests/test_monitoring_percentiles_metrics.py``.

    The scalar and vectorized observe paths share one binning routine
    (``np.searchsorted`` against precomputed edges), so feeding values one at
    a time or in chunks produces identical counts; both refuse NaN with a
    ``ValueError`` before counting anything.
    """

    __slots__ = (
        "_accuracy",
        "_min_value",
        "_max_value",
        "_edges",
        "_counts",
        "_zero_count",
        "_count",
        "_sum",
    )

    def __init__(
        self,
        accuracy: float = 0.01,
        min_value: float = 1e-6,
        max_value: float = 1e4,
    ) -> None:
        if not 0.0 < accuracy < 1.0:
            raise ValueError(f"accuracy must be in (0, 1), got {accuracy}")
        if not 0.0 < min_value < max_value:
            raise ValueError(
                f"require 0 < min_value < max_value, got {min_value}, {max_value}"
            )
        self._accuracy = float(accuracy)
        self._min_value = float(min_value)
        self._max_value = float(max_value)
        # (1+a)^2 rather than DDSketch's (1+a)/(1-a): with geometric-midpoint
        # reporting the worst case is sqrt(gamma)-1, so this ratio makes the
        # advertised `accuracy` bound exact instead of exceeded by O(a^2).
        gamma = (1.0 + self._accuracy) ** 2
        bins = int(np.ceil(np.log(self._max_value / self._min_value) / np.log(gamma)))
        # Interior edges: min * gamma^1 .. min * gamma^(bins-1).  searchsorted
        # against these maps (min, max] into bins 0..bins-1; the formulation
        # is shared by the scalar and chunked paths by construction.
        self._edges = self._min_value * gamma ** np.arange(1, bins, dtype=np.float64)
        self._counts = np.zeros(bins, dtype=np.int64)
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0

    # ------------------------------------------------------------------
    # Parameters and identity
    # ------------------------------------------------------------------
    @property
    def accuracy(self) -> float:
        """Relative quantile error bound for in-range values."""
        return self._accuracy

    @property
    def count(self) -> int:
        """Total observations, including zero/negative ones."""
        return self._count

    @property
    def bin_counts(self) -> np.ndarray:
        """Copy of the per-bin counts (mainly for tests)."""
        return self._counts.copy()

    def parameters(self) -> Dict[str, float]:
        """The merge-compatibility key: two sketches merge iff these match."""
        return {
            "accuracy": self._accuracy,
            "min_value": self._min_value,
            "max_value": self._max_value,
        }

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Feed one observation."""
        value = float(value)
        if value != value:
            raise ValueError("MergeableHistogramSketch cannot observe NaN")
        self._count += 1
        self._sum += value
        if value <= 0.0:
            self._zero_count += 1
            return
        index = int(
            np.searchsorted(
                self._edges, min(max(value, self._min_value), self._max_value)
            )
        )
        self._counts[index] += 1

    def observe_many(self, values: np.ndarray) -> None:
        """Feed a batch of observations in one vectorized pass.

        Produces exactly the counts the equivalent :meth:`observe` loop
        would — binning goes through the same ``searchsorted`` edges — at a
        fraction of the cost; this is what ``run_shard`` calls on each
        latency column when it hands its result over.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if np.isnan(values).any():
            raise ValueError("MergeableHistogramSketch cannot observe NaN")
        self._count += int(values.size)
        self._sum += float(values.sum())
        positive = values[values > 0.0]
        self._zero_count += int(values.size - positive.size)
        if positive.size == 0:
            return
        clipped = np.clip(positive, self._min_value, self._max_value)
        indices = np.searchsorted(self._edges, clipped)
        self._counts += np.bincount(indices, minlength=self._counts.shape[0]).astype(
            np.int64
        )

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "MergeableHistogramSketch") -> None:
        """Fold ``other`` into this sketch (exact, order-independent)."""
        if self.parameters() != other.parameters():
            raise ValueError(
                f"cannot merge sketches with different parameters: "
                f"{self.parameters()} vs {other.parameters()}"
            )
        self._counts += other._counts
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum

    @classmethod
    def merged(
        cls, sketches: Iterable["MergeableHistogramSketch"]
    ) -> "MergeableHistogramSketch":
        """A new sketch equal to the merge of ``sketches`` (which must agree
        on parameters; an empty iterable yields an empty default sketch)."""
        result: Optional[MergeableHistogramSketch] = None
        for sketch in sketches:
            if result is None:
                result = cls(**sketch.parameters())
            result.merge(sketch)
        return result if result is not None else cls()

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 when empty; zero region reports 0.0)."""
        return self.percentiles((q,))[0]

    def percentiles(self, qs: Iterable[float]) -> List[float]:
        """Several percentiles from one cumulative pass."""
        # A q outside [0, 100], or NaN, raises what ``exact_percentiles`` raises.
        fractions = percentile_fractions(qs)
        if self._count == 0:
            return [0.0] * len(fractions)
        cumulative = np.cumsum(self._counts)
        # Geometric midpoints reuse the edge array: bin i spans
        # (edge[i-1], edge[i]] with min/max closing the ends.
        lower = np.concatenate(([self._min_value], self._edges))
        upper = np.concatenate((self._edges, [self._max_value]))
        midpoints = np.sqrt(lower * upper)
        results: List[float] = []
        for fraction in fractions:
            rank = fraction * self._count
            target = max(1, int(np.ceil(rank)))
            if target <= self._zero_count:
                results.append(0.0)
                continue
            index = int(np.searchsorted(cumulative, target - self._zero_count))
            results.append(float(midpoints[min(index, midpoints.shape[0] - 1)]))
        return results

    def mean(self) -> float:
        """Exact mean of all observations (tracked as a running sum)."""
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def snapshot(self) -> Dict[str, float]:
        """Count, mean, p50, p95 and p99 of everything observed."""
        if self._count == 0:
            return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        p50, p95, p99 = self.percentiles((50, 95, 99))
        return {
            "count": float(self._count),
            "mean": self.mean(),
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

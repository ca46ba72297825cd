"""Operation mixes and record sizing.

An :class:`OperationMix` describes the read/update/insert composition of a
workload (the axis YCSB's core workloads A–D vary), and :class:`RecordSizer`
draws per-record payload sizes.  Both are deliberately small, deterministic
classes so that specs can be compared and serialised in experiment tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..cluster.errors import Settings, fraction
from ..simulation.randomness import LognormalSampler

__all__ = ["OperationMix", "RecordSizer", "READ_HEAVY", "BALANCED", "WRITE_HEAVY", "READ_ONLY"]


@dataclass(frozen=True)
class OperationMix(Settings):
    """Fractions of reads, updates and inserts (must sum to 1)."""

    read_fraction: float = fraction(0.95)
    update_fraction: float = fraction(0.05)
    insert_fraction: float = fraction(0.0)

    def __post_init__(self) -> None:
        total = self.read_fraction + self.update_fraction + self.insert_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation fractions must sum to 1, got {total}")

    def choose(self, rng: np.random.Generator) -> str:
        """Draw ``"read"``, ``"update"`` or ``"insert"`` according to the mix."""
        draw = rng.random()
        if draw < self.read_fraction:
            return "read"
        if draw < self.read_fraction + self.update_fraction:
            return "update"
        return "insert"

    def kind_for(self, draw: float) -> str:
        """Map a uniform draw in ``[0, 1)`` to an operation kind.

        Same thresholds as :meth:`choose`, but the caller supplies the
        uniform — this is how the generator's chunked draw source consumes
        draws from its dedicated ``:mix`` stream.  Kept separate from
        :meth:`choose` (rather than delegating) so the interleaved scalar
        path pays no extra call frame.
        """
        if draw < self.read_fraction:
            return "read"
        if draw < self.read_fraction + self.update_fraction:
            return "update"
        return "insert"

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for experiment tables."""
        return {
            "read_fraction": self.read_fraction,
            "update_fraction": self.update_fraction,
            "insert_fraction": self.insert_fraction,
        }


#: YCSB workload B: 95% reads, 5% updates (read heavy).
READ_HEAVY = OperationMix(read_fraction=0.95, update_fraction=0.05)
#: YCSB workload A: 50% reads, 50% updates (update heavy / balanced).
BALANCED = OperationMix(read_fraction=0.5, update_fraction=0.5)
#: A write-dominated mix (ingest-style applications).
WRITE_HEAVY = OperationMix(read_fraction=0.2, update_fraction=0.7, insert_fraction=0.1)
#: YCSB workload C: 100% reads.
READ_ONLY = OperationMix(read_fraction=1.0, update_fraction=0.0)


class RecordSizer:
    """Draws payload sizes for written records.

    Sizes follow a lognormal distribution around ``mean_size`` with
    coefficient of variation ``cv`` and are clamped to ``[min_size,
    max_size]`` — realistic for web-application blobs without letting a fat
    tail dominate memory accounting.
    """

    def __init__(
        self,
        mean_size: int = 1024,
        cv: float = 0.5,
        min_size: int = 64,
        max_size: int = 65_536,
    ) -> None:
        if mean_size <= 0 or min_size <= 0 or max_size < min_size:
            raise ValueError("invalid record size parameters")
        self._mean = float(mean_size)
        self._cv = max(0.0, float(cv))
        self._min = int(min_size)
        self._max = int(max_size)
        # The sampler caches the CV-derived lognormal constants once for the
        # sizer's lifetime; draws stay bit-identical to the per-call path.
        self._sampler = LognormalSampler(self._cv)

    @property
    def mean_size(self) -> float:
        """Mean payload size in bytes."""
        return self._mean

    def next_size(self, rng: np.random.Generator) -> int:
        """Draw one payload size in bytes."""
        size = self._sampler.sample(rng, self._mean)
        return int(min(self._max, max(self._min, size)))

    def next_sizes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` payload sizes in one chunk (dtype ``int64``).

        Bitwise-equal to ``count`` successive :meth:`next_size` calls on the
        same generator — only safe when no other draw type interleaves on
        that generator (single-consumer stream; see PERFORMANCE.md).  Used by
        the workload preload, where sizes are the only draws.
        """
        sizes = self._sampler.sample_many(rng, self._mean, count)
        return np.clip(sizes, self._min, self._max).astype(np.int64)

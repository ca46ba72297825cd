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

from ..cluster.errors import POSITIVE, Settings, check, fraction
from ..simulation.randomness import LognormalSampler

__all__ = ["OperationMix", "RecordSizer", "READ_HEAVY", "BALANCED", "WRITE_HEAVY", "READ_ONLY"]

#: Coefficient of variation of written record sizes, and the bounds every
#: drawn size is clamped to.
RECORD_SIZE_CV = 0.5
MIN_RECORD_SIZE = 64
MAX_RECORD_SIZE = 65_536


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
    coefficient of variation ``RECORD_SIZE_CV`` and are clamped to ``[MIN_RECORD_SIZE,
    MAX_RECORD_SIZE]`` — realistic for web-application blobs without letting a fat
    tail dominate memory accounting.
    """

    def __init__(self, mean_size: int = 1024) -> None:
        self._mean = float(check("RecordSizer", "mean_size", mean_size, POSITIVE))
        # The sampler caches the CV-derived lognormal constants once for the
        # sizer's lifetime; draws stay bit-identical to the per-call path.
        self._sampler = LognormalSampler(RECORD_SIZE_CV)

    def next_size(self, rng: np.random.Generator) -> int:
        """Draw one payload size in bytes."""
        size = self._sampler.sample(rng, self._mean)
        return int(min(MAX_RECORD_SIZE, max(MIN_RECORD_SIZE, size)))

    def next_sizes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` payload sizes in one chunk (dtype ``int64``).

        Bitwise-equal to ``count`` successive :meth:`next_size` calls on the
        same generator — only safe when no other draw type interleaves on
        that generator (single-consumer stream; see PERFORMANCE.md).  Used by
        the workload preload, where sizes are the only draws.
        """
        sizes = self._sampler.sample_many(rng, self._mean, count)
        return np.clip(sizes, MIN_RECORD_SIZE, MAX_RECORD_SIZE).astype(np.int64)

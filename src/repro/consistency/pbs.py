"""Analytical staleness prediction (PBS-style model).

The controller's planner needs to answer *what-if* questions before acting:
"if I change the read consistency level from ONE to QUORUM, how much smaller
does the probability of a stale read become?", or "how much replication lag
can the cluster tolerate before the staleness SLO is at risk?".  Running the
simulator inside the planner would be circular, so the planner uses a small
closed-form model in the spirit of *Probabilistically Bounded Staleness*
(Bailis et al.): replica apply lag is modelled by an exponential distribution
fitted to the measured mean lag, and the probability that a read observes the
latest write is derived combinatorially from (RF, R, W).

Model
-----
Consider a write acknowledged at consistency level ``W`` on a key with
replication factor ``N``, and a read at consistency level ``R`` issued ``t``
seconds after the acknowledgement.

* The ``W`` replicas that acknowledged have applied the write by definition.
* Each of the remaining ``N - W`` replicas has applied it independently with
  probability ``F(t) = 1 - exp(-t / lag)`` where ``lag`` is the mean
  replication lag.
* The read contacts ``R`` replicas chosen uniformly at random; it returns the
  newest version among them, so it is *fresh* iff at least one contacted
  replica has applied the write.

``P(stale | k applied) = C(N - k, R) / C(N, R)`` (all contacted replicas are
non-applied ones), and ``k = W + Binomial(N - W, F(t))``.  Marginalising over
``k`` gives the staleness probability.
"""

from __future__ import annotations

from math import comb, exp, log

from ..cluster.types import ConsistencyLevel

__all__ = ["StalenessModel"]


class StalenessModel:
    """Closed-form PBS-style staleness estimator."""

    def __init__(self, mean_replication_lag: float) -> None:
        if mean_replication_lag < 0.0:
            raise ValueError("mean_replication_lag must be >= 0")
        self._mean_lag = float(mean_replication_lag)

    def update_lag(self, mean_replication_lag: float) -> None:
        """Refit the model with a new measured mean lag."""
        if mean_replication_lag < 0.0:
            raise ValueError("mean_replication_lag must be >= 0")
        self._mean_lag = float(mean_replication_lag)

    # ------------------------------------------------------------------
    # Core formulas
    # ------------------------------------------------------------------
    def _apply_probability(self, t: float) -> float:
        """Probability a lagging replica has applied the write after ``t`` seconds."""
        if self._mean_lag <= 0.0:
            return 1.0
        if t <= 0.0:
            return 0.0
        return 1.0 - exp(-t / self._mean_lag)

    def stale_probability(
        self,
        t: float,
        replication_factor: int,
        read_acks: int,
        write_acks: int,
    ) -> float:
        """Probability that a read ``t`` seconds after an ack returns stale data."""
        n = int(replication_factor)
        r = min(int(read_acks), n)
        w = min(int(write_acks), n)
        if n < 1 or r < 1 or w < 1:
            raise ValueError("replication_factor, read_acks, write_acks must be >= 1")
        if r + w > n:
            # Quorum intersection: reads always include an acked replica.
            return 0.0
        p_applied = self._apply_probability(t)
        lagging = n - w
        total_choices = comb(n, r)
        stale = 0.0
        for extra in range(lagging + 1):
            applied = w + extra
            if n - applied < r:
                # Not enough non-applied replicas to fill the read set.
                continue
            p_extra = (
                comb(lagging, extra)
                * (p_applied**extra)
                * ((1.0 - p_applied) ** (lagging - extra))
            )
            p_all_miss = comb(n - applied, r) / total_choices
            stale += p_extra * p_all_miss
        return min(1.0, max(0.0, stale))

    def stale_probability_for_levels(
        self,
        t: float,
        replication_factor: int,
        read_level: ConsistencyLevel,
        write_level: ConsistencyLevel,
    ) -> float:
        """Convenience wrapper taking consistency levels instead of ack counts."""
        return self.stale_probability(
            t,
            replication_factor,
            read_level.required_acks(replication_factor),
            write_level.required_acks(replication_factor),
        )

    def expected_window_p(self, quantile: float) -> float:
        """The ``quantile``-th percentile of the lag distribution itself.

        With exponential lag the q-quantile is ``-lag * ln(1 - q)``; the
        planner uses this as a quick estimate of the inconsistency window a
        given mean lag implies, independent of consistency levels.
        """
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self._mean_lag <= 0.0:
            return 0.0
        return -self._mean_lag * log(1.0 - quantile)

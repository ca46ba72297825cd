"""Deterministic random-number streams for the simulator.

Every stochastic component of the system (workload arrivals, network latency,
service times, interference, monitoring probes, ...) draws from its own named
stream.  Streams are derived from a single root seed with
:class:`numpy.random.SeedSequence`, so

* the whole simulation is reproducible from one integer seed, and
* adding draws to one component does not perturb the sequence seen by any
  other component (no cross-contamination between streams).

A stream whose every draw is a standard normal (the network jitter, each
server's service noise) is read through :meth:`RandomStreams.normals`, a
chunk at a time.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat, starmap
from math import exp
from typing import Callable, Dict, Iterable

import numpy as np

__all__ = ["RandomStreams", "LognormalSampler"]

#: Draws fetched per refill of a chunked stream: large enough to amortise the
#: numpy call, small enough not to matter for memory.
_CHUNK = 4096


def _chunked(refill: Callable[[], np.ndarray]) -> Callable[[], object]:
    """Hand out the values of successive ``refill()`` chunks one at a time.

    Only valid when every draw of the stream goes through the returned
    callable — the precondition under which one chunked draw equals the same
    draws made sequentially (PERFORMANCE.md rule 1).  A chunk is drawn when
    the previous one runs out, never ahead of need.  Values come out of the
    chunk's own packed buffer through a ``memoryview`` as native
    floats/ints, and the returned ``__next__`` is a C-level call: no list of
    boxed values is kept per stream, and no Python frame runs per draw.
    """
    return chain.from_iterable(map(memoryview, starmap(refill, repeat(())))).__next__


class RandomStreams:
    """Factory and registry of named, independent random generators.

    ``namespace`` prefixes every stream name before hashing, giving a fully
    disjoint family of streams for the same ``(seed, name)`` pairs.  The
    sharded simulation mode runs each shard under its own namespace
    (``shard{i}/{K}``), so shard workers draw independent randomness from
    one root seed without any stream-name collisions across processes
    (PERFORMANCE.md rule 9).  The default empty namespace hashes names
    exactly as before, keeping every existing sequence bit-identical.
    """

    def __init__(self, seed: int = 0, namespace: str = "") -> None:
        self._seed = int(seed)
        self._namespace = str(namespace)
        self._root = np.random.SeedSequence(self._seed)
        self._generators: Dict[str, np.random.Generator] = {}
        self._normals: Dict[str, Callable[[], float]] = {}

    @property
    def seed(self) -> int:
        """Root seed from which all streams are derived."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The generator for a given ``(seed, namespace, name)`` triple is
        always the same, regardless of creation order, because the child
        seed is derived from a stable hash of the (namespaced) stream name
        rather than from a creation counter.
        """
        generator = self._generators.get(name)
        if generator is None:
            hashed = (
                _stable_hash(f"{self._namespace}::{name}")
                if self._namespace
                else _stable_hash(name)
            )
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(hashed,),
            )
            generator = np.random.default_rng(child)
            self._generators[name] = generator
        return generator

    def streams(self, names: Iterable[str]) -> Dict[str, np.random.Generator]:
        """Materialise several streams at once (convenience for components)."""
        return {name: self.stream(name) for name in names}

    def spawn(self, name: str, index: int) -> np.random.Generator:
        """Return a generator for the ``index``-th member of a family.

        Useful for per-node or per-client streams: ``spawn("node", 3)`` is
        stable under changes to how many nodes exist.
        """
        return self.stream(f"{name}[{index}]")

    def normals(self, name: str) -> Callable[[], float]:
        """The standard normals of stream ``name``, one per call.

        They are the values ``stream(name).standard_normal()`` would return
        call after call, drawn ``standard_normal(4096)`` at a time and only
        when the previous chunk runs out (nothing before the first call).
        There is one source per name, so every consumer of a name shares one
        buffer and the stream's draws stay in sequence however many models
        hold it; nothing may draw from ``stream(name)`` directly as well
        (rule 1).
        """
        source = self._normals.get(name)
        if source is None:
            refill = partial(self.stream(name).standard_normal, _CHUNK)
            source = self._normals[name] = _chunked(refill)
        return source

    def known_streams(self) -> tuple[str, ...]:
        """Names of streams created so far (mainly for tests)."""
        return tuple(sorted(self._generators))


def _stable_hash(name: str) -> int:
    """A deterministic 63-bit hash of ``name`` (Python's ``hash`` is salted)."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return value


def lognormal_from_mean_cv(
    rng: np.random.Generator, mean: float, cv: float
) -> float:
    """Draw a lognormal variate parameterised by mean and coefficient of variation.

    Latency distributions in distributed stores are heavy tailed; a lognormal
    with a configurable coefficient of variation (``cv = std / mean``) is the
    standard lightweight stand-in.  ``cv == 0`` degenerates to the mean.
    """
    if mean <= 0.0:
        return 0.0
    if cv <= 0.0:
        return float(mean)
    sigma2 = np.log(1.0 + cv * cv)
    mu = np.log(mean) - sigma2 / 2.0
    return float(rng.lognormal(mean=mu, sigma=np.sqrt(sigma2)))


class LognormalSampler:
    """Repeated mean/CV-parameterised lognormal draws with cached constants.

    :func:`lognormal_from_mean_cv` recomputes ``log(1 + cv^2)``, ``log(mean)``
    and ``sqrt`` on every call, which dominates the per-message and
    per-request cost in the network and queueing models.  This sampler fixes
    ``cv`` once and memoises ``mu`` per distinct ``mean`` (service demands
    and latency means take a handful of values in steady state), so the hot
    path is one dict probe plus the draw: ``rng.lognormal`` in
    :meth:`sample`, or ``exp(mu + sigma * z)`` from a chunked standard
    normal in :meth:`sample_with`.

    Draws are bit-identical to :func:`lognormal_from_mean_cv`: the cached
    constants are the exact floats the per-call computation produces (held
    as Python floats, an exact conversion), and numpy's lognormal is
    ``exp(mu + sigma * standard_normal())`` with the same libm ``exp``.
    """

    __slots__ = ("_cv", "_sigma", "_sigma2_half", "_mu_cache")

    #: Bound on the ``mean -> mu`` memo; under memory pressure service
    #: demands become continuous-valued and would otherwise grow it forever.
    _MU_CACHE_LIMIT = 256

    def __init__(self, cv: float) -> None:
        self._cv = max(0.0, float(cv))
        if self._cv > 0.0:
            sigma2 = np.log(1.0 + self._cv * self._cv)
            self._sigma = float(np.sqrt(sigma2))
            self._sigma2_half = sigma2 / 2.0
        else:
            self._sigma = 0.0
            self._sigma2_half = 0.0
        self._mu_cache: Dict[float, float] = {}

    @property
    def cv(self) -> float:
        """Coefficient of variation the sampler was built with."""
        return self._cv

    @property
    def sigma(self) -> float:
        """The lognormal ``sigma`` every draw of this sampler uses."""
        return self._sigma

    def mu_for(self, mean: float) -> float:
        """The memoised lognormal ``mu`` of a draw with the given (positive) mean.

        For a caller whose mean changes rarely and that wants to hold the
        constants itself: ``exp(mu_for(m) + sigma * normal())`` is the draw
        :meth:`sample_with` makes, and ``rng.lognormal(mu_for(m), sigma)``
        the one :meth:`sample` makes.
        """
        mu = self._mu_cache.get(mean)
        if mu is None:
            if len(self._mu_cache) >= self._MU_CACHE_LIMIT:
                self._mu_cache.clear()
            mu = float(np.log(mean) - self._sigma2_half)
            self._mu_cache[mean] = mu
        return mu

    def sample(self, rng: np.random.Generator, mean: float) -> float:
        """Draw one variate with the given mean (0 mean -> 0, cv 0 -> mean)."""
        if mean <= 0.0:
            return 0.0
        if self._cv <= 0.0:
            return float(mean)
        return rng.lognormal(self.mu_for(mean), self._sigma)

    def sample_with(self, normal: Callable[[], float], mean: float) -> float:
        """Draw one variate with the given mean from a standard normal source.

        ``normal`` is a source such as :meth:`RandomStreams.normals`.  The
        variate equals :meth:`sample`'s on a generator in the same state, bit
        for bit (pinned in ``tests/test_properties.py``; PERFORMANCE.md
        rule 2).  0 mean -> 0 and cv 0 -> mean, drawing nothing.  A mean so
        large that the variate passes the largest float raises
        ``OverflowError`` (numpy's draw returned ``inf``).
        """
        if mean <= 0.0:
            return 0.0
        if self._cv <= 0.0:
            return float(mean)
        return exp(self.mu_for(mean) + self._sigma * normal())

    def sample_many(self, rng: np.random.Generator, mean: float, count: int) -> np.ndarray:
        """Draw ``count`` variates in one chunk.

        Bitwise-equal to ``count`` successive :meth:`sample` calls on the
        same generator — valid only when that generator has no other
        consumers between those draws (see PERFORMANCE.md).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if mean <= 0.0:
            return np.zeros(count)
        if self._cv <= 0.0:
            return np.full(count, float(mean))
        return rng.lognormal(mean=self.mu_for(mean), sigma=self._sigma, size=count)

"""Seeded randomness for reproducible simulations.

All stochastic behaviour in the framework (network jitter, event-time skew,
workload generation, failure injection points) draws from a :class:`SimRandom`
so that a run is a pure function of its seed.
"""

from __future__ import annotations

import hashlib
import random


class SimRandom:
    """A thin, namespaced wrapper over :class:`random.Random`.

    Components derive independent child generators via :meth:`fork` so that
    adding a new consumer of randomness does not perturb the draws seen by
    existing components (a classic simulation-reproducibility pitfall).
    The (seed, namespace) pair is mixed through a stable digest — Python's
    builtin ``hash`` is salted per process, which would make runs
    irreproducible across invocations.
    """

    def __init__(self, seed: int = 0, namespace: str = "root") -> None:
        self.seed = seed
        self.namespace = namespace
        digest = hashlib.blake2b(
            f"{seed}/{namespace}".encode("utf-8"), digest_size=8
        ).digest()
        self._rng = random.Random(int.from_bytes(digest, "little"))
        #: uniform float in [0, 1): the generator's own bound method, so a
        #: per-record draw (trace sampling, shedding) is one C call
        self.random = self._rng.random

    def fork(self, namespace: str) -> "SimRandom":
        """Create an independent generator for a named component."""
        return SimRandom(self.seed, f"{self.namespace}/{namespace}")

    # Pass-throughs used across the framework -------------------------------
    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample with the given rate."""
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal sample."""
        return self._rng.gauss(mu, sigma)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return self._rng.randint(low, high)

    def choice(self, seq):
        """Uniform choice from a sequence."""
        return self._rng.choice(seq)

    def choices(self, population, weights=None, k=1):
        """Weighted choices with replacement."""
        return self._rng.choices(population, weights=weights, k=k)

    def zipf_index(self, n: int, skew: float) -> int:
        """Draw an index in ``[0, n)`` with Zipfian skew (skew=0 → uniform).

        Uses inverse-CDF sampling over the truncated Zipf distribution; cached
        per (n, skew) so generators can call it per event cheaply.
        """
        if skew <= 0:
            return self._rng.randrange(n)
        cdf = self._zipf_cdf(n, skew)
        u = self._rng.random()
        # Binary search the CDF.
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    _zipf_cache: dict[tuple[int, float], list[float]] = {}

    @classmethod
    def _zipf_cdf(cls, n: int, skew: float) -> list[float]:
        key = (n, skew)
        cached = cls._zipf_cache.get(key)
        if cached is not None:
            return cached
        weights = [1.0 / (i + 1) ** skew for i in range(n)]
        total = sum(weights)
        acc = 0.0
        cdf = []
        for w in weights:
            acc += w
            cdf.append(acc / total)
        cls._zipf_cache[key] = cdf
        return cdf

    def __repr__(self) -> str:
        return f"SimRandom(seed={self.seed}, namespace={self.namespace!r})"

"""Deterministic 64-bit counter-based pseudo-random generator.

Every seeded choice in this package (cell masking, parameter initialization,
self-supervision masks, derived trial seeds) flows through the SplitMix64
generator defined here, so results are reproducible bit-for-bit across
platforms and are independent of numpy's RNG implementation details.

SplitMix64 is a counter-based generator: output ``i`` is a fixed avalanche
mix of ``seed + (i + 1) * GOLDEN`` where GOLDEN = 0x9E3779B97F4A7C15.  The
full definition (mixing constants included) is reproduced in the README so
that other implementations can replicate the streams.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX1) & MASK64
    x ^= x >> 27
    x = (x * _MIX2) & MASK64
    x ^= x >> 31
    return x


class SplitMix64:
    """Sequential view of the SplitMix64 counter stream for ``seed``."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("next_below requires n >= 1")
        limit = MASK64 + 1 - ((MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()


def derive_seed(base: int, stream: int) -> int:
    """Derive an independent child seed (e.g. per trial, per epoch)."""
    return mix64((base & MASK64) ^ mix64((stream + 1) & MASK64))


def _words(seed: int, count: int) -> np.ndarray:
    """Outputs 1..count of ``SplitMix64(seed)`` at once, as uint64 words."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN) + np.uint64(seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _choose_sequential(n: int, k: int, seed: int) -> list[int]:
    rng = SplitMix64(seed)
    pool = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def choose_without_replacement(n: int, k: int, seed: int) -> list[int]:
    """Choose ``k`` of ``n`` indices uniformly, by partial Fisher-Yates.

    The result is a pure function of (n, k, seed).  Selection order is
    discarded: the returned list is sorted.  Step i swaps position i with
    i + ``next_below(n - i)``.  While no draw is rejected, step i uses
    output i + 1 of the stream, so all k words are computed at once and the
    swaps touch a dict of at most 2k positions; a rejected draw shifts the
    stream, and then the sequential generator redoes the choice.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot choose {k} of {n}")
    if k == 0:
        return []
    words = _words(seed, k)
    bounds = np.arange(n, n - k, -1, dtype=np.uint64)
    # next_below(m) rejects u >= 2^64 - (2^64 mod m), and 2^64 mod m is
    # (2^64 - m) mod m.
    if np.any(words > np.uint64(MASK64) - (np.uint64(0) - bounds) % bounds):
        return _choose_sequential(n, k, seed)
    pool: dict[int, int] = {}
    for i, step in enumerate((words % bounds).tolist()):
        j = i + step
        pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
    return sorted(pool.get(i, i) for i in range(k))

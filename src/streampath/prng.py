"""Deterministic pseudo-random numbers for generators and shuffles.

Everything downstream of a seed must be reproducible across platforms and
Python versions, so we avoid ``random.Random`` (its sequence is only
guaranteed per CPython version for some methods) and carry a small
splitmix64 implementation instead.  The constants are the reference ones
from the public domain implementation.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 generator with helpers for bounded ints and shuffles."""

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be non-negative and below 2^64")
        self._state = seed

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Return an int in [0, bound) via Lemire's multiply-shift reduction.

        The slight modulo bias (at most 2**-64 per draw) is irrelevant for
        test-instance generation and keeps the draw count per call fixed,
        which matters for reproducibility.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * bound) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Return an int in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def coin(self) -> bool:
        return bool(self.next_u64() >> 63)

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

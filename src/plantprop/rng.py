"""Portable seedable random source with per-experiment sub-streams.

The generator is xoshiro256++, written out from its published reference
(public-domain code by Blackman and Vigna, prng.di.unimi.it) and seeded
through splitmix64 exactly as its authors recommend. No platform word-size
or stdlib-random dependence, so identical seeds give identical streams
everywhere; golden output vectors for several seeds are committed under
``tests/data/rng_golden.json``.

Uniform doubles take the top 53 bits of a 64-bit word scaled by 2**-53,
which yields the half-open interval [0, 1) exactly in double precision.
"""

from __future__ import annotations

MASK64 = 0xFFFFFFFFFFFFFFFF

# splitmix64 increment ("golden gamma")
_GAMMA = 0x9E3779B97F4A7C15

_INV_2_53 = 2.0**-53


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijection with strong avalanche."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + _GAMMA) & MASK64
    return state, mix64(state)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Xoshiro256pp:
    """xoshiro256++ stream.

    Single-owner mutable state: never share one instance between
    runs that execute at the same time. Derive independent streams from
    independent seeds instead (see :func:`derive_subseed`).
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, s0: int, s1: int, s2: int, s3: int):
        if not (s0 or s1 or s2 or s3):
            raise ValueError("xoshiro256++ state must not be all zero")
        self._s0 = s0 & MASK64
        self._s1 = s1 & MASK64
        self._s2 = s2 & MASK64
        self._s3 = s3 & MASK64

    @classmethod
    def from_seed(cls, seed: int) -> "Xoshiro256pp":
        """Seed the four state words with successive splitmix64 outputs."""
        state = seed & MASK64
        words = []
        for _ in range(4):
            state, out = splitmix64(state)
            words.append(out)
        return cls(*words)

    @property
    def state(self) -> tuple[int, int, int, int]:
        return (self._s0, self._s1, self._s2, self._s3)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s0 + s3) & MASK64, 23) + s0) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def next_uniform(self) -> float:
        """Uniform double in [0, 1), strictly below 1."""
        return (self.next_u64() >> 11) * _INV_2_53


def derive_subseed(
    base_seed: int, function_index: int, factor_index: int, repeat_index: int
) -> int:
    """Mix a base seed and three grid indices into one 64-bit sub-seed.

    Each index is absorbed into the running hash by xor plus a splitmix64
    finalizer round. The map is deterministic and injective in practice;
    the sweep runner additionally hard-checks the full grid for collisions
    before starting any work.
    """
    if function_index < 0 or factor_index < 0 or repeat_index < 0:
        raise ValueError("sub-seed indices must be non-negative")
    h = base_seed & MASK64
    for word in (function_index, factor_index, repeat_index):
        h = mix64(((h ^ (word & MASK64)) + _GAMMA) & MASK64)
    return h

"""Counter-based uniform stream used by the sampling estimators.

Design goal: the i-th uniform of a seeded stream is a pure function of
(seed, i). That makes runs reproducible regardless of chunking, worker
count, or evaluation order, and lets common-random-number schemes reuse
exactly the sample they need. The generator is the splitmix64 finalizer
applied to seed-offset multiples of the golden-ratio increment; it passes
the usual quick uniformity checks and is more than adequate for Monte
Carlo state sampling.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
# word_block's constants as numpy scalars, built once rather than per call
_U_GOLDEN = np.uint64(_GOLDEN)
_U_STEPS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_U_31, _U_11 = np.uint64(31), np.uint64(11)


def mix64(z: int) -> int:
    """splitmix64 finalizer; a bijection on 64-bit integers."""
    z &= _MASK
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def stream_origin(seed: int) -> int:
    """Where a seed's counter sequence starts; mixing decorrelates seeds."""
    return mix64(seed & _MASK)


def uniform_at(seed: int, index: int) -> float:
    """The index-th uniform in [0, 1) of the stream, as a scalar."""
    word = mix64((stream_origin(seed) + (index & _MASK) * _GOLDEN) & _MASK)
    return (word >> 11) * _INV_2_53


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """uniform_at for indices start..start+count-1, vectorised.

    Bit-identical to the scalar path: both use the same integer pipeline,
    and uint64 arithmetic wraps exactly like the masked Python ints.
    """
    return word_block(seed, start, count).astype(np.float64) * _INV_2_53


def word_block(seed: int, start: int, count: int) -> np.ndarray:
    """The 53-bit words k (uint64) behind uniform_block, which is k * 2**-53.

    The splitmix steps run in place on the words and one scratch array.
    """
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= _U_GOLDEN
    z += np.uint64(stream_origin(seed))
    t = np.empty_like(z)
    for shift, mix in _U_STEPS:
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mix
    np.right_shift(z, _U_31, out=t)
    z ^= t
    z >>= _U_11
    return z


def word_limit(p: float) -> int:
    """ceil(p * 2**53), for p in [0, 1]: word k's uniform is below p exactly
    when k < word_limit(p), since p * 2**53 is exact."""
    return math.ceil(p * 2.0 ** 53)

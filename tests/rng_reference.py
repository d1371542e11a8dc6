"""Scalar reference for the counter RNG, an independent oracle for rng.

The index-th uniform of a seeded stream, one index at a time, from the
splitmix64 constants with masked Python ints. rng.word_block computes the
same values with wrapping uint64 arrays, so a slip in either (a shift, a
constant, the seed offset) shows up as a mismatch.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def uniform_at(seed: int, index: int) -> float:
    """The index-th uniform in [0, 1) of the stream, as a scalar."""
    origin = _mix64(seed & _MASK)
    return (_mix64((origin + (index & _MASK) * _GOLDEN) & _MASK) >> 11) * 2.0 ** -53

"""Counter-based uniform stream: scalar/vector agreement and determinism."""

import numpy as np

from plantflow import rng


def test_scalar_vector_bit_identity():
    seed = 42
    block = rng.uniform_block(seed, 1000, 257)
    scalars = np.array([rng.uniform_at(seed, 1000 + i) for i in range(257)])
    assert np.array_equal(block, scalars)


def test_words_behind_the_uniforms():
    words = rng.word_block(42, 1000, 257)
    assert words.dtype == np.uint64 and words.max() < 2 ** 53
    assert np.array_equal(words * 2.0 ** -53, rng.uniform_block(42, 1000, 257))


def test_blocks_compose():
    whole = rng.uniform_block(7, 0, 100)
    parts = np.concatenate([rng.uniform_block(7, 0, 37),
                            rng.uniform_block(7, 37, 41),
                            rng.uniform_block(7, 78, 22)])
    assert np.array_equal(whole, parts)


def test_deterministic_across_calls():
    a = rng.uniform_block(123, 5, 64)
    b = rng.uniform_block(123, 5, 64)
    assert np.array_equal(a, b)


def test_seeds_give_distinct_streams():
    a = rng.uniform_block(1, 0, 64)
    b = rng.uniform_block(2, 0, 64)
    assert not np.array_equal(a, b)


def test_unit_interval_and_spread():
    u = rng.uniform_block(0, 0, 100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # mean of U(0,1) is 0.5 with sd 1/sqrt(12n); allow 5 sigma
    assert abs(u.mean() - 0.5) < 5 * (1 / np.sqrt(12)) / np.sqrt(u.size)


def test_large_indices_wrap_safely():
    # index arithmetic is modulo 2^64; nothing overflows near the top
    big = 2**63 + 11
    block = rng.uniform_block(9, big, 4)
    scalars = np.array([rng.uniform_at(9, big + i) for i in range(4)])
    assert np.array_equal(block, scalars)


def test_negative_seed_normalised():
    # seeds are taken mod 2^64, so -1 and 2^64-1 agree
    assert rng.uniform_at(-1, 0) == rng.uniform_at(2**64 - 1, 0)

import numpy as np
import pytest

from spikybp import rng

import oracles

GOLDEN = 0x9E3779B97F4A7C15
M64 = (1 << 64) - 1


def test_mix_seed_is_splitmix_step():
    for seed in (0, 1, 7, 2**63, M64):
        assert rng.mix_seed(seed) == oracles.splitmix64_reference(seed)


def test_mix64_on_arrays_is_elementwise_and_leaves_its_input():
    x = np.array([0, 1, 1 << 63, M64], dtype=np.uint64)
    before = x.copy()
    x.flags.writeable = False  # an in-place write would raise
    out = rng.mix64(x)
    assert out.dtype == np.uint64
    assert [int(w) for w in out] == [rng.mix64(int(v)) for v in x]
    assert np.array_equal(x, before)


def test_entry_words_match_sequential_splitmix_stream():
    # row 0 is literally the first n_cols outputs of splitmix64 seeded
    # with mix_seed(seed)
    seed = 42
    state = rng.mix_seed(seed)
    expect = []
    for _ in range(16):
        state = (state + GOLDEN) & M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        expect.append(z ^ (z >> 31))
    got = rng.entry_words(seed, 1, 16)[0]
    assert [int(w) for w in got] == expect


def test_entry_words_counter_formula():
    seed = 9001
    s = rng.mix_seed(seed)
    words = rng.entry_words(seed, 3, 5)
    for i in range(3):
        for j in range(5):
            k = (i << 32) | j
            assert int(words[i, j]) == oracles.splitmix64_reference(
                (s + k * GOLDEN) & M64)


def test_submatrix_consistency():
    big = rng.entry_words(3, 12, 20)
    small = rng.entry_words(3, 5, 9)
    assert np.array_equal(small, big[:5, :9])


def test_seed_sensitivity():
    a = rng.entry_words(0, 4, 4)
    b = rng.entry_words(1, 4, 4)
    assert not np.array_equal(a, b)


def test_shape_guards():
    with pytest.raises(ValueError):
        rng.entry_words(0, 0, 3)
    with pytest.raises(ValueError):
        rng.entry_words(0, 3, 1 << 32)


def test_uniform_range_and_mean():
    u = rng.words_to_uniform(rng.entry_words(5, 100, 1000))
    assert u.min() > 0.0 and u.max() < 1.0
    # 1e5 samples: mean within 5 sigma of 1/2, sigma = 1/sqrt(12 n)
    assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12.0 * u.size)


def test_sign_values_and_balance():
    s = rng.words_to_sign(rng.entry_words(8, 100, 1000))
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 5.0 / np.sqrt(s.size)


def test_mix_seed_distinct_over_parts():
    seen = {rng.mix_seed(7, t) for t in range(10000)}
    assert len(seen) == 10000


def test_words_deterministic():
    assert np.array_equal(rng.entry_words(123, 7, 11),
                          rng.entry_words(123, 7, 11))

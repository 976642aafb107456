"""Counter-based substreams: reproducibility and basic distribution sanity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randset_pde import sampling
from randset_pde.randomsets import inverse_normal_cdf
from randset_pde.sampling import open_uniforms, philox_words, standard_normals, substream

# substream keys: any uint64, the independent-draw keys (i + 1) * 2**32 + k, the top key
KEYS = st.one_of(st.integers(0, 2**64 - 1),
                 st.builds(lambda i, k: (i + 1) * 2**32 + k,
                           st.integers(0, 2**32 - 2), st.integers(0, 2**32 - 1)),
                 st.just(2**64 - 1))


def test_substream_replay_is_exact():
    a = standard_normals(42, 7, 100)
    b = standard_normals(42, 7, 100)
    assert np.array_equal(a, b)


def test_substreams_are_distinct():
    assert not np.array_equal(standard_normals(42, 0, 50), standard_normals(42, 1, 50))
    assert not np.array_equal(standard_normals(42, 0, 50), standard_normals(43, 0, 50))


def test_order_independence():
    # drawing substream 5 is unaffected by whether substream 4 was used before
    _ = standard_normals(9, 4, 1000)
    late = standard_normals(9, 5, 10)
    fresh = standard_normals(9, 5, 10)
    assert np.array_equal(late, fresh)


def test_uniforms_strictly_inside_unit_interval():
    u = open_uniforms(substream(1, 2), 100_000)
    assert u.min() > 0.0 and u.max() < 1.0


class _FixedIntegers:
    """Stands in for a Generator whose integers() returns chosen values."""

    def __init__(self, values):
        self.values = np.array(values, dtype=np.uint64)

    def integers(self, low, high, size, dtype):
        return self.values[:size].astype(dtype)


def test_top_integer_stays_below_one():
    top = (1 << 53) - 1
    others = [0, 1, 1 << 52, (1 << 53) - 2]
    u = open_uniforms(_FixedIntegers(others + [top]), 5)
    assert u[-1] < 1.0
    assert u[-1] == 1.0 - 2.0**-53
    # every other value is the unclamped (k + 1/2) / 2**53, bit for bit
    expected = (np.array(others, dtype=np.uint64).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(u[:-1], expected)
    assert np.all(np.isfinite(inverse_normal_cdf(u)))


@pytest.mark.parametrize("n", [1, 520])
def test_block_rows_are_the_single_index_draws(n):
    indices = [0, 7, 3, (1 << 33) + 5]
    block = standard_normals(11, indices, n)
    assert block.shape == (len(indices), n)
    for row, k in zip(block, indices):
        single = standard_normals(11, k, n)
        assert single.shape == (n,)
        assert np.array_equal(row, single)
    assert standard_normals(11, [], n).shape == (0, n)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), keys=st.lists(KEYS, max_size=5),
       n=st.integers(0, 600), as_array=st.booleans())
def test_block_kernel_is_numpy_philox(seed, keys, n, as_array):
    indices = np.array(keys, dtype=np.uint64) if as_array else keys
    words = philox_words(seed, indices, n)
    block = standard_normals(seed, indices, n)
    assert words.shape == block.shape == (len(keys), n)
    for k, row_words, row in zip(keys, words, block):
        assert np.array_equal(row_words, substream(seed, k).bit_generator.random_raw(n))
        assert np.array_equal(row, inverse_normal_cdf(open_uniforms(substream(seed, k), n)))
        assert np.array_equal(standard_normals(seed, k, n), row)


@pytest.mark.parametrize("seed, key", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_keys_outside_uint64_raise_as_numpy_philox_does(seed, key):
    with pytest.raises(Exception) as reference:
        substream(seed, key)
    for index in (key, [0, key], np.array([0, key], dtype=object)):
        with pytest.raises(reference.type):
            standard_normals(seed, index, 3)
    if key < 0:
        with pytest.raises(reference.type):
            standard_normals(seed, np.array([0, key]), 3)


def reference_rows(seed, keys, n):
    """Each key's normals from its own numpy generator, one row per key."""
    return [inverse_normal_cdf(open_uniforms(substream(seed, k), n)) for k in keys]


@pytest.mark.parametrize("n", [0, 1, 20, 520])
@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 16])
def test_draw_path_follows_the_block_size(size, n, monkeypatch):
    # blocks of at most PER_KEY_MAX keys draw key by key, larger ones by the
    # kernel, and both give each key's own generator's rows bit for bit
    assert sampling.PER_KEY_MAX == 8
    kernel_calls = []

    def counting(*args):
        kernel_calls.append(args)
        return philox_words(*args)

    monkeypatch.setattr(sampling, "philox_words", counting)
    keys = [3 * k + (k % 2) * 2**40 for k in range(size)]
    block = standard_normals(5, keys, n)
    assert block.shape == (size, n)
    assert len(kernel_calls) == (size > sampling.PER_KEY_MAX)
    for row, expected in zip(block, reference_rows(5, keys, n)):
        assert np.array_equal(row, expected)


@pytest.mark.parametrize("size", [1, 9])
def test_scalar_list_and_top_uint64_index_on_either_path(size):
    top = 2**64 - 1
    keys = np.arange(size, dtype=np.uint64)
    keys[-1] = top
    expected = reference_rows(2**63, keys.tolist(), 20)
    for index in (keys, keys.tolist()):
        block = standard_normals(2**63, index, 20)
        for row, want in zip(block, expected):
            assert np.array_equal(row, want)
    assert np.array_equal(standard_normals(2**63, top, 20), expected[-1])
    assert np.array_equal(standard_normals(2**63, np.uint64(top), 20), expected[-1])


@pytest.mark.parametrize("bad", [-1, 2**64])
@pytest.mark.parametrize("size", [1, 8, 9, 16])
def test_keys_outside_uint64_raise_overflow_on_either_path(size, bad):
    keys = list(range(size - 1)) + [bad]
    with pytest.raises(OverflowError):
        standard_normals(0, keys, 4)
    if bad < 0:
        with pytest.raises(OverflowError):
            standard_normals(0, np.array(keys), 4)
        with pytest.raises(OverflowError):
            standard_normals(0, np.int64(bad), 4)


def test_normals_moments():
    z = standard_normals(3, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # symmetric tails
    assert abs((z > 1.0).mean() - (z < -1.0).mean()) < 0.005

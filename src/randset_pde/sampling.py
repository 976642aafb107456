"""Reproducible random substreams.

Every Monte Carlo sample draws from its own counter-based substream keyed by
(seed, sample index), so results are independent of execution order and
block size.  Substream (seed, k) is numpy's ``Philox(key=[seed, k])``
(Philox4x64-10, Salmon et al., SC'11); its j-th 53-bit integer is the j-th
64-bit output shifted right by 11, which is what ``Generator.integers(0,
2**53)`` returns at that range.  Philox is a pure function of (key,
counter), so the two ways of computing a substream give the same words.
:func:`standard_normals` draws a block of at most :data:`PER_KEY_MAX` keys
through numpy's own per-key generators (:func:`substream`,
:func:`open_uniforms`), whose set-up costs less than one kernel pass for a
few keys, and a larger block at once with one array kernel,
:func:`philox_words`, which the tests hold to the generators bit for bit.
Standard normal variates are produced by inverse-CDF transform of
open-interval uniforms.
"""

from __future__ import annotations

import numpy as np

from .randomsets import inverse_normal_cdf

__all__ = ["substream", "open_uniforms", "philox_words", "standard_normals"]

# Philox4x64 round multipliers and Weyl key increments (Random123).
_MULTIPLIERS = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_WEYL = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_MUL_LO = _MULTIPLIERS & np.uint64(0xFFFFFFFF)
_MUL_HI = _MULTIPLIERS >> np.uint64(32)
_ROUNDS = 10
# Counter blocks per kernel pass, so that its temporaries stay in cache.
_PASS_BLOCKS = 1 << 13
# Blocks of up to this many keys draw through numpy's per-key generators:
# one kernel pass costs about 225 us, a generator 20-70 us (8 keys of 20
# normals cost the same either way; 16 keys favour the kernel).
PER_KEY_MAX = 8


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for substream ``index`` of the stream keyed by ``seed``.

    Philox is counter-based, so distinct (seed, index) keys give
    statistically independent streams with O(1) setup.
    """
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _open_unit(k: np.ndarray) -> np.ndarray:
    """(k + 1/2) / 2**53 for 53-bit integers k, clamped below 1."""
    return np.minimum((k.astype(np.float64) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def open_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform variates strictly inside (0, 1), one per 53-bit integer k.

    Each is (k + 1/2) / 2**53 rounded to double.  The top k = 2**53 - 1
    rounds to 1.0 and is clamped to 1 - 2**-53, the largest double below 1;
    every other k maps below that, so the clamp changes no other value.
    """
    return _open_unit(rng.integers(0, 1 << 53, size=n, dtype=np.uint64))


def _mulhilo(x: np.ndarray) -> tuple:
    """High and low 64-bit words of the 128-bit products ``_MULTIPLIERS * x``.

    ``x`` is (2, ...); row r is multiplied by multiplier r.  The high word is
    assembled from 32-bit halves, whose products and sums fit in 64 bits.
    """
    x_lo, x_hi = x & np.uint64(0xFFFFFFFF), x >> np.uint64(32)
    lo_lo, hi_lo = _MUL_LO * x_lo, _MUL_HI * x_lo
    cross = (lo_lo >> np.uint64(32)) + (hi_lo & np.uint64(0xFFFFFFFF)) + _MUL_LO * x_hi
    hi = _MUL_HI * x_hi + (hi_lo >> np.uint64(32)) + (cross >> np.uint64(32))
    return hi, _MULTIPLIERS * x


def _keys(seed, indices) -> np.ndarray:
    """(2, B, 1) uint64 Philox keys [seed, index]; OverflowError outside [0, 2**64)."""
    kind = indices.dtype.kind if isinstance(indices, np.ndarray) else None
    if kind not in ("i", "u") or (kind == "i" and indices.size and indices.min() < 0):
        # numpy's own conversion of Python ints rejects values outside [0, 2**64)
        indices = np.array([int(k) for k in indices], dtype=np.uint64)
    key = np.empty((2, indices.size, 1), dtype=np.uint64)
    key[0] = np.array(int(seed), dtype=np.uint64)
    key[1, :, 0] = indices
    return key


def _philox_blocks(key: np.ndarray, blocks: int) -> np.ndarray:
    """(B, 4 * blocks) uint64: Philox4x64-10 of counters [j, 0, 0, 0], j = 1..blocks, per key.

    ``key`` is (2, B, 1).  Every wrapping uint64 product acts on arrays,
    never on numpy scalars, which would warn on overflow.
    """
    rows = key.shape[1]
    # counter words 0 and 2 (even) and 1 and 3 (odd), each (2, B, blocks)
    even = np.zeros((2, rows, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for r in range(_ROUNDS):
        if r:
            key = key + _WEYL
        hi, lo = _mulhilo(even)
        # [hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0]
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    # output word 2j + p of a block is (even, odd)[p][j]
    words = np.stack([even, odd], axis=-1).transpose(1, 2, 0, 3)
    return words.reshape(rows, 4 * blocks)


def philox_words(seed: int, indices, n: int) -> np.ndarray:
    """(B, n) uint64: row b is the first n outputs of ``Philox(key=[seed, indices[b]])``.

    numpy's Philox starts at counter 0 and increments it before each
    4-word block, so block j (j = 1, 2, ...) is Philox4x64-10 of the counter
    [j, 0, 0, 0].  The keys are computed together, in passes over whole rows
    of about ``_PASS_BLOCKS`` counter blocks (one row when a row has more).
    """
    key = _keys(seed, indices)
    rows, blocks = key.shape[1], -(-n // 4)
    words = np.empty((rows, 4 * blocks), dtype=np.uint64)
    step = max(1, _PASS_BLOCKS // max(blocks, 1))
    for start in range(0, rows, step):
        words[start:start + step] = _philox_blocks(key[:, start:start + step], blocks)
    return words[:, :n]


def standard_normals(seed: int, index, n: int) -> np.ndarray:
    """n standard normals from substream (seed, index), via the quantile map.

    ``index`` may also be a sequence of B sample indices: the result is then
    a (B, n) array whose row b is exactly ``standard_normals(seed,
    index[b], n)``.  Row b equals ``inverse_normal_cdf(open_uniforms(
    substream(seed, index[b]), n))`` bit for bit.  A block of at most
    :data:`PER_KEY_MAX` keys is drawn that way, key by key; a larger one by
    one :func:`philox_words` call.  Either way one quantile map follows.
    """
    scalar = np.ndim(index) == 0
    indices = [index] if scalar else index
    if len(indices) <= PER_KEY_MAX:
        # Python ints, so that a key outside [0, 2**64) raises as in _keys
        uniforms = np.empty((len(indices), n))
        for row, k in zip(uniforms, indices):
            row[:] = open_uniforms(substream(int(seed), int(k)), n)
    else:
        uniforms = _open_unit(philox_words(seed, indices, n) >> np.uint64(11))
    normals = inverse_normal_cdf(uniforms)
    return normals[0] if scalar else normals

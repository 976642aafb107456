"""Reproducible random substreams.

Every Monte Carlo sample draws from its own counter-based substream keyed by
(seed, sample index), so results are independent of execution order and
block size.  Standard normal variates are produced by inverse-CDF
transform of open-interval uniforms.
"""

from __future__ import annotations

import numpy as np

from .randomsets import inverse_normal_cdf

__all__ = ["substream", "open_uniforms", "standard_normals"]


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for substream ``index`` of the stream keyed by ``seed``.

    Philox is counter-based, so distinct (seed, index) keys give
    statistically independent streams with O(1) setup.
    """
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def open_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform variates strictly inside (0, 1), one per 53-bit integer k.

    Each is (k + 1/2) / 2**53 rounded to double.  The top k = 2**53 - 1
    rounds to 1.0 and is clamped to 1 - 2**-53, the largest double below 1;
    every other k maps below that, so the clamp changes no other value.
    """
    k = rng.integers(0, 1 << 53, size=n, dtype=np.uint64)
    return np.minimum((k.astype(np.float64) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def standard_normals(seed: int, index, n: int) -> np.ndarray:
    """n standard normals from substream (seed, index), via the quantile map.

    ``index`` may also be a sequence of B sample indices: the result is then
    a (B, n) array whose row b is exactly ``standard_normals(seed,
    index[b], n)``.  Each row keeps its own substream; the quantile map,
    which is elementwise, runs once over the whole block.
    """
    scalar = np.ndim(index) == 0
    indices = [index] if scalar else index
    uniforms = np.empty((len(indices), n))
    for row, k in zip(uniforms, indices):
        row[:] = open_uniforms(substream(seed, int(k)), n)
    normals = inverse_normal_cdf(uniforms)
    return normals[0] if scalar else normals

"""Counter-based random words.

Every word is a pure function of (seed, row, col), so a matrix entry can be
regenerated in isolation and parallel sampling cannot reorder the stream.
The mixer is the splitmix64 finalizer evaluated at a per-entry counter.
"""

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x):
    """splitmix64 finalizer: a 64-bit bijection with full avalanche.

    x is an int or a uint64 array, mixed elementwise: an array's products
    wrap mod 2^64, and the masks do the same to an int's.  The first mask
    copies, so the caller's array is left as it is and the rest works in
    place."""
    x = x & _M64
    x ^= x >> 30
    x *= _MIX1
    x &= _M64
    x ^= x >> 27
    x *= _MIX2
    x &= _M64
    x ^= x >> 31
    return x


def mix_seed(seed: int, *parts: int) -> int:
    """Fold integer labels into a derived 64-bit seed.

    Injective in each successive part for a fixed prefix, so derived
    (base_seed, trial) streams never collide.
    """
    h = mix64((seed + _GOLDEN) & _M64)
    for p in parts:
        h = mix64(((h + _GOLDEN) & _M64) ^ (p & _M64))
    return h


def entry_words(seed: int, n_rows: int, n_cols: int) -> np.ndarray:
    """uint64 word matrix; word (i, j) depends only on (seed, i, j)."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("shape must be positive")
    if n_rows >= (1 << 32) or n_cols >= (1 << 32):
        raise ValueError("shape exceeds the 32-bit counter range")
    s = np.uint64(mix_seed(seed))
    ii = np.arange(n_rows, dtype=np.uint64)[:, None] << np.uint64(32)
    jj = np.arange(n_cols, dtype=np.uint64)[None, :]
    # counter (i<<32)|j is injective, so distinct entries get distinct words
    return mix64(s + ((ii | jj) + np.uint64(1)) * np.uint64(_GOLDEN))


def words_to_uniform(u: np.ndarray) -> np.ndarray:
    """Map words to (0, 1): top 53 bits, offset so 0 and 1 never occur."""
    return ((u >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def words_to_sign(u: np.ndarray) -> np.ndarray:
    """Map bit 0 to a +-1 float; independent of the uniform bits."""
    return 1.0 - 2.0 * (u & np.uint64(1)).astype(np.float64)

"""Counter-based keyed randomness.

All randomness in the package derives from hashing integer key tuples with a
splitmix64-style finalizer and mapping the 64-bit words through the inverse
normal CDF.  No generator state exists anywhere, so every value is a pure
function of its key and is reproducible across platforms that share IEEE-754
doubles and scipy's ``ndtri``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

MASK64 = (1 << 64) - 1
_SEED0 = 0x243F6A8885A308D3  # first 64 bits of pi's fractional part

_G1 = 0x9E3779B97F4A7C15
_G2 = 0xBF58476D1CE4E5B9
_G3 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    x = (x + _G1) & MASK64
    x = ((x ^ (x >> 30)) * _G2) & MASK64
    x = ((x ^ (x >> 27)) * _G3) & MASK64
    return x ^ (x >> 31)


def chain(*parts: int) -> int:
    """Fold an integer tuple into a 64-bit key (order-sensitive)."""
    h = _SEED0
    for p in parts:
        h = mix64(h ^ (p & MASK64))
    return h


def extend_key(base: int, offset: int) -> int:
    """Scalar counterpart of ``chain_offsets``: mix64(base ^ offset)."""
    return mix64(base ^ (offset & MASK64))


def chain_offsets(base, offsets) -> np.ndarray:
    """Vectorized ``mix64(base ^ offset)``; bases and offsets broadcast.

    ``base`` is one key or an array of keys, so ``chain(*parts, a, b)`` over
    arrays ``a`` and ``b`` is ``chain_offsets(chain_offsets(chain(*parts), a), b)``.
    """
    offs = np.asarray(offsets, dtype=np.int64).astype(np.uint64)
    x = np.asarray(base, dtype=np.uint64) ^ offs
    x = x + np.uint64(_G1)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_G2)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_G3)
    return x ^ (x >> np.uint64(31))


def uniform_from_keys(keys: np.ndarray) -> np.ndarray:
    """Uniform (0, 1) doubles, 53 significant bits, never exactly 0 or 1."""
    top = (np.asarray(keys, dtype=np.uint64) >> np.uint64(11)).astype(np.float64)
    return (top + 0.5) * 2.0**-53


def gauss_from_keys(keys: np.ndarray) -> np.ndarray:
    return ndtri(uniform_from_keys(keys))


def gauss_from_key(key: int) -> float:
    return float(ndtri(((key >> 11) + 0.5) * 2.0**-53))


def uniform_from_key(key: int) -> float:
    return ((key >> 11) + 0.5) * 2.0**-53

"""Counter-based keyed randomness.

All randomness in the package derives from hashing integer key tuples with a
splitmix64-style finalizer and mapping the 64-bit words through the inverse
normal CDF.  No generator state exists anywhere, so every value is a pure
function of its key.

What is reproducible where: keys and uniforms are integer and power-of-two
arithmetic, the same bits on every platform.  Normal deviates take their bits
from scipy's ``ndtri`` and the libm under it: with glibc's FMA variants
switched off, some inputs give other bits.  The arithmetic downstream adds
numpy's SIMD dispatch, the BLAS kernel and the BLAS thread count: above
OpenBLAS's size threshold a dot or matrix-vector product is split across
threads, which changes its rounding.  So bytes repeat on one host and
software stack with one thread count, not across them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

MASK64 = (1 << 64) - 1
_SEED0 = 0x243F6A8885A308D3  # first 64 bits of pi's fractional part

_G1 = 0x9E3779B97F4A7C15
_G2 = 0xBF58476D1CE4E5B9
_G3 = 0x94D049BB133111EB
_U1, _U2, _U3 = np.uint64(_G1), np.uint64(_G2), np.uint64(_G3)
_U11, _U27, _U30, _U31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)
_PIECE = 1 << 14


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
    # a 0-d array when both inputs are scalars: numpy scalar arithmetic warns
    # where it wraps, array arithmetic does not
    x = np.asarray(np.asarray(base, dtype=np.uint64) ^ offs)
    x += _U1  # in place from here on: one fresh array per call
    x ^= x >> _U30
    x *= _U2
    x ^= x >> _U27
    x *= _U3
    x ^= x >> _U31
    return x


def uniform_from_keys(keys: np.ndarray) -> np.ndarray:
    """Uniform (0, 1) doubles, 53 significant bits, never exactly 0 or 1."""
    u = (np.asarray(keys, dtype=np.uint64) >> _U11).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def gauss_from_keys(keys: np.ndarray) -> np.ndarray:
    return ndtri(uniform_from_keys(keys))


def gauss_range(base: int, n: int) -> np.ndarray:
    """``gauss_from_keys(chain_offsets(base, np.arange(n)))``, hashed and drawn
    ``_PIECE`` offsets at a time into one output: the same bits, without the
    n-long key and uniform arrays.  Empty when n <= 0, as ``np.arange(n)`` is."""
    out = np.empty(max(n, 0))
    for i in range(0, n, _PIECE):
        stop = min(i + _PIECE, n)
        ndtri(uniform_from_keys(chain_offsets(base, np.arange(i, stop))), out=out[i:stop])
    return out


def gauss_from_key(key: int) -> float:
    return float(ndtri(((key >> 11) + 0.5) * 2.0**-53))

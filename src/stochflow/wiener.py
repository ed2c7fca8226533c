"""Deterministic two-sided Wiener path store.

A path value is a pure function of (realization handle, component, dyadic
time).  Unit-interval endpoint increments are keyed by their integer interval
index, and interior dyadic points are filled in by midpoint displacement keyed
by (interval, level, segment).  Because disjoint intervals use disjoint keys,
increments over disjoint intervals are independent, and a query never touches
keys outside the intervals it spans.  One fill, ``_fill``, serves every
query, over a run of consecutive unit intervals of a block of rows at once.
It hashes the bridge keys of every level in one pass and draws them in one
call, then fills level by level on a grid stored grid point first, so that a
level's midpoints and their neighbours are whole (rows, intervals) slabs.
Since a value is a pure function of its key, this gives the same bits as
filling one interval at a time.

Queries have one batch axis, the realization axis: ``grid_values``,
``increments`` and ``ou_grid`` also take a sequence of handles and return one
row per handle; one handle is the one-row case of the same fill.  Rows go
through in blocks of about ``BLOCK_VALUES`` path values (rows x points per
row), and ``ou_grid`` reduces each block before the next.

Every stored value is quantized to the grid ``2**-32``.  Path magnitudes stay
far below ``2**21``, so sums and differences of path values are exact double
arithmetic: telescoping sums of increments reproduce endpoint differences
bit-for-bit, in any summation order.  The quantization perturbs each Gaussian
by at most ``2**-33``, which is far below every statistical tolerance used
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dyadic import MAX_LEVEL, DyadicTime
from .errors import ConfigError, OrderingError, ResolutionError
from .keyed import _SEED0, MASK64, chain_offsets, extend_key, gauss_from_key, gauss_from_keys

HORIZON = 1 << 16
BLOCK_VALUES = 1 << 14  # so memory does not grow with the number of handles
OU_TOLERANCE = 1e-8  # weight of the history beyond the OU cutoff

_TAG_UNIT = 0x5749454E
_TAG_BRIDGE = 0x4252_4447

_INV_QUANT = 2.0**32
_QUANT = 2.0**-32


def _quantize(x):
    return np.round(x * _INV_QUANT) * _QUANT


def _bridge_scale(level: int) -> float:
    # Conditional std of a Brownian midpoint over a span 2**-(level-1), halved.
    return 2.0 ** (-(level + 1) / 2)


@dataclass(frozen=True)
class NoiseRealization:
    """Handle for one realization of the driving noise.

    ``surgery`` is a test hook: a tuple of ((component, interval), delta)
    entries added to the named unit-interval increments.  It lets tests
    perturb the path on chosen intervals while leaving all other keys alone.
    """

    master_seed: int
    realization_index: int
    num_components: int = 1
    surgery: tuple = ()

    def __post_init__(self):
        if self.realization_index < 0:
            raise ConfigError("realization_index must be nonnegative")
        if self.num_components < 1:
            raise ConfigError("num_components must be positive")

    def with_unit_surgery(self, component: int, interval: int, delta: float) -> "NoiseRealization":
        return replace(self, surgery=self.surgery + (((component, interval), float(delta)),))


class RealizationStream:
    """Counter over realization indices, for reproducible fresh draws."""

    def __init__(self, master_seed: int, num_components: int = 1, start: int = 0):
        self.master_seed = master_seed
        self.num_components = num_components
        self._next = start

    def take(self, n: int) -> tuple[NoiseRealization, ...]:
        first, self._next = self._next, self._next + n
        return tuple(NoiseRealization(self.master_seed, i, self.num_components)
                     for i in range(first, first + n))

    def next(self) -> NoiseRealization:
        return self.take(1)[0]


@dataclass(frozen=True)
class OUConfig:
    """Exponential-kernel moving average of a Wiener path, sampled on the
    ``level`` grid.

    The history integral is truncated at ``cutoff_horizon``, the smallest
    integer with ``exp(-rate * cutoff) <= OU_TOLERANCE``; it must fit the
    path horizon.  The stationary variance ``1 / (2 * rate)`` must be a
    positive finite float, or the variance check would compare zeros.
    """

    rate: float = 1.0
    level: int = 6

    def __post_init__(self):
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        if not 0.0 < self.stationary_variance < math.inf:
            raise ConfigError(f"rate {self.rate} has no positive finite stationary variance")
        if math.log(1.0 / OU_TOLERANCE) / self.rate > HORIZON:
            raise ConfigError(f"rate {self.rate} needs a history beyond the horizon {HORIZON}")
        if not (0 <= self.level <= MAX_LEVEL):
            raise ResolutionError(f"level {self.level} outside [0, {MAX_LEVEL}]")

    @property
    def cutoff_horizon(self) -> int:
        return max(int(math.ceil(math.log(1.0 / OU_TOLERANCE) / self.rate)), 1)

    @property
    def stationary_variance(self) -> float:
        return 1.0 / (2.0 * self.rate)


def _rows(omegas) -> tuple[tuple, bool]:
    """``omegas`` as a tuple of handles, and whether it was one handle."""
    single = isinstance(omegas, NoiseRealization)
    return ((omegas,) if single else tuple(omegas)), single


def row_blocks(omegas: tuple, n_points: int) -> list[tuple]:
    """Slices of ``omegas`` of about ``BLOCK_VALUES`` path values (rows x ``n_points``)."""
    step = max(1, BLOCK_VALUES // max(n_points, 1))
    return [omegas[lo:lo + step] for lo in range(0, max(len(omegas), 1), step)]


def _check_component(omega: NoiseRealization, component: int):
    if not (0 <= component < omega.num_components):
        raise IndexError(f"component {component} out of range [0, {omega.num_components})")


def _check_horizon(t: DyadicTime):
    if abs(t.value) > HORIZON:
        raise ResolutionError(f"|t|={abs(t.value)} exceeds horizon {HORIZON}")


def _row_keys(rows: tuple, component: int) -> np.ndarray:
    """chain(seed, realization, component) per row.

    Unit keys chain on (_TAG_UNIT, n), bridge keys on (_TAG_BRIDGE, interval,
    level, segment).  mix64(a ^ b) is symmetric in a and b, so a column of
    parts can be the base.
    """
    seeds = np.array([o.master_seed & MASK64 for o in rows], dtype=np.uint64)
    reals = np.array([o.realization_index & MASK64 for o in rows], dtype=np.uint64)
    return chain_offsets(chain_offsets(reals, chain_offsets(seeds, _SEED0)), component)


def _unit_increments(rows: tuple, component: int, n0: int, n1: int, row_keys) -> np.ndarray:
    """Quantized N(0,1) increments over unit intervals [n, n+1), n in [n0, n1),
    one row per handle."""
    keys = chain_offsets(chain_offsets(row_keys, _TAG_UNIT)[:, None], np.arange(n0, n1))
    xs = _quantize(gauss_from_keys(keys))
    for r, omega in enumerate(rows):
        for (comp, n), delta in omega.surgery:
            if comp == component and n0 <= n < n1:
                xs[r, n - n0] = _quantize(xs[r, n - n0] + delta)
    return xs


def _integer_values(rows: tuple, component: int, n0: int, n1: int, row_keys=None) -> np.ndarray:
    """W at the integers n0..n1 inclusive, anchored at W(0) = 0, one row per handle.

    All additions are exact on the quantization grid, so the result does not
    depend on evaluation order or on the range requested.
    """
    if row_keys is None:
        row_keys = _row_keys(rows, component)
    lo, hi = min(n0, 0), max(n1, 0)
    xs = _unit_increments(rows, component, lo, hi, row_keys)
    cums = np.concatenate((np.zeros((len(rows), 1)), np.cumsum(xs, axis=1)), axis=1)
    w = cums - cums[:, -lo:1 - lo]
    return w[:, n0 - lo : n1 - lo + 1]


def wiener_at(omega: NoiseRealization, component: int, t: DyadicTime) -> float:
    """Path value W(t).  W(0) = 0 exactly."""
    _check_component(omega, component)
    _check_horizon(t)
    if t.numerator == 0:
        return 0.0
    if t.level == 0:
        return float(_integer_values((omega,), component, t.numerator, t.numerator)[0, 0])
    n = t.floor_int
    anchors = _integer_values((omega,), component, n, n + 1)[0]
    w_left, w_right = float(anchors[0]), float(anchors[1])
    p = t.numerator - (n << t.level)  # odd, in (0, 2**level)
    interval_key = extend_key(extend_key(int(_row_keys((omega,), component)[0]), _TAG_BRIDGE), n)
    seg = 0
    for lam in range(1, t.level + 1):
        z = gauss_from_key(extend_key(extend_key(interval_key, lam), seg))
        wm = float(_quantize((w_left + w_right) * 0.5 + _bridge_scale(lam) * z))
        mid_p = (2 * seg + 1) << (t.level - lam)
        if p == mid_p:
            return wm
        if p < mid_p:
            w_right = wm
            seg = 2 * seg
        else:
            w_left = wm
            seg = 2 * seg + 1
    raise AssertionError("unreachable: canonical dyadic walk must terminate")


def _fill(rows: tuple, component: int, n0: int, n1: int, level: int) -> np.ndarray:
    """W at the 2**level + 1 level-grid points of each unit interval [n, n + 1],
    n0 <= n < n1, ends included, grid point first: shape
    (2**level + 1, rows, n1 - n0).

    The bridge keys of all levels are hashed together, one ``chain_offsets``
    call per key part, and drawn in one ``gauss_from_keys`` call.  Grid point
    first, each level's midpoints and their two neighbours are whole (rows,
    intervals) slabs, so a level is a few in-place passes with no copies.
    """
    row_keys = _row_keys(rows, component)
    anchors = _integer_values(rows, component, n0, n1, row_keys)
    if level:  # the draws before the grid, so that their keys are gone when it is made
        interval_keys = chain_offsets(chain_offsets(row_keys, _TAG_BRIDGE)[:, None],
                                      np.arange(n0, n1))
        level_keys = chain_offsets(interval_keys, np.arange(1, level + 1)[:, None, None])
        sizes = 1 << np.arange(level)  # segments per level
        lvs = np.repeat(np.arange(level), sizes)  # level - 1 of each draw, level after level
        segments = np.arange(sizes.sum()) - (sizes - 1)[lvs]
        z = gauss_from_keys(chain_offsets(level_keys[lvs], segments[:, None, None]))
        z *= np.array([_bridge_scale(lv) for lv in range(1, level + 1)])[lvs, None, None]
    vals = np.empty(((1 << level) + 1,) + anchors[:, 1:].shape)
    vals[0], vals[-1] = anchors[:, :-1], anchors[:, 1:]
    for lv in range(1, level + 1):
        step = 1 << (level - lv)  # the level-lv points sit at odd multiples of step
        mids = vals[step::2 * step]
        # _quantize((left + right) * 0.5 + scale * z), op for op, in place
        np.add(vals[:-step:2 * step], vals[2 * step::2 * step], out=mids)
        mids *= 0.5
        mids += z[(1 << (lv - 1)) - 1:(1 << lv) - 1]
        mids *= _INV_QUANT
        np.round(mids, out=mids)
        mids *= _QUANT
    return vals


def grid_values(omegas, component: int, s: DyadicTime, t: DyadicTime, level: int) -> np.ndarray:
    """W at every level-grid point of [s, t], endpoints included: a 1-D array
    for one handle, one row per handle for a sequence of them.

    One ``_fill`` per block of rows covers the unit intervals that [s, t]
    touches; they are stitched end to end, each shared endpoint kept once.
    """
    rows, single = _rows(omegas)
    for omega in rows:
        _check_component(omega, component)
    _check_horizon(s)
    _check_horizon(t)
    if s > t:
        raise OrderingError(f"grid_values needs s <= t, got {s!r} > {t!r}")
    i0, i1 = s.at_level(level), t.at_level(level)
    n0 = i0 >> level
    n1 = max(-((-i1) >> level), n0 + 1)  # s == t on an integer: one interval
    width = (n1 - n0) << level  # filled points per row, the last endpoint aside
    off = i0 - (n0 << level)
    inner = min(i1 - i0 + 1, width - off)  # points before the last endpoint
    # C order, so that a row is contiguous: np.dot's bits depend on the stride
    out = np.empty((len(rows), i1 - i0 + 1))
    lo = 0
    for block in row_blocks(rows, width + 1):
        vals = _fill(block, component, n0, n1, level)
        dest = out[lo:lo + len(block)]
        dest[:, :inner] = vals[:-1].transpose(1, 2, 0).reshape(len(block), width)[:, off:off + inner]
        dest[:, inner:] = vals[-1, :, -1:]  # the last endpoint, if [s, t] reaches it
        lo += len(block)
    return out[0] if single else out


def increments(omegas, component: int, s: DyadicTime, t: DyadicTime, level: int) -> np.ndarray:
    """Level-grid increments of W over [s, t], one row per handle as in
    ``grid_values``.

    Each entry is a difference of two stored path values, so a row sums
    exactly to ``wiener_at(t) - wiener_at(s)`` in any order.
    """
    if s > t:
        raise OrderingError(f"increments needs s <= t, got {s!r} > {t!r}")
    return np.diff(grid_values(omegas, component, s, t, level))


def ou_grid(omegas, component: int, cfg: OUConfig, s: DyadicTime, t: DyadicTime) -> np.ndarray:
    """Exponential moving average at every cfg.level grid point of [s, t], one
    row per handle as in ``grid_values``.

    Each output value depends only on (omega, component, cfg, grid point), not
    on the requested range or the other handles, so overlapping calls agree
    bit-for-bit.
    """
    if s > t:
        raise OrderingError(f"ou_grid needs s <= t, got {s!r} > {t!r}")
    rows, single = _rows(omegas)
    cut = cfg.cutoff_horizon
    start = s - cut
    if abs(start.value) > HORIZON or abs(t.value) > HORIZON:
        raise ResolutionError("query plus cutoff history leaves the path horizon")
    level = cfg.level
    h = 2.0**-level
    m = cut << level
    # Weight for the increment whose left endpoint is tau - cutoff + j*h.
    weights = np.exp(-cfg.rate * h * np.arange(m, 0, -1, dtype=np.float64))
    n_pts = (t.at_level(level) - s.at_level(level)) + 1
    # Each block of rows is reduced, one np.dot per row and point, before the next.
    out = np.array([[np.dot(weights, dw[i : i + m]) for i in range(n_pts)]
                    for block in row_blocks(rows, m + n_pts)
                    for dw in increments(block, component, start, t, level)])
    return out[0] if single else out


def ou_at(omega: NoiseRealization, component: int, cfg: OUConfig, t: DyadicTime) -> float:
    """Stationary exponential average of the path history up to t."""
    return float(ou_grid(omega, component, cfg, t, t)[0])

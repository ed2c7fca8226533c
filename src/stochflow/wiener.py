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
The fill runs in units of ``2**-32``, so that a level's rounding needs no
scaling; multiplying by a power of two is exact, so every step has the bits
of the step on the ``2**-32`` grid.  Since a value is a pure function of its
key, this gives the same bits as filling one interval at a time.

Queries have one batch axis, the realization axis: ``grid_values``,
``increments`` and ``ou_grid`` also take a sequence of handles and return one
row per handle; one handle is the one-row case of the same fill.  Rows go
through in blocks of about ``BLOCK_VALUES`` path values (rows x points per
row).  ``increment_rows`` yields the ``increments`` rows one by one, a block
per query, so ``ou_grid`` and the linear model reduce each block before the
next.  ``ou_grid`` reads one history per row for all its output points, which
may sit on a coarser grid, so points whose histories overlap share one fill.

Every stored value is quantized to the grid ``2**-32``.  Path magnitudes stay
far below ``2**21``, so sums and differences of path values are exact double
arithmetic: telescoping sums of increments reproduce endpoint differences
bit-for-bit, in any summation order.  The quantization perturbs each Gaussian
by at most ``2**-33``, which is far below every statistical tolerance used
here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dyadic import MAX_LEVEL, DyadicTime
from .errors import ConfigError, HorizonError, OrderingError, ResolutionError
from .keyed import chain, chain_offsets, extend_key, gauss_from_key, gauss_from_keys

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

    @functools.cached_property
    def _key(self) -> int:
        """chain(master_seed, realization_index): every key of this handle
        chains on it.  Cached in the instance dict, so not a field: equality
        and hashing ignore it."""
        return chain(self.master_seed, self.realization_index)


class RealizationStream:
    """Counter over realization indices, for reproducible fresh draws."""

    def __init__(self, master_seed: int, num_components: int = 1, start: int = 0):
        self.master_seed = master_seed
        self.num_components = num_components
        self._next = start

    def take(self, n: int) -> tuple[NoiseRealization, ...]:
        if n < 0:
            raise ConfigError(f"cannot take {n} realizations")
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


def _row_blocks(omegas: tuple, n_points: int) -> list[tuple]:
    """Slices of ``omegas`` of about ``BLOCK_VALUES`` path values (rows x
    ``n_points``); none for no handles."""
    step = max(1, BLOCK_VALUES // max(n_points, 1))
    return [omegas[lo:lo + step] for lo in range(0, len(omegas), step)]


def _check_component(omega: NoiseRealization, component: int):
    if not (0 <= component < omega.num_components):
        raise IndexError(f"component {component} out of range [0, {omega.num_components})")


def _check_horizon(t: DyadicTime):
    if abs(t.value) > HORIZON:
        raise HorizonError(f"|t|={abs(t.value)} exceeds horizon {HORIZON}")


def _row_keys(rows: tuple, component: int) -> np.ndarray:
    """chain(seed, realization, component) per row.

    Unit keys chain on (_TAG_UNIT, n), bridge keys on (_TAG_BRIDGE, interval,
    level, segment).
    """
    return chain_offsets(np.array([o._key for o in rows], dtype=np.uint64), component)


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
    interval_key = extend_key(extend_key(extend_key(omega._key, component), _TAG_BRIDGE), n)
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


@functools.lru_cache(maxsize=8)  # bounded: a deep level's tables are large
def _level_tables(level: int) -> tuple:
    """Read-only tables of a level-``level`` fill, one entry per bridge draw,
    draws level after level: each draw's level - 1, the level offsets
    1..level, each draw's segment, and each draw's bridge scale times
    ``2**32``."""
    sizes = 1 << np.arange(level)  # segments per level
    lvs = np.repeat(np.arange(level), sizes)
    levels = np.arange(1, level + 1)[:, None, None]
    segments = (np.arange(sizes.sum()) - (sizes - 1)[lvs])[:, None, None]
    scales = np.array([_bridge_scale(lv) * _INV_QUANT for lv in range(1, level + 1)])
    scales = scales[lvs, None, None]
    for table in (lvs, levels, segments, scales):
        table.flags.writeable = False
    return lvs, levels, segments, scales


def _fill(rows: tuple, component: int, n0: int, n1: int, level: int) -> np.ndarray:
    """W at the 2**level + 1 level-grid points of each unit interval [n, n + 1],
    n0 <= n < n1, ends included, grid point first: shape
    (2**level + 1, rows, n1 - n0).

    The bridge keys of all levels are hashed together, one ``chain_offsets``
    call per key part, and drawn in one ``gauss_from_keys`` call.  Grid point
    first, each level's midpoints and their two neighbours are whole (rows,
    intervals) slabs, so a level is a few in-place passes with no copies.
    The levels run in units of ``2**-32``: scaling by a power of two commutes
    with every rounding step (no value overflows or is subnormal), so each
    step is the step on the ``2**-32`` grid times ``2**32``, at any magnitude.
    """
    row_keys = _row_keys(rows, component)
    anchors = _integer_values(rows, component, n0, n1, row_keys)
    if level:  # the draws before the grid, so that their keys are gone when it is made
        lvs, levels, segments, scales = _level_tables(level)
        interval_keys = chain_offsets(chain_offsets(row_keys, _TAG_BRIDGE)[:, None],
                                      np.arange(n0, n1))
        z = gauss_from_keys(chain_offsets(chain_offsets(interval_keys, levels)[lvs], segments))
        z *= scales
    vals = np.empty(((1 << level) + 1,) + anchors[:, 1:].shape)
    np.multiply(anchors[:, :-1], _INV_QUANT, out=vals[0])
    np.multiply(anchors[:, 1:], _INV_QUANT, out=vals[-1])
    for lv in range(1, level + 1):
        step = 1 << (level - lv)  # the level-lv points sit at odd multiples of step
        mids = vals[step::2 * step]
        # _quantize((left + right) * 0.5 + scale * z) times 2**32, op for op, in place
        np.add(vals[:-step:2 * step], vals[2 * step::2 * step], out=mids)
        mids *= 0.5
        mids += z[(1 << (lv - 1)) - 1:(1 << lv) - 1]
        np.round(mids, out=mids)
    vals *= _QUANT
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
    for block in _row_blocks(rows, width + 1):
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


def increment_rows(omegas, component: int, s: DyadicTime, t: DyadicTime, level: int):
    """Each handle's ``increments`` row over [s, t] in turn.  Lazy: one
    ``increments`` query per block of about ``BLOCK_VALUES`` path values,
    made when its first row is read, so nothing is filled until then."""
    rows = tuple(omegas)
    for block in _row_blocks(rows, t.at_level(level) - s.at_level(level) + 1):
        yield from increments(block, component, s, t, level)


def ou_grid(omegas, component: int, cfg: OUConfig, s: DyadicTime, t: DyadicTime,
            level: int | None = None) -> np.ndarray:
    """Exponential moving average at every ``level`` grid point of [s, t], one
    row per handle as in ``grid_values``.  ``level`` defaults to cfg.level and
    may not exceed it.

    Each row reads its cfg.level increments over [s - cutoff, t] from
    ``increment_rows``, and each output point is one np.dot over the
    contiguous stretch that its history spans.  Each output value depends
    only on (omega, component, cfg, grid point), not on the requested range,
    the output level or the other handles, so overlapping calls agree bit-for-bit.
    """
    if s > t:
        raise OrderingError(f"ou_grid needs s <= t, got {s!r} > {t!r}")
    if level is None:
        level = cfg.level
    if level > cfg.level:
        raise ResolutionError(f"output level {level} above the OU grid level {cfg.level}")
    rows, single = _rows(omegas)
    cut = cfg.cutoff_horizon
    start = s - cut
    if abs(start.value) > HORIZON or abs(t.value) > HORIZON:
        raise HorizonError("query plus cutoff history leaves the path horizon")
    h = 2.0**-cfg.level
    m = cut << cfg.level
    # Weight for the increment whose left endpoint is tau - cutoff + j*h.
    weights = np.exp(-cfg.rate * h * np.arange(m, 0, -1, dtype=np.float64))
    stride = 1 << (cfg.level - level)  # OU grid steps between output points
    firsts = range(0, (t.at_level(level) - s.at_level(level)) * stride + 1, stride)
    out = np.empty((len(rows), len(firsts)))
    for r, dw in enumerate(increment_rows(rows, component, start, t, cfg.level)):
        out[r] = [np.dot(weights, dw[i:i + m]) for i in firsts]
    return out[0] if single else out


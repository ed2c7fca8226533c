"""Deterministic two-sided Wiener path store.

A path value is a pure function of (realization handle, component, dyadic
time).  Unit-interval endpoint increments are keyed by their integer interval
index, and interior dyadic points are filled in by midpoint displacement keyed
by (interval, level, segment).  Because disjoint intervals use disjoint keys,
increments over disjoint intervals are independent, and a query never touches
keys outside the intervals it spans.  ``grid_values`` fills level by level
across all unit intervals of a query at once; since a value is a pure
function of its key, this gives the same bits as filling one interval at a
time.

Every stored value is quantized to the grid ``2**-32``.  Path magnitudes stay
far below ``2**21``, so sums and differences of path values are exact double
arithmetic: telescoping sums of increments reproduce endpoint differences
bit-for-bit, in any summation order.  The quantization perturbs each Gaussian
by at most ``2**-33``, which is far below every statistical tolerance used
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_LEVEL, DyadicTime
from .errors import ConfigError, OrderingError, ResolutionError
from .keyed import chain, chain_offsets, extend_key, gauss_from_key, gauss_from_keys

HORIZON = 1 << 16

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
        entry = ((component, interval), float(delta))
        return NoiseRealization(
            self.master_seed,
            self.realization_index,
            self.num_components,
            self.surgery + (entry,),
        )


class RealizationStream:
    """Counter over realization indices, for reproducible fresh draws."""

    def __init__(self, master_seed: int, num_components: int = 1, start: int = 0):
        self.master_seed = master_seed
        self.num_components = num_components
        self._next = start

    def take(self, n: int) -> list[NoiseRealization]:
        out = [
            NoiseRealization(self.master_seed, self._next + i, self.num_components)
            for i in range(n)
        ]
        self._next += n
        return out

    def next(self) -> NoiseRealization:
        return self.take(1)[0]


@dataclass(frozen=True)
class OUConfig:
    """Exponential-kernel moving average of a Wiener path.

    ``cutoff_horizon`` truncates the history integral; the default is the
    smallest integer with ``exp(-rate * cutoff) <= tolerance``.
    """

    rate: float = 1.0
    level: int = 6
    cutoff_horizon: int = 0
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        if not (0 <= self.level <= MAX_LEVEL):
            raise ResolutionError(f"level {self.level} outside [0, {MAX_LEVEL}]")
        if self.cutoff_horizon == 0:
            cut = int(math.ceil(math.log(1.0 / self.tolerance) / self.rate))
            object.__setattr__(self, "cutoff_horizon", max(cut, 1))
        if math.exp(-self.rate * self.cutoff_horizon) > self.tolerance * (1 + 1e-12):
            raise ConfigError("cutoff_horizon too short for the requested tolerance")

    @property
    def stationary_variance(self) -> float:
        return 1.0 / (2.0 * self.rate)


def _check_component(omega: NoiseRealization, component: int):
    if not (0 <= component < omega.num_components):
        raise IndexError(
            f"component {component} out of range [0, {omega.num_components})"
        )


def _check_horizon(t: DyadicTime):
    if abs(t.value) > HORIZON:
        raise ResolutionError(f"|t|={abs(t.value)} exceeds horizon {HORIZON}")


def _unit_base(omega: NoiseRealization, component: int) -> int:
    return chain(omega.master_seed, omega.realization_index, component, _TAG_UNIT)


def _bridge_root(omega: NoiseRealization, component: int) -> int:
    # The bridge key of (interval, level, segment) is
    # chain(seed, realization, component, _TAG_BRIDGE, interval, level, segment).
    return chain(omega.master_seed, omega.realization_index, component, _TAG_BRIDGE)


def _unit_increments(omega: NoiseRealization, component: int, n0: int, n1: int) -> np.ndarray:
    """Quantized N(0,1) increments over unit intervals [n, n+1), n in [n0, n1)."""
    if n1 <= n0:
        return np.empty(0)
    keys = chain_offsets(_unit_base(omega, component), np.arange(n0, n1))
    xs = _quantize(gauss_from_keys(keys))
    for (comp, n), delta in omega.surgery:
        if comp == component and n0 <= n < n1:
            xs[n - n0] = _quantize(xs[n - n0] + delta)
    return xs


def _integer_values(omega: NoiseRealization, component: int, n0: int, n1: int) -> np.ndarray:
    """W at the integers n0..n1 inclusive, anchored at W(0) = 0.

    All additions are exact on the quantization grid, so the result does not
    depend on evaluation order or on the range requested.
    """
    lo, hi = min(n0, 0), max(n1, 0)
    xs = _unit_increments(omega, component, lo, hi)
    cums = np.concatenate(([0.0], np.cumsum(xs)))
    w = cums - cums[-lo]
    return w[n0 - lo : n1 - lo + 1]


def wiener_at(omega: NoiseRealization, component: int, t: DyadicTime) -> float:
    """Path value W(t).  W(0) = 0 exactly."""
    _check_component(omega, component)
    _check_horizon(t)
    if t.numerator == 0:
        return 0.0
    if t.level == 0:
        return float(_integer_values(omega, component, t.numerator, t.numerator)[0])
    n = t.floor_int
    anchors = _integer_values(omega, component, n, n + 1)
    w_left, w_right = float(anchors[0]), float(anchors[1])
    p = t.numerator - (n << t.level)  # odd, in (0, 2**level)
    interval_key = extend_key(_bridge_root(omega, component), n)
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


def grid_values(
    omega: NoiseRealization, component: int, s: DyadicTime, t: DyadicTime, level: int
) -> np.ndarray:
    """W at every level-grid point of [s, t], endpoints included."""
    _check_component(omega, component)
    _check_horizon(s)
    _check_horizon(t)
    if s > t:
        raise OrderingError(f"grid_values needs s <= t, got {s!r} > {t!r}")
    i0, i1 = s.at_level(level), t.at_level(level)
    n0 = i0 >> level
    n1 = -((-i1) >> level)  # ceil division
    if level == 0:
        return _integer_values(omega, component, i0, i1)
    if n1 == n0:  # s == t on an integer
        return _integer_values(omega, component, n0, n0)
    anchors = _integer_values(omega, component, n0, n1)
    interval_keys = chain_offsets(_bridge_root(omega, component), np.arange(n0, n1))
    # Row j holds the level-lv grid of unit interval n0 + j, both ends included.
    vals = np.stack([anchors[:-1], anchors[1:]], axis=1)
    for lv in range(1, level + 1):
        level_keys = chain_offsets(interval_keys, lv)[:, None]
        z = gauss_from_keys(chain_offsets(level_keys, np.arange(1 << (lv - 1))))
        mids = _quantize((vals[:, :-1] + vals[:, 1:]) * 0.5 + _bridge_scale(lv) * z)
        merged = np.empty((n1 - n0, (1 << lv) + 1))
        merged[:, 0::2] = vals
        merged[:, 1::2] = mids
        vals = merged
    full = np.append(vals[:, :-1].ravel(), vals[-1, -1])
    off = i0 - (n0 << level)
    return full[off : off + (i1 - i0) + 1]


def increments(
    omega: NoiseRealization, component: int, s: DyadicTime, t: DyadicTime, level: int
) -> np.ndarray:
    """Level-grid increments of W over [s, t].

    Each entry is a difference of two stored path values, so the array sums
    exactly to ``wiener_at(t) - wiener_at(s)`` in any order.
    """
    if s > t:
        raise OrderingError(f"increments needs s <= t, got {s!r} > {t!r}")
    gv = grid_values(omega, component, s, t, level)
    return np.diff(gv)


def ou_grid(
    omega: NoiseRealization,
    component: int,
    cfg: OUConfig,
    s: DyadicTime,
    t: DyadicTime,
) -> np.ndarray:
    """Exponential moving average at every cfg.level grid point of [s, t].

    Each output value depends only on (omega, component, cfg, grid point), not
    on the requested range, so overlapping calls agree bit-for-bit.
    """
    if s > t:
        raise OrderingError(f"ou_grid needs s <= t, got {s!r} > {t!r}")
    cut = cfg.cutoff_horizon
    start = s - cut
    if abs(start.value) > HORIZON or abs(t.value) > HORIZON:
        raise ResolutionError("query plus cutoff history leaves the path horizon")
    level = cfg.level
    h = 2.0**-level
    m = cut << level
    dw = increments(omega, component, start, t, level)
    # Weight for the increment whose left endpoint is tau - cutoff + j*h.
    weights = np.exp(-cfg.rate * h * np.arange(m, 0, -1, dtype=np.float64))
    n_pts = (t.at_level(level) - s.at_level(level)) + 1
    out = np.empty(n_pts)
    for i in range(n_pts):
        seg = np.array(dw[i : i + m])
        out[i] = float(np.dot(weights, seg))
    return out


def ou_at(omega: NoiseRealization, component: int, cfg: OUConfig, t: DyadicTime) -> float:
    """Stationary exponential average of the path history up to t."""
    return float(ou_grid(omega, component, cfg, t, t)[0])

"""Weighted-particle probability measures on R^d.

Measures are immutable value objects.  The weak-convergence metric is the
energy distance ``2 E|X-Y| - E|X-X'| - E|Y-Y'|`` evaluated exactly on the
weighted particle sets; it is zero iff the two discrete distributions
coincide, and its square root satisfies the triangle inequality.  In 1D it
is ``2 * integral of (F - G)^2`` over the merged sorted support, a sum of
non-negative terms, so it is exactly >= 0.  Each measure sorts its 1D support
once and keeps it; a distance merges the two sorted runs.  A measure whose
weights are all equal sorts its values alone, with no index, and a distance
between two such measures signs one weight per side from the merge index and
merges ties without ordering their weights: copies of one value add to the
same bits in any order.  The bits are those of the general path.

For d > 1 no n x m distance matrix is built: ``_pair_distances`` yields the
matrix in blocks of ``_BLOCK_ROWS`` rows, so memory grows with n + m.  Each
pair distance adds the squared coordinate gaps one coordinate at a time, first
to last, then takes the root; a pairwise or einsum sum would round otherwise,
and the tests hold this order to a reference bit for bit.  The energy terms add
the blocks' contributions in block order.

``to_table`` formats each distinct bit pattern of a column once and joins each
distinct row once, so a measure that has collapsed onto a few points costs a
few conversions and joins, and one gather of the finished lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dyadic import DyadicTime
from .errors import ConfigError, EvaluationError, StateError
from .keyed import chain, chain_offsets, gauss_from_keys

_WEIGHT_TOL = 1e-12
DEFAULT_PARTICLES = 1 << 10
_BLOCK_ROWS = 256

_TAG_SAMPLE = 0x53414D50


@dataclass(frozen=True)
class EmpiricalMeasure:
    particles: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.particles, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0] or not pts.size:  # no points, or no coordinate
            raise ConfigError("particles and weights must have equal length >= 1, dim >= 1")
        if not np.all(np.isfinite(pts)):
            raise StateError("particles contain non-finite entries")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ConfigError("weights must be finite and nonnegative")
        with np.errstate(over="ignore"):
            total = w.sum()
        if total <= 0:
            raise ConfigError("weights must not all vanish")
        if not np.isfinite(total):
            raise ConfigError("weights must have a finite sum")
        if abs(total - 1.0) > _WEIGHT_TOL:
            w = w / total
        pts = pts.copy()
        w = w.copy()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "particles", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def dirac(cls, x) -> "EmpiricalMeasure":
        pt = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(pt[None, :], np.array([1.0]))

    @classmethod
    def equal_weight(cls, points) -> "EmpiricalMeasure":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = pts.shape[0]  # none: the constructor refuses the empty measure
        return cls(pts, np.full(n, 1.0 / max(n, 1)))

    @property
    def dim(self) -> int:
        return self.particles.shape[1]

    @property
    def size(self) -> int:
        return self.particles.shape[0]

    @cached_property
    def _equal_weights(self) -> bool:
        """Whether all weights are equal, and so have the same bits: they never all vanish."""
        return bool(self.weights.min() == self.weights.max())

    @cached_property
    def _sorted_1d(self) -> tuple[np.ndarray, np.ndarray]:
        """The first coordinate in ascending order and the weights in that order,
        read-only; ``particles`` is read-only, so this cannot go stale."""
        if self._equal_weights:
            z, w = np.sort(self.particles[:, 0]), self.weights
        else:
            order = np.argsort(self.particles[:, 0])
            z, w = self.particles[order, 0], self.weights[order]
            w.setflags(write=False)
        z.setflags(write=False)
        return z, w

    def mean(self) -> np.ndarray:
        return self.weights @ self.particles

    def spread(self) -> float:
        """Weighted rms distance from the mean.

        Corrected two-pass form: the rounding error of the mean can exceed a
        tiny spread, so the weighted mean of the residuals is removed again.
        """
        centered = self.particles - self.mean()
        centered -= self.weights @ centered
        return float(np.sqrt(self.weights @ np.sum(centered * centered, axis=1)))


def pushforward(mu: EmpiricalMeasure, g: Callable) -> EmpiricalMeasure:
    """Image measure under a state map; weights are untouched."""
    out = np.stack([np.atleast_1d(np.asarray(g(x), dtype=float)) for x in mu.particles])
    if not np.all(np.isfinite(out)):
        raise StateError("state map produced non-finite output")
    return EmpiricalMeasure(out, mu.weights)


def expect(mu: EmpiricalMeasure, f: Callable) -> float:
    vals = np.array([f(x) for x in mu.particles], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("test function produced non-finite values")
    return float(mu.weights @ vals)


def distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Energy distance between two weighted particle measures."""
    if mu.dim != nu.dim:
        raise StateError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.dim == 1:
        # a stable sort of two sorted runs is one merge; tied points are merged
        # in an order of their own, so the result does not depend on how either
        # measure's own sort ordered them
        (za, wa), (zb, wb) = mu._sorted_1d, nu._sorted_1d
        z = np.concatenate((za, zb))
        order = np.argsort(z, kind="stable")
        z = z[order]
        equal = mu._equal_weights and nu._equal_weights
        if equal:
            w = np.where(order < za.size, wa[0], -wb[0])
        else:
            w = np.concatenate((wa, -wb))[order]
        del order
        new = z[1:] != z[:-1]
        if not new.all():
            z, w = _merge_ties(z, w, new, equal)
        gap = np.cumsum(w[:-1])
        del w
        gap *= gap
        return float(2.0 * np.dot(np.diff(z), gap))
    return float(2.0 * _mean_pair_distance(mu, nu) - _mean_pair_distance(mu, mu)
                 - _mean_pair_distance(nu, nu))


def _merge_ties(z: np.ndarray, w: np.ndarray, new: np.ndarray, equal: bool = False):
    """Collapse each run of equal sorted points to one point with the run's net weight.

    Each measure's weights in a run are added smallest first, so the net weight
    depends neither on which measure is passed first nor on the particle order.
    Without ties both orders already fix the signed weights' sequence up to sign.
    When each measure's weights are ``equal``, a run adds copies of one value
    per sign, the same bits in any order, so the sort is skipped.
    """
    start = np.concatenate(([True], new))
    tied = ~(start & np.concatenate((new, [True])))
    run = np.cumsum(start[tied]) - 1
    v = w[tied]
    if not equal:
        order = np.lexsort((np.abs(v), run))
        run, v = run[order], v[order]
    k = run[-1] + 1
    pos = v > 0
    net = w[start]
    net[tied[start]] = (np.bincount(run[pos], v[pos], minlength=k)
                        - np.bincount(run[~pos], -v[~pos], minlength=k))
    return z[start], net


def _mean_pair_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """E|X - Y| for independent X ~ mu and Y ~ nu, summed block by block."""
    w = np.split(mu.weights, range(_BLOCK_ROWS, mu.size, _BLOCK_ROWS))
    blocks = _pair_distances(mu.particles, nu.particles)
    return sum(wi @ (d @ nu.weights) for wi, d in zip(w, blocks))


def _pair_distances(a: np.ndarray, b: np.ndarray):
    """Row blocks of the matrix ``|a_i - b_j|``, ``_BLOCK_ROWS`` rows of a each.

    NaN and infinite coordinates propagate as in ``sqrt(sum of squares)``,
    without warnings.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    for i in range(0, a.shape[0], _BLOCK_ROWS):
        rows = a[i:i + _BLOCK_ROWS]
        with np.errstate(invalid="ignore", over="ignore"):
            gap = np.subtract.outer(rows[:, 0], b[:, 0])
            s = gap * gap
            for k in range(1, a.shape[1]):
                np.subtract.outer(rows[:, k], b[:, k], out=gap)
                gap *= gap
                s += gap
        yield np.sqrt(s, out=s)


def mixture(measures, mix_weights) -> EmpiricalMeasure:
    measures = list(measures)
    w = np.asarray(mix_weights, dtype=float)
    if len(measures) != w.shape[0]:
        raise ConfigError("one mixing weight per measure required")
    if np.any(w < 0) or abs(w.sum() - 1.0) > _WEIGHT_TOL:
        raise ConfigError("mixing weights must be nonnegative and sum to 1")
    pts = np.concatenate([m.particles for m in measures])
    ws = np.concatenate([wi * m.weights for wi, m in zip(w, measures)])
    return EmpiricalMeasure(pts, ws)


# -- serialization ----------------------------------------------------------

def to_table(mu: EmpiricalMeasure) -> str:
    """Columnar text: one particle per row, weight first, 17 significant digits.

    ``%.17g`` runs once per distinct bit pattern of a column (0.0 != -0.0), and
    each distinct row is joined once.
    """
    texts, inverses = [], []
    row, rows = np.zeros(mu.size, dtype=np.int64), 1
    for col in (mu.weights, *mu.particles.T):
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        texts.append(np.array(["%.17g" % v for v in bits.view(np.float64).tolist()],
                              dtype=object))
        inverses.append(inverse)
        # an id for each row's cells so far; numbered densely again after each
        # column, it stays below the row count squared and cannot overflow
        row, rows = _number_distinct(row * bits.size + inverse, rows * bits.size)
    rep = np.empty(rows, dtype=np.intp)
    rep[row] = np.arange(mu.size)  # any row with that id: all its columns agree
    parts = [text[inverse[rep]].tolist() for text, inverse in zip(texts, inverses)]
    # each line ends in its newline: appending one to the joined text would
    # copy the whole text once more
    lines = np.array([" ".join(cells) + "\n" for cells in zip(*parts)], dtype=object)
    return "".join(lines[row].tolist())


def _number_distinct(ids: np.ndarray, bound: int):
    """Number the distinct values of ``ids``, all below ``bound``, 0, 1, ... in
    ascending order; return the numbers and their count."""
    if bound <= ids.size:  # a table over the range costs less than a sort
        seen = np.zeros(bound, dtype=bool)
        seen[ids] = True
        number = np.cumsum(seen) - 1
        return number[ids], int(number[-1]) + 1
    values, inverse = np.unique(ids, return_inverse=True)
    return inverse, values.size


def from_table(text: str) -> EmpiricalMeasure:
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    w = np.array([float(r[0]) for r in rows])
    pts = np.array([[float(c) for c in r[1:]] for r in rows])
    return EmpiricalMeasure(pts, w)


# -- deterministic time-indexed samplers ------------------------------------

class MeasureFamily:
    """A time-indexed source of particle measures; sampling is deterministic."""

    def sample(self, t: DyadicTime, n: int) -> EmpiricalMeasure:
        raise NotImplementedError


class ConstantFamily(MeasureFamily):
    def __init__(self, measure: EmpiricalMeasure):
        self.measure = measure

    def sample(self, t: DyadicTime, n: int) -> EmpiricalMeasure:
        return self.measure


class GaussianFamily(MeasureFamily):
    """One-dimensional Gaussian family with time-dependent mean.

    ``salt`` separates independent sampling streams; two families with
    different salts draw independent particles even at equal times.
    """

    def __init__(self, mean_fn: Callable[[float], float], std: float, salt: int = 0):
        self.mean_fn = mean_fn
        self.std = float(std)
        self.salt = int(salt)

    def sample(self, t: DyadicTime, n: int) -> EmpiricalMeasure:
        base = chain(_TAG_SAMPLE, self.salt, t.numerator, t.level)
        z = gauss_from_keys(chain_offsets(base, np.arange(n)))
        pts = self.mean_fn(t.value) + self.std * z
        return EmpiricalMeasure.equal_weight(pts[:, None])


def gaussian_draw(mean: float, std: float, n: int, salt: int) -> EmpiricalMeasure:
    """Fixed-time deterministic Gaussian sample (1D)."""
    z = gauss_from_keys(chain_offsets(chain(_TAG_SAMPLE, salt), np.arange(n)))
    return EmpiricalMeasure.equal_weight((mean + std * z)[:, None])

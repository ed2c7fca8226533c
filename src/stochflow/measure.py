"""Weighted-particle probability measures on R^d.

Measures are immutable value objects.  The weak-convergence metric is the
energy distance ``2 E|X-Y| - E|X-X'| - E|Y-Y'|`` evaluated exactly on the
weighted particle sets; it is zero iff the two discrete distributions
coincide, and its square root satisfies the triangle inequality.  In 1D it
is ``2 * integral of (F - G)^2`` over the merged sorted support, a sum of
non-negative terms, so it is exactly >= 0.  Each measure keeps its 1D support
run-length encoded, as a ``SortedSupport``: its distinct values in ascending
order, each with its particles' weights added to 0.0 one at a time, smallest
first.  A measure whose weights are all equal sorts its values alone, with no
index, and keeps no weight per value: one table of running sums ``[0, w,
w+w, ...]`` and each value's particle count in the smallest unsigned dtype,
or no counts when no value repeats, so a support never holds the measure's
n weights.  A support stands in for its measure in ``distance``, which is how
the pullback holds its previous iterate.  A distance merges the two supports
piece by piece into one array of values and one of signed weights, each
piece's weights filled from the table with one ``take`` or one fill; a value
both hold becomes one point of weight ``w_a + (-w_b)``.  The sums are those of
sorting every particle of both measures afresh and adding each tied run's
weights per measure, so the bits are too.  A 1D distance holds 16 bytes per
merged point and one piece beyond the two supports; a pullback at 2^16 to
2^18 particles peaks below 80 bytes per particle.

For d > 1 no n x m distance matrix is built: ``_pair_distances`` yields the
matrix in blocks of ``_BLOCK_ROWS`` rows, so memory grows with n + m.  Each
pair distance adds the squared coordinate gaps one coordinate at a time, first
to last, then takes the root; a pairwise or einsum sum would round otherwise,
and the tests hold this order to a reference bit for bit.  The energy terms add
the blocks' contributions in block order.

``table_pieces`` formats each distinct bit pattern of a column once and joins
each distinct row once, so a measure that has collapsed onto a few points
costs a few conversions and joins; equal weights are one cell, formatted once.
It then yields the text ``_PIECE`` rows at a time, each piece one gather of
the finished lines, so that a file written from it holds one piece of the
text, never the whole.  ``to_table`` is the pieces joined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dyadic import DyadicTime
from .errors import ConfigError, StateError
from .keyed import chain, gauss_range

_WEIGHT_TOL = 1e-12
DEFAULT_PARTICLES = 1 << 10
_BLOCK_ROWS = 256
_PIECE = 1 << 13

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
    def _sorted_1d(self) -> "SortedSupport":
        """The support of the first coordinate; ``particles`` is read-only, so
        this cannot go stale.  Equal weights sort the values alone, with no
        index."""
        if self._equal_weights:
            return _support(np.sort(self.particles[:, 0]), self.weights[0])
        order = np.argsort(self.particles[:, 0])
        z, w = self.particles[order, 0], self.weights[order]
        del order
        return _support(z, w)

    def mean(self) -> np.ndarray:
        return self.weights @ self.particles

    def spread(self) -> float:
        """Weighted rms distance from the mean.

        Corrected two-pass form: the rounding error of the mean can exceed a
        tiny spread, so the weighted mean of the residuals is removed again.
        """
        centered = self.particles - self.mean()
        centered -= self.weights @ centered
        centered *= centered
        squares = centered[:, 0] if self.dim == 1 else np.sum(centered, axis=1)
        return float(np.sqrt(self.weights @ squares))


class SortedSupport:
    """The distinct values of a 1D measure in ascending order, each with its
    particles' weights added to 0.0 one at a time, smallest first; a value of
    one particle keeps that particle's weight.  ``size`` counts the particles.

    Weights of their own are one array, a weight per value.  Equal weights w
    are one table of running sums ``[0, w, w+w, ...]`` and, when a value
    repeats, each value's particle count in the smallest unsigned dtype, so a
    value of k particles weighs ``table[k]``.  The arrays are read-only.  The
    support answers ``dim`` and ``size`` as its measure does, and is its own
    ``_sorted_1d``, so ``distance`` takes it in the measure's place.
    """

    dim = 1

    def __init__(self, values: np.ndarray, size: int, weights: np.ndarray | None = None,
                 table: np.ndarray | None = None, counts: np.ndarray | None = None):
        for a in (values, weights, table, counts):
            if a is not None:
                a.setflags(write=False)
        self.values, self.size = values, size
        self.weights, self.table, self.counts = weights, table, counts

    @property
    def _sorted_1d(self) -> "SortedSupport":
        return self

    def fill_weights(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Write the weights of the values ``start:stop`` into ``out``."""
        if self.weights is not None:
            out[:] = self.weights[start:stop]
        elif self.counts is None:
            out.fill(self.table[1])
        else:  # clip: raise would buffer the output; every count is in the table
            self.table.take(self.counts[start:stop], out=out, mode="clip")
        return out


def _support(z: np.ndarray, w) -> SortedSupport:
    """The support of the sorted values ``z``: ``w`` is their weights in the
    same order or, when all are equal, the one weight."""
    size = z.size
    new = z[1:] != z[:-1]
    start = None if new.all() else np.flatnonzero(np.concatenate(([True], new)))
    del new
    if np.ndim(w):
        if start is not None:
            run = np.repeat(np.arange(start.size), np.diff(start, append=size))
            z, w = z[start], np.bincount(run, w[np.lexsort((w, run))], minlength=start.size)
        return SortedSupport(z, size, weights=w)
    if start is None:
        return SortedSupport(z, size, table=np.array([0.0, w]))
    count = np.diff(start, append=size)
    table = np.full(int(count.max()) + 1, w)
    table[0] = 0.0
    np.cumsum(table, out=table)  # adds one weight at a time, as a run of k adds k copies
    return SortedSupport(z[start], size, table=table,
                         counts=count.astype(np.min_scalar_type(table.size - 1)))


def distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Energy distance between two weighted particle measures; a 1D measure's
    ``SortedSupport`` stands in for it."""
    if mu.dim != nu.dim:
        raise StateError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.dim == 1:
        return _distance_1d(mu._sorted_1d, nu._sorted_1d)
    return float(2.0 * _mean_pair_distance(mu, nu) - _mean_pair_distance(mu, mu)
                 - _mean_pair_distance(nu, nu))


def _distance_1d(a: SortedSupport, b: SortedSupport) -> float:
    """``2 * integral of (F - G)^2`` for two supports.

    The supports merge piece by piece into one array of values and one of
    signed weights.  A piece takes up to ``_PIECE`` points of each support, cut
    at the smaller of the two last values: every point of either support up to
    the cut is in it, so no value both hold spans two pieces.  A stable sort
    orders such a value a first, then b, and the pair becomes one point of
    weight ``wa + (-wb)``.  The prefix sums, their squares and the gaps between
    points are then taken in place, so the distance holds the two merged
    arrays and one piece beyond the supports.
    """
    za, zb = a.values, b.values
    na, nb = za.size, zb.size
    z, w = np.empty(na + nb), np.empty(na + nb)
    size = pa = pb = 0  # merged points written; a's and b's points read
    while pa < na or pb < nb:
        ea, eb = min(pa + _PIECE, na), min(pb + _PIECE, nb)
        if ea < na or eb < nb:  # unless both runs end in this piece
            cut = min(za[ea - 1] if ea < na else np.inf, zb[eb - 1] if eb < nb else np.inf)
            ea = pa + int(np.searchsorted(za[pa:ea], cut, "right"))
            eb = pb + int(np.searchsorted(zb[pb:eb], cut, "right"))
        piece = np.concatenate((za[pa:ea], zb[pb:eb]))
        order = np.argsort(piece, kind="stable")
        zs, ws = z[size:size + piece.size], w[size:size + piece.size]
        piece.take(order, out=zs, mode="clip")  # clip: raise would buffer the output
        a.fill_weights(pa, ea, piece[:ea - pa])
        np.negative(b.fill_weights(pb, eb, piece[ea - pa:]), out=piece[ea - pa:])
        piece.take(order, out=ws, mode="clip")
        pa, pb = ea, eb
        pair = np.flatnonzero(zs[1:] == zs[:-1])
        if pair.size:
            ws[pair] += ws[pair + 1]
            zs[:-pair.size], ws[:-pair.size] = np.delete(zs, pair + 1), np.delete(ws, pair + 1)
        size += zs.size - pair.size
    z, gap = z[:size], w[:size - 1]
    np.cumsum(gap, out=gap)
    gap *= gap
    np.subtract(z[1:], z[:-1], out=z[:-1])  # in place: the output lags the input
    return float(2.0 * np.dot(z[:-1], gap))


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
    """Columnar text: one particle per row, weight first, 17 significant digits."""
    return "".join(table_pieces(mu))


def table_pieces(mu: EmpiricalMeasure):
    """``to_table``'s text, ``_PIECE`` rows at a time, formatted on the first
    ``next``; the measure is not held while the pieces are yielded."""
    lines, row = _distinct_lines(mu)
    del mu
    for start in range(0, row.size, _PIECE):
        yield "".join(lines[row[start:start + _PIECE]].tolist())


def _distinct_lines(mu: EmpiricalMeasure):
    """Each distinct row's line, newline included, and each row's line number.

    ``%.17g`` runs once per distinct bit pattern of a column (0.0 != -0.0), and
    each distinct row is joined once.  Equal weights are one cell, formatted
    once, that adds nothing to the row ids.
    """
    texts, inverses = [], []
    row, rows = np.zeros(mu.size, dtype=np.int64), 1
    columns = (mu.weights, *mu.particles.T)
    if mu._equal_weights:
        texts.append(np.array(["%.17g" % float(mu.weights[0])], dtype=object))
        inverses.append(np.broadcast_to(np.intp(0), (mu.size,)))
        columns = columns[1:]
    for col in columns:
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
    del inverses  # not held through the join below
    # each line ends in its newline, so that the pieces join with nothing between
    return np.array([" ".join(cells) + "\n" for cells in zip(*parts)], dtype=object), row


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


# -- deterministic time-indexed samplers ------------------------------------

class MeasureFamily:
    """A time-indexed source of particle measures; sampling is deterministic."""

    def sample(self, t: DyadicTime, n: int) -> EmpiricalMeasure:
        raise NotImplementedError


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
        # scaled in place: IEEE products and sums commute, so these are the
        # bits of mean + std * z
        z = gauss_range(base, n)
        z *= self.std
        z += self.mean_fn(t.value)
        return EmpiricalMeasure.equal_weight(z[:, None])


def gaussian_draw(mean: float, std: float, n: int, salt: int) -> EmpiricalMeasure:
    """Fixed-time deterministic Gaussian sample (1D)."""
    z = gauss_range(chain(_TAG_SAMPLE, salt), n)
    z *= std  # in place, as GaussianFamily.sample
    z += mean
    return EmpiricalMeasure.equal_weight(z[:, None])

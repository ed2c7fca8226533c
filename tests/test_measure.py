import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist
from scipy.special import erf

from stochflow.errors import ConfigError, StateError
from stochflow import measure
from stochflow.measure import (
    EmpiricalMeasure,
    GaussianFamily,
    distance,
    gaussian_draw,
    mixture,
    table_pieces,
    to_table,
)
from stochflow.dyadic import dyadic
from support import ConstantFamily, pushforward


def _mk(points, weights=None):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if weights is None:
        weights = np.full(len(pts), 1.0 / len(pts))
    return EmpiricalMeasure(pts, weights)


finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
point_lists = st.lists(finite_floats, min_size=1, max_size=12)


def test_construction_normalizes():
    mu = _mk([0.0, 1.0], [2.0, 2.0])
    assert abs(mu.weights.sum() - 1.0) <= 1e-12
    with pytest.raises(ConfigError):
        _mk([0.0], [-1.0])
    with pytest.raises(StateError):
        _mk([np.inf])


def test_weights_whose_sum_overflows_are_refused_without_a_warning():
    # each weight is finite, but their sum is inf: dividing by it would zero them all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="finite sum"):
            _mk([0.0, 1.0], [1e308, 1e308])
        assert _mk([0.0, 1.0], [1e308, 1e307]).mean()[0] == pytest.approx(1 / 11)


def test_dirac_and_expect():
    d = EmpiricalMeasure.dirac([2.5])
    assert d.weights @ d.particles[:, 0] ** 2 == 6.25
    half = _mk([0.0, 1.0])
    assert half.mean()[0] == 0.5


def test_pushforward_point_mass_and_identity():
    d = EmpiricalMeasure.dirac([3.0])
    img = pushforward(d, lambda x: x * 2 + 1)
    assert img.particles[0, 0] == 7.0
    mu = _mk([0.0, 1.0, 2.0])
    same = pushforward(mu, lambda x: x)
    assert np.array_equal(same.particles, mu.particles)
    assert np.array_equal(same.weights, mu.weights)


def test_affine_pushforward_moves_mean_exactly():
    mu = _mk(np.linspace(-1, 1, 9))
    nu = pushforward(mu, lambda x: 3.0 * x + 2.0)
    assert nu.mean()[0] == pytest.approx(3.0 * mu.mean()[0] + 2.0, abs=1e-14)


@given(point_lists)
@settings(max_examples=60, deadline=None)
def test_pushforward_functoriality_bitwise(points):
    mu = _mk(points)
    g = lambda x: 2.0 * x - 0.5
    h = lambda x: np.tanh(x) + x
    two_step = pushforward(pushforward(mu, g), h)
    one_step = pushforward(mu, lambda x: h(g(x)))
    assert np.array_equal(two_step.particles, one_step.particles)
    assert np.array_equal(two_step.weights, one_step.weights)


def test_distance_trivials():
    mu = _mk([0.0, 1.0, 4.0])
    assert distance(mu, mu) == 0.0
    assert distance(EmpiricalMeasure.dirac([0.0]), EmpiricalMeasure.dirac([1.0])) == 2.0


@given(point_lists, point_lists)
@settings(max_examples=60, deadline=None)
def test_distance_symmetric_nonnegative(pa, pb):
    mu, nu = _mk(pa), _mk(pb)
    d1, d2 = distance(mu, nu), distance(nu, mu)
    assert d1 == pytest.approx(d2, abs=1e-10)
    assert d1 >= -1e-10


@given(point_lists, point_lists, point_lists)
@settings(max_examples=40, deadline=None)
def test_sqrt_distance_triangle(pa, pb, pc):
    mu, nu, ka = _mk(pa), _mk(pb), _mk(pc)
    d = lambda a, b: np.sqrt(max(distance(a, b), 0.0))
    assert d(mu, nu) <= d(mu, ka) + d(ka, nu) + 1e-10


# a small pool makes duplicated particles, and ties between the two measures, common
tied_floats = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 3.0]), finite_floats)


@st.composite
def weighted_1d(draw, max_size=12):
    pts = draw(st.lists(tied_floats, min_size=1, max_size=max_size))
    w = draw(st.lists(st.floats(0.01, 10.0), min_size=len(pts), max_size=len(pts)))
    return _mk(pts, w)


@given(weighted_1d(), weighted_1d(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_distance_1d_properties(mu, nu, rnd):
    d = distance(mu, nu)
    assert d >= 0.0
    assert distance(nu, mu) == pytest.approx(d, rel=1e-12, abs=1e-28)
    assert 0.0 <= distance(mu, mu) <= 1e-28
    perm = list(range(mu.size))
    rnd.shuffle(perm)
    shuffled = EmpiricalMeasure(mu.particles[perm], mu.weights[perm])
    assert distance(shuffled, nu) == pytest.approx(d, rel=1e-12, abs=1e-28)


def _old_distance_1d(mu, nu, kind=None):
    """The 1D energy distance with every point of both measures sorted afresh.

    The reference the run-length merge in ``distance`` must equal bit for bit.
    """
    z = np.concatenate((mu.particles[:, 0], nu.particles[:, 0]))
    order = np.argsort(z, kind=kind)
    z, w = z[order], np.concatenate((mu.weights, -nu.weights))[order]
    new = z[1:] != z[:-1]
    if not new.all():
        z, w = _old_merge_ties(z, w, new)
    gap = np.cumsum(w[:-1])
    return float(2.0 * np.dot(np.diff(z), gap * gap))


def _old_merge_ties(z, w, new):
    """Collapse each run of equal sorted points to one point with the run's net
    weight: each measure's weights in a run are added to 0.0, smallest first."""
    start = np.concatenate(([True], new))
    tied = ~(start & np.concatenate((new, [True])))
    run = np.cumsum(start[tied]) - 1
    v = w[tied]
    order = np.lexsort((np.abs(v), run))
    run, v = run[order], v[order]
    k = run[-1] + 1
    pos = v > 0
    net = w[start]
    net[tied[start]] = (np.bincount(run[pos], v[pos], minlength=k)
                        - np.bincount(run[~pos], -v[~pos], minlength=k))
    return z[start], net


@given(weighted_1d(), weighted_1d(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_distance_1d_bits_do_not_depend_on_particle_or_sort_order(mu, nu, rnd):
    d = distance(mu, nu).hex()
    assert _old_distance_1d(mu, nu, kind="stable").hex() == d
    for _ in range(3):
        pm, pn = rnd.sample(range(mu.size), mu.size), rnd.sample(range(nu.size), nu.size)
        shuffled = (EmpiricalMeasure(mu.particles[pm], mu.weights[pm]),
                    EmpiricalMeasure(nu.particles[pn], nu.weights[pn]))
        assert distance(*shuffled).hex() == d


@st.composite
def tied_pairs(draw):
    """Two 1D measures drawn from one small pool, so points tie within and across them."""
    pool = draw(st.lists(finite_floats, min_size=1, max_size=4)) + [0.0, -0.0]

    def one():
        pts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
        w = draw(st.none() | st.lists(st.floats(0.01, 10.0), min_size=len(pts),
                                      max_size=len(pts)))
        return _mk(pts, w)
    return one(), one()


def _bits(x):
    return np.float64(x).view(np.int64)


@given(tied_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_distance_1d_equals_the_unsorted_form_bit_for_bit(pair, rnd):
    mu, nu = pair
    perm = rnd.sample(range(mu.size), mu.size)
    shuffled = EmpiricalMeasure(mu.particles[perm], mu.weights[perm])
    for a, b in ((mu, nu), (nu, mu), (shuffled, nu), (nu, shuffled), (mu, shuffled), (mu, mu)):
        for _ in range(2):  # the second call reads both cached sorted supports
            assert _bits(distance(a, b)) == _bits(_old_distance_1d(a, b))
    for cached in mu._sorted_1d:
        with pytest.raises(ValueError):
            cached[0] = 1.0


# ties, signed zeros (np.sort and argsort may order them differently) and subnormals
_EQUAL_POOL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0 / 3.0, np.pi]


@pytest.mark.parametrize("n, m", [(1, 2), (1, 7), (5, 3), (100, 37), (1000, 999), (4097, 1500)])
def test_equal_weight_distance_equals_the_unsorted_form_bit_for_bit(n, m):
    rng = np.random.default_rng(n * m)

    def points(k):
        return np.where(rng.random(k) < 0.5, rng.choice(_EQUAL_POOL, k), rng.normal(size=k))
    mu, nu = _mk(points(n)), _mk(points(m))
    other = _mk(points(m), rng.random(m) + 0.01)
    assert mu._equal_weights and nu._equal_weights and not other._equal_weights
    for a, b in ((mu, nu), (nu, mu), (mu, other), (other, mu), (mu, mu)):
        assert _bits(distance(a, b)) == _bits(_old_distance_1d(a, b))
    for measure in (mu, other):
        for cached in measure._sorted_1d:
            with pytest.raises(ValueError):
                cached[0] = 1.0


# 2**12 points on at most five values each: signed zeros, subnormals, normals
_COLLAPSED_POOLS = [[0.0, -0.0, 5e-324, -5e-324, 1.0], [0.0, -0.0, 2.2250738585072014e-308],
                    [np.pi], [-1.0 / 3.0, 5e-324, 0.0]]


@pytest.mark.parametrize("pool", _COLLAPSED_POOLS)
def test_collapsed_distance_equals_the_unsorted_form_bit_for_bit(pool):
    rng = np.random.default_rng(len(pool))
    n = 1 << 12

    def points():
        return rng.choice(pool, n)
    equal, unequal = _mk(points()), _mk(points(), rng.random(n) + 0.01)
    zeros = _mk(points(), np.where(rng.random(n) < 0.3, 0.0, rng.random(n)))
    spread = _mk(np.where(rng.random(n) < 0.5, points(), rng.normal(size=n)))
    measures = (equal, unequal, zeros, spread)
    for a in measures:
        for b in measures:  # both orders, and each measure with itself
            assert _bits(distance(a, b)) == _bits(_old_distance_1d(a, b))
    for mu in (equal, unequal, zeros):
        z, w = mu._sorted_1d  # one entry per distinct value; 0.0 and -0.0 are one
        assert z.size == w.size == np.unique(mu.particles[:, 0]).size <= len(pool)
        for cached in (z, w):
            with pytest.raises(ValueError):
                cached[0] = 1.0


@pytest.mark.parametrize("n", [measure._PIECE - 1, measure._PIECE + 1, 3 * measure._PIECE + 5])
def test_distance_merged_over_many_pieces_equals_the_unsorted_form_bit_for_bit(n):
    # values on a grid of n / 4 points, so that most values tie within and across
    # the measures, and the merge runs over several pieces
    rng = np.random.default_rng(n)

    def points():
        return rng.integers(0, n // 4, n) * 0.25 - n / 32
    equal, unequal = _mk(points()), _mk(points(), rng.random(n) + 0.01)
    plain = _mk(rng.normal(size=n))
    for a, b in ((equal, unequal), (unequal, equal), (equal, plain), (plain, unequal)):
        assert _bits(distance(a, b)) == _bits(_old_distance_1d(a, b))


def _energy_exact(mu, nu):
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| as an exact rational double sum."""
    def mean_abs(a, b):
        return sum(Fraction(wa) * Fraction(wb) * abs(Fraction(xa) - Fraction(xb))
                   for xa, wa in zip(a.particles[:, 0].tolist(), a.weights.tolist())
                   for xb, wb in zip(b.particles[:, 0].tolist(), b.weights.tolist()))
    return 2 * mean_abs(mu, nu) - mean_abs(mu, mu) - mean_abs(nu, nu)


def test_distance_1d_matches_exact_rational_oracle():
    rng = np.random.default_rng(2013)
    for _ in range(150):
        sizes = rng.integers(1, 31, size=2)
        pool = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=8)
        mu, nu = (_mk(np.where(rng.random(n) < 0.3, rng.choice(pool, n),
                               rng.normal(rng.normal(), 10.0 ** rng.integers(-3, 4), n)),
                      rng.random(n) + 1e-3) for n in sizes)
        exact = _energy_exact(mu, nu)
        assert exact >= 0
        assert abs(Fraction(distance(mu, nu)) - exact) <= Fraction(1e-13) * exact


def _dense_energy_terms(mu, nu):
    """E|X-Y|, E|X-X'| and E|Y-Y'| from the dense matrices the blocked sums replace."""
    def mean_dist(a, b):
        return a.weights @ cdist(a.particles, b.particles) @ b.weights
    return mean_dist(mu, nu), mean_dist(mu, mu), mean_dist(nu, nu)


@pytest.mark.parametrize("dim", [2, 3])
def test_distance_matches_dense_form(dim):
    # 300 particles span two row blocks
    rng = np.random.default_rng(dim)
    mu = EmpiricalMeasure(rng.normal(size=(300, dim)), rng.random(300) + 0.1)
    nu = EmpiricalMeasure(rng.normal(0.5, 2.0, size=(170, dim)), rng.random(170) + 0.1)
    terms = _dense_energy_terms(mu, nu)
    want = 2.0 * terms[0] - terms[1] - terms[2]
    assert abs(distance(mu, nu) - want) <= 1e-12 * max(terms)
    # the cross and within terms run the same blocks
    assert distance(mu, mu) == 0.0


def test_distance_memory_stays_below_one_dense_matrix():
    rng = np.random.default_rng(11)
    mu, nu = (EmpiricalMeasure.equal_weight(rng.normal(size=(3000, 2))) for _ in range(2))
    tracemalloc.start()
    try:
        distance(mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense 3000 x 3000 matrix takes 72 MB; the blocked sums hold at most three
    # 256 x 3000 blocks (18 MB): the new block, its gap scratch and the previous block
    assert peak < 24e6


def test_tie_heavy_distance_holds_the_merge_and_one_piece():
    # half of one measure and all of the other sit on a grid of step 0.01, so
    # both supports collapse runs and share values
    n = 1 << 16
    rng = np.random.default_rng(16)
    mu = _mk(np.where(rng.random(n) < 0.5, np.round(rng.normal(size=n), 2), rng.normal(size=n)))
    nu = _mk(np.round(rng.normal(size=n), 2), rng.random(n) + 0.01)
    merged = mu._sorted_1d[0].size + nu._sorted_1d[0].size  # supports made, and kept
    tracemalloc.start()
    try:
        distance(mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the merged values and weights, 16 bytes a point, and one piece of at
    # most 2 * _PIECE points: its values, sort index and tie check, under 32
    # bytes a point; sorting every point afresh and copying the ties took 6.4 MB
    assert peak < 16 * merged + 32 * 2 * measure._PIECE + 4096


def test_distance_dimension_mismatch():
    with pytest.raises(StateError):
        distance(_mk([0.0]), EmpiricalMeasure(np.zeros((1, 2)), np.ones(1)))


def test_mixture_trivials():
    mu = _mk([0.0, 2.0])
    assert distance(mixture([mu], [1.0]), mu) == pytest.approx(0.0, abs=1e-14)
    mix = mixture([EmpiricalMeasure.dirac([0.0]), EmpiricalMeasure.dirac([1.0])], [0.5, 0.5])
    assert mix.mean()[0] == 0.5
    k_copies = mixture([mu, mu, mu], [0.2, 0.3, 0.5])
    assert distance(k_copies, mu) == pytest.approx(0.0, abs=1e-12)


@given(point_lists, point_lists)
@settings(max_examples=40, deadline=None)
def test_expect_linear_under_mixture(pa, pb):
    mu, nu = _mk(pa), _mk(pb)
    mix = mixture([mu, nu], [0.5, 0.5])
    expect = lambda m: m.weights @ np.tanh(m.particles[:, 0])
    assert expect(mix) == pytest.approx(0.5 * expect(mu) + 0.5 * expect(nu), abs=1e-12)


@given(point_lists)
@settings(max_examples=60, deadline=None)
def test_mass_conservation(points):
    mu = _mk(points, weights=np.abs(np.asarray(points)) + 0.1)
    assert abs(mu.weights.sum() - 1.0) <= 1e-12
    nu = pushforward(mu, lambda x: x * 0.5)
    assert abs(nu.weights.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("mu", [
    _mk(np.array([0.1, -1.0 / 3.0, np.pi]), weights=np.array([0.2, 0.3, 0.5])),
    EmpiricalMeasure(np.array([[0.1, -2.0], [np.pi, 1e-7]]), np.array([0.25, 0.75])),
], ids=["1d", "2d"])
def test_serialization_roundtrip_bitwise(mu):
    # 17 significant digits read back to every weight and coordinate's bits
    again = np.array([[float(c) for c in line.split()] for line in to_table(mu).splitlines()])
    assert np.array_equal(again[:, 1:], mu.particles)
    assert np.array_equal(again[:, 0], mu.weights)


def _table_rows(mu):
    """The row-by-row formatter that ``to_table`` must reproduce byte for byte."""
    lines = []
    for w, x in zip(mu.weights, mu.particles):
        cols = [f"{w:.17g}"] + [f"{c:.17g}" for c in x]
        lines.append(" ".join(cols))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("points, weights", [
    (np.linspace(-1.0, 1.0, 7), None),
    (np.array([0.1, -1.0 / 3.0, np.pi, 2.0]), np.array([0.1, 0.2, 0.3, 0.4])),
    (np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, -0.0, 0.5, 0.0])),
    (np.array([1.0, 2.0, 3.0]), np.array([-0.0, -0.0, 1.0])),
    (np.array([[1.0, 1e308, -5e-324], [-0.0, 1e308, 2.2250738585072014e-308],
               [3e-310, 1e308, -1e308]]), np.array([1.0, 1.0, 1.0]) / 3.0),
    (np.array([[5e-324, -1e308, 0.0]]), None),
    (np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]), None),
])
def test_to_table_matches_row_formatter(points, weights):
    mu = _mk(points, weights)
    assert to_table(mu) == _table_rows(mu)


# repeated values, signed zeros, subnormals and the ends of the double range
_TABLE_POOL = [0.0, -0.0, 5e-324, -5e-324, 3e-310, 2.2250738585072014e-308, 1e308, -1e308,
               1.0, -1.0 / 3.0, np.pi]


@st.composite
def tie_heavy_measures(draw):
    dim, n = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    cells = st.lists(st.sampled_from(_TABLE_POOL), min_size=dim, max_size=dim)
    pts = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    w = draw(st.none() | st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.25, 1.0, 3.0]),
                                  min_size=n, max_size=n).filter(lambda ws: sum(ws) > 0))
    return _mk(pts, w)


@given(tie_heavy_measures())
@settings(max_examples=200, deadline=None)
def test_to_table_matches_row_formatter_on_tie_heavy_tables(mu):
    assert to_table(mu) == _table_rows(mu)


def test_to_table_matches_row_formatter_on_a_long_column_of_few_values():
    rng = np.random.default_rng(50)
    pool = np.concatenate(([0.0, -0.0, 5e-324], rng.normal(size=47)))
    mu = _mk(rng.choice(pool, 1 << 16))
    assert np.unique(mu.particles.view(np.int64)).size == 50
    assert to_table(mu) == _table_rows(mu)


def test_to_table_matches_row_formatter_when_distinct_counts_multiply_past_2_63():
    # 256 distinct values in each of 9 columns: a row id folded without being
    # renumbered would carry the weight's index times 256**8 = 2**64, which
    # wraps to 0, so rows that differ only in weight would print alike
    rng = np.random.default_rng(64)
    pts, w = rng.normal(size=(256, 8)), rng.random(256) + 0.5
    mu = _mk(np.concatenate((pts, pts)), np.concatenate((w, np.roll(w, 1))))
    assert [np.unique(c).size for c in (mu.weights, *mu.particles.T)] == [256] * 9
    assert to_table(mu) == _table_rows(mu)


def _piece_measure(n, kind):
    rng = np.random.default_rng(n)
    if kind.startswith("tie-heavy"):  # signed zeros, subnormals and few values in all
        weights = None if kind.endswith("equal") else rng.choice([0.25, 0.25, 1.0], n)
        return _mk(rng.choice(_TABLE_POOL, size=(n, 2)), weights)
    return _mk(rng.normal(size=n), None if kind == "equal" else rng.random(n) + 0.5)


@pytest.mark.parametrize("kind", ["equal", "unequal", "tie-heavy", "tie-heavy-equal"])
@pytest.mark.parametrize("n", [measure._PIECE - 1, measure._PIECE, measure._PIECE + 1,
                               2 * measure._PIECE + 1])
def test_table_pieces_join_to_the_row_formatter(n, kind):
    mu = _piece_measure(n, kind)
    pieces = list(table_pieces(mu))
    assert [piece.count("\n") for piece in pieces] == [
        min(measure._PIECE, n - start) for start in range(0, n, measure._PIECE)]
    assert "".join(pieces) == to_table(mu) == _table_rows(mu)


def test_families_are_deterministic_and_distinct():
    fam = GaussianFamily(lambda t: t, 0.5, salt=4)
    a = fam.sample(dyadic(1), 64)
    b = fam.sample(dyadic(1), 64)
    assert np.array_equal(a.particles, b.particles)
    c = fam.sample(dyadic(2), 64)
    assert not np.array_equal(a.particles, c.particles)
    const = ConstantFamily(a)
    assert const.sample(dyadic(-5), 10) is a


def _gauss_abs_mean(m, s):
    # E|N(m, s^2)| in closed form
    return s * np.sqrt(2.0 / np.pi) * np.exp(-m * m / (2 * s * s)) + m * erf(m / (s * np.sqrt(2)))


def gaussian_energy_distance(m1, s1, m2, s2):
    """Closed-form 1D energy distance between two normals."""
    return (
        2.0 * _gauss_abs_mean(m1 - m2, np.hypot(s1, s2))
        - _gauss_abs_mean(0.0, s1 * np.sqrt(2))
        - _gauss_abs_mean(0.0, s2 * np.sqrt(2))
    )


def test_energy_distance_matches_gaussian_closed_form():
    n = 4000
    a = gaussian_draw(0.0, 1.0, n, salt=1)
    b = gaussian_draw(0.5, 1.5, n, salt=2)
    exact = gaussian_energy_distance(0.0, 1.0, 0.5, 1.5)
    assert distance(a, b) == pytest.approx(exact, abs=0.02)
    same = gaussian_energy_distance(0.0, 1.0, 0.0, 1.0)
    assert same == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("centre", [0.7, 1.0, 1.9])
def test_spread_resolves_tiny_spread_far_from_origin(centre):
    # The rounding error of a mean of 2^18 values near 1 can exceed a 1e-14
    # spread; the residuals x - centre are exact, so np.std of them is the truth.
    z = gaussian_draw(0.0, 1.0, 1 << 18, salt=3).particles[:, 0]
    x = centre + 1e-14 * z
    want = float(np.std(x - centre))
    got = EmpiricalMeasure.equal_weight(x[:, None]).spread()
    assert got == pytest.approx(want, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("dim", [1, 3])
def test_spread_keeps_the_bits_of_the_summed_squares(dim):
    rng = np.random.default_rng(dim)
    mu = EmpiricalMeasure(rng.normal(2.0, 3.0, size=(5000, dim)), rng.random(5000) + 0.1)
    centered = mu.particles - mu.mean()
    centered -= mu.weights @ centered
    want = float(np.sqrt(mu.weights @ np.sum(centered * centered, axis=1)))
    assert _bits(mu.spread()) == _bits(want)

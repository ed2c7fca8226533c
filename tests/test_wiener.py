import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochflow import wiener
from stochflow.dyadic import DyadicTime, dyadic
from stochflow.errors import OrderingError, ResolutionError
from stochflow.keyed import chain, chain_offsets, extend_key, gauss_from_keys
from stochflow.wiener import (
    _TAG_BRIDGE,
    _bridge_scale,
    _integer_values,
    _quantize,
    NoiseRealization,
    OUConfig,
    RealizationStream,
    grid_values,
    increments,
    ou_at,
    ou_grid,
    wiener_at,
)

OM = NoiseRealization(2024, 0, num_components=2)


def test_anchor_and_determinism():
    assert wiener_at(OM, 0, dyadic(0)) == 0.0
    t = dyadic(5, 3)
    assert wiener_at(OM, 0, t) == wiener_at(OM, 0, t)
    # distinct components and realizations decouple
    assert wiener_at(OM, 0, t) != wiener_at(OM, 1, t)
    assert wiener_at(OM, 0, t) != wiener_at(NoiseRealization(2024, 1, 2), 0, t)


def test_component_range_checked():
    with pytest.raises(IndexError):
        wiener_at(OM, 2, dyadic(1))
    with pytest.raises(IndexError):
        wiener_at(OM, -1, dyadic(1))


def test_ordering_and_horizon_errors():
    with pytest.raises(OrderingError):
        increments(OM, 0, dyadic(1), dyadic(0), 3)
    with pytest.raises(ResolutionError):
        wiener_at(OM, 0, dyadic(1 << 17))


def test_empty_interval():
    assert increments(OM, 0, dyadic(1), dyadic(1), 4).size == 0
    assert increments(OM, 0, dyadic(3), dyadic(3), 0).size == 0


def test_telescoping_exact():
    # Sum of level-3 increments over [0, 1] equals W(1) - W(0) bit-for-bit.
    inc = increments(OM, 0, dyadic(0), dyadic(1), 3)
    assert float(np.sum(inc)) == wiener_at(OM, 0, dyadic(1)) - wiener_at(OM, 0, dyadic(0))
    inc2 = increments(OM, 0, dyadic(-5), dyadic(2, 1), 6)
    total = wiener_at(OM, 0, dyadic(2, 1)) - wiener_at(OM, 0, dyadic(-5))
    assert float(np.sum(inc2)) == total
    assert float(np.sum(inc2[::-1])) == total  # summation order cannot matter: sums are exact


@given(st.integers(-500, 500), st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_refinement_consistency_bit_exact(num, lev):
    s = DyadicTime(num, lev)
    t = DyadicTime(num + 1, lev)
    coarse = increments(OM, 0, s, t, lev)
    children = increments(OM, 0, s, t, lev + 1)
    assert coarse.shape == (1,)
    assert children.shape == (2,)
    assert float(np.sum(children)) == float(coarse[0])


@given(st.integers(-100, 100), st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_replay_invariance(num, lev):
    t = DyadicTime(num, lev)
    first = wiener_at(OM, 0, t)
    wiener_at(OM, 0, t + 2)  # query elsewhere in between
    wiener_at(OM, 0, dyadic(-7))
    assert wiener_at(OM, 0, t) == first


def test_grid_values_match_pointwise_queries():
    g = grid_values(OM, 1, dyadic(-1), dyadic(1), 5)
    for k in range(-32, 33):
        assert wiener_at(OM, 1, DyadicTime(k, 5)) == g[k + 32]


def _reference_bridge_fill(omega, component, interval, w_left, w_right, level):
    """Per-interval midpoint displacement with scalar bridge keys."""
    vals = np.array([w_left, w_right])
    for lv in range(1, level + 1):
        base = chain(omega.master_seed, omega.realization_index, component,
                     _TAG_BRIDGE, interval, lv)
        z = gauss_from_keys(chain_offsets(base, np.arange(1 << (lv - 1))))
        mids = _quantize((vals[:-1] + vals[1:]) * 0.5 + _bridge_scale(lv) * z)
        merged = np.empty((1 << lv) + 1)
        merged[0::2] = vals
        merged[1::2] = mids
        vals = merged
    return vals


def _reference_grid_values(omega, component, s, t, level):
    """grid_values as one bridge fill per unit interval, stitched together."""
    i0, i1 = s.at_level(level), t.at_level(level)
    n0, n1 = i0 >> level, -((-i1) >> level)
    if level == 0 or n1 == n0:
        return _integer_values((omega,), component, i0 >> level, i1 >> level)[0]
    anchors = _integer_values((omega,), component, n0, n1)[0]
    pieces = []
    for j, n in enumerate(range(n0, n1)):
        fill = _reference_bridge_fill(omega, component, n, float(anchors[j]),
                                      float(anchors[j + 1]), level)
        pieces.append(fill[:-1] if n < n1 - 1 else fill)
    full = np.concatenate(pieces)
    off = i0 - (n0 << level)
    return full[off : off + (i1 - i0) + 1]


@given(
    st.integers(0, 2**40),
    st.integers(0, 5),
    st.integers(0, 1),
    st.integers(0, 9),
    st.integers(-1500, 1500),
    st.integers(0, 1500),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_grid_values_bitwise_equal_to_per_interval_fill(seed, real, comp, lev, start, span,
                                                        surgery):
    omega = NoiseRealization(seed, real, num_components=2)
    s = DyadicTime(start, lev)
    t = DyadicTime(start + span, lev)
    if surgery:
        omega = omega.with_unit_surgery(comp, (start >> lev) + 1, 0.375)
    got = grid_values(omega, comp, s, t, lev)
    want = _reference_grid_values(omega, comp, s, t, lev)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# (seed, realization index, surgery on this row?) per row
_handles = st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 50), st.booleans()),
                    min_size=1, max_size=6)
_blocks = st.sampled_from([1, 100, wiener.BLOCK_VALUES])


def _rows(handles, comp, interval):
    omegas = []
    for seed, real, cut in handles:
        omega = NoiseRealization(seed, real, num_components=2)
        omegas.append(omega.with_unit_surgery(comp, interval, 0.375) if cut else omega)
    return omegas


@given(st.integers(0, 9), st.integers(0, 1), st.integers(-1500, 1500),
       st.integers(0, 1500), _handles, _blocks)
@settings(max_examples=150, deadline=None)
def test_batched_rows_equal_one_realization_calls(lev, comp, start, span, handles, block):
    omegas = _rows(handles, comp, (start >> lev) + 1)
    s, t = DyadicTime(start, lev), DyadicTime(start + span, lev)
    with mock.patch.object(wiener, "BLOCK_VALUES", block):
        grid = grid_values(omegas, comp, s, t, lev)
        incs = increments(omegas, comp, s, t, lev)
    assert grid.shape == (len(omegas), span + 1)
    for r, omega in enumerate(omegas):
        assert _bits_equal(grid[r], grid_values(omega, comp, s, t, lev))
        assert _bits_equal(incs[r], increments(omega, comp, s, t, lev))


@given(st.integers(0, 6), st.integers(0, 1), st.integers(-300, 300), st.integers(0, 8),
       _handles, _blocks)
@settings(max_examples=60, deadline=None)
def test_batched_ou_rows_equal_one_realization_calls(lev, comp, start, span, handles, block):
    cfg = OUConfig(rate=4.0, level=lev)  # a five-unit history
    omegas = _rows(handles, comp, (start >> lev) - 2)
    s, t = DyadicTime(start, lev), DyadicTime(start + span, lev)
    with mock.patch.object(wiener, "BLOCK_VALUES", block):
        got = ou_grid(omegas, comp, cfg, s, t)
    assert got.shape == (len(omegas), span + 1)
    for r, omega in enumerate(omegas):
        assert _bits_equal(got[r], ou_grid(omega, comp, cfg, s, t))


_MIXED_ROWS = (
    NoiseRealization(2024, 0, num_components=2),
    NoiseRealization(7, 3, num_components=2),
    NoiseRealization(2024, 2**63 + 5, num_components=2),  # a key part above int64
    NoiseRealization(-5, 2**64 + 1, num_components=2),  # both parts masked to 64 bits
    NoiseRealization(2024, 1, num_components=2).with_unit_surgery(1, -2, 0.375),
)


@pytest.mark.parametrize("lev", range(10))
@pytest.mark.parametrize("block", [100, wiener.BLOCK_VALUES])
def test_multi_row_fill_equals_one_row_queries_and_the_reference(lev, block):
    for omega, key in zip(_MIXED_ROWS, wiener._row_keys(_MIXED_ROWS, 1)):
        assert int(key) == chain(omega.master_seed, omega.realization_index, 1)
    # a run that straddles 0, ends between grid points of the unit grid when
    # lev > 0, and one that ends on integers
    for s, t in ((DyadicTime(-(3 << lev) + 1, lev), DyadicTime((2 << lev) + 1, lev)),
                 (dyadic(-2), dyadic(1))):
        n0, n1 = s.at_level(lev) >> lev, -((-t.at_level(lev)) >> lev)
        vals = wiener._fill(_MIXED_ROWS, 1, n0, n1, lev)
        assert vals.shape == ((1 << lev) + 1, len(_MIXED_ROWS), n1 - n0)
        with mock.patch.object(wiener, "BLOCK_VALUES", block):
            grid = grid_values(_MIXED_ROWS, 1, s, t, lev)
        for r, omega in enumerate(_MIXED_ROWS):
            assert _bits_equal(vals[:, r], wiener._fill((omega,), 1, n0, n1, lev)[:, 0])
            assert _bits_equal(grid[r], grid_values(omega, 1, s, t, lev))
            assert _bits_equal(grid[r], _reference_grid_values(omega, 1, s, t, lev))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
       st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_broadcast_chain_offsets_matches_scalar_chain(bases, offsets):
    got = chain_offsets(np.array(bases, dtype=np.uint64)[:, None], np.array(offsets))
    assert got.shape == (len(bases), len(offsets))
    for i, base in enumerate(bases):
        for j, off in enumerate(offsets):
            assert int(got[i, j]) == extend_key(base, off)
    # two broadcast rounds reproduce a scalar chain over the same parts
    offs = np.array(offsets)
    twice = chain_offsets(chain_offsets(chain(7, 8), offs)[:, None], offs)
    for i, a in enumerate(offsets):
        for j, b in enumerate(offsets):
            assert int(twice[i, j]) == chain(7, 8, a, b)


@pytest.mark.parametrize("base, offset", [
    (np.uint64(5), 3), (5, np.int64(-3)), (2**64 - 1, 2**63 - 1), (np.uint64(2**63), -(2**63)),
])
def test_chain_offsets_on_scalars_is_a_0d_array_without_a_warning(base, offset):
    # numpy scalar arithmetic warns where uint64 products wrap; arrays do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = chain_offsets(base, offset)
    assert isinstance(got, np.ndarray) and got.shape == ()
    assert int(got) == extend_key(int(base), int(offset))


def test_w1_sample_variance():
    # chi-square interval for n unit-variance Gaussians (wide at n=2000)
    n = 2000
    vals = np.array([wiener_at(NoiseRealization(7, i), 0, dyadic(1)) for i in range(n)])
    assert 0.86 <= vals.var(ddof=1) <= 1.14


def test_disjoint_interval_independence():
    n = 2000
    a = np.empty(n)
    b = np.empty(n)
    for i in range(n):
        om = NoiseRealization(13, i)
        a[i] = float(np.sum(increments(om, 0, dyadic(0), dyadic(1), 4)))
        b[i] = float(np.sum(increments(om, 0, dyadic(1), dyadic(2), 4)))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(n)


def test_variance_scales_with_interval_length():
    n = 2000
    vals = np.array([
        wiener_at(NoiseRealization(29, i), 0, dyadic(4)) -
        wiener_at(NoiseRealization(29, i), 0, dyadic(2))
        for i in range(n)
    ])
    assert abs(vals.var(ddof=1) - 2.0) <= 0.3


def test_surgery_changes_future_only():
    t_future = dyadic(5)
    t_past = dyadic(3, 1)
    perturbed = OM.with_unit_surgery(0, 4, 0.75)
    assert wiener_at(perturbed, 0, t_past) == wiener_at(OM, 0, t_past)
    assert wiener_at(perturbed, 0, t_future) != wiener_at(OM, 0, t_future)
    # the shift is exactly the quantized delta at the endpoint
    lo = wiener_at(perturbed, 0, dyadic(4))
    hi = wiener_at(perturbed, 0, dyadic(5))
    lo0 = wiener_at(OM, 0, dyadic(4))
    hi0 = wiener_at(OM, 0, dyadic(5))
    assert lo == lo0
    assert hi != hi0


def test_realization_stream_counts():
    stream = RealizationStream(5, num_components=3, start=2)
    got = stream.take(3)
    assert [o.realization_index for o in got] == [2, 3, 4]
    assert stream.next().realization_index == 5
    assert all(o.num_components == 3 for o in got)


class TestOU:
    CFG = OUConfig(rate=1.0, level=6)

    def test_determinism(self):
        t = dyadic(3, 2)
        assert ou_at(OM, 0, self.CFG, t) == ou_at(OM, 0, self.CFG, t)

    def test_cutoff_resolves_tolerance(self):
        assert np.exp(-self.CFG.rate * self.CFG.cutoff_horizon) <= 1e-8

    def test_grid_matches_pointwise(self):
        g = ou_grid(OM, 0, self.CFG, dyadic(0), dyadic(1))
        for k in (0, 17, 64):
            assert g[k] == ou_at(OM, 0, self.CFG, DyadicTime(k, 6))

    def test_stationary_variance(self):
        # discrete left-endpoint sum has variance h*(1-exp(-2aT))/(exp(2ah)-1)
        n = 3000
        vals = np.array([
            ou_at(NoiseRealization(3, i), 0, self.CFG, dyadic(0)) for i in range(n)
        ])
        var = vals.var(ddof=1)
        a, h, cut = self.CFG.rate, 2.0**-self.CFG.level, self.CFG.cutoff_horizon
        exact_discrete = h * (1 - np.exp(-2 * a * cut)) / (np.exp(2 * a * h) - 1)
        assert abs(var - 0.5) / 0.5 <= 0.10
        assert abs(var - exact_discrete) <= 4 * np.sqrt(2.0 / n) * exact_discrete

    def test_autocorrelation(self):
        n = 3000
        z0 = np.empty(n)
        z1 = np.empty(n)
        for i in range(n):
            om = NoiseRealization(31, i)
            z0[i] = ou_at(om, 0, self.CFG, dyadic(0))
            z1[i] = ou_at(om, 0, self.CFG, dyadic(1))
        corr = np.corrcoef(z0, z1)[0, 1]
        assert abs(corr - np.exp(-self.CFG.rate)) <= 0.05

    def test_horizon_guard(self):
        with pytest.raises(ResolutionError):
            ou_at(OM, 0, self.CFG, dyadic(-(1 << 16)))

import numpy as np
import pytest
import scipy.integrate

from stochflow.dyadic import MAX_LEVEL, DyadicTime, dyadic
from stochflow.errors import AlignmentError, ConfigError, OrderingError, StateError
from stochflow.flow_core import (
    IdentityFlow,
    ScalarExpFlow,
    ShiftFlow,
    chapman_residual,
    coordinate,
    evolve,
    evolve_batch,
    evolve_ensemble,
    flow_residual,
    indicator_box,
    markov_apply,
    tanh_coordinate,
)
from stochflow.models.em import EMModel
from stochflow.models.linear import FourierForcing, LinearDrift, LinearOUModel
from stochflow.wiener import NoiseRealization, RealizationStream

OM = NoiseRealization(17, 0)


def test_identity_flow_trivials():
    model = IdentityFlow(2, 6)
    x = np.array([1.0, -2.0])
    assert np.array_equal(evolve(model, OM, dyadic(-3), dyadic(5), x), x)
    assert flow_residual(model, OM, dyadic(-1), dyadic(0), dyadic(1), [x]) == 0.0


def test_identity_law_many_random_states():
    model = EMModel(LinearDrift(1.0), [[0.5]], grid_level=5)
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = DyadicTime(int(rng.integers(-64, 64)), 5)
        x = rng.normal(size=1)
        om = NoiseRealization(17, int(rng.integers(0, 50)))
        assert np.array_equal(evolve(model, om, t, t, x), x)


def test_evolve_validation():
    model = IdentityFlow(1, 4)
    with pytest.raises(OrderingError):
        evolve(model, OM, dyadic(1), dyadic(0), [0.0])
    with pytest.raises(AlignmentError):
        evolve(model, OM, dyadic(1, 6), dyadic(2), [0.0])
    with pytest.raises(StateError):
        evolve(model, OM, dyadic(0), dyadic(1), [np.nan])
    with pytest.raises(StateError):
        evolve(model, OM, dyadic(0), dyadic(1), [0.0, 1.0])


def test_composition_law_random_triples():
    drift = LinearDrift(0.8, FourierForcing(cos_coeffs=(0.5,)))
    model = EMModel(drift, [[0.4]], grid_level=6)
    closed = LinearOUModel(rate=0.8, sigma=0.4,
                           forcing=FourierForcing(cos_coeffs=(0.5,)), grid_level=6)
    rng = np.random.default_rng(3)
    for _ in range(50):
        base = int(rng.integers(-50, 40))
        s = DyadicTime(base * 4 + int(rng.integers(0, 3)), 6)
        r = s + DyadicTime(int(rng.integers(0, 40)), 6)
        t = r + DyadicTime(int(rng.integers(0, 40)), 6)
        pts = rng.normal(size=(3, 1))
        om = NoiseRealization(23, int(rng.integers(0, 10)))
        assert flow_residual(model, om, s, r, t, pts) == 0.0
        assert flow_residual(closed, om, s, r, t, pts) <= 1e-12


def test_scalar_flows():
    dec = ScalarExpFlow(-1.0, 6)
    assert evolve(dec, OM, dyadic(0), dyadic(2), [3.0])[0] == pytest.approx(3 * np.exp(-2))
    shift = ShiftFlow(6)
    assert evolve(shift, OM, dyadic(-1), dyadic(3, 1), [0.5])[0] == pytest.approx(3.0)


def test_adaptedness_key_surgery_outside_window():
    model = EMModel(LinearDrift(0.6), [[0.5]], grid_level=6)
    s, t = dyadic(-2), dyadic(1)
    x = np.array([0.7])
    base = evolve(model, OM, s, t, x)
    # increments strictly after t and strictly before s
    later = OM.with_unit_surgery(0, 1, 0.9)
    earlier = OM.with_unit_surgery(0, -4, -1.1)
    assert np.array_equal(evolve(model, later, s, t, x), base)
    assert np.array_equal(evolve(model, earlier, s, t, x), base)
    inside = OM.with_unit_surgery(0, -1, 0.9)
    assert not np.array_equal(evolve(model, inside, s, t, x), base)


def test_base_ensemble_equals_per_handle_batches():
    # EMModel has no array code: the base class loops over evolve_batch
    model = EMModel(LinearDrift(0.8), [[0.3, 0.1], [0.0, 0.5]], grid_level=5)
    omegas = [NoiseRealization(3, i, num_components=2) for i in (4, 0, 9)]
    states = np.random.default_rng(2).normal(size=(3, 5, 2))
    got = evolve_ensemble(model, omegas, dyadic(-1), dyadic(1), states)
    assert got.shape == states.shape
    for omega, x, row in zip(omegas, states, got):
        assert np.array_equal(row, model.evolve_batch(omega, dyadic(-1), dyadic(1), x))


def test_ensemble_states_are_validated():
    model = IdentityFlow(2, 4)
    omegas = [NoiseRealization(1, 0), NoiseRealization(1, 1)]
    with pytest.raises(StateError):
        evolve_ensemble(model, omegas, dyadic(0), dyadic(1), np.zeros((2, 2)))
    with pytest.raises(StateError):
        evolve_ensemble(model, omegas, dyadic(0), dyadic(1), np.zeros((3, 1, 2)))
    with pytest.raises(StateError):
        evolve_ensemble(model, omegas, dyadic(0), dyadic(1), np.full((2, 1, 2), np.nan))
    with pytest.raises(OrderingError):
        evolve_ensemble(model, omegas, dyadic(1), dyadic(0), np.zeros((2, 1, 2)))


def _markov_loop(model, s, t, f, x, n, stream):
    """markov_apply as a loop of one-realization steps."""
    vals = np.array([f(evolve(model, omega, s, t, x)) for omega in stream.take(n)])
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


def _chapman_loop(model, s, t, u, f, x, n, stream, n_inner):
    """chapman_residual as a loop of one-realization steps."""
    direct, direct_se = _markov_loop(model, s, u, f, x, n, stream)
    mids = np.array([_markov_loop(model, t, u, f, evolve(model, omega, s, t, x),
                                  n_inner, stream)[0]
                     for omega in stream.take(n)])
    composed_se = float(mids.std(ddof=1) / np.sqrt(n))
    return abs(direct - float(mids.mean())), float(np.hypot(direct_se, composed_se))


_MARKOV = {  # the TestMarkov configs
    "constant": (EMModel(LinearDrift(1.0), [[1.0]], grid_level=5), dyadic(0), dyadic(1),
                 lambda x: 4.25, [0.0], 16, 1),
    "noise_free": (ScalarExpFlow(-0.5, 6), dyadic(0), dyadic(2), coordinate(0), [2.0], 8, 2),
    "linear": (LinearOUModel(rate=0.7, sigma=0.5, forcing=FourierForcing(cos_coeffs=(1.0,)),
                             grid_level=6), dyadic(-2), dyadic(1), coordinate(0), [1.5], 600, 7),
}


@pytest.mark.parametrize("name", sorted(_MARKOV))
def test_markov_apply_equals_realization_loop(name):
    model, s, t, f, x, n, seed = _MARKOV[name]
    stream, loop_stream = RealizationStream(seed), RealizationStream(seed)
    assert markov_apply(model, s, t, f, x, n, stream) == \
        _markov_loop(model, s, t, f, x, n, loop_stream)
    assert stream.next() == loop_stream.next()


@pytest.mark.parametrize("model, f, seed, n, n_inner", [
    (IdentityFlow(1, 5), coordinate(0), 3, 8, 2),
    (ScalarExpFlow(-1.0, 5), coordinate(0), 4, 8, 2),
    # test_chapman_statistical's model and function at a tenth of its sizes
    (LinearOUModel(rate=1.0, sigma=0.4, grid_level=5), tanh_coordinate(0), 5, 40, 6),
], ids=["identity", "deterministic", "linear"])
def test_chapman_residual_equals_realization_loop(model, f, seed, n, n_inner):
    args = (model, dyadic(0), dyadic(1), dyadic(2), f, [0.5])
    stream, loop_stream = RealizationStream(seed), RealizationStream(seed)
    assert chapman_residual(*args, n, stream, n_inner=n_inner) == \
        _chapman_loop(*args, n, loop_stream, n_inner)
    assert stream.next() == loop_stream.next()


class TestMarkov:
    def test_constant_function(self):
        model = EMModel(LinearDrift(1.0), [[1.0]], grid_level=5)
        f = lambda x: 4.25
        est, se = markov_apply(model, dyadic(0), dyadic(1), f, [0.0], 16,
                               RealizationStream(1))
        assert est == 4.25 and se == 0.0

    def test_noise_free_model(self):
        model = ScalarExpFlow(-0.5, 6)
        f = coordinate(0)
        est, se = markov_apply(model, dyadic(0), dyadic(2), f, [2.0], 8,
                               RealizationStream(2))
        assert est == pytest.approx(2 * np.exp(-1.0))
        assert se == pytest.approx(0.0, abs=1e-15)

    def test_linear_mean_against_quadrature(self):
        a, sigma = 0.7, 0.5
        forcing = FourierForcing(cos_coeffs=(1.0,))
        model = LinearOUModel(rate=a, sigma=sigma, forcing=forcing, grid_level=6)
        s, t = dyadic(-2), dyadic(1)
        x0 = 1.5
        est, se = markov_apply(model, s, t, coordinate(0), [x0], 600,
                               RealizationStream(7))
        det = scipy.integrate.quad(
            lambda u: np.exp(-a * (t.value - u)) * np.cos(u), s.value, t.value
        )[0]
        expected = np.exp(-a * (t.value - s.value)) * x0 + det
        assert abs(est - expected) <= 4 * se

    def test_chapman_identity_and_deterministic(self):
        ident = IdentityFlow(1, 5)
        res, se = chapman_residual(ident, dyadic(0), dyadic(1), dyadic(2),
                                   coordinate(0), [1.0], 8, RealizationStream(3))
        assert res == 0.0
        det = ScalarExpFlow(-1.0, 5)
        res2, _ = chapman_residual(det, dyadic(0), dyadic(1), dyadic(2),
                                   coordinate(0), [1.0], 8, RealizationStream(4))
        assert res2 <= 1e-12

    def test_chapman_statistical(self):
        model = LinearOUModel(rate=1.0, sigma=0.4, grid_level=5)
        res, se = chapman_residual(model, dyadic(0), dyadic(1), dyadic(2),
                                   tanh_coordinate(0), [0.5], 400,
                                   RealizationStream(5), n_inner=60)
        assert res <= 5 * se


def test_function_library():
    f = coordinate(1)
    assert f([3.0, 4.0]) == 4.0
    g = tanh_coordinate(0, 2.0)
    assert g([0.25]) == pytest.approx(np.tanh(0.5))
    box = indicator_box([-1.0], [1.0])
    assert box([0.5]) == 1.0 and box([1.5]) == 0.0
    assert f.id == "coord[1]" and "tanh" in g.id and "box" in box.id


@pytest.mark.parametrize("make", [
    lambda lv: IdentityFlow(1, lv),
    lambda lv: ScalarExpFlow(-1.0, lv),
    lambda lv: ShiftFlow(lv),
    lambda lv: EMModel(LinearDrift(1.0), [[1.0]], grid_level=lv),
    lambda lv: LinearOUModel(rate=1.0, grid_level=lv),
], ids=["identity", "exp", "shift", "em", "linear"])
def test_every_model_refuses_a_level_without_a_grid(make):
    assert make(0).grid_level == 0 and make(MAX_LEVEL).grid_level == MAX_LEVEL
    for lv in (-1, MAX_LEVEL + 1, 40):
        with pytest.raises(ConfigError, match=f"grid_level {lv} outside"):
            make(lv)


def test_markov_requires_two_realizations():
    with pytest.raises(ConfigError):
        markov_apply(IdentityFlow(1, 4), dyadic(0), dyadic(1), coordinate(0),
                     [0.0], 1, RealizationStream(0))
    with pytest.raises(ConfigError):
        chapman_residual(IdentityFlow(1, 4), dyadic(0), dyadic(1), dyadic(2), coordinate(0),
                         [0.0], 8, RealizationStream(0), n_inner=1)

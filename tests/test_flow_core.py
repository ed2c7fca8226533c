import numpy as np
import pytest
import scipy.integrate

from stochflow.dyadic import MAX_LEVEL, DyadicTime, dyadic
from stochflow.errors import AlignmentError, ConfigError, OrderingError, StateError
from stochflow.finite_oracle import FiniteFlowLift, period_two_alternating
from stochflow.flow_core import ScalarExpFlow, coordinate, evolve_ensemble, tanh_coordinate
from stochflow.models.linear import FourierForcing, LinearOUModel
from stochflow.wiener import NoiseRealization, RealizationStream
from support import ShiftFlow, evolve, flow_residual

OM = NoiseRealization(17, 0)


def test_identity_flow_trivials():
    model = ScalarExpFlow(0.0, 6)  # x * exp(0) = x * 1.0: the identity, bit for bit
    x = np.array([-2.0])
    assert np.array_equal(evolve(model, OM, dyadic(-3), dyadic(5), x), x)
    assert flow_residual(model, OM, dyadic(-1), dyadic(0), dyadic(1), [x]) == 0.0


def test_identity_law_many_random_states():
    model = LinearOUModel(rate=1.0, sigma=0.5, grid_level=5)
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = DyadicTime(int(rng.integers(-64, 64)), 5)
        x = rng.normal(size=1)
        om = NoiseRealization(17, int(rng.integers(0, 50)))
        assert np.array_equal(evolve(model, om, t, t, x), x)


def test_evolve_validation():
    model = ScalarExpFlow(0.0, 4)
    with pytest.raises(OrderingError):
        evolve(model, OM, dyadic(1), dyadic(0), [0.0])
    with pytest.raises(AlignmentError):
        evolve(model, OM, dyadic(1, 6), dyadic(2), [0.0])
    with pytest.raises(StateError):
        evolve(model, OM, dyadic(0), dyadic(1), [np.nan])
    with pytest.raises(StateError):
        evolve(model, OM, dyadic(0), dyadic(1), [0.0, 1.0])


def test_composition_law_random_triples():
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
        assert flow_residual(closed, om, s, r, t, pts) <= 1e-12


def test_scalar_flows():
    dec = ScalarExpFlow(-1.0, 6)
    assert evolve(dec, OM, dyadic(0), dyadic(2), [3.0])[0] == pytest.approx(3 * np.exp(-2))
    shift = ShiftFlow(6)
    assert evolve(shift, OM, dyadic(-1), dyadic(3, 1), [0.5])[0] == pytest.approx(3.0)


def test_adaptedness_key_surgery_outside_window():
    model = LinearOUModel(rate=0.6, sigma=0.5, grid_level=6)
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
    # the lift has no ensemble code, yet reads its noise: the base class loops
    # over evolve_batch, and each row follows its own realization's word
    model = FiniteFlowLift(period_two_alternating())
    omegas = [NoiseRealization(3, i) for i in (4, 0, 9)]
    states = np.random.default_rng(2).integers(0, 3, size=(3, 5, 1)).astype(float)
    got = evolve_ensemble(model, omegas, dyadic(-3), dyadic(4), states)
    assert got.shape == states.shape
    for omega, x, row in zip(omegas, states, got):
        assert np.array_equal(row, model.evolve_batch(omega, dyadic(-3), dyadic(4), x))
    assert len({model.word_for(omega, -3, 4) for omega in omegas}) > 1


def test_ensemble_states_are_validated():
    model = ScalarExpFlow(0.0, 4)
    omegas = [NoiseRealization(1, 0), NoiseRealization(1, 1)]
    with pytest.raises(StateError):
        evolve_ensemble(model, omegas, dyadic(0), dyadic(1), np.zeros((2, 1)))
    with pytest.raises(StateError):
        evolve_ensemble(model, omegas, dyadic(0), dyadic(1), np.zeros((3, 1, 1)))
    with pytest.raises(StateError):
        evolve_ensemble(model, omegas, dyadic(0), dyadic(1), np.zeros((2, 1, 2)))
    with pytest.raises(StateError):
        evolve_ensemble(model, omegas, dyadic(0), dyadic(1), np.full((2, 1, 1), np.nan))
    with pytest.raises(OrderingError):
        evolve_ensemble(model, omegas, dyadic(1), dyadic(0), np.zeros((2, 1, 1)))


class TestMarkov:
    def test_linear_mean_against_quadrature(self):
        # the transition mean E S(t, s) x0 over 600 fresh realizations
        a, sigma = 0.7, 0.5
        forcing = FourierForcing(cos_coeffs=(1.0,))
        model = LinearOUModel(rate=a, sigma=sigma, forcing=forcing, grid_level=6)
        s, t = dyadic(-2), dyadic(1)
        x0, n = 1.5, 600
        ends = evolve_ensemble(model, RealizationStream(7).take(n), s, t,
                               np.full((n, 1, 1), x0))[:, 0, 0]
        est, se = ends.mean(), ends.std(ddof=1) / np.sqrt(n)
        det = scipy.integrate.quad(
            lambda u: np.exp(-a * (t.value - u)) * np.cos(u), s.value, t.value
        )[0]
        expected = np.exp(-a * (t.value - s.value)) * x0 + det
        assert abs(est - expected) <= 4 * se


def test_function_library():
    f = coordinate(1)
    assert f([3.0, 4.0]) == 4.0
    g = tanh_coordinate(0, 2.0)
    assert g([0.25]) == pytest.approx(np.tanh(0.5))
    assert f.id == "coord[1]" and "tanh" in g.id


@pytest.mark.parametrize("make", [
    lambda lv: ScalarExpFlow(0.0, lv),
    lambda lv: ScalarExpFlow(-1.0, lv),
    lambda lv: ShiftFlow(lv),
    lambda lv: LinearOUModel(rate=1.0, grid_level=lv),
], ids=["identity", "exp", "shift", "linear"])
def test_every_model_refuses_a_level_without_a_grid(make):
    assert make(0).grid_level == 0 and make(MAX_LEVEL).grid_level == MAX_LEVEL
    for lv in (-1, MAX_LEVEL + 1, 40):
        with pytest.raises(ConfigError, match=f"grid_level {lv} outside"):
            make(lv)


import numpy as np
import pytest
import scipy.integrate

from stochflow.dyadic import dyadic
from stochflow.flow_core import evolve_batch, evolve_ensemble
from stochflow.models.linear import FourierForcing, LinearOUModel
from stochflow import wiener
from stochflow.wiener import NoiseRealization, increments
from support import evolve

OM = NoiseRealization(41, 2)


def test_pure_decay_closed_form():
    model = LinearOUModel(rate=0.9, grid_level=6)
    out = evolve(model, OM, dyadic(-1), dyadic(2), [2.0])
    assert out[0] == pytest.approx(2.0 * np.exp(-0.9 * 3.0), rel=1e-14)


def test_forcing_quadrature_matches_scipy():
    a = 0.5
    model = LinearOUModel(rate=a, forcing=FourierForcing(cos_coeffs=(1.0,)),
                          grid_level=10)
    s, t = dyadic(-3), dyadic(2)
    got = evolve(model, OM, s, t, [0.0])[0]
    want = scipy.integrate.quad(
        lambda u: np.exp(-a * (t.value - u)) * np.cos(u), s.value, t.value
    )[0]
    assert got == pytest.approx(want, abs=1e-6)


def test_periodic_mean_closed_form_and_quadrature():
    # pullback mean of m' = -a m + cos t is (a cos t + sin t) / (1 + a^2)
    a = 0.5
    model = LinearOUModel(rate=a, forcing=FourierForcing(cos_coeffs=(1.0,)),
                          grid_level=10)
    for tv in (0.0, 1.0, 2.5):
        closed = (a * np.cos(tv) + np.sin(tv)) / (1 + a * a)
        assert model.periodic_mean(tv) == pytest.approx(closed, rel=1e-12)
    # deep pullback of any start reaches the periodic solution
    t = dyadic(2)
    deep = evolve(model, OM, t - 40, t, [5.0])[0]
    assert deep == pytest.approx(model.periodic_mean(t.value), abs=1e-6)
    # independent oracle: very fine trapezoid of the integral representation
    u = np.linspace(t.value - 60.0, t.value, 600_001)
    oracle = np.trapezoid(np.exp(-a * (t.value - u)) * np.cos(u), u)
    assert model.periodic_mean(t.value) == pytest.approx(oracle, abs=1e-8)


def test_noise_part_matches_independent_summation():
    a, sigma = 0.8, 0.7
    lvl = 8
    model = LinearOUModel(rate=a, sigma=sigma, grid_level=lvl)
    s, t = dyadic(-2), dyadic(1)
    got = evolve(model, OM, s, t, [0.0])[0]
    from stochflow.wiener import increments
    h = 2.0**-lvl
    dw = increments(OM, 0, s, t, lvl)
    lefts = np.arange(s.value, t.value, h)
    oracle = sigma * float(np.sum(np.exp(-a * (t.value - lefts)) * dw))
    assert got == pytest.approx(oracle, rel=1e-12)


def test_batch_matches_single():
    model = LinearOUModel(rate=0.5, sigma=0.3,
                          forcing=FourierForcing(cos_coeffs=(1.0,)), grid_level=6)
    pts = np.array([[0.0], [1.0], [-3.0]])
    batch = evolve_batch(model, OM, dyadic(-1), dyadic(1), pts)
    for i, p in enumerate(pts):
        assert np.array_equal(batch[i], evolve(model, OM, dyadic(-1), dyadic(1), p))


def _closed_form(model, omega, s, t, states):
    """The affine flow map for one realization, evaluated directly."""
    h = 2.0**-model.grid_level
    grid = np.arange(s.at_level(model.grid_level), t.at_level(model.grid_level) + 1) * h
    decay = np.exp(-model.rate * (t.value - grid))
    integrand = decay * model.forcing(grid)
    shift = 0.0
    shift += h * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1]))
    shift += model.sigma * float(np.dot(decay[:-1], increments(omega, 0, s, t,
                                                               model.grid_level)))
    return states * decay[0] + shift


@pytest.mark.parametrize("block", [1, 200, wiener.BLOCK_VALUES])
def test_ensemble_rows_equal_per_handle_batches(monkeypatch, block):
    monkeypatch.setattr(wiener, "BLOCK_VALUES", block)
    model = LinearOUModel(rate=0.5, sigma=0.3,
                          forcing=FourierForcing(cos_coeffs=(1.0,)), grid_level=6)
    omegas = [NoiseRealization(41, i) for i in (2, 0, 7, 7, 30)]
    omegas[3] = omegas[3].with_unit_surgery(0, -1, 0.5)
    states = np.random.default_rng(3).normal(size=(5, 4, 1))
    s, t = dyadic(-3), dyadic(1, 1)
    got = evolve_ensemble(model, omegas, s, t, states)
    for omega, x, row in zip(omegas, states, got):
        assert np.array_equal(row, model.evolve_batch(omega, s, t, x))
        assert np.array_equal(row, _closed_form(model, omega, s, t, x))
    assert not np.array_equal(got[2], got[3])


def test_spread_contracts_exactly():
    model = LinearOUModel(rate=0.5, sigma=0.3, grid_level=6)
    pts = np.random.default_rng(1).normal(size=(64, 1))
    out = evolve_batch(model, OM, dyadic(-4), dyadic(0), pts)
    factor = np.exp(-0.5 * 4.0)
    assert np.std(out) == pytest.approx(factor * np.std(pts), rel=1e-10)

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from stochflow.dyadic import DyadicTime, dyadic
from stochflow.errors import ConfigError, DivergenceError
from stochflow.models import nse as nm
from stochflow.models.nse import (
    NSEConfig,
    NSEModel,
    NSETrace,
    bilinear_b,
    energy_diagnostics,
    estimate_beta,
    leray_project,
    random_divfree,
    shear_mode,
    taylor_green,
)
from stochflow.wiener import NoiseRealization
from support import flow_residual

OM = NoiseRealization(8, 0, num_components=2)


def _model(**kw):
    return NSEModel(NSEConfig(**kw))


class TestLeray:
    def test_divfree_left_unchanged(self):
        u = random_divfree(16, 1)
        assert np.max(np.abs(leray_project(u) - u)) <= 1e-13 * np.max(np.abs(u))

    def test_gradient_killed(self):
        g = nm.grid_for(16)
        scalar = random_divfree(16, 2)[0]
        grad = np.stack([g.kx * scalar, g.ky * scalar])
        assert np.max(np.abs(leray_project(grad))) <= 1e-13 * max(np.max(np.abs(grad)), 1e-30)

    def test_output_divergence(self):
        raw = np.stack([random_divfree(16, 3)[0], random_divfree(16, 4)[1]])
        out = leray_project(raw)
        assert nm.divergence_residual(out) <= 1e-13 * max(np.max(np.abs(out)), 1e-30)

    def test_idempotent(self):
        raw = np.stack([random_divfree(16, 5)[0], random_divfree(16, 6)[1]])
        once = leray_project(raw)
        twice = leray_project(once)
        assert np.max(np.abs(twice - once)) <= 1e-14 * max(np.max(np.abs(once)), 1e-30)


class TestBilinear:
    def test_shear_self_advection_vanishes(self):
        u = shear_mode(16)
        assert np.max(np.abs(bilinear_b(u, u))) == 0.0

    def test_taylor_green_is_pure_gradient(self):
        for n in (16, 32):
            tg = taylor_green(n)
            assert np.max(np.abs(bilinear_b(tg, tg))) <= 1e-10

    def test_resolution_agreement(self):
        b16 = bilinear_b(taylor_green(16), taylor_green(16))
        b32 = bilinear_b(taylor_green(32), taylor_green(32))
        assert np.max(np.abs(b16)) <= 1e-10 and np.max(np.abs(b32)) <= 1e-10

    def test_orthogonality_random_fields(self):
        for seed in range(5):
            u = random_divfree(16, 10 + seed)
            v = random_divfree(16, 20 + seed)
            ip = abs(nm.inner_h(bilinear_b(u, v), v))
            assert ip <= 1e-10 * np.sqrt(nm.norm_v_sq(u)) * nm.norm_v_sq(v)

    def test_energy_neutral_explicit_step(self):
        # one explicit advection step changes the energy only through the
        # exact square term; the cross term is dealiased-orthogonal
        u = random_divfree(16, 30)
        h = 2.0**-6
        b = bilinear_b(u, u)
        stepped = u - h * b
        change = nm.norm_h_sq(stepped) - nm.norm_h_sq(u)
        square_term = h * h * nm.norm_h_sq(b)
        assert abs(change - square_term) <= 1e-10 * h * nm.norm_v_sq(u) ** 1.5


def test_parseval_roundtrip():
    u = random_divfree(16, 7)
    phys = nm.to_phys(u)
    phys_energy = (2 * np.pi) ** 2 * np.mean(np.sum(phys**2, axis=0))
    assert phys_energy == pytest.approx(nm.norm_h_sq(u), rel=1e-10)


def test_poincare_term_by_term():
    for seed in range(5):
        u = random_divfree(16, 40 + seed)
        assert nm.norm_h_sq(u) <= nm.norm_v_sq(u)


class TestEvolve:
    def test_single_mode_decay_factor(self):
        cfg = NSEConfig(noise_modes=(), forcing_field=taylor_green(16, 0.0), viscosity=0.2)
        model = NSEModel(cfg)
        u0 = shear_mode(16)  # single |k|=1 mode, B(u,u) = 0 exactly
        t1 = DyadicTime(1, cfg.level)
        u1 = model.evolve_field(OM, dyadic(0), t1, u0)
        factor = 1.0 / (1.0 + cfg.viscosity * cfg.step)
        assert np.max(np.abs(u1 - factor * u0)) <= 1e-15

    def test_zero_input_energy_monotone(self):
        cfg = NSEConfig(noise_modes=(), forcing_field=taylor_green(16, 0.0))
        model = NSEModel(cfg)
        _, trace = model.evolve_trace(OM, dyadic(0), dyadic(2), taylor_green(16, 1.0))
        energies = trace.v_h_sq
        assert np.all(np.diff(energies) <= 1e-12)

    def test_invariants_after_steps(self):
        model = _model()
        u1 = model.evolve_field(OM, dyadic(-1), dyadic(1), taylor_green(16, 1.0))
        assert nm.reality_residual(u1) == 0.0
        assert np.max(np.abs(u1[:, 0, 0])) == 0.0
        assert nm.divergence_residual(u1) <= 1e-12 * np.max(np.abs(u1))
        nm.check_field(u1, 1e-10)

    def test_composition_bit_exact(self):
        model = _model()
        u0 = taylor_green(16, 0.5)
        rng = np.random.default_rng(0)
        for _ in range(5):
            base = int(rng.integers(-32, 0))
            s = DyadicTime(base, 5)
            r = s + DyadicTime(int(rng.integers(0, 32)), 5)
            t = r + DyadicTime(int(rng.integers(0, 32)), 5)
            direct = model.evolve_field(OM, s, t, u0)
            composed = model.evolve_field(OM, r, t, model.evolve_field(OM, s, r, u0))
            assert np.array_equal(direct, composed)

    def test_flow_residual_vector_interface(self):
        model = _model()
        x = model.pack(taylor_green(16, 0.5))
        res = flow_residual(model, OM, dyadic(-1), dyadic(0), dyadic(1), [x])
        assert res == 0.0

    def test_poincare_along_trajectory(self):
        model = _model()
        _, trace = model.evolve_trace(OM, dyadic(0), dyadic(1), taylor_green(16, 1.0))
        assert np.all(trace.v_h_sq <= trace.v_v_sq)

    def test_blowup_reports_step(self):
        cfg = NSEConfig(guard=1e-6)
        model = NSEModel(cfg)
        with pytest.raises(DivergenceError) as err:
            model.evolve_field(OM, dyadic(0), dyadic(1), taylor_green(16, 1.0))
        assert err.value.step is not None

    def test_noise_key_surgery_outside_history_window(self):
        model = _model()
        s, t = dyadic(-1), dyadic(1)
        u0 = taylor_green(16, 0.5)
        base = model.evolve_field(OM, s, t, u0)
        future = OM.with_unit_surgery(0, 1, 0.5).with_unit_surgery(1, 2, -0.25)
        assert np.array_equal(model.evolve_field(future, s, t, u0), base)
        cut = model.ou_cfg.cutoff_horizon
        ancient = OM.with_unit_surgery(0, -1 - cut - 2, 1.0)
        assert np.array_equal(model.evolve_field(ancient, s, t, u0), base)
        recent = OM.with_unit_surgery(0, 0, 0.5)
        assert not np.array_equal(model.evolve_field(recent, s, t, u0), base)


class TestBeta:
    def test_zero_mode(self):
        assert estimate_beta(0.0 * shear_mode(16)) == 0.0

    def test_scaling_linear(self):
        phi = shear_mode(16, 0.05)
        b1 = estimate_beta(phi)
        b3 = estimate_beta(3.0 * phi)
        assert abs(b3 - 3.0 * b1) <= 1e-8 * max(3.0 * b1, 1e-30)
        bneg = estimate_beta(-2.0 * phi)
        assert abs(bneg - 2.0 * b1) <= 1e-8 * max(2.0 * b1, 1e-30)

    def test_bound_holds_on_random_sample(self):
        phi = shear_mode(16, 0.05)
        beta = estimate_beta(phi)
        for seed in range(200):
            u = random_divfree(16, 100 + seed)
            q = abs(nm.inner_h(bilinear_b(u, phi), u))
            assert q <= beta * nm.norm_h_sq(u) * (1 + 1e-8)


class TestDiagnostics:
    def test_pure_decay_slack_nonnegative(self):
        cfg = NSEConfig(noise_modes=(), forcing_field=taylor_green(16, 0.0))
        model = NSEModel(cfg)
        _, trace = model.evolve_trace(OM, dyadic(0), dyadic(2), taylor_green(16, 1.0))
        diag = energy_diagnostics(cfg, trace, beta_hat=0.0)
        assert np.all(diag.lhs <= 1e-8)
        assert np.all(diag.slack >= 0.0)
        assert np.allclose(diag.slack, -diag.lhs, atol=1e-12)
        assert np.all(diag.g_surrogate == 0.0)

    def test_no_noise_terms_reduce(self):
        cfg = NSEConfig(noise_modes=())
        model = NSEModel(cfg)
        _, trace = model.evolve_trace(OM, dyadic(0), dyadic(1), taylor_green(16, 1.0))
        assert np.all(trace.z_abs_sum == 0.0)
        diag = energy_diagnostics(cfg, trace, beta_hat=0.0)
        h = cfg.step
        manual = (np.diff(trace.v_h_sq) / h
                  + 0.25 * cfg.viscosity * trace.v_v_sq[1:]
                  + 0.25 * cfg.viscosity * trace.v_h_sq[1:])
        assert np.allclose(diag.lhs, manual, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            nm.NSETrace(6, np.zeros(4), np.zeros(4), np.zeros(3), np.zeros(4), np.zeros(4))

    def test_absorbing_radius_experiment_converges(self):
        model = _model(viscosity=0.25)
        om = NoiseRealization(100, 0, num_components=2)
        out = nm.absorbing_radius_experiment(model, om, dyadic(0), (1.0, 10.0),
                                             lookbacks=(4, 16, 32))
        assert out["t_star"] is not None
        assert out["gaps"][32] <= 0.05


def test_config_stability_guard():
    with pytest.raises(ConfigError):
        NSEConfig(level=1)


def test_state_packing_roundtrip():
    model = _model()
    u = random_divfree(16, 60)
    assert np.array_equal(model.unpack(model.pack(u)), u)


# -- batched rows against single fields ------------------------------------------

def test_leray_and_bilinear_stack_match_single_fields():
    for n in (8, 16):
        u = np.stack([random_divfree(n, s) for s in (70, 71, 72)])
        v = np.stack([random_divfree(n, s) for s in (73, 74, 75)])
        raw = np.stack([u[:, 0], v[:, 1]], axis=1)
        projected = leray_project(raw)
        batched = bilinear_b(u, v)
        deep = bilinear_b(np.stack([u, v]), np.stack([v, u]))
        for r in range(3):
            assert np.array_equal(projected[r], leray_project(raw[r]))
            assert np.array_equal(batched[r], bilinear_b(u[r], v[r]))
            assert np.array_equal(deep[0, r], bilinear_b(u[r], v[r]))
            assert np.array_equal(deep[1, r], bilinear_b(v[r], u[r]))


def test_trace_noise_sum_matches_per_point_sums():
    # more modes than numpy's pairwise sum takes in one block
    n = 8
    modes = tuple(0.01 * random_divfree(n, 200 + j) for j in range(9))
    model = NSEModel(NSEConfig(resolution=n, level=5, noise_modes=modes))
    om = NoiseRealization(4, 0, num_components=9)
    s, t = dyadic(-1), dyadic(0)
    _, trace = model.evolve_trace(om, s, t, taylor_green(n, 1.0))
    want = np.array([float(np.sum(np.abs(row))) for row in model.z_values(om, s, t)])
    assert np.array_equal(trace.z_abs_sum.view(np.int64), want.view(np.int64))


# -- the spectral operators against their first formulations ---------------------

def _real_grid(n):
    """The grid constants as real arrays and a boolean mask."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = k[:, None], k[None, :]
    ksq = kx**2 + ky**2
    inv = np.zeros_like(ksq)
    inv[ksq > 0] = 1.0 / ksq[ksq > 0]
    c = n // 3
    dealias = (np.abs(kx) <= c) & (np.abs(ky) <= c)
    return kx, ky, inv, np.stack(np.broadcast_arrays(kx, ky)), dealias


def _ref_to_phys(spec):
    n = spec.shape[-1]
    return np.real(np.fft.ifft2(spec, axes=(-2, -1))) * (n * n)


def _ref_to_spec(phys):
    n = phys.shape[-1]
    return np.fft.fft2(phys, axes=(-2, -1)) / (n * n)


def _ref_conj_reflect(spec):
    neg = (-np.arange(spec.shape[-1])) % spec.shape[-1]
    return np.conj(spec.take(neg, axis=-2).take(neg, axis=-1))


def _ref_leray_project(field):
    kx, ky, inv_ksq, kvec, _ = _real_grid(field.shape[-1])
    coef = (kx * field[..., 0, :, :] + ky * field[..., 1, :, :]) * inv_ksq
    out = field - kvec * coef[..., None, :, :]
    out[..., 0, 0] = field[..., 0, 0]
    return out


def _ref_bilinear_b(u, v):
    kx, ky, _, _, dealias = _real_grid(u.shape[-1])
    um = u * dealias
    vm = um if v is u else v * dealias
    u_ph, dvx, dvy = _ref_to_phys(np.stack([um, 1j * kx * vm, 1j * ky * vm]))
    w = u_ph[..., :1, :, :] * dvx + u_ph[..., 1:, :, :] * dvy
    out = _ref_leray_project(_ref_to_spec(w) * dealias)
    out = (out + _ref_conj_reflect(out)) * 0.5
    out[..., 0, 0] = 0.0
    return out


@np.errstate(over="ignore", invalid="ignore")
def _ref_advance(model, u, zvals, i0, record=None):
    """``NSEModel._advance`` as first written: fresh arrays at every operation."""
    h, g = model.cfg.step, model.grid
    n_steps = zvals.shape[0] - 1
    z_now = model._z_field(zvals[0])
    for k in range(n_steps):
        tk = (i0 + k) * h
        v = u - z_now
        if record is not None:
            record(k, v, z_now)
        rhs = (-_ref_bilinear_b(u, u) + float(np.cos(tk)) * model.cfg.forcing_field
               + model.source_coef * z_now)
        v = (v + h * rhs) * model.inv_denom
        z_now = model._z_field(zvals[k + 1])
        u = (v + z_now) * g.dealias
        u[..., 0, 0] = 0.0
        u_sq = nm.norm_h_sq(u) if np.isfinite(u.view(float)).all() else None
        if u_sq is None or (u_sq > model.cfg.guard).any():
            raise DivergenceError(f"flow blew past the guard at step {k}", step=k)
    if record is not None:
        record(n_steps, u - z_now, z_now)
    return u


def _assert_same_bits(got, want):
    # int64 views tell -0.0 from +0.0 and compare NaN payloads
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


def _spectral_inputs(n):
    """Random stacks with signed zeros in both parts, and stacks of real
    fields, of shape (2, n, n), (rows, 2, n, n) and (3, rows, 2, n, n)."""
    rng = np.random.default_rng(n)
    for shape in ((2, n, n), (1, 2, n, n), (4, 2, n, n), (3, 2, 2, n, n)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        parts = x.view(float)
        pick = rng.random(parts.shape)
        parts[pick < 0.1] = 0.0
        parts[pick > 0.9] = -0.0
        yield x
        fields = np.stack([random_divfree(n, seed) for seed in range(int(np.prod(shape[:-3])))])
        yield fields.reshape(shape)


# Inputs scaled into the range where a power-of-two transform scale is exact: from
# about 2^500 the products of bilinear_b overflow, and inf and NaN may take other bits.
_SCALES = (1.0, 2.0**400, 2.0**-400, 2.0**-900)


@pytest.mark.parametrize("n", [8, 16, 18, 32])
def test_spectral_operators_keep_the_bits_of_their_first_formulations(n):
    for x in (scale * x for scale in _SCALES for x in _spectral_inputs(n)):
        _assert_same_bits(nm.to_phys(x), _ref_to_phys(x))
        _assert_same_bits(nm.to_spec(x.real.copy()), _ref_to_spec(x.real.copy()))
        _assert_same_bits(nm.to_spec(x), _ref_to_spec(x))
        _assert_same_bits(nm._conj_reflect(x), _ref_conj_reflect(x))
        _assert_same_bits(leray_project(x), _ref_leray_project(x))
        _assert_same_bits(bilinear_b(x, x), _ref_bilinear_b(x, x))
        y = x[..., ::-1, :, :, :] if x.ndim > 3 else x[::-1]
        _assert_same_bits(bilinear_b(x, y), _ref_bilinear_b(x, y))


def _stepping_inputs(n):
    """(name, stack) pairs: random stacks of 1, 2 and 6 rows with signed zeros in
    every mode (so neither dealiased nor divergence free), real fields, and
    stacks whose flow leaves the guard: an overflowing norm, inf and NaN
    coefficients, and a row that blows up after two steps."""
    rng = np.random.default_rng(n)
    base = random_divfree(n, 3)
    base = base / math.sqrt(nm.norm_h_sq(base))
    for rows in (1, 2, 6):
        shape = (rows, 2, n, n)
        x = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        parts = x.view(float)
        pick = rng.random(parts.shape)
        parts[pick < 0.1] = 0.0
        parts[pick > 0.9] = -0.0
        yield f"signed zeros, {rows} rows", x
    yield "real fields", np.stack([taylor_green(n, 1.0), base, shear_mode(n, 2.0)])
    yield "overflow", np.stack([base, 1e200 * base])
    for bad in (np.inf, np.nan):
        x = np.stack([base, base])
        x[1, 0, 1, 2] = bad
        yield f"{bad} coefficient", x
    yield "late blow-up", np.stack([base, 300.0 * base])


def _outcome(call):
    """``call()``'s result and None, or None and the step of its DivergenceError."""
    try:
        return call(), None
    except DivergenceError as err:
        return None, err.step


def _steps_like_ref(model, s, t, stack):
    """``evolve_batch`` and ``evolve_trace`` of ``stack`` against ``_ref_advance``:
    the same bits, or a DivergenceError at the same step; returns that step."""
    zvals = model.z_values(OM, s, t)
    want, want_step = _outcome(
        lambda: _ref_advance(model, stack.copy(), zvals, s.at_level(model.grid_level)))
    ref_model = NSEModel(model.cfg)
    ref_model._advance = lambda u, z, i0, record=None: _ref_advance(ref_model, u, z, i0, record)
    want_traced, _ = _outcome(lambda: ref_model.evolve_trace(OM, s, t, stack.copy()))
    states = stack.view(float).reshape(len(stack), -1).copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes the guard
        got, got_step = _outcome(lambda: model.evolve_batch(OM, s, t, states))
        traced, traced_step = _outcome(lambda: model.evolve_trace(OM, s, t, stack.copy()))
    assert got_step == traced_step == want_step
    if want_step is None:
        _assert_same_bits(got, want.view(float).reshape(states.shape))
        (u_got, got_trace), (u_want, want_trace) = traced, want_traced
        _assert_same_bits(u_got, u_want)
        for name in NSETrace.SERIES:
            _assert_same_bits(getattr(got_trace, name), getattr(want_trace, name))
    return want_step


@pytest.mark.parametrize("n", [16, 18, 32])
def test_buffered_step_keeps_the_bits_of_its_first_formulation(n):
    model = _model(resolution=n)
    s, t = DyadicTime(-3, 6), DyadicTime(4, 6)
    steps = {name: _steps_like_ref(model, s, t, stack) for name, stack in _stepping_inputs(n)}
    # the cases reach both sides of the guard: no trip, a trip at once, a later trip
    assert steps["signed zeros, 6 rows"] is None and steps["overflow"] == 0
    assert steps["nan coefficient"] == 0 and steps["late blow-up"] == 2
    stiff = _model(resolution=n, viscosity=1e-300)
    for _, stack in _stepping_inputs(n):
        _steps_like_ref(stiff, s, t, stack)


def test_step_buffers_do_not_leak_between_calls():
    models = {n: _model(resolution=n) for n in (16, 18)}
    s, t = DyadicTime(-2, 6), DyadicTime(3, 6)
    calls = [(16, 2), (18, 1), (16, 6), (18, 2), (16, 1), (18, 6), (16, 2)]

    def start(i, n, rows):  # each call its own fields, so an overwrite shows
        return np.stack([(r + 1.0) * random_divfree(n, 10 * i + r) for r in range(rows)])

    def fresh(i, n, rows):  # one call on a new model: the bits a lone call gets
        model, u = _model(resolution=n), start(i, n, rows)
        return (model.evolve_batch(OM, s, t, u.view(float).reshape(rows, -1)),
                model.evolve_trace(OM, s, t, u)[0])

    wants = [fresh(i, n, rows) for i, (n, rows) in enumerate(calls)]
    kept = []  # every state returned and the last v each record saw, with their bits then

    def keep(array):
        kept.append((array, array.copy()))
        return array

    for i, ((n, rows), want) in enumerate(zip(calls, wants)):
        model, u = models[n], start(i, n, rows)
        seen = []
        out = keep(model._advance(u, model.z_values(OM, s, t), s.at_level(model.grid_level),
                                  record=lambda k, v, z: seen.append(v)))
        assert not np.shares_memory(out, keep(seen[-1]))
        _assert_same_bits(keep(model.evolve_batch(OM, s, t, u.view(float).reshape(rows, -1))),
                          want[0])
        _assert_same_bits(keep(model.evolve_trace(OM, s, t, u)[0]), want[1])
    for array, bits in kept:  # no later call wrote them
        _assert_same_bits(array, bits)


def test_evolve_batch_rows_match_evolve_field():
    model = _model()
    fields = [taylor_green(16, 0.5), 0.3 * random_divfree(16, 80), shear_mode(16, 2.0)]
    states = np.stack([model.pack(f) for f in fields])
    s, t = DyadicTime(-5, 5), DyadicTime(11, 5)
    out = model.evolve_batch(OM, s, t, states)
    assert out.shape == states.shape
    for row, f in zip(out, fields):
        assert np.array_equal(model.unpack(row), model.evolve_field(OM, s, t, f))


def test_batched_evolve_trace_matches_single_traces():
    model = _model()
    base = random_divfree(16, 81)
    base = base / np.sqrt(nm.norm_h_sq(base))
    starts = np.stack([base, 10.0 * base, taylor_green(16, 1.0)])
    s, t = dyadic(-1), dyadic(1)
    u_t, trace = model.evolve_trace(OM, s, t, starts)
    assert trace.v_h_sq.shape == trace.v_v_sq.shape == (len(starts), len(trace.times))
    for r, start in enumerate(starts):
        u_one, one = model.evolve_trace(OM, s, t, start)
        assert np.array_equal(u_t[r], u_one)
        assert trace.level == one.level
        for name in ("v_h_sq", "v_v_sq"):
            assert np.array_equal(getattr(trace, name)[r], getattr(one, name)), name
        for name in ("times", "z_abs_sum", "z_v_norm"):
            assert np.array_equal(getattr(trace, name), getattr(one, name)), name


def test_energy_diagnostics_rows_match_single_traces():
    model = _model(resolution=8, level=5)
    starts = np.stack([taylor_green(8, 1.0), random_divfree(8, 82)])
    s, t = dyadic(-1), dyadic(0)
    diag = energy_diagnostics(model.cfg, model.evolve_trace(OM, s, t, starts)[1], model.beta_hat)
    for r, start in enumerate(starts):
        one = energy_diagnostics(model.cfg, model.evolve_trace(OM, s, t, start)[1],
                                 model.beta_hat)
        for name in ("lhs", "g_surrogate", "slack"):
            assert np.array_equal(getattr(diag, name)[r], getattr(one, name)), name


def _old_finalize(field):
    """Single-field projection chain: Leray projection by component,
    flip-and-roll symmetrization, zeroed mean."""
    g = nm.grid_for(field.shape[-1])
    field = field * g.dealias
    coef = (g.kx * field[0] + g.ky * field[1]) * g.inv_ksq
    out = np.stack([field[0] - g.kx * coef, field[1] - g.ky * coef])
    out[:, 0, 0] = field[:, 0, 0]
    flipped = np.conj(np.roll(np.flip(out, axis=(-2, -1)), shift=(1, 1), axis=(-2, -1)))
    out = (out + flipped) * 0.5
    out[..., 0, 0] = 0.0
    return out


def _old_estimate_beta(phi, tol=1e-12, max_iter=2000, seed=7):
    """Reference oracle: one mode at a time, with separate forward and
    adjoint products that each transform u."""
    n = phi.shape[-1]
    g = nm.grid_for(n)
    phim = phi * g.dealias
    if float(np.max(np.abs(phim))) == 0.0:
        return 0.0
    dphi = [[nm.to_phys(1j * g.kx * phim[a]), nm.to_phys(1j * g.ky * phim[a])]
            for a in range(2)]

    def apply_fwd(u):
        uph = nm.to_phys(u)
        w = np.stack([uph[0] * dphi[a][0] + uph[1] * dphi[a][1] for a in range(2)])
        return _old_finalize(nm.to_spec(w))

    def apply_adj(v):
        vph = nm.to_phys(v)
        w = np.stack([vph[0] * dphi[0][b] + vph[1] * dphi[1][b] for b in range(2)])
        return _old_finalize(nm.to_spec(w))

    def apply_sym(u):
        return 0.5 * (apply_fwd(u) + apply_adj(u))

    u = random_divfree(n, seed)
    u = u / math.sqrt(nm.norm_h_sq(u))
    beta_prev = None
    hits = 0
    for _ in range(max_iter):
        su = apply_sym(u)
        beta = math.sqrt(nm.norm_h_sq(su))
        if beta == 0.0:
            return 0.0
        s2 = apply_sym(su)
        n2 = math.sqrt(nm.norm_h_sq(s2))
        if n2 == 0.0:
            return beta
        u = s2 / n2
        if beta_prev is not None and abs(beta - beta_prev) <= tol * max(beta, 1e-300):
            hits += 1
            if hits >= 2:
                return beta
        else:
            hits = 0
        beta_prev = beta
    raise AssertionError("reference power iteration did not settle")


def _power_iteration_modes():
    return [shear_mode(8, 0.05, True), 0.2 * random_divfree(8, 90), shear_mode(8, 0.3, False),
            *nm.default_noise_modes(16, 0.05)]


@pytest.mark.parametrize("phi", _power_iteration_modes(), ids=["shear8", "random8", "shear8y",
                                                                "shear16", "shear16y"])
def test_power_iteration_lies_just_below_beta(phi):
    # power iteration approaches the top of the spectrum from below
    beta = estimate_beta(phi)
    old = _old_estimate_beta(phi)
    assert old <= beta
    assert beta - old <= 1e-9 * beta


def test_beta_hat_sums_the_modes():
    model = _model()
    phi0, phi1 = model.cfg.noise_modes
    assert model.beta_hat == estimate_beta(phi0) + estimate_beta(phi1)


def _dense_form(phi):
    """The form <B(u, phi), u> on a basis built in physical space: a unit
    field along k_perp times cos(k.x) and sin(k.x) for each pair +-k."""
    n = phi.shape[-1]
    g = nm.grid_for(n)
    c = g.cutoff
    fields = []
    for kx in range(-c, c + 1):
        for ky in range(-c, c + 1):
            if (kx, ky) <= (0, 0):
                continue
            length = math.hypot(kx, ky)
            arg = kx * g.x + ky * g.y
            for wave in (np.cos(arg), np.sin(arg)):
                e = nm.to_spec(np.stack([-ky / length * wave, kx / length * wave]))
                fields.append(e / math.sqrt(nm.norm_h_sq(e)))
    basis = np.stack(fields)
    assert len(basis) == (2 * c + 1) ** 2 - 1
    images = np.stack([bilinear_b(e, phi) for e in basis])
    form = nm.TWO_PI_SQ * np.real(np.conj(basis.reshape(len(basis), -1))
                                  @ images.reshape(len(basis), -1).T)
    return 0.5 * (form + form.T)


@pytest.mark.parametrize("n", [8, 16, 18])
def test_estimate_beta_matches_dense_oracle(n):
    for phi in (*nm.default_noise_modes(n, 0.05), 0.2 * random_divfree(n, 90)):
        eig = np.linalg.eigvalsh(_dense_form(phi))
        want = max(eig[-1], -eig[0])
        assert abs(estimate_beta(phi) - want) <= 1e-12 * want


def _symmetric_cases():
    rng = np.random.default_rng(3)
    cases = {}
    for d in (1, 2, 3, 120):
        a = rng.normal(size=(d, d))
        cases[f"random{d}"] = a + a.T
    q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    spectrum = np.repeat([-2.0, 0.5, 0.5 + 1e-9, 3.0], 10)
    cases["repeated"] = (q * spectrum) @ q.T
    cases["repeated_top"] = (q * np.repeat([-1.0, 2.0], 20)) @ q.T
    cases["zero"] = np.zeros((5, 5))
    cases["negative"] = -(q * np.linspace(0.5, 4.0, 40)) @ q.T
    cases["negative1"] = np.array([[-3.0]])
    cases["diagonal"] = np.diag([1.0, -5.0, 2.0, 2.0])
    return cases


@pytest.mark.parametrize("name", sorted(_symmetric_cases()))
def test_tridiagonal_bisection_matches_eigvalsh(name):
    s = _symmetric_cases()[name]
    s = 0.5 * (s + s.T)
    want = np.linalg.eigvalsh(s)
    scale = max(np.max(np.abs(want)), 1e-300)
    diag, off = nm._tridiagonal(s)
    assert diag.shape == (len(s),) and off.shape == (len(s) - 1,)
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.max(np.abs(np.linalg.eigvalsh(t) - want)) <= 1e-13 * scale
    assert abs(nm._top_eigenvalue(diag, off) - want[-1]) <= 1e-13 * scale
    assert abs(-nm._top_eigenvalue(-diag, off) - want[0]) <= 1e-13 * scale


def test_beta_bits_do_not_depend_on_thread_count():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("from stochflow.models import nse\n"
            "print(nse.estimate_beta(nse.shear_mode(32, 0.05)).hex())")
    bits = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        bits.add(run.stdout.strip())
    assert len(bits) == 1, bits


def test_stacked_norms_match_single_rows():
    rng = np.random.default_rng(5)
    for n in (8, 16, 18, 32, 64):
        for rows in range(1, 8):
            mags = 10.0 ** rng.uniform(-8, 8, size=(rows, 1, 1, 1))
            stack = mags * (rng.standard_normal((rows, 2, n, n))
                            + 1j * rng.standard_normal((rows, 2, n, n)))
            stack[rng.integers(rows)] = 0.0
            for norm in (nm.norm_h_sq, nm.norm_v_sq):
                got = norm(stack)
                assert got.shape == (rows,)
                for r in range(rows):
                    one = norm(stack[r])
                    assert type(one) is float
                    assert got[r] == one, (norm.__name__, n, rows, r)


def _old_absorbing_radius(times, v_v_sq, z_v_norm, window):
    t_end = times[-1]
    mask = times >= t_end - window
    return float(np.max(np.sqrt(v_v_sq[mask]) + z_v_norm[mask]))


def _old_absorbing_radius_experiment(model, omega, t, magnitudes=(1.0, 10.0),
                                     lookbacks=(8, 16, 32), window=1.0, seed=11):
    """Reference oracle: each lookback runs on its own from t - lookback and
    records every grid point."""
    base = random_divfree(model.cfg.resolution, seed)
    base = base / math.sqrt(nm.norm_h_sq(base))
    radii = {}
    gaps = {}
    starts = np.stack([mag * base for mag in magnitudes])
    for lb in lookbacks:
        _, trace = model.evolve_trace(omega, t - int(lb), t, starts)
        # the series after the first point, as the energy balance's
        rs = [_old_absorbing_radius(trace.times[1:], v_v_sq[1:], trace.z_v_norm[1:], window)
              for v_v_sq in trace.v_v_sq]
        radii[lb] = rs
        gaps[lb] = (max(rs) - min(rs)) / max(max(rs), 1e-300)
    t_star = next((lb for lb in lookbacks if gaps[lb] <= 0.05), None)
    return {"radii": radii, "gaps": gaps, "t_star": t_star}


@pytest.mark.parametrize("lookbacks", [(8, 16, 32), (32, 8, 16), (8, 8, 16), (1,), (2, 4)])
def test_absorbing_radius_sweep_matches_reference_oracle(lookbacks):
    model = _model(resolution=8, level=5, viscosity=0.2)
    om = NoiseRealization(21, 0, num_components=2)
    magnitudes = (1.0, 10.0, 0.1)
    for window in (0.25, 1.0, 3.0):  # at 3.0 the rows of lookbacks 1 and 2 start inside it
        got = nm.absorbing_radius_experiment(model, om, dyadic(0), magnitudes, lookbacks, window)
        want = _old_absorbing_radius_experiment(model, om, dyadic(0), magnitudes, lookbacks,
                                                window)
        assert list(got["radii"]) == list(want["radii"])
        for lb in lookbacks:
            assert got["radii"][lb] == want["radii"][lb], (window, lb)
            assert got["gaps"][lb] == want["gaps"][lb], (window, lb)
        assert got["t_star"] == want["t_star"]


def test_absorbing_radius_sweep_steps_the_deepest_start_once(monkeypatch):
    model = _model(resolution=8, level=5)
    model.beta_hat  # the noise bound applies bilinear_b too; it is computed once, here
    om = NoiseRealization(21, 0, num_components=2)
    rows = []  # the stack height of each bilinear_b call
    real = nm.bilinear_b

    def counted(u, v, *work):
        rows.append(u.shape[0])
        return real(u, v, *work)

    monkeypatch.setattr(nm, "bilinear_b", counted)
    lookbacks = (8, 2, 4, 4)
    nm.absorbing_radius_experiment(model, om, dyadic(0), (1.0, 10.0), lookbacks)
    assert len(rows) == max(lookbacks) << model.cfg.level
    # row steps are those of one run per distinct lookback
    assert sum(rows) == sum(2 * lb << model.cfg.level for lb in set(lookbacks))


def test_joined_trace_pieces_match_direct_trace():
    model = _model(resolution=8, level=5)
    s, r, t = dyadic(-2), DyadicTime(-19, 4), dyadic(0)
    u0 = taylor_green(8, 1.0)
    u_r, first = model.evolve_trace(OM, s, r, u0)
    _, second = model.evolve_trace(OM, r, t, u_r)
    _, direct = model.evolve_trace(OM, s, t, u0)
    for name in nm.NSETrace.SERIES:
        # the piece boundary r is the last point of the first piece and the first of the second
        joined = np.concatenate([getattr(first, name), getattr(second, name)[1:]])
        assert np.array_equal(joined, getattr(direct, name)), name


@pytest.mark.parametrize("window", [0.25, 1.0, 3.0])
@pytest.mark.parametrize("lookbacks", [(8, 2, 4, 4), (1, 8), (3,)])
def test_absorbing_radius_sweep_records_only_the_window(monkeypatch, lookbacks, window):
    model = _model(resolution=8, level=5)
    h = model.cfg.step
    om = NoiseRealization(21, 0, num_components=2)
    recorded = []  # the grid times of every recorded point
    real = nm.NSEModel.evolve_trace

    def spy(self, omega, s, t, u):
        out = real(self, omega, s, t, u)
        recorded.extend(out[1].times)
        return out

    monkeypatch.setattr(nm.NSEModel, "evolve_trace", spy)
    nm.absorbing_radius_experiment(model, om, dyadic(0), (1.0, 10.0), lookbacks, window)
    recorded = np.array(recorded)
    assert recorded.min() >= -window - h and recorded.max() <= 0.0
    inside = np.arange(-min(window, max(lookbacks)) / h, 1) * h
    assert set(inside) <= set(recorded)  # every point inside the window is recorded
    # each piece repeats at most its first point
    assert len(recorded) <= len(inside) + 1 + len(set(lookbacks))

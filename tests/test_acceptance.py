"""Acceptance battery: each test covers one numbered criterion at its stated
tolerance and prints a single pass/fail line (run with -s to watch them)."""

import numpy as np
import pytest
import scipy.integrate

import stochflow.finite_oracle as fo
from stochflow.dyadic import DyadicTime, dyadic
from stochflow.esm import (
    PullbackSchedule,
    esm_mean,
    esm_residual,
    pullback_measure,
    pullback_point,
)
from stochflow.flow_core import evolve_batch
from stochflow.measure import (
    EmpiricalMeasure,
    GaussianFamily,
    distance,
    gaussian_draw,
)
from stochflow.models.linear import FourierForcing, LinearOUModel
from stochflow.models import nse as nm
from stochflow.models.nse import NSEConfig, NSEModel
from stochflow.wiener import (
    NoiseRealization,
    OUConfig,
    RealizationStream,
    increments,
    wiener_at,
)
from support import flow_residual

SEED = 20260809
RATE = 0.5
SIGMA = 0.3
FORCING = FourierForcing(cos_coeffs=(1.0,))

_ensemble_cache = {}


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _linear(level=6):
    return LinearOUModel(rate=RATE, sigma=SIGMA, forcing=FORCING, grid_level=level)


def _nse_model():
    return NSEModel(NSEConfig(viscosity=0.25))


def _deadline_schedule(anchor, tol=0.02):
    # starts chosen so that convergence is certified no later than 16/rate back
    lookbacks = (2, 4, 8, 16, 24, 32)
    starts = tuple(anchor - lb for lb in lookbacks)
    return PullbackSchedule(anchor, starts, tol)


@pytest.mark.slow
def test_criterion_1_flow_composition_exactness():
    rng = np.random.default_rng(SEED)
    worst_closed = 0.0
    closed = _linear()
    for i in range(50):
        s = DyadicTime(int(rng.integers(-2048, 1024)), 6)
        r = s + DyadicTime(int(rng.integers(0, 1024)), 6)
        t = r + DyadicTime(int(rng.integers(0, 1024)), 6)
        pts = rng.normal(size=(2, 1))
        om = NoiseRealization(SEED, i)
        worst_closed = max(worst_closed, flow_residual(closed, om, s, r, t, pts))
    model = _nse_model()
    u0 = model.pack(nm.taylor_green(16, 0.5))
    for i in range(50):
        s = DyadicTime(int(rng.integers(-64, 0)), 6)
        r = s + DyadicTime(int(rng.integers(0, 64)), 6)
        t = r + DyadicTime(int(rng.integers(0, 64)), 6)
        om = NoiseRealization(SEED + 1, i, num_components=2)
        nse_res = flow_residual(model, om, s, r, t, [u0])
        assert nse_res == 0.0, "spectral stepper composition must be bit-exact"
    _report("criterion-1 flow composition",
            worst_closed <= 1e-12,
            f"closed-form residual {worst_closed:.3e} <= 1e-12; spectral stepper bit-exact")


@pytest.mark.slow
def test_criterion_2_wiener_statistics():
    n = 10_000
    one = dyadic(1)
    w1 = np.array([wiener_at(NoiseRealization(SEED, i), 0, one) for i in range(n)])
    var = w1.var(ddof=1)

    sums = np.empty((n, 2))
    zero, two = dyadic(0), dyadic(2)
    for i in range(n):
        om = NoiseRealization(SEED + 2, i)
        sums[i, 0] = np.sum(increments(om, 0, zero, one, 4))
        sums[i, 1] = np.sum(increments(om, 0, one, two, 4))
    corr = float(np.corrcoef(sums[:, 0], sums[:, 1])[0, 1])

    rng = np.random.default_rng(SEED)
    om = NoiseRealization(SEED + 3, 0)
    exact = 0
    for _ in range(1000):
        lv = int(rng.integers(0, 10))
        num = int(rng.integers(-(1 << 10), 1 << 10))
        s, e = DyadicTime(num, lv), DyadicTime(num + 1, lv)
        coarse = increments(om, 0, s, e, lv)
        children = increments(om, 0, s, e, lv + 1)
        exact += int(float(np.sum(children)) == float(coarse[0]))
    ok = (0.94 <= var <= 1.06) and abs(corr) <= 0.05 and exact == 1000
    _report("criterion-2 wiener statistics", ok,
            f"var={var:.4f} in [0.94,1.06], |corr|={abs(corr):.4f} <= 0.05, "
            f"refinement bit-exact {exact}/1000")


@pytest.mark.slow
def test_criterion_3_pullback_on_linear_model():
    model6 = _linear(6)
    t = dyadic(0)
    family = GaussianFamily(lambda _: 0.0, 1.0, salt=SEED)
    deadline = 16.0 / RATE
    worst_spread_rel = 0.0
    for i in range(100):
        om = NoiseRealization(SEED + 4, i)
        sched = _deadline_schedule(t)
        mu, diag = pullback_measure(model6, om, sched, family, 512)
        assert diag.converged, f"realization {i} did not converge"
        stop_lookback = t.value - diag.starts_used[-1].value
        assert stop_lookback <= deadline + 1e-12, \
            f"converged only at lookback {stop_lookback}"
        for s in diag.starts_used:
            rho = family.sample(s, 512)
            pushed = evolve_batch(model6, om, s, t, rho.particles)
            got = EmpiricalMeasure(pushed, rho.weights).spread()
            want = np.exp(-RATE * (t.value - s.value)) * rho.spread()
            worst_spread_rel = max(worst_spread_rel,
                                   abs(got - want) / max(want, 1e-300))
    assert worst_spread_rel <= 0.10

    # limit point against an independent quadrature oracle at level 12
    model12 = _linear(12)
    sched12 = PullbackSchedule.geometric(t, 8, dyadic(1), 1e-5)
    lvl, h = 12, 2.0**-12
    s0 = t - 128
    det = scipy.integrate.quad(lambda u: np.exp(RATE * u) * np.cos(u), -120, 0,
                               limit=400)[0]
    worst_gap = 0.0
    for i in range(100):
        om = NoiseRealization(SEED + 5, i)
        x_star = pullback_point(model12, om, sched12)[0]
        dw = increments(om, 0, s0, t, lvl)
        lefts = np.arange(s0.value, t.value, h)
        noise = SIGMA * float(np.dot(np.exp(-RATE * (0.0 - lefts)), dw))
        worst_gap = max(worst_gap, abs(x_star - (det + noise)))
    _report("criterion-3 pullback on linear model",
            worst_gap <= 1e-4,
            f"converged by lookback {deadline}; spread law rel err "
            f"{worst_spread_rel:.2e} <= 0.1; oracle gap {worst_gap:.2e} <= 1e-4")


def _pullback_ensemble(anchor_int: int, salt: int, n: int = 1000):
    key = (anchor_int, salt, n)
    if key not in _ensemble_cache:
        model = _linear(6)
        t = dyadic(anchor_int)
        sched = PullbackSchedule.geometric(t, 7, dyadic(2))
        pts = np.array([
            pullback_point(model, NoiseRealization(salt, i), sched)[0]
            for i in range(n)
        ])
        _ensemble_cache[key] = pts
    return _ensemble_cache[key]


@pytest.mark.slow
def test_criterion_4_esm_mean_and_residual():
    n = 1000
    model = _linear(6)
    t = dyadic(0)
    points = _pullback_ensemble(0, SEED + 6, n)
    mean_measure = esm_mean([EmpiricalMeasure.dirac([x]) for x in points])
    m0, std = model.periodic_mean(0.0), model.stationary_std
    baseline = distance(gaussian_draw(m0, std, n, salt=SEED + 7),
                        gaussian_draw(m0, std, n, salt=SEED + 8))
    bound = 4.0 * baseline
    d_mean = distance(mean_measure, gaussian_draw(m0, std, n, salt=SEED + 9))

    analytic = GaussianFamily(model.periodic_mean, std, salt=SEED + 10)
    two_pi = DyadicTime(int(round(2 * np.pi * 64)), 6)
    resid = esm_residual(model, analytic, [(t - two_pi, t)], n,
                         RealizationStream(SEED + 11))
    ok = d_mean <= bound and resid <= bound
    _report("criterion-4 mean of pullback family", ok,
            f"mean distance {d_mean:.4f} <= {bound:.4f}; "
            f"analytic family residual {resid:.4f} <= {bound:.4f}")


@pytest.mark.slow
def test_criterion_5_periodicity():
    n = 1000
    model = _linear(6)
    two_pi_int = int(round(2 * np.pi * 64))  # grid units at level 6
    at_t = _pullback_ensemble(0, SEED + 6, n)
    # anchor shifted by the grid-rounded period, fresh realizations
    t_shift = DyadicTime(two_pi_int, 6)
    sched = PullbackSchedule.geometric(t_shift, 7, dyadic(2))
    shifted = np.array([
        pullback_point(model, NoiseRealization(SEED + 12, i), sched)[0]
        for i in range(n)
    ])
    m0, std = model.periodic_mean(0.0), model.stationary_std
    baseline = distance(gaussian_draw(m0, std, n, salt=SEED + 13),
                        gaussian_draw(m0, std, n, salt=SEED + 14))
    bound = 4.0 * baseline
    d = distance(EmpiricalMeasure.equal_weight(at_t[:, None]),
                 EmpiricalMeasure.equal_weight(shifted[:, None]))
    _report("criterion-5 periodicity", d <= bound,
            f"distance(rho_t, rho_t+2pi) = {d:.4f} <= {bound:.4f}")


def test_criterion_6_exact_oracle_suite():
    flow = fo.two_state_noisy()
    probs, part, meas, ftab = fo.independence_scenario_from_flow(flow, 4, 2)
    cond = fo.conditional_expectation_check(probs, part, meas, ftab)
    cond_ok = cond.independence_ok and cond.max_residual == 0

    mart = fo.ff_martingale_check(flow, 0, (fo.Fraction(1, 7), fo.Fraction(2, 3)), 12)
    chap_ok = all(fo.chapman_check(f, -3, 1, 4) for f in
                  (flow, fo.period_two_alternating(), fo.cyclic_doubly_stochastic(4)))

    pull = fo.ff_pullback(flow, 0, 10)
    round_trip_ok = pull.mean_matches_family and pull.stabilized
    pull_sync = fo.ff_pullback(fo.synchronizing_pair(), 0, 8)
    round_trip_ok = round_trip_ok and pull_sync.all_synchronized \
        and pull_sync.mean_matches_family

    scenarios = fo.counterexamples()
    remarks_ok = all(scenarios[name].ok for name in
                     ("remark-attractor", "remark-shift", "remark-identity"))
    ok = cond_ok and mart.ok and chap_ok and round_trip_ok and remarks_ok
    _report("criterion-6 exact oracle suite", ok,
            f"conditional-expectation residual {cond.max_residual}; martingale "
            f"{mart.cylinders_checked} cylinders exact; chapman exact; "
            f"round trip exact; remarks verdicts all true")


def test_criterion_7_adaptedness_key_surgery():
    t = dyadic(0)
    family = GaussianFamily(lambda _: 0.0, 1.0, salt=SEED + 15)
    model = _linear(6)
    sched = _deadline_schedule(t)
    om = NoiseRealization(SEED + 16, 0)
    base, _ = pullback_measure(model, om, sched, family, 256)
    future = om.with_unit_surgery(0, 0, 0.5).with_unit_surgery(0, 7, -0.3)
    touched, _ = pullback_measure(model, future, sched, family, 256)
    linear_ok = base.particles.tobytes() == touched.particles.tobytes()
    assert wiener_at(future, 0, dyadic(1)) != wiener_at(om, 0, dyadic(1))

    nse = _nse_model()

    class FieldFamily:
        def sample(self, s, n):
            pts = np.stack([
                nse.pack(0.5 * nm.random_divfree(16, 1000 + k)) for k in range(n)
            ])
            return EmpiricalMeasure.equal_weight(pts)

    om2 = NoiseRealization(SEED + 17, 0, num_components=2)
    sched2 = PullbackSchedule(t, (t - 1, t - 2, t - 3), tol=1e9)
    base2, _ = pullback_measure(nse, om2, sched2, FieldFamily(), 6)
    fut2 = om2.with_unit_surgery(0, 0, 0.4).with_unit_surgery(1, 3, 0.2)
    touched2, _ = pullback_measure(nse, fut2, sched2, FieldFamily(), 6)
    nse_ok = base2.particles.tobytes() == touched2.particles.tobytes()
    _report("criterion-7 adaptedness", linear_ok and nse_ok,
            "future-key surgery leaves pullback output bit-identical "
            "(linear and spectral models)")


def test_criterion_8_nse_structural_checks():
    model = _nse_model()
    cfg = model.cfg
    om = NoiseRealization(SEED + 18, 0, num_components=2)
    checks = {}

    u = nm.random_divfree(16, SEED % 1000)
    v = nm.random_divfree(16, SEED % 1000 + 1)
    scale = np.max(np.abs(u))
    checks["leray"] = (
        np.max(np.abs(nm.leray_project(u) - u)) <= 1e-13 * scale
        and nm.divergence_residual(nm.leray_project(
            np.stack([u[0], v[1]]))) <= 1e-13 * scale
    )

    # stepwise invariants: reality bitwise, zero mean bitwise, divergence tiny
    state = nm.taylor_green(16, 1.0)
    lvl = cfg.level
    ok_steps = True
    for k in range(16):
        state = model.evolve_field(om, DyadicTime(k, lvl), DyadicTime(k + 1, lvl), state)
        ok_steps = ok_steps and nm.reality_residual(state) == 0.0
        ok_steps = ok_steps and np.max(np.abs(state[:, 0, 0])) == 0.0
        ok_steps = ok_steps and (
            nm.divergence_residual(state) <= 1e-12 * max(np.max(np.abs(state)), 1e-300))
    checks["invariants_every_step"] = ok_steps

    ortho = abs(nm.inner_h(nm.bilinear_b(u, v), v))
    checks["orthogonality"] = ortho <= 1e-10 * np.sqrt(nm.norm_v_sq(u)) * nm.norm_v_sq(v)

    checks["taylor_green"] = all(
        np.max(np.abs(nm.bilinear_b(nm.taylor_green(n), nm.taylor_green(n)))) <= 1e-10
        for n in (16, 32)
    )

    _, trace = model.evolve_trace(om, dyadic(0), dyadic(2), nm.taylor_green(16, 1.0))
    checks["poincare"] = bool(np.all(trace.v_h_sq <= trace.v_v_sq))

    quiet = NSEModel(NSEConfig(noise_modes=(), forcing_field=nm.taylor_green(16, 0.0)))
    _, trace0 = quiet.evolve_trace(om, dyadic(0), dyadic(2), nm.taylor_green(16, 1.0))
    checks["zero_input_decay"] = bool(np.all(np.diff(trace0.v_h_sq) <= 1e-12))

    phi = nm.shear_mode(16, 0.05)
    b1 = nm.estimate_beta(phi)
    b3 = nm.estimate_beta(3.0 * phi)
    checks["beta_scaling"] = abs(b3 - 3.0 * b1) <= 1e-8 * max(3.0 * b1, 1e-30)
    checks["beta_bound_sample"] = all(
        abs(nm.inner_h(nm.bilinear_b(w, phi), w)) <= b1 * nm.norm_h_sq(w) * (1 + 1e-8)
        for w in (nm.random_divfree(16, 5000 + j) for j in range(1000))
    )

    absorb = nm.absorbing_radius_experiment(model, om, dyadic(0), (1.0, 10.0),
                                            lookbacks=(4, 16, 32))
    checks["absorbing_radius"] = absorb["t_star"] is not None \
        and absorb["gaps"][32] <= 0.05

    ok = all(checks.values())
    failing = [k for k, good in checks.items() if not good]
    _report("criterion-8 spectral model structure", ok,
            f"all {len(checks)} structural checks hold "
            f"(measured lookback threshold {absorb['t_star']})"
            + (f"; failing: {failing}" if failing else ""))

import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from stochflow import wiener
from stochflow.dyadic import DyadicTime, dyadic
from stochflow.errors import (AlignmentError, ConfigError, OrderingError, StateError,
                             UnsupportedCaseError)
from stochflow.esm import (
    AttractorCloud,
    PullbackSchedule,
    attractor_invariance_residual,
    esm_mean,
    esm_residual,
    hausdorff_distance,
    hausdorff_semidistance,
    martingale_trace,
    pullback_attractor,
    pullback_measure,
    pullback_point,
    pullback_points,
)
from stochflow.flow_core import (
    ScalarExpFlow,
    evolve_batch,
    evolve_ensemble,
    pullback_ensemble,
    tanh_coordinate,
)
from stochflow.measure import (
    EmpiricalMeasure,
    GaussianFamily,
    distance,
    gaussian_draw,
    mixture,
)
from stochflow.models import linear
from stochflow.models.linear import FourierForcing, LinearOUModel
from stochflow.wiener import NoiseRealization, RealizationStream
from support import ConstantFamily, GuardTripFlow, ShiftFlow

OM = NoiseRealization(314, 0)
T0 = dyadic(0)
IDENTITY = ScalarExpFlow(0.0, 6)  # x * exp(0) = x * 1.0: the identity, bit for bit


def _linear(level=6, rate=0.5, sigma=0.3):
    return LinearOUModel(rate=rate, sigma=sigma,
                         forcing=FourierForcing(cos_coeffs=(1.0,)), grid_level=level)


def _schedule(anchor=T0, depth=6, coeff=2, tol=0.02):
    return PullbackSchedule.geometric(anchor, depth, dyadic(coeff), tol)


class TestSchedule:
    def test_geometric_shape(self):
        sched = _schedule(depth=4, coeff=1)
        assert [s.value for s in sched.starts] == [-1.0, -2.0, -4.0, -8.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            PullbackSchedule(T0, (dyadic(-1),))
        with pytest.raises(ConfigError):
            PullbackSchedule(T0, (dyadic(-2), dyadic(-1)))
        with pytest.raises(ConfigError):
            PullbackSchedule(T0, (dyadic(1), dyadic(-1)))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        # every convergence test is strict: nothing stays under a tolerance of 0
        with pytest.raises(ConfigError, match="tolerance"):
            _schedule(tol=tol)


class TestPullbackMeasure:
    def test_identity_constant_family(self):
        rho = gaussian_draw(0.0, 1.0, 128, salt=2)
        mu, diag = pullback_measure(IDENTITY, OM, _schedule(),
                                    ConstantFamily(rho), 128)
        assert diag.converged
        assert all(d == 0.0 for d in diag.distances)
        assert np.array_equal(mu.particles, rho.particles)

    def test_linear_contraction_converges_with_spread_law(self):
        model = _linear()
        sched = _schedule()
        family = GaussianFamily(lambda t: 0.0, 1.0, salt=5)
        mu, diag = pullback_measure(model, OM, sched, family, 512)
        assert diag.converged
        # spread of each iterate contracts by exactly the decay factor
        for s in diag.starts_used:
            rho = family.sample(s, 512)
            pushed = evolve_batch(model, OM, s, T0, rho.particles)
            got = EmpiricalMeasure(pushed, rho.weights).spread()
            want = np.exp(-model.rate * (T0.value - s.value)) * rho.spread()
            assert got == pytest.approx(want, rel=1e-10)

    def test_shift_flow_reports_divergence(self):
        family = GaussianFamily(lambda t: 2.0, 0.5, salt=6)
        mu, diag = pullback_measure(ShiftFlow(6), OM, _schedule(), family, 64)
        assert not diag.converged
        assert "exhausted" in diag.message
        # iterate means march off linearly with the lookback
        means = []
        for s in diag.starts_used:
            rho = family.sample(s, 64)
            pushed = evolve_batch(ShiftFlow(6), OM, s, T0, rho.particles)
            means.append(pushed.mean())
        diffs = np.diff(means)
        assert np.all(diffs > 0.9)

    def test_adaptedness_future_surgery_bit_identical(self):
        model = _linear()
        family = GaussianFamily(lambda t: 0.0, 1.0, salt=7)
        mu, _ = pullback_measure(model, OM, _schedule(), family, 256)
        future = OM.with_unit_surgery(0, 0, 0.6)  # increments in [0,1), after t=0
        mu2, _ = pullback_measure(model, future, _schedule(), family, 256)
        assert np.array_equal(mu.particles, mu2.particles)
        past = OM.with_unit_surgery(0, -3, 0.6)
        mu3, _ = pullback_measure(model, past, _schedule(), family, 256)
        assert not np.array_equal(mu.particles, mu3.particles)

    @staticmethod
    def _peak_per_particle(model, omega, schedule, n):
        family = GaussianFamily(lambda t: 0.0, 1.0, salt=1)
        tracemalloc.start()
        try:
            mu, diag = pullback_measure(model, omega, schedule, family, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(diag.distances) == 5
        return mu, peak / n

    def test_memory_per_particle_is_bounded(self):
        # run-length supports merged piece by piece, with the source sample and
        # the pushed states dropped once copied: the peak measured 93 B per
        # particle here (97 at 2**18), in the 4th distance, whose measure has a
        # few ties and so a weights array of its own; 143 with the whole merged
        # run sorted, gathered and copied again for its ties
        _, per_particle = self._peak_per_particle(
            LinearOUModel(rate=1.0, sigma=1.0), OM, _schedule(depth=6, coeff=1, tol=1e-3), 1 << 16)
        assert per_particle < 100

    def test_memory_per_particle_is_bounded_when_the_last_measure_collapses(self):
        # the geometry benchmark's pullback at 2**16 particles: the deepest start
        # pushes every particle onto a few hundred values; the peak measured 85 B
        # per particle (89 at 2**18)
        n = 1 << 16
        mu, per_particle = self._peak_per_particle(_linear(), NoiseRealization(1, 0),
                                                   _schedule(tol=1e-3), n)
        assert mu._sorted_1d[0].size < n // 50
        assert per_particle < 100


class TestMartingale:
    def test_identity_constant_exact(self):
        rho = gaussian_draw(0.0, 1.0, 64, salt=8)
        f = tanh_coordinate(0)
        trace = martingale_trace(IDENTITY, OM, T0, f,
                                 ConstantFamily(rho), [dyadic(1), dyadic(2), dyadic(4)], 64)
        assert np.all(trace.values == trace.values[0])
        assert trace.function_id == f.id

    def test_ensemble_mean_flat_for_evolution_family(self):
        # the ensemble means of the trace per lookback agree pairwise within 4
        # combined standard errors
        model = _linear()
        analytic = GaussianFamily(model.periodic_mean, model.stationary_std, salt=9)
        n = 300
        traces = martingale_trace(model, RealizationStream(77).take(n), T0,
                                  tanh_coordinate(0), analytic,
                                  [dyadic(1), dyadic(2), dyadic(4), dyadic(8)], 128).values
        means = traces.mean(axis=0)
        serr = traces.std(axis=0, ddof=1) / np.sqrt(n)
        gaps = np.abs(means[:, None] - means) / np.hypot(serr[:, None], serr)
        assert np.max(gaps) <= 4.0

    def test_lookbacks_must_increase(self):
        with pytest.raises(ConfigError):
            martingale_trace(IDENTITY, OM, T0, tanh_coordinate(0),
                             ConstantFamily(gaussian_draw(0, 1, 8, salt=1)),
                             [dyadic(2), dyadic(1)], 8)


class TestAttractor:
    def test_decaying_flow_collapses_to_origin(self):
        model = ScalarExpFlow(-1.0, 6)
        box = np.linspace(-1, 1, 41)[:, None]
        cloud = pullback_attractor(model, OM, [box], _schedule(coeff=1))
        assert cloud.converged
        assert np.max(np.abs(cloud.particles)) <= 0.02

    def test_linear_noise_contraction_diameter(self):
        model = _linear()
        box = np.linspace(-1, 1, 33)[:, None]
        sched = _schedule(coeff=2)
        cloud = pullback_attractor(model, OM, [box], sched)
        assert cloud.converged
        deepest = sched.starts[len(cloud.history)].value
        bound = np.exp(-model.rate * (T0.value - deepest)) * 2.0
        assert np.ptp(cloud.particles) <= bound * (1 + 1e-10)

    def test_expanding_flow_does_not_converge(self):
        model = ScalarExpFlow(+1.0, 6)
        box = np.linspace(-1, 1, 9)[:, None]
        cloud = pullback_attractor(model, OM, [box], _schedule(coeff=1))
        assert not cloud.converged

    def test_blow_up_at_the_first_start_keeps_every_seed(self):
        # the flow diverges from the first start: the cloud is the whole seed set
        model = GuardTripFlow(grid_level=4)
        boxes = [np.array([[1.0], [2.0]]), np.array([[3.0], [4.0], [5.0]])]
        cloud = pullback_attractor(model, OM, boxes, _schedule(coeff=1))
        assert not cloud.converged and cloud.history == []
        assert cloud.particles.tolist() == [[1.0], [2.0], [3.0], [4.0], [5.0]]

    def test_seed_union_images_match_per_box_images(self):
        # one evolve_batch of the union keeps each box's bits
        model = _linear()
        boxes = [np.linspace(-1, 1, 17)[:, None], np.linspace(2, 3, 5)[:, None]]
        sched = _schedule(coeff=2)
        cloud = pullback_attractor(model, OM, boxes, sched)
        deepest = sched.starts[len(cloud.history)]
        per_box = np.concatenate([evolve_batch(model, OM, deepest, T0, b) for b in boxes])
        assert np.array_equal(cloud.particles, per_box)
        with pytest.raises(StateError):
            pullback_attractor(model, OM, [boxes[0], np.zeros((2, 2))], sched)

    def test_invariance_identity_exact_zero(self):
        cloud = AttractorCloud(T0, np.array([[0.0], [1.0]]), [], converged=True)
        cloud_s = AttractorCloud(dyadic(-1), np.array([[0.0], [1.0]]), [], converged=True)
        res = attractor_invariance_residual(IDENTITY, OM, cloud_s, cloud)
        assert res == 0.0

    def test_invariance_linear_contraction(self):
        model = _linear()
        box = np.linspace(-1, 1, 17)[:, None]
        s_t = dyadic(-1)
        tol = 0.02
        cloud_t = pullback_attractor(model, OM, [box], _schedule(T0, 7, 2, tol))
        cloud_s = pullback_attractor(model, OM, [box], _schedule(s_t, 7, 2, tol))
        assert cloud_t.converged and cloud_s.converged
        res = attractor_invariance_residual(model, OM, cloud_s, cloud_t)
        assert res <= 2 * tol

    def test_unconverged_rejected(self):
        bad = AttractorCloud(T0, np.zeros((1, 1)), [], converged=False)
        with pytest.raises(ConfigError):
            attractor_invariance_residual(IDENTITY, OM, bad, bad)


class TestSelectTrajectory:
    """The selected trajectory at the anchor: ``pullback_point``."""

    def test_decaying_deterministic_is_zero(self):
        point = pullback_point(ScalarExpFlow(-1.0, 6), OM, _schedule(coeff=1, depth=7))
        assert np.max(np.abs(point)) <= 1e-6

    def test_linear_forced_matches_quadrature(self):
        lvl = 12
        model = _linear(level=lvl)
        sched = PullbackSchedule.geometric(T0, 7, dyadic(1))
        x_star = pullback_point(model, OM, sched)[0]
        from stochflow.wiener import increments
        import scipy.integrate
        a, sigma = model.rate, model.sigma
        h = 2.0**-lvl
        s0 = T0 - 64
        dw = increments(OM, 0, s0, T0, lvl)
        lefts = np.arange(s0.value, T0.value, h)
        noise = sigma * np.dot(np.exp(-a * (0.0 - lefts)), dw)
        det = scipy.integrate.quad(lambda u: np.exp(a * u) * np.cos(u), -120, 0,
                                   limit=400)[0]
        assert abs(x_star - (noise + det)) <= 1e-4

    def test_expanding_flow_refused(self):
        model = ScalarExpFlow(+0.5, 6)
        with pytest.raises(UnsupportedCaseError):
            pullback_point(model, OM, _schedule(coeff=1))

    def test_consistency_along_times(self):
        # the point selected at each time is the earlier one carried forward,
        # within the tolerance each collapse was certified to
        model = _linear()
        times = [T0, dyadic(1, 1), dyadic(2)]
        points = [pullback_point(model, OM, _schedule(t, depth=7)) for t in times]
        for a, b, pa, pb in zip(times, times[1:], points, points[1:]):
            carried = evolve_batch(model, OM, a, b, pa[None])[0]
            assert np.max(np.abs(carried - pb)) <= 0.02


def test_martingale_trace_rows_equal_per_handle_traces():
    model = _linear(level=5)
    fam = GaussianFamily(model.periodic_mean, model.stationary_std, salt=3)
    lbs = [dyadic(1), dyadic(2), dyadic(4)]
    omegas = RealizationStream(8).take(6)
    rows = np.array([martingale_trace(model, omega, T0, tanh_coordinate(0), fam, lbs,
                                      n_particles=32).values for omega in omegas])
    batched = martingale_trace(model, omegas, T0, tanh_coordinate(0), fam, lbs, n_particles=32)
    assert np.array_equal(batched.values, rows)


def _pullback_loop(model, omega, schedule):
    """The collapsed pullback point of one realization, start by start."""
    probes = np.array([[0.0], [1.0]])
    prev, hits = None, 0
    for s in schedule.starts:
        imgs = evolve_batch(model, omega, s, schedule.anchor, probes)
        coll = float(np.max(cdist(imgs, imgs)))
        if prev is not None:
            move = float(np.max(np.linalg.norm(imgs - prev, axis=1)))
            hits = hits + 1 if coll < schedule.tol and move < schedule.tol else 0
            if hits >= 2:
                return imgs[0]
        prev = imgs
    raise UnsupportedCaseError("no collapse")


def test_pullback_points_equal_per_handle_points():
    model = _linear(sigma=1.0)
    omegas = [NoiseRealization(5, i) for i in range(12)]
    deep = _schedule(depth=6)
    got = pullback_points(model, omegas, deep)
    for omega, row in zip(omegas, got):
        assert np.array_equal(row, pullback_point(model, omega, deep))
        assert np.array_equal(row, _pullback_loop(model, omega, deep))
    # realizations 4 and 7 leave one start earlier than the rest: at depth 5
    # they still collapse, while realization 0 never does
    short = _schedule(depth=5)
    left = [omegas[4], omegas[7]]
    assert np.array_equal(pullback_points(model, left, short), got[[4, 7]])
    for one_row in (pullback_point, _pullback_loop):
        with pytest.raises(UnsupportedCaseError):
            one_row(model, omegas[0], short)
    with pytest.raises(UnsupportedCaseError, match="realization 0"):
        pullback_points(model, [omegas[4], omegas[0], omegas[7]], short)


def _per_start_points(model, omegas, t, schedule):
    """``pullback_points`` as one checked ``evolve_ensemble`` per start on the
    rows still running, with the start index at which each row left."""
    probes = np.array([[0.0], [1.0]])
    out = np.empty((len(omegas), 1))
    live, hits, prev, exits = np.arange(len(omegas)), np.zeros(len(omegas), int), None, {}
    for k, s in enumerate(schedule.starts):
        if not live.size:
            break
        imgs = evolve_ensemble(model, [omegas[r] for r in live], s, t,
                               np.broadcast_to(probes, (live.size,) + probes.shape))
        coll = np.linalg.norm(imgs[:, :, None] - imgs[:, None], axis=-1).max(axis=(1, 2))
        if prev is not None:
            move = np.max(np.linalg.norm(imgs - prev, axis=2), axis=1)
            hits[live] = np.where((coll < schedule.tol) & (move < schedule.tol), hits[live] + 1, 0)
            done = hits[live] >= 2
            out[live[done]] = imgs[done, 0]
            exits.update((int(r), k) for r in live[done])
            live, imgs = live[~done], imgs[~done]
        prev = imgs
    assert not live.size
    return out, exits


@pytest.mark.parametrize("held", [1, linear.HELD_VALUES, 1 << 30])
@pytest.mark.parametrize("sigma, coeffs", [(1.0, (1.0,)), (1.0, ()), (0.0, (1.0,)), (0.0, ())])
def test_pullback_points_fill_each_interval_once_with_per_start_bits(sigma, coeffs, held):
    # the esm-ensemble workload's pullback: 40 realizations, depth 7, seed 1;
    # ``held`` runs every row apart, the default groups, and all rows at once
    model = LinearOUModel(rate=0.5, sigma=sigma, forcing=FourierForcing(coeffs))
    omegas = RealizationStream(1).take(40)
    sched = _schedule(depth=7)
    want, exits = _per_start_points(model, omegas, T0, sched)
    with mock.patch.object(linear, "HELD_VALUES", held), \
            mock.patch.object(wiener, "_fill", wraps=wiener._fill) as fill:
        got = pullback_points(model, omegas, sched)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    filled = Counter((o, n) for c in fill.call_args_list for o in c.args[0]
                     for n in range(c.args[2], c.args[3]))
    if sigma:
        assert max(filled.values()) == 1
        assert len(filled) == sum(2 << k for k in exits.values())  # [s_k, t] per row
        assert len(set(exits.values())) > 1  # rows leave at different starts
    else:
        assert not filled


@pytest.mark.parametrize("sigma", [1.0, 0.0])
def test_pullback_from_the_anchor_itself_keeps_the_states_and_fills_nothing_there(sigma):
    # a start at t maps the states to themselves, -0.0 kept, and [t, t] holds
    # no increment to fill; the later starts keep the bits of evolve_ensemble
    model = LinearOUModel(rate=0.5, sigma=sigma, forcing=FourierForcing((1.0,)))
    omegas, starts = RealizationStream(1).take(3), (T0, T0 - 1, T0 - 2)
    states, images = np.array([[-0.0], [1.0]]), []

    def keep_running(rows, imgs):
        images.append(imgs)
        return np.ones(rows.size, dtype=bool)

    with mock.patch.object(wiener, "_fill", wraps=wiener._fill) as fill:
        pullback_ensemble(model, omegas, starts, T0, states, keep_running)
    filled = Counter((o, n) for c in fill.call_args_list for o in c.args[0]
                     for n in range(c.args[2], c.args[3]))
    assert filled == (Counter({(o, n): 1 for o in omegas for n in (-2, -1)}) if sigma else {})
    live = np.broadcast_to(states, (3,) + states.shape)
    assert np.array_equal(images[0].view(np.int64), live.view(np.int64))
    for s, got in zip(starts[1:], images[1:]):
        want = evolve_ensemble(model, omegas, s, T0, live)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_pullback_ensemble_checks_every_start_before_the_first_image():
    model, probes = _linear(), np.array([[0.0], [1.0]])
    never = lambda rows, imgs: pytest.fail("no image expected")
    with pytest.raises(OrderingError):
        pullback_ensemble(model, [OM], [dyadic(-1), dyadic(-1)], T0, probes, never)
    with pytest.raises(AlignmentError):
        pullback_ensemble(model, [OM], [dyadic(-1), DyadicTime(-257, 7)], T0, probes, never)


def test_pullback_points_delegate_finite_lifts():
    from stochflow import finite_oracle as fo
    lift = fo.FiniteFlowLift(fo.synchronizing_pair())
    sched = PullbackSchedule.geometric(T0, 6, dyadic(1))
    omegas = [NoiseRealization(9, i) for i in range(5)]
    got = pullback_points(lift, omegas, sched)
    for omega, row in zip(omegas, got):
        assert np.array_equal(row, pullback_point(lift, omega, sched))


class TestEsmMeanResidual:
    def test_mean_of_identical_members(self):
        rho = gaussian_draw(0.0, 1.0, 64, salt=11)
        assert distance(esm_mean([rho] * 5), rho) == pytest.approx(0.0, abs=1e-12)

    def test_mean_of_diracs_is_the_equal_weight_measure_bitwise(self):
        # esm-verify's periodicity check reuses the mean measure for this one
        for n in [*range(1, 61), 97, 400, 1000, 4096]:
            points = gaussian_draw(0.3, 1.7, n, salt=n).particles[:, 0]
            mean = esm_mean([EmpiricalMeasure.dirac([x]) for x in points])
            equal = EmpiricalMeasure.equal_weight(points[:, None])
            assert mean.particles.tobytes() == equal.particles.tobytes(), n
            assert mean.weights.tobytes() == equal.weights.tobytes(), n

    def test_identity_flow_nonuniqueness_mean(self):
        # two-point mixtures with weights alpha / 1-alpha on two halves of the
        # ensemble average to the half-half measure for every alpha
        x1, x2 = EmpiricalMeasure.dirac([0.0]), EmpiricalMeasure.dirac([1.0])
        for alpha in (0.0, 0.3, 1.0):
            members = []
            for i in range(10):
                w = alpha if i < 5 else 1 - alpha
                members.append(mixture([x1, x2], [w, 1 - w]))
            mean = esm_mean(members)
            target = mixture([x1, x2], [0.5, 0.5])
            assert distance(mean, target) == pytest.approx(0.0, abs=1e-12)

    def test_pullback_ensemble_mean_matches_analytic_gaussian(self):
        model = _linear()
        sched = _schedule(depth=7)
        n = 400
        points = np.array([
            pullback_point(model, NoiseRealization(550, i), sched)[0]
            for i in range(n)
        ])
        mean = esm_mean([EmpiricalMeasure.dirac([x]) for x in points])
        m0, std = model.periodic_mean(0.0), model.stationary_std
        baseline = distance(gaussian_draw(m0, std, n, salt=21),
                            gaussian_draw(m0, std, n, salt=22))
        got = distance(mean, gaussian_draw(m0, std, n, salt=23))
        assert got <= 4 * baseline

    def test_esm_residual_analytic_vs_wrong_family(self):
        # transport over a full period so a wrong variance cannot relax back;
        # the closed-form distance between N(m, v) and N(m, 2v) sizes the margin
        from test_measure import gaussian_energy_distance

        model = _linear(sigma=1.0)
        n = 8192
        two_pi = DyadicTime(int(round(2 * np.pi * 64)), 6)
        pairs = [(T0 - two_pi, T0)]
        analytic = GaussianFamily(model.periodic_mean, model.stationary_std, salt=31)
        resid = esm_residual(model, analytic, pairs, n, RealizationStream(808))
        m0, std = model.periodic_mean(0.0), model.stationary_std
        baseline = distance(gaussian_draw(m0, std, n, salt=41),
                            gaussian_draw(m0, std, n, salt=42))
        tolerance = 4 * baseline
        assert resid <= tolerance
        wrong = GaussianFamily(model.periodic_mean,
                               model.stationary_std * np.sqrt(2.0), salt=32)
        resid_wrong = esm_residual(model, wrong, pairs, n, RealizationStream(809))
        assert resid_wrong > 10 * tolerance
        closed_form = gaussian_energy_distance(m0, std, m0, std * np.sqrt(2.0))
        assert closed_form > 10 * tolerance
        assert resid_wrong == pytest.approx(closed_form, rel=0.5)

    def test_pushforward_law_between_pullback_measures(self):
        # family built from one omega satisfies the transport law within 2 tol
        model = _linear()
        family = GaussianFamily(lambda t: 0.0, 1.0, salt=51)
        tol = 0.02
        s_t, t_t = dyadic(-1), T0
        mu_s, diag_s = pullback_measure(model, OM, _schedule(s_t, 7, 2, tol), family, 512)
        mu_t, diag_t = pullback_measure(model, OM, _schedule(t_t, 7, 2, tol), family, 512)
        assert diag_s.converged and diag_t.converged
        pushed = EmpiricalMeasure(
            evolve_batch(model, OM, s_t, t_t, mu_s.particles), mu_s.weights)
        assert distance(pushed, mu_t) <= 2 * tol


def test_hausdorff_basics():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.0], [1.0], [1.5]])
    assert hausdorff_distance(a, a) == 0.0
    assert hausdorff_distance(a, b) == 0.5


def _dense_semidistance(a, b):
    """The exhaustive n x m form that the sorted and blocked searches replace."""
    return float(np.max(np.min(cdist(np.atleast_2d(a), np.atleast_2d(b)), axis=1)))


# zero or magnitudes in [1e-100, 1e100]: every nonzero gap squares without
# underflow or overflow, so cdist's sqrt((a - b)**2) rounds to exactly |a - b|
_gap_safe = st.one_of(st.sampled_from([0.0, -1.0, 0.5, 2.0]),
                      st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))
_sets_1d = st.lists(_gap_safe, min_size=1, max_size=40).map(lambda v: np.array(v)[:, None])


@given(_sets_1d, _sets_1d)
@settings(max_examples=300, deadline=None)
def test_sorted_semidistance_equals_dense_bitwise(a, b):
    assert hausdorff_semidistance(a, b) == _dense_semidistance(a, b)


@pytest.mark.parametrize("far", [None, 0, 255, 256, 511, 699])
def test_blocked_semidistance_equals_dense_bitwise(far):
    # the farthest point of a sits at each block edge in turn
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(700, 2)), rng.normal(size=(300, 2))
    if far is not None:
        a[far] = 9.0
    assert hausdorff_semidistance(a, b) == _dense_semidistance(a, b)
    assert hausdorff_semidistance(b, a) == _dense_semidistance(b, a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_semidistance_non_finite_as_dense(bad):
    a = np.array([[0.0], [bad], [2.0]])
    b = np.array([[1.0], [bad]])
    assert np.array_equal(hausdorff_semidistance(a, b), _dense_semidistance(a, b),
                          equal_nan=True)
    assert np.array_equal(hausdorff_semidistance(a[:1], b), _dense_semidistance(a[:1], b),
                          equal_nan=True)
    assert np.isnan(hausdorff_semidistance(np.array([[0.0], [np.nan]]), np.zeros((3, 1))))
    assert np.isnan(hausdorff_semidistance(np.zeros((3, 1)), np.array([[0.0], [np.nan]])))


@pytest.mark.parametrize("dim", [1, 2])
def test_semidistance_of_empty_set_raises(dim):
    with pytest.raises(ValueError):
        hausdorff_semidistance(np.zeros((0, dim)), np.zeros((3, dim)))
    with pytest.raises(ValueError):
        hausdorff_semidistance(np.zeros((3, dim)), np.zeros((0, dim)))

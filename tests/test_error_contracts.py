"""Error-path contracts: every documented failure mode raises its named
exception rather than propagating garbage."""

import numpy as np
import pytest

import stochflow.finite_oracle as fo
from stochflow.dyadic import DyadicTime, dyadic
from stochflow.errors import (
    AlignmentError,
    ConfigError,
    OrderingError,
    ResolutionError,
    StateError,
    UnsupportedCaseError,
)
from stochflow.esm import (
    PullbackSchedule,
    esm_residual,
    martingale_trace,
    pullback_attractor,
    pullback_measure,
    pullback_point,
)
from stochflow.flow_core import ScalarExpFlow, coordinate
from stochflow.measure import EmpiricalMeasure, GaussianFamily, gaussian_draw, mixture
from stochflow.models.linear import LinearOUModel
from stochflow.wiener import NoiseRealization, OUConfig, RealizationStream
from support import evolve, flow_residual, pushforward

OM = NoiseRealization(1, 0)


def test_dyadic_negative_level_rejected():
    with pytest.raises(ResolutionError):
        DyadicTime(1, -1)


def test_ou_config_validation():
    with pytest.raises(ConfigError):
        OUConfig(rate=-1.0)


def test_noise_realization_validation():
    with pytest.raises(ConfigError):
        NoiseRealization(1, -1)
    with pytest.raises(ConfigError):
        NoiseRealization(1, 0, num_components=0)


def test_pushforward_nonfinite_output_rejected():
    mu = EmpiricalMeasure.dirac([1.0])
    with pytest.raises(StateError):
        pushforward(mu, lambda x: np.full_like(x, np.inf))


def test_mixture_weight_mismatch():
    mu = EmpiricalMeasure.dirac([0.0])
    with pytest.raises(ConfigError):
        mixture([mu, mu], [1.0])
    with pytest.raises(ConfigError):
        mixture([mu, mu], [0.9, 0.4])


@pytest.mark.parametrize("empty", [
    lambda: EmpiricalMeasure.equal_weight(np.empty((0, 1))),
    lambda: EmpiricalMeasure.equal_weight([]),  # one point of no coordinate
    lambda: gaussian_draw(0.0, 1.0, 0, salt=1),
    lambda: GaussianFamily(lambda _t: 0.0, 1.0).sample(dyadic(0), 0),
    lambda: GaussianFamily(lambda _t: 0.0, 1.0).sample(dyadic(0), -3),
], ids=["equal_weight", "equal_weight_no_coordinate", "gaussian_draw", "family_sample",
        "family_sample_negative"])
def test_measures_of_no_points_are_refused_as_config_errors(empty):
    # as EmpiricalMeasure refuses an empty measure, not with a ZeroDivisionError
    with pytest.raises(ConfigError):
        empty()


def test_attractor_requires_nonempty_seeds():
    sched = PullbackSchedule.geometric(dyadic(0), 3, 1)
    with pytest.raises(ConfigError):
        pullback_attractor(ScalarExpFlow(0.0, 6), OM, [], sched)
    with pytest.raises(ConfigError):
        pullback_attractor(ScalarExpFlow(0.0, 6), OM, [np.empty((0, 1))], sched)


def test_select_trajectory_refuses_non_singleton_attractor():
    # the identity flow keeps distinct probes apart forever: no pullback point
    sched = PullbackSchedule.geometric(dyadic(0), 5, 1)
    with pytest.raises(UnsupportedCaseError):
        pullback_point(ScalarExpFlow(0.0, 6), OM, sched)


def test_finite_flow_lift_rejects_bad_state():
    lift = fo.FiniteFlowLift(fo.two_state_noisy())
    with pytest.raises(ConfigError):
        lift.evolve_batch(OM, dyadic(0), dyadic(1), np.array([[7.0]]))


# -- time checks: every estimator refuses what ``evolve`` refuses ----------------

_FAMILY = GaussianFamily(lambda _t: 0.0, 1.0, salt=3)
# One estimator call per case, given times (a, b, c) where (a, b) is the bad pair
# and b <= c; each case starts from state 0.5 where it takes one.
_TIMED = {
    "esm_residual": lambda m, a, b, c: esm_residual(m, _FAMILY, [(a, b)], 8, RealizationStream(1)),
    "flow_residual": lambda m, a, b, c: flow_residual(m, OM, a, b, c, [[0.5]]),
    "martingale_trace": lambda m, a, b, c: martingale_trace(m, OM, b, coordinate(0), _FAMILY,
                                                            [b - a], n_particles=4),
    # a schedule's starts never exceed its anchor, so only off-grid starts apply
    "pullback_measure": lambda m, a, b, c: pullback_measure(
        m, OM, PullbackSchedule(b, (a, a - 1)), _FAMILY, 4),
    # trajectory selection: the pullback point at the schedule's anchor
    "select_trajectory": lambda m, a, b, c: pullback_point(m, OM, PullbackSchedule(b, (a, a - 1))),
}
_TIME_MODELS = {"exp": ScalarExpFlow(-1.0, 6), "linear": LinearOUModel(rate=1.0, sigma=0.5)}
_BAD_PAIRS = {  # times (a, b, c) on the level-6 models above
    "s_after_t": (dyadic(1), dyadic(0), dyadic(2)),
    "off_grid": (dyadic(0), dyadic(1, 7), dyadic(1)),
}
_TIME_CASES = [(est, bad) for est in _TIMED for bad in _BAD_PAIRS
               if bad == "off_grid" or est not in ("pullback_measure", "select_trajectory")]


@pytest.mark.parametrize("model", sorted(_TIME_MODELS))
@pytest.mark.parametrize("estimator, bad", _TIME_CASES)
def test_estimators_refuse_times_as_evolve_does(estimator, bad, model):
    flow = _TIME_MODELS[model]
    a, b, c = _BAD_PAIRS[bad]
    with pytest.raises((OrderingError, AlignmentError)) as want:
        evolve(flow, OM, a, b, [0.5])
    with pytest.raises(type(want.value)) as got:
        _TIMED[estimator](flow, a, b, c)
    assert str(got.value) == str(want.value)

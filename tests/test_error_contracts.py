"""Error-path contracts: every documented failure mode raises its named
exception rather than propagating garbage."""

import numpy as np
import pytest

import stochflow.finite_oracle as fo
from stochflow.dyadic import DyadicTime, dyadic
from stochflow.errors import (
    ConfigError,
    EvaluationError,
    IterationError,
    ResolutionError,
    StateError,
    UnsupportedCaseError,
)
from stochflow.esm import PullbackSchedule, pullback_attractor, select_trajectory
from stochflow.flow_core import IdentityFlow, coordinate, markov_apply
from stochflow.measure import EmpiricalMeasure, expect, mixture, pushforward
from stochflow.models import nse as nm
from stochflow.wiener import NoiseRealization, OUConfig, RealizationStream

OM = NoiseRealization(1, 0)


def test_dyadic_negative_level_rejected():
    with pytest.raises(ResolutionError):
        DyadicTime(1, -1)


def test_ou_config_validation():
    with pytest.raises(ConfigError):
        OUConfig(rate=-1.0)
    with pytest.raises(ConfigError):
        OUConfig(rate=1.0, cutoff_horizon=2)  # exp(-2) >> 1e-8


def test_noise_realization_validation():
    with pytest.raises(ConfigError):
        NoiseRealization(1, -1)
    with pytest.raises(ConfigError):
        NoiseRealization(1, 0, num_components=0)


def test_markov_overflowing_function_reported():
    model = IdentityFlow(1, 4)
    blow = lambda x: np.inf
    with pytest.raises(EvaluationError):
        markov_apply(model, dyadic(0), dyadic(1), blow, [0.0], 4,
                     RealizationStream(0))


def test_pushforward_nonfinite_output_rejected():
    mu = EmpiricalMeasure.dirac([1.0])
    with pytest.raises(StateError):
        pushforward(mu, lambda x: np.full_like(x, np.inf))


def test_expect_nonfinite_values_rejected():
    mu = EmpiricalMeasure.dirac([0.0])
    with pytest.raises(EvaluationError):
        expect(mu, lambda x: np.nan)


def test_mixture_weight_mismatch():
    mu = EmpiricalMeasure.dirac([0.0])
    with pytest.raises(ConfigError):
        mixture([mu, mu], [1.0])
    with pytest.raises(ConfigError):
        mixture([mu, mu], [0.9, 0.4])


def test_attractor_requires_nonempty_seeds():
    sched = PullbackSchedule.geometric(dyadic(0), 3, 1)
    with pytest.raises(ConfigError):
        pullback_attractor(IdentityFlow(1, 6), OM, dyadic(0), [], sched)
    with pytest.raises(ConfigError):
        pullback_attractor(IdentityFlow(1, 6), OM, dyadic(0),
                           [np.empty((0, 1))], sched)


def test_select_trajectory_refuses_non_singleton_attractor():
    # the identity flow keeps distinct probes apart forever
    sched = PullbackSchedule.geometric(dyadic(0), 5, 1)
    with pytest.raises(UnsupportedCaseError):
        select_trajectory(IdentityFlow(1, 6), OM, [dyadic(0)], sched)


def test_select_trajectory_schedule_anchor_mismatch():
    sched = PullbackSchedule.geometric(dyadic(1), 4, 1)
    from stochflow.flow_core import ScalarExpFlow
    with pytest.raises(ConfigError):
        select_trajectory(ScalarExpFlow(-1.0, 6), OM, [dyadic(0), dyadic(1)], sched)


def test_estimate_beta_iteration_budget():
    with pytest.raises(IterationError):
        nm.estimate_beta(nm.shear_mode(16, 0.05), max_iter=1)


def test_finite_flow_lift_rejects_bad_state():
    lift = fo.FiniteFlowLift(fo.two_state_noisy())
    with pytest.raises(ConfigError):
        lift.evolve_batch(OM, dyadic(0), dyadic(1), np.array([[7.0]]))

"""Simulation and verification toolkit for driven stochastic flows:
reproducible two-sided noise paths, particle measure transport, pullback
limits and attractor clouds, exact finite oracles, and a desk-scale spectral
fluid model."""

from .dyadic import DyadicTime, dyadic
from .wiener import (
    HORIZON,
    NoiseRealization,
    OUConfig,
    RealizationStream,
    increments,
    ou_at,
    ou_grid,
    wiener_at,
)
from .measure import (
    EmpiricalMeasure,
    RandomMeasure,
    ConstantFamily,
    GaussianFamily,
    distance,
    expect,
    mixture,
    pushforward,
)
from .flow_core import (
    FlowModelBase,
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
from .esm import (
    AttractorCloud,
    MartingaleTrace,
    PullbackSchedule,
    SelectedTrajectory,
    attractor_invariance_residual,
    esm_mean,
    esm_residual,
    martingale_mean_flatness,
    martingale_trace,
    pullback_attractor,
    pullback_measure,
    pullback_point,
    pullback_points,
    select_trajectory,
)

__version__ = "0.1.0"

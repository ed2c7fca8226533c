"""Pullback limits of measures, attractor clouds, martingale diagnostics, and
the flow <-> semigroup correspondence on finite ensembles.

Pullback convergence is always taken along a deterministic decreasing schedule
of start times; nothing is interpolated between scheduled starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .dyadic import DyadicTime, dyadic
from .errors import ConfigError, DivergenceError, UnsupportedCaseError
from .flow_core import BoundedFunction, FlowModelBase, evolve_batch
from .measure import (
    DEFAULT_PARTICLES,
    EmpiricalMeasure,
    MeasureFamily,
    RandomMeasure,
    distance,
    mixture,
)
from .wiener import NoiseRealization, RealizationStream

DEFAULT_TOL = 0.02


@dataclass(frozen=True)
class PullbackSchedule:
    """Anchor time plus strictly decreasing start times, deepest last."""

    anchor: DyadicTime
    starts: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if len(self.starts) < 2:
            raise ConfigError("schedule needs at least two start times")
        for s in self.starts:
            if s > self.anchor:
                raise ConfigError("start times must not exceed the anchor")
        for a, b in zip(self.starts, self.starts[1:]):
            if not b < a:
                raise ConfigError("start times must be strictly decreasing")

    @classmethod
    def geometric(cls, anchor: DyadicTime, count: int, coeff: DyadicTime | int = 1,
                  tol: float = DEFAULT_TOL) -> "PullbackSchedule":
        """Starts anchor - coeff * 2**k for k = 0 .. count-1."""
        if isinstance(coeff, int):
            coeff = dyadic(coeff)
        starts = tuple(anchor - DyadicTime(coeff.numerator << k, coeff.level)
                       for k in range(count))
        return cls(anchor, starts, tol)


@dataclass
class PullbackDiagnostics:
    starts_used: list
    spreads: list  # (source, pushed) spread of each used start
    distances: list
    converged: bool
    message: str = ""

    def to_dict(self):
        return {
            "starts": [s.value for s in self.starts_used],
            "distances": list(map(float, self.distances)),
            "converged": self.converged,
            "message": self.message,
        }


def pullback_measure(
    model: FlowModelBase,
    omega: NoiseRealization,
    schedule: PullbackSchedule,
    family: MeasureFamily,
    n_particles: int = DEFAULT_PARTICLES,
):
    """Push the scheduled source measures to the anchor until two consecutive
    iterate distances fall below the schedule tolerance.

    Divergent flows produce a non-convergence report, not an exception; a
    blow-up guard trip is likewise reported.
    """
    previous = None
    distances: list[float] = []
    used: list[DyadicTime] = []
    spreads: list[tuple] = []
    for k, s in enumerate(schedule.starts):
        rho = family.sample(s, n_particles)
        try:
            pushed = evolve_batch(model, omega, s, schedule.anchor, rho.particles)
        except DivergenceError as err:
            diag = PullbackDiagnostics(used, spreads, distances, False, f"blow-up: {err}")
            return previous, diag
        current = EmpiricalMeasure(pushed, rho.weights)
        used.append(s)
        spreads.append((rho.spread(), current.spread()))
        if previous is not None:
            distances.append(distance(current, previous))
            if len(distances) >= 2 and distances[-1] < schedule.tol \
                    and distances[-2] < schedule.tol:
                return current, PullbackDiagnostics(used, spreads, distances, True)
        previous = current
    msg = "schedule exhausted without two consecutive sub-tolerance steps"
    return previous, PullbackDiagnostics(used, spreads, distances, False, msg)


# -- martingale diagnostics ---------------------------------------------------

@dataclass
class MartingaleTrace:
    lookbacks: tuple
    values: np.ndarray
    function_id: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("martingale trace contains non-finite values")


def martingale_trace(
    model: FlowModelBase,
    omega: NoiseRealization,
    t: DyadicTime,
    f: BoundedFunction,
    family: MeasureFamily,
    lookbacks: Sequence[DyadicTime],
    n_particles: int = 1 << 8,
) -> MartingaleTrace:
    """Integral of f against the pushforward from t - s, per lookback s."""
    lbs = list(lookbacks)
    for a, b in zip(lbs, lbs[1:]):
        if not a < b:
            raise ConfigError("lookbacks must be strictly increasing")
    vals = np.empty(len(lbs))
    for i, lb in enumerate(lbs):
        s = t - lb
        rho = family.sample(s, n_particles)
        pushed = evolve_batch(model, omega, s, t, rho.particles)
        vals[i] = float(rho.weights @ np.array([f(x) for x in pushed]))
    return MartingaleTrace(tuple(lbs), vals, f.id)


def martingale_mean_flatness(
    model: FlowModelBase,
    stream: RealizationStream,
    t: DyadicTime,
    f: BoundedFunction,
    family: MeasureFamily,
    lookbacks: Sequence[DyadicTime],
    n_realizations: int,
    n_particles: int = 1 << 8,
) -> dict:
    """Ensemble means of the trace per lookback; flat when the source family
    is an evolution family.  Reports the worst pairwise gap in combined
    standard errors."""
    traces = np.empty((n_realizations, len(list(lookbacks))))
    for i, omega in enumerate(stream.take(n_realizations)):
        traces[i] = martingale_trace(model, omega, t, f, family, lookbacks, n_particles).values
    means = traces.mean(axis=0)
    serr = traces.std(axis=0, ddof=1) / np.sqrt(n_realizations)
    worst = 0.0
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            gap = abs(means[i] - means[j])
            combined = float(np.hypot(serr[i], serr[j]))
            worst = max(worst, gap / max(combined, 1e-300))
    return {"means": means, "stderr": serr, "max_gap_in_stderr": worst}


# -- attractor clouds ---------------------------------------------------------

def hausdorff_semidistance(a: np.ndarray, b: np.ndarray) -> float:
    """sup over a of the distance to the set b (exact nearest neighbor).

    Finite 1D sets sort b and search it; others run ``cdist`` on row blocks
    of a, which equals ``|a - b|`` unless a gap under- or overflows when squared.
    """
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    finite = np.all(np.isfinite(a)) and np.all(np.isfinite(b))
    if b.shape[0] and a.shape[1] == b.shape[1] == 1 and finite:
        x, bs = a[:, 0], np.sort(b[:, 0])
        k = np.searchsorted(bs, x)
        left = np.abs(x - bs[np.maximum(k - 1, 0)])
        right = np.abs(bs[np.minimum(k, bs.size - 1)] - x)
        return float(np.max(np.minimum(left, right)))
    rows = [np.min(cdist(a[i:i + 256], b), axis=1) for i in range(0, a.shape[0], 256)]
    return float(np.max(np.concatenate(rows)))


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    return max(hausdorff_semidistance(a, b), hausdorff_semidistance(b, a))


@dataclass
class AttractorCloud:
    time: DyadicTime
    particles: np.ndarray
    history: list = dc_field(default_factory=list)
    converged: bool = False

    def __post_init__(self):
        if self.converged and len(np.atleast_2d(self.particles)) == 0:
            raise ConfigError("a converged cloud must be nonempty")

    @property
    def diameter(self) -> float:
        pts = np.atleast_2d(self.particles)
        if pts.shape[0] < 2:
            return 0.0
        return float(np.max(cdist(pts, pts)))


def pullback_attractor(
    model: FlowModelBase,
    omega: NoiseRealization,
    t: DyadicTime,
    seed_boxes: Sequence[np.ndarray],
    schedule: PullbackSchedule,
) -> AttractorCloud:
    """Push seed clouds from ever earlier starts; accumulate their images and
    stop once fresh images add nothing beyond the tolerance, twice in a row.

    The retained particle set is the image from the deepest start used, which
    approximates the attracting set at the anchor.
    """
    boxes = [np.atleast_2d(np.asarray(b, float)) for b in seed_boxes]
    if not boxes or any(b.shape[0] == 0 for b in boxes):
        raise ConfigError("seed boxes must be nonempty")
    accumulated = None
    current = None
    history: list[float] = []
    hits = 0
    for s in schedule.starts:
        try:
            images = [evolve_batch(model, omega, s, t, b) for b in boxes]
        except DivergenceError:
            return AttractorCloud(t, current if current is not None else boxes[0],
                                  history, converged=False)
        current = np.concatenate(images)
        if not np.all(np.isfinite(current)) or np.max(np.abs(current)) > 1e12:
            return AttractorCloud(t, current, history, converged=False)
        if accumulated is not None:
            semi = hausdorff_semidistance(current, accumulated)
            history.append(semi)
            hits = hits + 1 if semi < schedule.tol else 0
            if hits >= 2:
                return AttractorCloud(t, current, history, converged=True)
            accumulated = np.concatenate([accumulated, current])
        else:
            accumulated = current
    return AttractorCloud(t, current, history, converged=False)


def attractor_invariance_residual(
    model: FlowModelBase,
    omega: NoiseRealization,
    s: DyadicTime,
    t: DyadicTime,
    cloud_s: AttractorCloud,
    cloud_t: AttractorCloud,
) -> float:
    """Symmetric Hausdorff distance between the pushed earlier cloud and the
    later cloud; small when both approximate an invariant family."""
    if not (cloud_s.converged and cloud_t.converged):
        raise ConfigError("invariance residual requires converged clouds")
    pushed = evolve_batch(model, omega, s, t, np.atleast_2d(cloud_s.particles))
    return hausdorff_distance(pushed, np.atleast_2d(cloud_t.particles))


# -- trajectory selection -----------------------------------------------------

@dataclass
class SelectedTrajectory:
    times: tuple
    states: np.ndarray

    def consistency_residual(self, model: FlowModelBase, omega: NoiseRealization) -> float:
        worst = 0.0
        for k in range(len(self.times) - 1):
            stepped = model.evolve_state(omega, self.times[k], self.times[k + 1],
                                         self.states[k])
            worst = max(worst, float(np.max(np.abs(stepped - self.states[k + 1]))))
        return worst


def select_trajectory(
    model: FlowModelBase,
    omega: NoiseRealization,
    times: Sequence[DyadicTime],
    schedule: PullbackSchedule,
    probes: np.ndarray | None = None,
    tol: float | None = None,
) -> SelectedTrajectory:
    """A single trajectory supported by the attractor.

    Contracting case: the pullback limit of any probe point; two distinct
    probes must collapse together, otherwise the attractor is not a single
    point and the construction is refused.  Finite-flow lifts are delegated
    to their exact synchronization-based selector.
    """
    times = sorted(times)
    if schedule.anchor != times[0]:
        raise ConfigError("schedule must be anchored at the earliest requested time")
    exact = getattr(model, "exact_select_states", None)
    if exact is not None:
        states = exact(omega, times, schedule)
        return SelectedTrajectory(tuple(times), np.asarray(states, float))
    tol = schedule.tol if tol is None else tol
    if probes is None:
        probes = np.zeros((2, model.state_dim))
        probes[1, :] = 1.0
    probes = np.atleast_2d(np.asarray(probes, float))
    if probes.shape[0] < 2:
        raise ConfigError("need at least two probe points to certify collapse")
    prev = None
    hits = 0
    anchor_state = None
    for s in schedule.starts:
        imgs = evolve_batch(model, omega, s, times[0], probes)
        coll = float(np.max(cdist(imgs, imgs)))
        if prev is not None:
            move = float(np.max(np.linalg.norm(imgs - prev, axis=1)))
            if coll < tol and move < tol:
                hits += 1
                if hits >= 2:
                    anchor_state = imgs[0]
                    break
            else:
                hits = 0
        prev = imgs
    if anchor_state is None:
        raise UnsupportedCaseError(
            "pullback probes did not collapse to one point; trajectory selection "
            "is only constructive for contracting models and finite lifts"
        )
    states = [anchor_state]
    for a, b in zip(times, times[1:]):
        states.append(model.evolve_state(omega, a, b, states[-1]))
    return SelectedTrajectory(tuple(times), np.stack(states))


def pullback_point(model: FlowModelBase, omega: NoiseRealization, t: DyadicTime,
                   schedule: PullbackSchedule, tol: float | None = None) -> np.ndarray:
    """Convenience: the collapsed pullback state at a single anchor time."""
    traj = select_trajectory(model, omega, [t], schedule, tol=tol)
    return traj.states[0]


# -- flow family <-> semigroup family ----------------------------------------

def esm_mean(family: RandomMeasure) -> EmpiricalMeasure:
    """Equal-weight mixture over the realization ensemble."""
    members = family.members()
    if not members:
        raise ConfigError("empty ensemble")
    w = np.full(len(members), 1.0 / len(members))
    return mixture(members, w)


def esm_residual(
    model: FlowModelBase,
    family: MeasureFamily,
    pairs: Sequence[tuple],
    n_particles: int,
    stream: RealizationStream,
) -> float:
    """max over (s, t) pairs of distance(MC estimate of the transported
    source measure, target measure)."""
    worst = 0.0
    for s, t in pairs:
        rho_s = family.sample(s, n_particles)
        out = np.empty_like(rho_s.particles)
        for i, omega in enumerate(stream.take(n_particles)):
            out[i] = model.evolve_state(omega, s, t, rho_s.particles[i])
        transported = EmpiricalMeasure(out, rho_s.weights)
        rho_t = family.sample(t, n_particles)
        worst = max(worst, distance(transported, rho_t))
    return worst

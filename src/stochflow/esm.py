"""Pullback limits of measures, attractor clouds, martingale diagnostics, and
the flow <-> semigroup correspondence on finite ensembles.

Pullback convergence is always taken along a deterministic decreasing schedule
of start times; nothing is interpolated between scheduled starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .dyadic import DyadicTime, dyadic
from .errors import ConfigError, DivergenceError, UnsupportedCaseError
from .flow_core import (
    BoundedFunction,
    FlowModelBase,
    evolve,
    evolve_batch,
    evolve_ensemble,
    pullback_ensemble,
)
from .measure import (
    DEFAULT_PARTICLES,
    EmpiricalMeasure,
    MeasureFamily,
    RandomMeasure,
    _pair_distances,
    distance,
    mixture,
)
from .wiener import NoiseRealization, RealizationStream, _rows

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
        del pushed  # current holds a copy; not held through the merge below
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
    omegas,
    t: DyadicTime,
    f: BoundedFunction,
    family: MeasureFamily,
    lookbacks: Sequence[DyadicTime],
    n_particles: int = 1 << 8,
) -> MartingaleTrace:
    """Integral of f against the pushforward from t - s, per lookback s.

    ``omegas`` is one handle, or a sequence of handles that gives the values
    a leading realization axis; each lookback is one ``evolve_ensemble`` call.
    """
    rows, single = _rows(omegas)
    lbs = list(lookbacks)
    for a, b in zip(lbs, lbs[1:]):
        if not a < b:
            raise ConfigError("lookbacks must be strictly increasing")
    vals = np.empty((len(rows), len(lbs)))
    for i, lb in enumerate(lbs):
        s = t - lb
        rho = family.sample(s, n_particles)
        states = np.broadcast_to(rho.particles, (len(rows),) + rho.particles.shape)
        for r, pushed in enumerate(evolve_ensemble(model, rows, s, t, states)):
            vals[r, i] = float(rho.weights @ np.array([f(x) for x in pushed]))
    return MartingaleTrace(tuple(lbs), vals[0] if single else vals, f.id)


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
    traces = martingale_trace(model, stream.take(n_realizations), t, f, family, lookbacks,
                              n_particles).values
    means = traces.mean(axis=0)
    serr = traces.std(axis=0, ddof=1) / np.sqrt(n_realizations)
    gaps = np.abs(means[:, None] - means) / np.maximum(np.hypot(serr[:, None], serr), 1e-300)
    worst = np.max(gaps, initial=0.0)
    return {"means": means, "stderr": serr, "max_gap_in_stderr": worst}


# -- attractor clouds ---------------------------------------------------------

def hausdorff_semidistance(a: np.ndarray, b: np.ndarray) -> float:
    """sup over a of the distance to the set b (exact nearest neighbor).

    Finite 1D sets sort b and search it; others take the minimum over each row
    block of ``measure._pair_distances``, which equals ``|a - b|`` unless a gap
    under- or overflows when squared.
    """
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    finite = np.all(np.isfinite(a)) and np.all(np.isfinite(b))
    if b.shape[0] and a.shape[1] == b.shape[1] == 1 and finite:
        x, bs = a[:, 0], np.sort(b[:, 0])
        k = np.searchsorted(bs, x)
        left = np.abs(x - bs[np.maximum(k - 1, 0)])
        right = np.abs(bs[np.minimum(k, bs.size - 1)] - x)
        return float(np.max(np.minimum(left, right)))
    rows = [np.min(d, axis=1) for d in _pair_distances(a, b)]
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
            stepped = evolve(model, omega, self.times[k], self.times[k + 1], self.states[k])
            worst = max(worst, float(np.max(np.abs(stepped - self.states[k + 1]))))
        return worst


def pullback_points(model: FlowModelBase, omegas, t: DyadicTime, schedule: PullbackSchedule,
                    tol: float | None = None) -> np.ndarray:
    """The collapsed pullback state at t, one row per realization.

    Contracting case: ``pullback_ensemble`` pushes two probes, the all-zeros
    and all-ones states, from each start in turn, for every row still running.
    A row leaves once its probes have collapsed, and stopped moving, at two
    starts in a row; a row that never does means the attractor is not a single
    point, and the construction is refused.
    Finite-flow lifts are delegated to their exact synchronization-based selector.
    """
    if schedule.anchor != t:
        raise ConfigError("schedule must be anchored at the requested time")
    omegas = tuple(omegas)
    exact = getattr(model, "exact_select_states", None)
    if exact is not None:
        return np.array([np.asarray(exact(o, [t], schedule), float)[0] for o in omegas])
    tol = schedule.tol if tol is None else tol
    probes = np.repeat([[0.0], [1.0]], model.state_dim, axis=1)
    out = np.empty((len(omegas), model.state_dim))
    hits = np.zeros(len(omegas), dtype=int)
    seen = np.zeros(len(omegas), dtype=bool)
    prev = np.zeros((len(omegas),) + probes.shape)

    def keep_running(rows, imgs):
        coll = np.linalg.norm(imgs[:, :, None] - imgs[:, None], axis=-1).max(axis=(1, 2))
        move = np.max(np.linalg.norm(imgs - prev[rows], axis=2), axis=1)
        hits[rows] = np.where(seen[rows] & (coll < tol) & (move < tol), hits[rows] + 1, 0)
        seen[rows], prev[rows] = True, imgs
        done = hits[rows] >= 2
        out[rows[done]] = imgs[done, 0]
        return ~done

    left = pullback_ensemble(model, omegas, schedule.starts, t, probes, keep_running)
    if left.size:
        raise UnsupportedCaseError(
            f"realization {omegas[left[0]].realization_index}: pullback probes did not "
            "collapse to one point; trajectory selection is only constructive for "
            "contracting models and finite lifts"
        )
    return out


def select_trajectory(
    model: FlowModelBase,
    omega: NoiseRealization,
    times: Sequence[DyadicTime],
    schedule: PullbackSchedule,
) -> SelectedTrajectory:
    """A single trajectory supported by the attractor: the pullback point at
    the earliest time (``pullback_points``, one row), carried forward."""
    times = sorted(times)
    if schedule.anchor != times[0]:
        raise ConfigError("schedule must be anchored at the earliest requested time")
    states = [pullback_points(model, (omega,), times[0], schedule)[0]]
    for a, b in zip(times, times[1:]):
        states.append(evolve(model, omega, a, b, states[-1]))
    return SelectedTrajectory(tuple(times), np.stack(states))


def pullback_point(model: FlowModelBase, omega: NoiseRealization, t: DyadicTime,
                   schedule: PullbackSchedule, tol: float | None = None) -> np.ndarray:
    """Convenience: ``pullback_points`` for one realization."""
    return pullback_points(model, (omega,), t, schedule, tol=tol)[0]


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
    source measure, target measure).  Particle i rides its own fresh
    realization: one ``evolve_ensemble`` call per pair."""
    worst = 0.0
    for s, t in pairs:
        rho_s = family.sample(s, n_particles)
        out = evolve_ensemble(model, stream.take(n_particles), s, t, rho_s.particles[:, None])
        transported = EmpiricalMeasure(out[:, 0], rho_s.weights)
        worst = max(worst, distance(transported, family.sample(t, n_particles)))
    return worst

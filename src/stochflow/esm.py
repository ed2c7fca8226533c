"""Pullback limits of measures, attractor clouds, pullback points, the
martingale trace, and the flow <-> semigroup correspondence on finite
ensembles.

A run reads ``pullback_measure``, ``pullback_attractor`` with
``attractor_invariance_residual``, ``pullback_points`` and ``esm_residual``.
``martingale_trace`` waits for a run of its own (the pitchfork kind on the
roadmap), and ``esm_mean`` is the reference that the tests hold
``esm-verify``'s mean measure to.

Pullback convergence is always taken along a deterministic decreasing
schedule of start times; nothing is interpolated between scheduled starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .dyadic import DyadicTime, dyadic
from .errors import ConfigError, DivergenceError, StateError, UnsupportedCaseError
from .flow_core import (
    BoundedFunction,
    FlowModelBase,
    evolve_batch,
    evolve_ensemble,
    pullback_ensemble,
)
from .measure import (
    DEFAULT_PARTICLES,
    EmpiricalMeasure,
    MeasureFamily,
    _pair_distances,
    distance,
    mixture,
)
from .wiener import NoiseRealization, RealizationStream, _rows

DEFAULT_TOL = 0.02


@dataclass(frozen=True)
class PullbackSchedule:
    """Anchor time plus strictly decreasing start times, deepest last; tol > 0."""

    anchor: DyadicTime
    starts: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigError(f"schedule tolerance must be > 0, got {self.tol!r}")
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
        """Starts anchor - coeff * 2**k for k = 0 .. count-1.  The deepest
        lies less than 2**1024 (the float range) before the anchor; a count
        past that is refused before any start is built."""
        if isinstance(coeff, int):
            coeff = dyadic(coeff)
        if coeff.numerator.bit_length() - coeff.level + count - 1 > 1024:
            raise ConfigError(f"{count} starts reach past the float range before the anchor")
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
        del pushed, rho  # current holds copies; neither is held through the merge below
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
    seed_boxes: Sequence[np.ndarray],
    schedule: PullbackSchedule,
) -> AttractorCloud:
    """Push the seed boxes from ever earlier starts to the schedule's anchor,
    one ``evolve_batch`` of their union per start; accumulate the images and
    stop once fresh images add nothing beyond the tolerance, twice in a row.

    The retained particle set is the image from the deepest start used, which
    approximates the attracting set at the anchor; the seed set itself if the
    flow blows up from the first start.
    """
    boxes = [np.atleast_2d(np.asarray(b, float)) for b in seed_boxes]
    if not boxes or any(b.shape[0] == 0 for b in boxes):
        raise ConfigError("seed boxes must be nonempty")
    if len({b.shape[1:] for b in boxes}) > 1:
        raise StateError(f"seed boxes must share one state dimension, got {[b.shape for b in boxes]}")
    seeds = np.concatenate(boxes)
    t = schedule.anchor
    cloud, accumulated, history = seeds, None, []
    for s in schedule.starts:
        try:
            cloud = evolve_batch(model, omega, s, t, seeds)
        except DivergenceError:
            break
        if not np.all(np.isfinite(cloud)) or np.max(np.abs(cloud)) > 1e12:
            break
        if accumulated is None:
            accumulated = cloud
            continue
        history.append(hausdorff_semidistance(cloud, accumulated))
        if len(history) >= 2 and all(h < schedule.tol for h in history[-2:]):
            return AttractorCloud(t, cloud, history, converged=True)
        accumulated = np.concatenate([accumulated, cloud])
    return AttractorCloud(t, cloud, history, converged=False)


def attractor_invariance_residual(
    model: FlowModelBase,
    omega: NoiseRealization,
    cloud_s: AttractorCloud,
    cloud_t: AttractorCloud,
) -> float:
    """Symmetric Hausdorff distance between the earlier cloud, pushed from its
    time to the later cloud's, and the later cloud; small when both
    approximate an invariant family."""
    if not (cloud_s.converged and cloud_t.converged):
        raise ConfigError("invariance residual requires converged clouds")
    pushed = evolve_batch(model, omega, cloud_s.time, cloud_t.time,
                          np.atleast_2d(cloud_s.particles))
    return hausdorff_distance(pushed, np.atleast_2d(cloud_t.particles))


# -- trajectory selection -----------------------------------------------------

def pullback_points(model: FlowModelBase, omegas, schedule: PullbackSchedule) -> np.ndarray:
    """The collapsed pullback state at the anchor, one row per realization.

    Contracting case: ``pullback_ensemble`` pushes two probes, the all-zeros
    and all-ones states, from each start in turn, for every row still running.
    A row leaves once its probes have collapsed, and stopped moving, at two
    starts in a row; a row that never does means the attractor is not a single
    point, and the construction is refused.
    Finite-flow lifts are delegated to their exact synchronization-based selector.
    """
    t = schedule.anchor
    omegas = tuple(omegas)
    exact = getattr(model, "exact_select_states", None)
    if exact is not None:
        return np.array([np.asarray(exact(o, [t], schedule), float)[0] for o in omegas])
    tol = schedule.tol
    probes = np.repeat([[0.0], [1.0]], model.state_dim, axis=1)
    out = np.empty((len(omegas), model.state_dim))
    hits = np.zeros(len(omegas), dtype=int)
    seen = np.zeros(len(omegas), dtype=bool)
    prev = np.zeros((len(omegas),) + probes.shape)

    def keep_running(rows, imgs):
        coll = np.linalg.norm(imgs[:, 0] - imgs[:, 1], axis=-1)
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


def pullback_point(model: FlowModelBase, omega: NoiseRealization,
                   schedule: PullbackSchedule) -> np.ndarray:
    """Convenience: ``pullback_points`` for one realization."""
    return pullback_points(model, (omega,), schedule)[0]


# -- flow family <-> semigroup family ----------------------------------------

def esm_mean(members: Sequence[EmpiricalMeasure]) -> EmpiricalMeasure:
    """Equal-weight mixture of the ensemble's measures, one per realization."""
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

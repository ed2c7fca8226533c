"""Fixtures that the tests share and no run reads: reference flows, flows that
trip a blow-up guard, a constant measure family, the one-state form of
``evolve_batch``, a composition defect, the image of a measure under a state
map, the independence scenario built word by word and the exact selected
trajectory of a finite flow."""

import itertools
import math
from fractions import Fraction

import numpy as np

from stochflow.dyadic import DyadicTime
from stochflow.errors import DivergenceError, StateError, UnsupportedCaseError
from stochflow.finite_oracle import ExactMeasure, compose_word_map
from stochflow.flow_core import FlowModelBase, checked_grid_level, evolve_batch
from stochflow.keyed import chain
from stochflow.measure import EmpiricalMeasure, MeasureFamily


class ShiftFlow(FlowModelBase):
    """S(t,s) x = x + (t - s) on the half line; admits no evolution family."""

    def __init__(self, grid_level: int = 6):
        self.state_dim = 1
        self.grid_level = checked_grid_level(grid_level)

    def evolve_batch(self, omega, s, t, states):
        return np.asarray(states, float) + (t.value - s.value)


class GuardTripFlow(FlowModelBase):
    """Trips a norm guard on every call, as a stepper whose states blow up at
    its first step would."""

    def __init__(self, grid_level: int = 4):
        self.grid_level = checked_grid_level(grid_level)

    def evolve_batch(self, omega, s, t, states):
        raise DivergenceError("state norm exceeded the guard at step 0", step=0)


class DeepGuardTripFlow(ShiftFlow):
    """``ShiftFlow`` on ``state_dim`` coordinates from starts at or after
    ``before``; from an earlier start it trips a norm guard, as
    ``GuardTripFlow`` does on every call."""

    def __init__(self, before: DyadicTime, state_dim: int = 1, grid_level: int = 6):
        super().__init__(grid_level)
        self.before = before
        self.state_dim = state_dim

    def evolve_batch(self, omega, s, t, states):
        if s < self.before:
            raise DivergenceError("state norm exceeded the guard at step 0", step=0)
        return super().evolve_batch(omega, s, t, states)


class ConstantFamily(MeasureFamily):
    def __init__(self, measure: EmpiricalMeasure):
        self.measure = measure

    def sample(self, t: DyadicTime, n: int) -> EmpiricalMeasure:
        return self.measure


def evolve(model, omega, s, t, x) -> np.ndarray:
    """The flow map on one state: the one-row case of ``evolve_batch``."""
    return evolve_batch(model, omega, s, t, np.atleast_1d(np.asarray(x, dtype=float))[None])[0]


def flow_residual(model, omega, s: DyadicTime, r: DyadicTime, t: DyadicTime,
                  points) -> float:
    """Composition defect max_x |S(t,r)S(r,s)x - S(t,s)x|, relative with floor 1.

    Zero for steppers on aligned triples; bounded by accumulated rounding for
    closed-form models.
    """
    composed = evolve_batch(model, omega, r, t, evolve_batch(model, omega, s, r, points))
    direct = evolve_batch(model, omega, s, t, points)
    num = np.linalg.norm(composed - direct, axis=1)
    den = np.maximum(1.0, np.linalg.norm(direct, axis=1))
    return float(np.max(num / den))


def pushforward(mu: EmpiricalMeasure, g) -> EmpiricalMeasure:
    """Image measure under a state map; weights are untouched."""
    out = np.stack([np.atleast_1d(np.asarray(g(x), dtype=float)) for x in mu.particles])
    if not np.all(np.isfinite(out)):
        raise StateError("state map produced non-finite output")
    return EmpiricalMeasure(out, mu.weights)


def per_word_scenario(flow, depth: int, split: int, f_seed: int = 5):
    """The independence scenario with one outcome per word of ``depth`` symbols, in
    lexicographic order: its probability is the word's, its measure the uniform
    measure pushed through its suffix's composed map, its integrand keyed on its
    prefix, and each block holds the words of one prefix."""
    words = list(itertools.product(range(flow.n_symbols), repeat=depth))
    size = flow.n_symbols ** (depth - split)
    base = ExactMeasure.uniform(flow.n_states)
    return (
        [math.prod((flow.probs[s] for s in w), start=Fraction(1)) for w in words],
        tuple(tuple(range(i, i + size)) for i in range(0, len(words), size)),
        tuple(base.pushforward(compose_word_map(flow, w[split:], split, depth)) for w in words),
        tuple(tuple(Fraction(1 + (chain(f_seed, *w[:split], x) % 7), 8)
                    for x in range(flow.n_states)) for w in words),
    )


def ff_select_trajectory(flow, word, start: int, times) -> list:
    """The exact selected trajectory at ``times`` of a finite flow: the one state
    that the word's map from ``start`` to the first time takes every state to,
    carried forward by the word; refused when that map is not constant."""
    times = sorted(times)
    image = set(compose_word_map(flow, word, start, times[0]))
    if len(image) != 1:
        raise UnsupportedCaseError(
            "history window does not synchronize; selection is not determined"
        )
    states = [image.pop()]
    for a, b in zip(times, times[1:]):
        states.append(compose_word_map(flow, word[a - start:], a, b)[states[-1]])
    return states

"""Two-parameter stochastic flows: the model contract and its checked calls.

A flow model supplies the state map for grid-aligned dyadic time pairs.  On
its own grid a stepper model composes bit-exactly: running s -> r -> t
executes the identical per-step operation sequence as s -> t.

Every caller reaches a model through ``evolve_batch``, ``evolve_ensemble`` or
``pullback_ensemble``, which first make one check: s <= t, both on the model
grid, and finite states of the model's shape.

``evolve_ensemble`` adds a leading realization axis.  The base class loops
over ``evolve_batch``; array code reads path rows from one query per block of
rows (``wiener.increment_rows``).  Either way a row equals the one-realization
``evolve_batch`` bit-for-bit, so the estimators of ``esm`` give a loop's bits.
``pullback_ensemble`` pushes the same states from ever earlier starts, as
the pullback needs; its images equal one ``evolve_ensemble`` per start.
The states that ``esm.pullback_points`` pushes so are the model's
``probe_states``: the all-zeros and all-ones states unless a model names its
own, as the finite lift names every state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dyadic import MAX_LEVEL, DyadicTime
from .errors import AlignmentError, ConfigError, OrderingError, StateError
from .wiener import NoiseRealization


class FlowModelBase:
    """Base contract: subclasses override ``evolve_batch``.

    ``evolve_batch`` maps an (n, state_dim) array of states forward under the
    single realized map S(t, s; omega); all rows ride the same noise.  Models
    are called through the checked functions below, never directly.
    """

    state_dim: int = 1
    grid_level: int = 0

    def evolve_batch(self, omega: NoiseRealization, s: DyadicTime, t: DyadicTime,
                     states: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def probe_states(self) -> np.ndarray:
        """The (n, state_dim) states a pullback point is read from, once all
        their images collapse: here the all-zeros and all-ones states."""
        return np.repeat([[0.0], [1.0]], self.state_dim, axis=1)

    def evolve_ensemble(self, omegas, s: DyadicTime, t: DyadicTime, states) -> np.ndarray:
        """Map an (R, n, state_dim) array: row r rides ``omegas[r]``."""
        return np.stack([self.evolve_batch(omega, s, t, x) for omega, x in zip(omegas, states)])

    def pullback_ensemble(self, omegas, starts: tuple, t: DyadicTime, states: np.ndarray,
                          keep_running: Callable) -> np.ndarray:
        """Push the (n, state_dim) ``states`` to t from each of the decreasing
        ``starts`` in turn, row r riding ``omegas[r]``.

        After each start, ``keep_running(rows, images)`` gets the indices of
        the rows still running and their (rows, n, state_dim) images, and
        returns a boolean mask of the rows that keep running.  Returns the
        indices of the rows still running after the last start.  Here each
        start is one ``evolve_ensemble`` call on the running rows; a model may
        reuse work across starts, or run groups of rows apart, as long as every
        image keeps the bits of that call.
        """
        rows = np.arange(len(omegas))
        for s in starts:
            if not rows.size:
                break
            live = np.broadcast_to(states, (rows.size,) + states.shape)
            images = self.evolve_ensemble(tuple(omegas[r] for r in rows), s, t, live)
            rows = rows[keep_running(rows, images)]
        return rows


def checked_grid_level(level: int) -> int:
    """``level`` once it names a dyadic grid: an integer in [0, MAX_LEVEL]."""
    if not 0 <= level <= MAX_LEVEL:
        raise ConfigError(f"grid_level {level} outside [0, {MAX_LEVEL}]")
    return level


def _checked(model, s: DyadicTime, t: DyadicTime, states, rows: int | None = None) -> np.ndarray:
    """``states`` as floats, once the call is well posed: s <= t, both on the
    model grid, and finite states of shape (n, state_dim), or
    (rows, n, state_dim) for an ensemble of ``rows`` realizations."""
    if s > t:
        raise OrderingError(f"flow requires s <= t, got {s!r} > {t!r}")
    if not (s.is_aligned(model.grid_level) and t.is_aligned(model.grid_level)):
        raise AlignmentError(
            f"times must sit on the level-{model.grid_level} grid: {s!r}, {t!r}"
        )
    states = np.asarray(states, dtype=float)
    lead = () if rows is None else (rows,)
    if states.ndim != len(lead) + 2 or states.shape[:len(lead)] != lead \
            or states.shape[-1] != model.state_dim:
        shape = ", ".join(map(str, lead + ("n", model.state_dim)))
        raise StateError(f"states must have shape ({shape}), got {states.shape}")
    if not np.all(np.isfinite(states)):
        raise StateError("states contain non-finite entries")
    return states


def evolve_batch(model, omega, s, t, states: np.ndarray) -> np.ndarray:
    """Checked ``model.evolve_batch``: the rows of ``states`` under S(t, s; omega)."""
    return model.evolve_batch(omega, s, t, _checked(model, s, t, np.atleast_2d(states)))


def evolve_ensemble(model, omegas, s, t, states: np.ndarray) -> np.ndarray:
    """Checked ``model.evolve_ensemble``: row r of the (R, n, state_dim)
    ``states`` under S(t, s; omegas[r])."""
    omegas = tuple(omegas)
    return model.evolve_ensemble(omegas, s, t, _checked(model, s, t, states, len(omegas)))


def pullback_ensemble(model, omegas, starts, t, states, keep_running) -> np.ndarray:
    """Checked ``model.pullback_ensemble``: the starts strictly decrease, and
    each is checked as an ``evolve_batch`` from it to t would be, before the
    first image."""
    starts = tuple(starts)
    if any(not b < a for a, b in zip(starts, starts[1:])):
        raise OrderingError("pullback starts must strictly decrease")
    for s in starts:
        states = _checked(model, s, t, states)
    return model.pullback_ensemble(tuple(omegas), starts, t, states, keep_running)


# -- bounded test-function library -------------------------------------------

@dataclass(frozen=True)
class BoundedFunction:
    """Named test function; the id travels with martingale diagnostics."""

    id: str
    fn: Callable

    def __call__(self, x):
        return float(self.fn(np.atleast_1d(np.asarray(x, float))))


def coordinate(i: int = 0) -> BoundedFunction:
    return BoundedFunction(f"coord[{i}]", lambda x: x[i])


def tanh_coordinate(i: int = 0, scale: float = 1.0) -> BoundedFunction:
    return BoundedFunction(f"tanh[{i},{scale:g}]", lambda x: np.tanh(scale * x[i]))


# -- elementary reference flows ----------------------------------------------

class ScalarExpFlow(FlowModelBase):
    """Deterministic x' = rate * x; contracting for rate < 0."""

    def __init__(self, rate: float, grid_level: int = 6):
        self.rate = float(rate)
        self.state_dim = 1
        self.grid_level = checked_grid_level(grid_level)

    def evolve_batch(self, omega, s, t, states):
        return np.asarray(states, float) * np.exp(self.rate * (t.value - s.value))

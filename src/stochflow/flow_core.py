"""Two-parameter stochastic flows and their Markov transition estimates.

A flow model supplies the state map for grid-aligned dyadic time pairs.  On
its own grid a stepper model composes bit-exactly: running s -> r -> t
executes the identical per-step operation sequence as s -> t.

Every caller reaches a model through ``evolve_batch`` or ``evolve_ensemble``
(``evolve`` is the one-row case), which first make one check: s <= t, both
on the model grid, and finite states of the model's shape.

``evolve_ensemble`` adds a leading realization axis.  The base class loops
over ``evolve_batch``; array code reads path rows from one query per block of
rows (``wiener.increment_rows``).  Either way a row equals the one-realization
``evolve_batch`` bit-for-bit, so the estimators below give a loop's bits.
``pullback_ensemble`` pushes the same states from ever earlier starts, as
the pullback needs; its images equal one ``evolve_ensemble`` per start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dyadic import MAX_LEVEL, DyadicTime
from .errors import AlignmentError, ConfigError, EvaluationError, OrderingError, StateError
from .wiener import NoiseRealization, RealizationStream


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


def evolve(model: FlowModelBase, omega: NoiseRealization, s: DyadicTime, t: DyadicTime,
           x) -> np.ndarray:
    """The flow map on one state: the one-row case of ``evolve_batch``."""
    return evolve_batch(model, omega, s, t, np.atleast_1d(np.asarray(x, dtype=float))[None])[0]


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


def _f_values(model, s, t, f: Callable, states: np.ndarray, stream) -> np.ndarray:
    """f(S(t, s; omega_i) x_i) for the rows x_i of ``states``, row i on the i-th
    fresh realization from ``stream``: one ``evolve_ensemble`` call."""
    ys = evolve_ensemble(model, stream.take(len(states)), s, t, states[:, None])[:, 0]
    vals = np.array([f(y) for y in ys], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("test function overflowed during Markov estimate")
    return vals


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


def markov_apply(model, s: DyadicTime, t: DyadicTime, f: Callable, x,
                 n_realizations: int, stream: RealizationStream):
    """Monte Carlo estimate of E f(S(t,s;omega) x) with its standard error.

    Fresh realization indices are consumed from ``stream`` so that repeated
    estimates are independent yet reproducible.
    """
    if n_realizations < 2:
        raise ConfigError("n_realizations must be at least 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = _f_values(model, s, t, f, np.broadcast_to(x, (n_realizations,) + x.shape), stream)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_realizations))


def chapman_residual(model, s: DyadicTime, t: DyadicTime, u: DyadicTime, f: Callable,
                     x, n_realizations: int, stream: RealizationStream,
                     n_inner: int | None = None):
    """|direct estimate of E f(S(u,s)x) - two-stage estimate through t|.

    Returns (residual, combined standard error).  Finite-flow lifts are
    routed to the exact kernel algebra and return (0.0, 0.0) when the kernel
    product identity holds exactly.
    """
    if not (s <= t <= u):
        raise OrderingError("chapman_residual requires s <= t <= u")
    exact = getattr(model, "exact_chapman_residual", None)
    if exact is not None:
        return float(exact(s, t, u)), 0.0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_inner = n_inner or max(2, n_realizations // 4)
    if n_inner < 2:
        raise ConfigError("n_inner must be at least 2")
    direct, direct_se = markov_apply(model, s, u, f, x, n_realizations, stream)
    outer = np.broadcast_to(x, (n_realizations, 1) + x.shape)
    ys = evolve_ensemble(model, stream.take(n_realizations), s, t, outer)[:, 0]
    inner = _f_values(model, t, u, f, np.repeat(ys, n_inner, axis=0), stream)
    mids = inner.reshape(n_realizations, n_inner).mean(axis=1)
    composed = float(mids.mean())
    composed_se = float(mids.std(ddof=1) / np.sqrt(n_realizations))
    return abs(direct - composed), float(np.hypot(direct_se, composed_se))


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


def indicator_box(lo, hi) -> BoundedFunction:
    lo = np.atleast_1d(np.asarray(lo, float))
    hi = np.atleast_1d(np.asarray(hi, float))
    return BoundedFunction(
        f"box[{lo.tolist()},{hi.tolist()}]",
        lambda x: 1.0 if bool(np.all(x >= lo) and np.all(x <= hi)) else 0.0,
    )


# -- elementary reference flows ----------------------------------------------

class IdentityFlow(FlowModelBase):
    """S(t,s;omega) = id; admits every constant-in-time measure family."""

    def __init__(self, state_dim: int = 1, grid_level: int = 6):
        self.state_dim = state_dim
        self.grid_level = checked_grid_level(grid_level)

    def evolve_batch(self, omega, s, t, states):
        return np.array(states, dtype=float)


class ScalarExpFlow(FlowModelBase):
    """Deterministic x' = rate * x; contracting for rate < 0."""

    def __init__(self, rate: float, grid_level: int = 6):
        self.rate = float(rate)
        self.state_dim = 1
        self.grid_level = checked_grid_level(grid_level)

    def evolve_batch(self, omega, s, t, states):
        return np.asarray(states, float) * np.exp(self.rate * (t.value - s.value))


class ShiftFlow(FlowModelBase):
    """S(t,s) x = x + (t - s) on the half line; admits no evolution family."""

    def __init__(self, grid_level: int = 6):
        self.state_dim = 1
        self.grid_level = checked_grid_level(grid_level)

    def evolve_batch(self, omega, s, t, states):
        return np.asarray(states, float) + (t.value - s.value)

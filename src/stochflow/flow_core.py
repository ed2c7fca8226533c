"""Two-parameter stochastic flows and their Markov transition estimates.

A flow model supplies the state map for grid-aligned dyadic time pairs.  On
its own grid a stepper model composes bit-exactly: running s -> r -> t
executes the identical per-step operation sequence as s -> t.

``evolve_ensemble`` adds a leading realization axis.  The base class loops over
``evolve_batch``; array code reads the path store in blocks of rows
(``wiener.row_blocks``).  Either way a row equals the one-realization
``evolve_batch`` bit-for-bit, so the estimators below give a loop's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dyadic import DyadicTime
from .errors import AlignmentError, ConfigError, EvaluationError, OrderingError, StateError
from .wiener import NoiseRealization, RealizationStream


class FlowModelBase:
    """Base contract: subclasses override ``evolve_batch``.

    ``evolve_batch`` maps an (n, state_dim) array of states forward under the
    single realized map S(t, s; omega); all rows ride the same noise.
    """

    state_dim: int = 1
    grid_level: int = 0

    def evolve_batch(self, omega: NoiseRealization, s: DyadicTime, t: DyadicTime,
                     states: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evolve_ensemble(self, omegas, s: DyadicTime, t: DyadicTime, states) -> np.ndarray:
        """Map an (R, n, state_dim) array: row r rides ``omegas[r]``."""
        return np.stack([self.evolve_batch(omega, s, t, x) for omega, x in zip(omegas, states)])

    def evolve_state(self, omega, s, t, x: np.ndarray) -> np.ndarray:
        return self.evolve_batch(omega, s, t, np.atleast_1d(np.asarray(x, float))[None, :])[0]


def _validate_times(model, s: DyadicTime, t: DyadicTime):
    if s > t:
        raise OrderingError(f"flow requires s <= t, got {s!r} > {t!r}")
    if not (s.is_aligned(model.grid_level) and t.is_aligned(model.grid_level)):
        raise AlignmentError(
            f"times must sit on the level-{model.grid_level} grid: {s!r}, {t!r}"
        )


def _validate_state(model, x: np.ndarray) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.state_dim,):
        raise StateError(f"state must have shape ({model.state_dim},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise StateError("state contains non-finite entries")
    return x


def evolve(model: FlowModelBase, omega: NoiseRealization, s: DyadicTime, t: DyadicTime,
           x) -> np.ndarray:
    """Validated application of the flow map to one state."""
    _validate_times(model, s, t)
    x = _validate_state(model, x)
    return model.evolve_state(omega, s, t, x)


def evolve_batch(model, omega, s, t, states: np.ndarray) -> np.ndarray:
    _validate_times(model, s, t)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[1] != model.state_dim:
        raise StateError(f"states must have {model.state_dim} columns")
    if not np.all(np.isfinite(states)):
        raise StateError("states contain non-finite entries")
    return model.evolve_batch(omega, s, t, states)


def evolve_ensemble(model, omegas, s, t, states: np.ndarray) -> np.ndarray:
    """Validated ``model.evolve_ensemble``: row r of the (R, n, state_dim)
    ``states`` under S(t, s; omegas[r])."""
    _validate_times(model, s, t)
    omegas, states = tuple(omegas), np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[::2] != (len(omegas), model.state_dim):
        raise StateError(f"states must have shape ({len(omegas)}, n, {model.state_dim})")
    if not np.all(np.isfinite(states)):
        raise StateError("states contain non-finite entries")
    return model.evolve_ensemble(omegas, s, t, states)


def _f_values(model, s, t, f: Callable, states: np.ndarray, stream) -> np.ndarray:
    """f(S(t, s; omega_i) x_i) for the rows x_i of ``states``, row i on the i-th
    fresh realization from ``stream``: one ``evolve_ensemble`` call."""
    if not np.all(np.isfinite(states)):
        raise StateError("state contains non-finite entries")
    ys = model.evolve_ensemble(stream.take(len(states)), s, t, states[:, None])[:, 0]
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
    if not (s <= r <= t):
        raise OrderingError("flow_residual requires s <= r <= t")
    _validate_times(model, s, r)
    _validate_times(model, r, t)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    direct = evolve_batch(model, omega, s, t, pts)
    mid = evolve_batch(model, omega, s, r, pts)
    composed = model.evolve_batch(omega, r, t, mid)
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
    x = _validate_state(model, x)
    _validate_times(model, s, t)
    vals = _f_values(model, s, t, f, np.broadcast_to(x, (n_realizations, x.size)), stream)
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
    x = _validate_state(model, x)
    n_inner = n_inner or max(2, n_realizations // 4)
    if n_inner < 2:
        raise ConfigError("n_inner must be at least 2")
    direct, direct_se = markov_apply(model, s, u, f, x, n_realizations, stream)
    _validate_times(model, t, u)
    outer = np.broadcast_to(x, (n_realizations, 1, x.size))
    ys = model.evolve_ensemble(stream.take(n_realizations), s, t, outer)[:, 0]
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
        self.grid_level = grid_level

    def evolve_batch(self, omega, s, t, states):
        return np.array(states, dtype=float)


class ScalarExpFlow(FlowModelBase):
    """Deterministic x' = rate * x; contracting for rate < 0."""

    def __init__(self, rate: float, grid_level: int = 6):
        self.rate = float(rate)
        self.state_dim = 1
        self.grid_level = grid_level

    def evolve_batch(self, omega, s, t, states):
        return np.asarray(states, float) * np.exp(self.rate * (t.value - s.value))


class ShiftFlow(FlowModelBase):
    """S(t,s) x = x + (t - s) on the half line; admits no evolution family."""

    def __init__(self, grid_level: int = 6):
        self.state_dim = 1
        self.grid_level = grid_level

    def evolve_batch(self, omega, s, t, states):
        return np.asarray(states, float) + (t.value - s.value)

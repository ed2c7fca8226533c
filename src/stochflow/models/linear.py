"""Scalar linear SDE with periodic forcing, solved in closed form.

dX = (-rate * X + forcing(t)) dt + sigma dW

The flow map is affine: decay factor times the state plus a quadrature of the
forcing and a decay-weighted sum of path increments on the model grid.  The
deterministic part uses the trapezoid rule on the grid, the noise part weights
each increment by the decay at its left endpoint, so composed and direct runs
evaluate the same quadrature nodes and differ only by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dyadic import DyadicTime
from ..errors import ConfigError
from ..flow_core import FlowModelBase, checked_grid_level
from ..wiener import _check_horizon, increment_rows, increments


@dataclass(frozen=True)
class FourierForcing:
    """Cosine series sum_k c_k cos(k t), k = 1, 2, ..., with period 2*pi and
    mean zero, as a callable; ``cos_coeffs`` holds c_1, c_2, ..."""

    cos_coeffs: tuple = ()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for k, c in enumerate(self.cos_coeffs, start=1):
            out = out + c * np.cos(k * t)
        return out

    @property
    def is_zero(self):
        return not self.cos_coeffs


ZERO_FORCING = FourierForcing()
HELD_VALUES = 1 << 15  # path increments a pullback keeps per group of rows


@dataclass(frozen=True)
class LinearOUModel(FlowModelBase):
    rate: float = 1.0
    sigma: float = 0.0
    forcing: FourierForcing = ZERO_FORCING
    grid_level: int = 6
    state_dim: int = field(default=1, init=False)

    def __post_init__(self):
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        checked_grid_level(self.grid_level)

    def periodic_mean(self, t: float) -> float:
        """The unique 2*pi-periodic solution of m' = -rate*m + forcing, for
        a cosine series forcing (closed form)."""
        a = self.rate
        m = 0.0 / a
        for k, c in enumerate(self.forcing.cos_coeffs, start=1):
            m += c * (a * np.cos(k * t) + k * np.sin(k * t)) / (a * a + k * k)
        return float(m)

    @property
    def stationary_std(self) -> float:
        return self.sigma / np.sqrt(2.0 * self.rate)

    def evolve_batch(self, omega, s: DyadicTime, t: DyadicTime, states):
        return self.evolve_ensemble((omega,), s, t, np.asarray(states, dtype=float)[None])[0]

    def evolve_ensemble(self, omegas, s: DyadicTime, t: DyadicTime, states):
        noise = increment_rows(omegas, 0, s, t, self.grid_level)
        return self._images(np.asarray(states, dtype=float), s, t, noise)

    def pullback_ensemble(self, omegas, starts, t: DyadicTime, states, keep_running):
        """As the base class, but each start fills only the new stretch
        [s_k, s_(k-1)] of the running rows, and prepends it to the increments
        they hold over [s_(k-1), t].  Each row's increments over [s_k, t] are
        then one contiguous run, and one np.dot over it gives the bits of
        ``evolve_ensemble``.  A group of rows that would hold more than
        ``HELD_VALUES`` increments at the next start splits in two, and the
        halves run on apart, the first half first; one row runs on alone.
        """
        lv = self.grid_level
        end = t.at_level(lv)
        groups = [(np.arange(len(omegas)), np.empty((len(omegas), 0)), 0)]
        left = []
        while groups:
            rows, held, k = groups.pop()
            while rows.size and k < len(starts):
                s = starts[k]
                if self.sigma and rows.size > 1 \
                        and rows.size * (end - s.at_level(lv)) > HELD_VALUES:
                    half = rows.size // 2
                    groups.append((rows[half:], held[half:].copy(), k))  # not a view: frees held
                    rows, held = rows[:half], held[:half]
                    continue
                if self.sigma and s < t:
                    fresh = increments(tuple(omegas[i] for i in rows), 0, s,
                                       starts[k - 1] if k else t, lv)
                    held = np.concatenate((fresh, held), axis=1)
                live = np.broadcast_to(states, (rows.size,) + states.shape)
                keep = keep_running(rows, self._images(live, s, t, held))
                if not keep.all():
                    rows, held = rows[keep], held[keep]
                k += 1
            left.append(rows)
        return np.sort(np.concatenate(left))

    def _images(self, states, s: DyadicTime, t: DyadicTime, noise):
        """``states`` under the flow map from s to t; ``noise`` yields each
        row's level-grid increments over [s, t] and is read only if sigma > 0
        and s < t."""
        if s == t:
            return np.array(states, dtype=float)
        for end in (s, t):  # before the grid: a span past the horizon is refused, not allocated
            _check_horizon(end)
        lv = self.grid_level
        h = 2.0**-lv
        grid = np.arange(s.at_level(lv), t.at_level(lv) + 1, dtype=np.float64) * h
        tv = t.value
        decay = np.exp(-self.rate * (tv - grid))
        shift = 0.0
        if not self.forcing.is_zero:
            integrand = decay * self.forcing(grid)
            shift += h * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1]))
        shifts = np.full(len(states), shift)
        if self.sigma != 0.0:
            shifts = np.array([shift + self.sigma * float(np.dot(decay[:-1], dw)) for dw in noise])
        return states * decay[0] + shifts.reshape((-1,) + (1,) * (states.ndim - 1))


"""Euler-Maruyama stepper for SDEs with constant diffusion matrix.

Composition over aligned subintervals is bit-exact: the step sequence and all
per-step float operations are identical whether the span is run whole or in
pieces.
"""

from __future__ import annotations

import numpy as np

from ..dyadic import DyadicTime
from ..errors import ConfigError, DivergenceError
from ..flow_core import FlowModelBase, checked_grid_level
from ..wiener import increments


class EMModel(FlowModelBase):
    def __init__(self, drift, diffusion, grid_level: int = 6, guard: float = 1e8):
        """drift(t, states) must be vectorized over rows of ``states``;
        ``diffusion`` is a constant (state_dim, m) matrix."""
        diffusion = np.atleast_2d(np.asarray(diffusion, dtype=float))
        if diffusion.ndim != 2:
            raise ConfigError("diffusion must be a (state_dim, m) matrix")
        self.drift = drift
        self.diffusion = diffusion
        self.state_dim = diffusion.shape[0]
        self.n_components = diffusion.shape[1]
        self.grid_level = checked_grid_level(grid_level)
        self.guard = float(guard)

    def evolve_batch(self, omega, s: DyadicTime, t: DyadicTime, states):
        x = np.array(states, dtype=float)
        if s == t:
            return x
        lv = self.grid_level
        i0, i1 = s.at_level(lv), t.at_level(lv)
        h = 2.0**-lv
        n_steps = i1 - i0
        dw = np.stack(
            [increments(omega, j, s, t, lv) for j in range(self.n_components)],
            axis=1,
        )  # (n_steps, m)
        dT = self.diffusion.T
        for k in range(n_steps):
            tk = (i0 + k) * h
            x = x + h * self.drift(tk, x) + dw[k] @ dT
            if np.max(np.abs(x)) > self.guard:
                raise DivergenceError(
                    f"state norm exceeded guard {self.guard} at step {k}", step=k
                )
        return x

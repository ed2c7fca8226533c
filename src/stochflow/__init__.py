"""Simulation and verification toolkit for driven stochastic flows:
reproducible two-sided noise paths, particle measure transport, pullback
limits and attractor clouds, exact finite oracles, and a desk-scale spectral
fluid model.

Each public name imports its module on first access, so a process loads only
the layers it uses."""

import importlib
import sys

# imported now, not on first use: the function ``dyadic`` must stay the
# package's attribute, which importing the submodule ``dyadic`` would rebind
from .dyadic import DyadicTime, dyadic

__version__ = "0.1.0"


def _exports(package: str, modules: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``, and its
    ``__all__``: ``modules`` maps each submodule to the public names it
    defines, and a name's first access imports its submodule."""
    home = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{home[name]}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__, list(home)


__getattr__, __dir__, _lazy = _exports(__name__, {
    "wiener": ("HORIZON", "NoiseRealization", "OUConfig", "RealizationStream", "increments",
               "ou_at", "ou_grid", "wiener_at"),
    "measure": ("EmpiricalMeasure", "RandomMeasure", "ConstantFamily", "GaussianFamily",
                "distance", "expect", "mixture", "pushforward"),
    "flow_core": ("FlowModelBase", "IdentityFlow", "ScalarExpFlow", "ShiftFlow",
                  "chapman_residual", "coordinate", "evolve", "evolve_batch", "evolve_ensemble",
                  "flow_residual", "indicator_box", "markov_apply", "tanh_coordinate"),
    "esm": ("AttractorCloud", "MartingaleTrace", "PullbackSchedule", "SelectedTrajectory",
            "attractor_invariance_residual", "esm_mean", "esm_residual",
            "martingale_mean_flatness", "martingale_trace", "pullback_attractor",
            "pullback_measure", "pullback_point", "pullback_points", "select_trajectory"),
})
__all__ = ["DyadicTime", "dyadic", *_lazy]

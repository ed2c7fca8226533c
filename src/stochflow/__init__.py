"""Simulation and verification toolkit for driven stochastic flows:
reproducible two-sided noise paths, particle measure transport, pullback
limits and attractor clouds, exact finite oracles, and a desk-scale spectral
fluid model.

Each name is imported from the module that defines it (``stochflow.wiener``,
``stochflow.esm``, ...), so a process loads only the layers it uses."""

__version__ = "0.1.0"

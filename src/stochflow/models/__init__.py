"""Flow models; each public name imports its module on first access."""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    "linear": ("FourierForcing", "LinearDrift", "LinearOUModel"),
    "em": ("EMModel",),
    "nse": ("NSEConfig", "NSEModel", "SpectralGrid", "bilinear_b", "energy_diagnostics",
            "estimate_beta", "leray_project", "random_divfree", "shear_mode", "taylor_green"),
})

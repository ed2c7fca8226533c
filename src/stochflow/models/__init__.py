from .linear import FourierForcing, LinearDrift, LinearOUModel
from .em import EMModel
from .nse import (
    NSEConfig,
    NSEModel,
    SpectralGrid,
    bilinear_b,
    energy_diagnostics,
    estimate_beta,
    leray_project,
    random_divfree,
    shear_mode,
    taylor_green,
)

__all__ = [
    "FourierForcing",
    "LinearDrift",
    "LinearOUModel",
    "EMModel",
    "NSEConfig",
    "NSEModel",
    "SpectralGrid",
    "bilinear_b",
    "energy_diagnostics",
    "estimate_beta",
    "leray_project",
    "random_divfree",
    "shear_mode",
    "taylor_green",
]

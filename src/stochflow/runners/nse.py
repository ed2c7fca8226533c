"""The ``nse`` kind: structural checks, the energy balance and the absorbing
radius of the spectral torus model."""

from __future__ import annotations

import numpy as np

from ..cli import RunReport, Verdict, _fmt_rows, _refused
from ..dyadic import DyadicTime, dyadic
from ..models import nse as nse_mod
from ..models.nse import NSEConfig, NSEModel
from ..wiener import NoiseRealization


def run_nse(cfg: dict, report: RunReport):
    seed = cfg["seed"]
    lbs = cfg["lookbacks"]
    res = cfg["resolution"]
    _refused(cfg, ("resolution",), lambda: nse_mod.grid_for(res))
    forcing = nse_mod.taylor_green(res, cfg["forcing_amp"])
    modes = nse_mod.default_noise_modes(res, cfg["noise_amp"])
    for key, phi in (("forcing_amp", forcing),) + tuple(("noise_amp", m) for m in modes):
        _refused(cfg, (key,), lambda: nse_mod.check_field(phi, 1e-8))
    nse_cfg = _refused(cfg, ("viscosity", "resolution", "level"), lambda: NSEConfig(
        resolution=res,
        viscosity=cfg["viscosity"],
        level=cfg["level"],
        forcing_field=forcing,
        noise_modes=modes,
        ou_rate=cfg["ou_rate"],
    ))
    model = _refused(cfg, ("ou_rate", "level"), lambda: NSEModel(nse_cfg))
    omega = NoiseRealization(seed, cfg["realization"], num_components=max(model.n_noise, 1))

    u = nse_mod.random_divfree(res, seed)
    v = nse_mod.random_divfree(res, seed + 1)
    scale = max(np.max(np.abs(u)), 1e-300)
    proj_twice = nse_mod.leray_project(nse_mod.leray_project(u))
    report.verdicts.append(Verdict(
        "models.leray_idempotent",
        float(np.max(np.abs(proj_twice - nse_mod.leray_project(u)))) <= 1e-13 * scale,
    ))
    ortho = abs(nse_mod.inner_h(nse_mod.bilinear_b(u, v), v))
    ortho_bound = 1e-10 * np.sqrt(nse_mod.norm_v_sq(u)) * nse_mod.norm_v_sq(v)
    report.verdicts.append(Verdict.at_most("models.advection_orthogonality", ortho, ortho_bound))
    tg = nse_mod.taylor_green(res)
    tg_resid = float(np.max(np.abs(nse_mod.bilinear_b(tg, tg))))
    report.verdicts.append(Verdict.at_most("models.taylor_green_advection_vanishes",
                                           tg_resid, 1e-10))

    t0 = dyadic(0)
    t1 = DyadicTime(cfg["steps"], nse_cfg.level)
    drivers = ("viscosity", "forcing_amp", "noise_amp")  # they set the energy balance
    u_t, trace = _refused(cfg, drivers, lambda: model.evolve_trace(
        omega, t0, t1, nse_mod.taylor_green(res, 1.0)), times=("steps",))
    report.verdicts.append(Verdict(
        "models.reality_preserved_bitwise", nse_mod.reality_residual(u_t) == 0.0
    ))
    div_rel = nse_mod.divergence_residual(u_t) / max(np.max(np.abs(u_t)), 1e-300)
    report.verdicts.append(Verdict.at_most("models.incompressibility", div_rel, 1e-12))
    report.verdicts.append(Verdict(
        "models.poincare_exact", bool(np.all(trace.v_h_sq <= trace.v_v_sq))
    ))
    diag = nse_mod.energy_diagnostics(nse_cfg, trace, model.beta_hat)
    series = (trace.times[1:], trace.v_h_sq[1:], trace.v_v_sq[1:], trace.z_abs_sum[1:],
              diag.lhs, diag.g_surrogate, diag.slack)
    rows = list(zip(*(map(float, x) for x in series)))
    report.tables["energy.csv"] = _fmt_rows(
        ("time", "v_h_sq", "v_v_sq", "z_abs_sum", "lhs", "g_surrogate", "slack"), rows
    )

    absorb = _refused(cfg, drivers, lambda: nse_mod.absorbing_radius_experiment(
        model, omega, dyadic(0), lookbacks=lbs), times=("lookbacks",))
    report.verdicts.append(Verdict.at_most("models.absorbing_radius_agreement",
                                           absorb["gaps"][lbs[-1]], 0.05,
                                           note=f"t_star={absorb['t_star']}"))
    report.tables["absorbing.csv"] = _fmt_rows(
        ("lookback", "radius_small", "radius_large", "gap"),
        [(lb, float(absorb["radii"][lb][0]), float(absorb["radii"][lb][1]),
          float(absorb["gaps"][lb])) for lb in lbs],
    )

"""Config-driven experiment runner.

Configs are flat ``key = value`` text with dotted section prefixes, checked
against their kind's table (``_TABLES``) before anything runs.  Runners read
the resolved config; ``summary.json`` records it as given.  Every run is a
pure function of (config, seed): rerunning writes byte-identical output
files.  Wall-clock goes to stderr only, never into the artifacts.

Each ensemble is one path-store or estimator call along a realization axis,
in one process.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad config,
3 an unexpected error inside the run (one line on stderr names it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import esm, finite_oracle as fo, measure as ms
from .dyadic import DyadicTime, dyadic
from .errors import ConfigError, HorizonError, StochFlowError
from .flow_core import ScalarExpFlow
from .keyed import chain, chain_offsets
from .models import nse as nse_mod
from .models.linear import FourierForcing, LinearOUModel
from .models.nse import NSEModel, default_nse_config
from .wiener import (
    NoiseRealization,
    OUConfig,
    RealizationStream,
    grid_values,
    increments,
    ou_grid,
)

@dataclass
class Verdict:
    name: str
    passed: bool
    value: object = None
    threshold: object = None
    note: str = ""
    target: object = None  # the centre of a two-sided band; threshold is its half-width

    def to_dict(self):
        out = {"name": self.name, "passed": bool(self.passed)}
        for key in ("value", "threshold", "target", "note"):
            val = getattr(self, key)
            if val not in (None, ""):
                out[key] = float(val) if isinstance(val, (int, float, np.floating)) and key != "note" else val
        return out


@dataclass
class RunReport:
    kind: str
    config: dict
    verdicts: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)  # name -> text content
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def summary_json(self) -> str:
        payload = {
            "kind": self.kind,
            "config": self.config,
            "passed": self.passed,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- config handling -----------------------------------------------------------

def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        out[key] = _coerce(val)
    return out


def _coerce(val: str):
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        pass
    return val


# One table per kind: key -> default.  The default's type is the key's type:
# an int key takes an integer of at least _FLOORS.get(key, 1) (None: any), a
# float key a finite real, and the tuple ``lookbacks`` comma-separated distinct
# positive integers, used in ascending order.  A bool is never a number.
_LINEAR = {"model.rate": 0.5, "model.sigma": 0.3, "model.level": 6, "model.forcing_amp": 1.0}
_LINEAR_DRIVERS = ("model.rate", "model.sigma", "model.forcing_amp")  # named if a run blows up
_TABLES = {
    "noise": {"ensemble": 10_000, "level": 6, "ou_rate": 1.0, "intervals": 1000},
    "pullback": {**_LINEAR, "schedule.depth": 6, "schedule.coeff": 2, "schedule.tol": 0.02,
                 "particles": 1 << 10, "realization": 0, "anchor": 0},
    "attractor": {"model.level": 6, "schedule.depth": 6, "schedule.tol": 0.02,
                  "box_radius": 1.0, "box_points": 33, "realization": 0, "anchor": 0,
                  "deterministic_rate": -1.0},
    "esm-verify": {**_LINEAR, "model.sigma": 1.0, "ensemble": 400, "particles": 2000,
                   "depth": 7, "anchor": 0},
    "oracle": {"depth": 12},
    "nse": {"viscosity": 0.2, "resolution": 16, "level": 6, "forcing_amp": 0.5,
            "noise_amp": 0.05, "ou_rate": 1.0, "steps": 128, "lookbacks": (8, 16, 32),
            "realization": 0},
    "counterexamples": {},
}
EXPERIMENTS = tuple(_TABLES)
# Every kind also takes these; ``seed`` must be given (no implicit randomness).
# ``jobs`` does nothing: it is still accepted because existing configs set it.
_COMMON = {"seed": 0, "jobs": 1, "out": ""}
_FLOORS = {"seed": None, "anchor": None, "level": 0, "model.level": 0, "realization": 0,
           "schedule.depth": 2, "resolution": 8}


def _checked(key: str, val, default):
    """``val`` as a value of ``key``'s type; ConfigError names the key and value."""
    if isinstance(default, tuple):
        rule = "comma-separated distinct positive integers"
        try:
            lbs = tuple(sorted(int(x) for x in str(val).split(",")))
            if lbs[0] >= 1 and len(set(lbs)) == len(lbs):
                return lbs
        except ValueError:
            pass
    elif isinstance(default, int):
        floor = _FLOORS.get(key, 1)
        rule = "an integer" if floor is None else f"an integer >= {floor}"
        if type(val) is int and (floor is None or val >= floor):
            return val
    elif isinstance(default, float):
        rule = "a finite real number"
        if type(val) is int or (type(val) is float and np.isfinite(val)):
            return val
    else:
        rule = "a path"
        if isinstance(val, str):
            return val
    raise ConfigError(f"{key!r} must be {rule}, got {_shown(val)}")


def _shown(val) -> str:
    """``val`` as a config line spells it."""
    if isinstance(val, tuple):
        return ",".join(map(str, val))
    return str(val).lower() if isinstance(val, bool) else repr(val)


def _resolve(cfg: dict) -> dict:
    """``cfg`` checked against its kind's table, with the defaults filled in."""
    kind = cfg.get("kind")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind: {kind!r}")
    if "seed" not in cfg:
        raise ConfigError("config must carry an integer 'seed' (no implicit randomness)")
    table = {**_COMMON, **_TABLES[kind]}
    resolved = dict(table)
    for key, val in cfg.items():
        if key == "kind":
            continue
        if key not in table:
            raise ConfigError(f"unknown config key for kind {kind!r}: {key!r} = {_shown(val)}")
        resolved[key] = _checked(key, val, table[key])
    return resolved


def _refused(cfg: dict, keys: tuple, make, times: tuple = ()):
    """``make()``; a model's refusal is raised again naming the keys it rests on,
    and a query past the path horizon naming ``times``, the keys that set the times."""
    try:
        return make()
    except StochFlowError as err:
        named = times if times and isinstance(err, HorizonError) else keys
        shown = ", ".join(f"{key!r} = {_shown(cfg[key])}" for key in named)
        raise ConfigError(f"{shown} refused by the model: {err}") from err


def validate_config(cfg: dict) -> str | None:
    """The first problem with ``cfg``, or None when its kind's table accepts it."""
    try:
        _resolve(cfg)
    except ConfigError as err:
        return str(err)
    return None


# -- experiments -----------------------------------------------------------------

def _fmt_rows(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _refinement_pairs(omega: NoiseRealization, lvs: np.ndarray, starts: np.ndarray):
    """The increments of W over the intervals [k, k + 1] * 2**-lv, k in ``starts``
    and lv in ``lvs``, and each one's two halves: one query per level and grid,
    over the hull of that level's intervals."""
    coarse, children = np.empty(starts.size), np.empty((starts.size, 2))
    for lv in map(int, np.unique(lvs)):
        at = lvs == lv
        ks = starts[at]
        k0 = int(ks.min())  # DyadicTime takes Python ints
        s, e = DyadicTime(k0, lv), DyadicTime(int(ks.max()) + 1, lv)
        coarse[at] = increments(omega, 0, s, e, lv)[ks - k0]
        children[at] = increments(omega, 0, s, e, lv + 1).reshape(-1, 2)[ks - k0]
    return coarse, children


def run_noise(cfg: dict, report: RunReport):
    seed = cfg["seed"]
    n = cfg["ensemble"]
    level = cfg["level"]
    ou_cfg = _refused(cfg, ("ou_rate", "level"),
                      lambda: OUConfig(rate=cfg["ou_rate"], level=level))
    one, zero, two = dyadic(1), dyadic(0), dyadic(2)
    omegas = RealizationStream(seed).take(n)

    w1 = grid_values(omegas, 0, one, one, 0)[:, 0]
    var = float(w1.var(ddof=1))
    report.verdicts.append(Verdict("wiener.w1_variance", 0.94 <= var <= 1.06, var, 0.06,
                                   target=1.0))
    report.tables["w1_samples.csv"] = _fmt_rows(("index", "w1"), list(enumerate(map(float, w1))))

    half = 1 << level  # increments over [0, 2], split at 1; row sums are exact
    incs = increments(omegas[:10_000], 0, zero, two, level)
    sums = np.stack([incs[:, :half].sum(axis=1), incs[:, half:].sum(axis=1)], axis=1)
    corr = float(np.corrcoef(sums[:, 0], sums[:, 1])[0, 1])
    report.verdicts.append(Verdict("wiener.disjoint_interval_corr", abs(corr) <= 0.05, corr, 0.05))

    n_int = cfg["intervals"]
    base = chain(seed, 0xA11CE)
    rng_keys = chain_offsets(base, np.arange(3 * n_int)).reshape(n_int, 3)
    starts = (rng_keys[:, 1] % (1 << 10)).astype(np.int64) - (1 << 9)
    coarse, children = _refinement_pairs(NoiseRealization(seed, 0), rng_keys[:, 0] % 10, starts)
    bit_exact = int(np.count_nonzero(children[:, 0] + children[:, 1] == coarse))
    report.verdicts.append(
        Verdict("wiener.refinement_bit_exact", bit_exact == n_int, bit_exact, n_int)
    )

    z0, z1 = ou_grid(omegas[:4000], 0, ou_cfg, zero, one, 0).T  # one history per row
    target = ou_cfg.stationary_variance
    bound = 0.1 * target
    ou_var = float(z0.var(ddof=1))
    report.verdicts.append(Verdict("wiener.ou_variance", abs(ou_var - target) <= bound,
                                   ou_var, bound, target=target))
    ac = float(np.corrcoef(z0, z1)[0, 1])
    expected = float(np.exp(-ou_cfg.rate))
    report.verdicts.append(Verdict("wiener.ou_autocorr_lag1", abs(ac - expected) <= 0.05,
                                   ac, 0.05, target=expected))


def _linear_model(cfg: dict) -> LinearOUModel:
    return _refused(cfg, ("model.rate", "model.sigma", "model.level"), lambda: LinearOUModel(
        rate=cfg["model.rate"],
        sigma=cfg["model.sigma"],
        forcing=FourierForcing(cos_coeffs=(cfg["model.forcing_amp"],)),
        grid_level=cfg["model.level"],
    ))


def run_pullback(cfg: dict, report: RunReport):
    seed = cfg["seed"]
    model = _linear_model(cfg)
    t = dyadic(cfg["anchor"])
    schedule = esm.PullbackSchedule.geometric(t, cfg["schedule.depth"],
                                              dyadic(cfg["schedule.coeff"]), cfg["schedule.tol"])
    omega = NoiseRealization(seed, cfg["realization"])
    family = ms.GaussianFamily(lambda _t: 0.0, 1.0, salt=seed)
    mu, diag = _refused(cfg, _LINEAR_DRIVERS, lambda: esm.pullback_measure(
        model, omega, schedule, family, cfg["particles"]),
        times=("anchor", "schedule.coeff", "schedule.depth"))
    report.verdicts.append(Verdict("esm.pullback_converged", diag.converged,
                                   len(diag.distances), note=diag.message))
    rows = list(zip([s.value for s in diag.starts_used[1:]], map(float, diag.distances)))
    report.tables["distances.csv"] = _fmt_rows(("start", "distance"), rows)
    report.tables["measure.tsv"] = ms.to_table(mu)

    spread_ok = True
    worst = 0.0
    for s, (source, got) in zip(diag.starts_used, diag.spreads):
        want = float(np.exp(-model.rate * (t.value - s.value))) * source
        rel = abs(got - want) / max(want, 1e-300)
        worst = max(worst, rel)
        spread_ok = spread_ok and rel <= 0.1
    report.verdicts.append(Verdict("esm.spread_contraction", spread_ok, worst, 0.1))


def run_attractor(cfg: dict, report: RunReport):
    seed = cfg["seed"]
    det_rate = cfg["deterministic_rate"]
    model = _refused(cfg, ("model.level",),
                     lambda: ScalarExpFlow(det_rate, grid_level=cfg["model.level"]))
    t = dyadic(cfg["anchor"])
    s_earlier = t - 1
    tol = cfg["schedule.tol"]
    depth = cfg["schedule.depth"]
    schedule_t = esm.PullbackSchedule.geometric(t, depth, 1, tol)
    schedule_s = esm.PullbackSchedule.geometric(s_earlier, depth, 1, tol)
    radius = cfg["box_radius"]
    if not np.isfinite(2.0 * radius):  # the width linspace forms
        raise ConfigError(f"'box_radius' = {_shown(radius)} gives a box too wide for a float")
    box = np.linspace(-radius, radius, cfg["box_points"])[:, None]
    omega = NoiseRealization(seed, cfg["realization"])
    cloud_t = esm.pullback_attractor(model, omega, t, [box], schedule_t)
    cloud_s = esm.pullback_attractor(model, omega, s_earlier, [box], schedule_s)
    report.verdicts.append(Verdict("esm.attractor_converged", cloud_t.converged,
                                   len(cloud_t.history)))
    collapse = float(np.max(np.abs(cloud_t.particles))) if det_rate < 0 else float("nan")
    if det_rate < 0:
        report.verdicts.append(Verdict("esm.attractor_collapse_to_zero",
                                       collapse <= tol, collapse, tol))
    if cloud_t.converged and cloud_s.converged:
        resid = esm.attractor_invariance_residual(model, omega, s_earlier, t, cloud_s, cloud_t)
        report.verdicts.append(Verdict("esm.attractor_invariance", resid <= 2 * tol,
                                       resid, 2 * tol))
    report.tables["semidistance.csv"] = _fmt_rows(
        ("step", "semidistance"), list(enumerate(map(float, cloud_t.history)))
    )
    cloud = _refused(cfg, ("deterministic_rate",),  # a cloud that blew up is no measure
                     lambda: ms.EmpiricalMeasure.equal_weight(cloud_t.particles))
    report.tables["cloud.tsv"] = ms.to_table(cloud)


def run_esm_verify(cfg: dict, report: RunReport):
    seed = cfg["seed"]
    model = _linear_model(cfg)
    ensemble = cfg["ensemble"]
    n_particles = cfg["particles"]
    t = dyadic(cfg["anchor"])
    depth = cfg["depth"]
    schedule = _refused(cfg, ("depth",), lambda: esm.PullbackSchedule.geometric(t, depth, 2))

    points = _refused(cfg, _LINEAR_DRIVERS, lambda: esm.pullback_points(
        model, RealizationStream(seed).take(ensemble), t, schedule),
        times=("anchor", "depth"))[:, 0]
    family = ms.RandomMeasure({i: ms.EmpiricalMeasure.dirac([points[i]])
                               for i in range(ensemble)}, ensemble)
    mean_measure = esm.esm_mean(family)

    m_t = model.periodic_mean(t.value)
    std = model.stationary_std
    draw_a = ms.gaussian_draw(m_t, std, ensemble, salt=chain(seed, 1))
    draw_b = ms.gaussian_draw(m_t, std, ensemble, salt=chain(seed, 2))
    draw_c = ms.gaussian_draw(m_t, std, ensemble, salt=chain(seed, 3))
    bound = 4.0 * ms.distance(draw_a, draw_b)
    d_mean = ms.distance(mean_measure, draw_c)
    report.verdicts.append(Verdict("esm.mean_matches_analytic", d_mean <= bound,
                                   d_mean, bound))

    # residual checks use their own particle count, hence their own baseline
    base_a = ms.gaussian_draw(m_t, std, n_particles, salt=chain(seed, 11))
    base_b = ms.gaussian_draw(m_t, std, n_particles, salt=chain(seed, 12))
    resid_bound = 4.0 * ms.distance(base_a, base_b)
    analytic = ms.GaussianFamily(model.periodic_mean, std, salt=chain(seed, 4))
    two_pi = DyadicTime(int(round(2 * np.pi * 2**model.grid_level)), model.grid_level)
    stream = RealizationStream(chain(seed, 5))
    resid = esm.esm_residual(model, analytic, [(t - two_pi, t)], n_particles, stream)
    report.verdicts.append(Verdict("esm.residual_analytic_family", resid <= resid_bound,
                                   resid, resid_bound))

    wrong = ms.GaussianFamily(model.periodic_mean, std * np.sqrt(2.0), salt=chain(seed, 6))
    stream2 = RealizationStream(chain(seed, 7))
    resid_wrong = esm.esm_residual(model, wrong, [(t - two_pi, t)], n_particles, stream2)
    report.verdicts.append(Verdict("esm.residual_rejects_wrong_family",
                                   resid_wrong > 10.0 * resid_bound, resid_wrong,
                                   10.0 * resid_bound))

    pts2 = _refused(cfg, _LINEAR_DRIVERS, lambda: esm.pullback_points(
        model, RealizationStream(chain(seed, 8)).take(ensemble), t + two_pi,
        esm.PullbackSchedule.geometric(t + two_pi, depth, 2)),
        times=("anchor", "depth"))[:, 0]
    d_period = ms.distance(
        ms.EmpiricalMeasure.equal_weight(points[:, None]),
        ms.EmpiricalMeasure.equal_weight(pts2[:, None]),
    )
    report.verdicts.append(Verdict("esm.periodicity", d_period <= bound, d_period, bound))
    report.tables["pullback_points.csv"] = _fmt_rows(
        ("index", "at_anchor", "at_anchor_plus_period"),
        [(i, float(points[i]), float(pts2[i])) for i in range(ensemble)],
    )


def run_oracle(cfg: dict, report: RunReport):
    depth = cfg["depth"]

    flow = fo.two_state_noisy()
    probs, partition, measures, f_table = fo.independence_scenario_from_flow(flow, 4, 2)
    cond = fo.conditional_expectation_check(probs, partition, measures, f_table)
    report.verdicts.append(Verdict("finite_oracle.conditional_expectation",
                                   cond.independence_ok and cond.max_residual == 0,
                                   str(cond.max_residual), "0"))

    mart = _refused(cfg, ("depth",), lambda: fo.ff_martingale_check(
        flow, 0, (fo.Fraction(0), fo.Fraction(1)), depth))
    report.verdicts.append(Verdict("finite_oracle.martingale_all_cylinders",
                                   mart.ok, str(mart.max_residual), "0",
                                   note=f"{mart.cylinders_checked} cylinders"))

    chap = fo.chapman_check(flow, -3, 1, 4)
    report.verdicts.append(Verdict("finite_oracle.chapman_exact", chap))

    pull = fo.ff_pullback(flow, 0, min(depth, 10))
    report.verdicts.append(Verdict("finite_oracle.pullback_mean_is_family",
                                   pull.mean_matches_family and pull.stabilized,
                                   str(pull.tv_gap), "0"))

    sol = fo.ff_esm_solve(fo.cyclic_doubly_stochastic(3))
    uniform = fo.ExactMeasure.uniform(3)
    report.verdicts.append(Verdict("finite_oracle.doubly_stochastic_uniform",
                                   sol.unique and sol.family[0] == uniform))

    sol2 = fo.ff_esm_solve(fo.period_two_alternating())
    ok2 = sol2.unique and fo.apply_kernel(
        sol2.family[1], fo.one_step_kernel(fo.period_two_alternating(), 1)
    ) == sol2.family[0]
    report.verdicts.append(Verdict("finite_oracle.period_two_family_exact", ok2))

    ident = fo.ff_esm_solve(fo.identity_finite_flow(2))
    report.verdicts.append(Verdict("finite_oracle.identity_multiplicity",
                                   (not ident.unique) and len(ident.extremes) == 2,
                                   note=ident.note))


def run_counterexamples(cfg: dict, report: RunReport):
    for name, scenario in sorted(fo.counterexamples().items()):
        report.verdicts.append(Verdict(f"finite_oracle.{name}", scenario.ok,
                                       note=scenario.claim))


def run_nse(cfg: dict, report: RunReport):
    seed = cfg["seed"]
    lbs = cfg["lookbacks"]
    res = cfg["resolution"]
    _refused(cfg, ("resolution",), lambda: nse_mod.grid_for(res))
    forcing = nse_mod.taylor_green(res, cfg["forcing_amp"])
    modes = nse_mod.default_noise_modes(res, cfg["noise_amp"])
    for key, phi in (("forcing_amp", forcing),) + tuple(("noise_amp", m) for m in modes):
        _refused(cfg, (key,), lambda: nse_mod.check_field(phi, 1e-8))
    nse_cfg = _refused(cfg, ("viscosity", "resolution", "level"), lambda: default_nse_config(
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
    report.verdicts.append(Verdict("models.advection_orthogonality",
                                   ortho <= ortho_bound, ortho, ortho_bound))
    tg = nse_mod.taylor_green(res)
    tg_resid = float(np.max(np.abs(nse_mod.bilinear_b(tg, tg))))
    report.verdicts.append(Verdict("models.taylor_green_advection_vanishes",
                                   tg_resid <= 1e-10, tg_resid, 1e-10))

    t0 = dyadic(0)
    t1 = DyadicTime(cfg["steps"], nse_cfg.level)
    drivers = ("viscosity", "forcing_amp", "noise_amp")  # they set the energy balance
    u_t, trace = _refused(cfg, drivers, lambda: model.evolve_trace(
        omega, t0, t1, nse_mod.taylor_green(res, 1.0)), times=("steps",))
    report.verdicts.append(Verdict(
        "models.reality_preserved_bitwise", nse_mod.reality_residual(u_t) == 0.0
    ))
    div_rel = nse_mod.divergence_residual(u_t) / max(np.max(np.abs(u_t)), 1e-300)
    report.verdicts.append(Verdict("models.incompressibility", div_rel <= 1e-12,
                                   div_rel, 1e-12))
    report.verdicts.append(Verdict(
        "models.poincare_exact", bool(np.all(trace.v_h_sq <= trace.v_v_sq))
    ))
    diag = nse_mod.energy_diagnostics(nse_cfg, trace, model.beta_hat)
    rows = list(zip(map(float, diag.times), map(float, diag.v_h_sq),
                    map(float, diag.v_v_sq), map(float, diag.z_abs_sum),
                    map(float, diag.lhs), map(float, diag.g_surrogate),
                    map(float, diag.slack)))
    report.tables["energy.csv"] = _fmt_rows(
        ("time", "v_h_sq", "v_v_sq", "z_abs_sum", "lhs", "g_surrogate", "slack"), rows
    )

    absorb = _refused(cfg, drivers, lambda: nse_mod.absorbing_radius_experiment(
        model, omega, dyadic(0), lookbacks=lbs), times=("lookbacks",))
    deepest = lbs[-1]
    report.verdicts.append(Verdict("models.absorbing_radius_agreement",
                                   absorb["gaps"][deepest] <= 0.05,
                                   absorb["gaps"][deepest], 0.05,
                                   note=f"t_star={absorb['t_star']}"))
    report.tables["absorbing.csv"] = _fmt_rows(
        ("lookback", "radius_small", "radius_large", "gap"),
        [(lb, float(absorb["radii"][lb][0]), float(absorb["radii"][lb][1]),
          float(absorb["gaps"][lb])) for lb in lbs],
    )


_RUNNERS = {
    "noise": run_noise,
    "pullback": run_pullback,
    "attractor": run_attractor,
    "esm-verify": run_esm_verify,
    "oracle": run_oracle,
    "nse": run_nse,
    "counterexamples": run_counterexamples,
}


def run_experiment(cfg: dict) -> RunReport:
    resolved = _resolve(cfg)
    report = RunReport(cfg["kind"], cfg)
    started = time.monotonic()
    # checks and refusals judge inf and NaN themselves, so numpy's warnings
    # would only add stderr lines; no value depends on them
    with np.errstate(all="ignore"):
        _RUNNERS[cfg["kind"]](resolved, report)
    report.wall_clock = time.monotonic() - started
    return report


def write_outputs(report: RunReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(report.summary_json())
    for name, content in sorted(report.tables.items()):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(content)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stochflow",
                                     description="run a configured experiment")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--list-experiments", action="store_true")
    args = parser.parse_args(argv)

    if args.list_experiments:
        for kind, table in _TABLES.items():  # the kind, then each key=default
            print(kind, *(f"{key}={_shown(val)}" for key, val in table.items()))
        return 0
    if not args.config:
        print("error: --config is required (or --list-experiments)", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            cfg = parse_config_text(fh.read())
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        report = run_experiment(cfg)
    except StochFlowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault of the program, not a failed check
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    out_dir = args.out or cfg.get("out")
    if out_dir:
        write_outputs(report, out_dir)
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        extra = f" value={v.value}" if v.value is not None else ""
        print(f"{status} {v.name}{extra}")
    print(f"# wall-clock {report.wall_clock:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

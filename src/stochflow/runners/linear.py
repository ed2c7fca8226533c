"""The ``pullback`` and ``esm-verify`` kinds: pullback measures and evolution
systems of measures of the linear model."""

from __future__ import annotations

import numpy as np

from .. import esm, measure as ms
from ..cli import RunReport, Verdict, _fmt_rows, _refused
from ..dyadic import DyadicTime, dyadic
from ..keyed import chain
from ..models.linear import FourierForcing, LinearOUModel
from ..wiener import NoiseRealization, RealizationStream

_LINEAR_DRIVERS = ("model.rate", "model.sigma", "model.forcing_amp")  # named if a run blows up


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
    schedule = _refused(cfg, ("schedule.depth", "schedule.coeff", "schedule.tol"), lambda: (
        esm.PullbackSchedule.geometric(t, cfg["schedule.depth"], dyadic(cfg["schedule.coeff"]),
                                       cfg["schedule.tol"])))
    omega = NoiseRealization(seed, cfg["realization"])
    family = ms.GaussianFamily(lambda _t: 0.0, 1.0, salt=seed)
    mu, diag = _refused(cfg, _LINEAR_DRIVERS, lambda: esm.pullback_measure(
        model, omega, schedule, family, cfg["particles"]),
        times=("anchor", "schedule.coeff", "schedule.depth"))
    report.verdicts.append(Verdict("esm.pullback_converged", diag.converged,
                                   len(diag.distances), note=diag.message))
    rows = list(zip([s.value for s in diag.starts_used[1:]], map(float, diag.distances)))
    report.tables["distances.csv"] = _fmt_rows(("start", "distance"), rows)
    report.tables["measure.tsv"] = ms.table_pieces(mu)

    rels = []
    for s, (source, got) in zip(diag.starts_used, diag.spreads):
        want = float(np.exp(-model.rate * (t.value - s.value))) * source
        rels.append(abs(got - want) / max(want, 1e-300))
    worst = float(np.max(rels, initial=0.0))  # a NaN propagates, and fails
    report.verdicts.append(Verdict.at_most("esm.spread_contraction", worst, 0.1))


def run_esm_verify(cfg: dict, report: RunReport):
    seed = cfg["seed"]
    model = _linear_model(cfg)
    ensemble = cfg["ensemble"]
    n_particles = cfg["particles"]
    t = dyadic(cfg["anchor"])
    depth = cfg["depth"]
    schedule = _refused(cfg, ("depth",), lambda: esm.PullbackSchedule.geometric(t, depth, 2))
    causes = ("depth", *_LINEAR_DRIVERS)  # a shallow schedule leaves the probes apart

    points = _refused(cfg, causes, lambda: esm.pullback_points(
        model, RealizationStream(seed).take(ensemble), schedule),
        times=("anchor", "depth"))[:, 0]
    # the mean of the point masses: esm_mean of their Dirac measures, bit for bit
    mean_measure = ms.EmpiricalMeasure.equal_weight(points[:, None])

    m_t = model.periodic_mean(t.value)
    std = model.stationary_std
    draw_a = ms.gaussian_draw(m_t, std, ensemble, salt=chain(seed, 1))
    draw_b = ms.gaussian_draw(m_t, std, ensemble, salt=chain(seed, 2))
    draw_c = ms.gaussian_draw(m_t, std, ensemble, salt=chain(seed, 3))
    bound = 4.0 * ms.distance(draw_a, draw_b)
    d_mean = ms.distance(mean_measure, draw_c)
    report.verdicts.append(Verdict.at_most("esm.mean_matches_analytic", d_mean, bound))

    # residual checks use their own particle count, hence their own baseline
    base_a = ms.gaussian_draw(m_t, std, n_particles, salt=chain(seed, 11))
    base_b = ms.gaussian_draw(m_t, std, n_particles, salt=chain(seed, 12))
    resid_bound = 4.0 * ms.distance(base_a, base_b)
    analytic = ms.GaussianFamily(model.periodic_mean, std, salt=chain(seed, 4))
    two_pi = DyadicTime(int(round(2 * np.pi * 2**model.grid_level)), model.grid_level)
    stream = RealizationStream(chain(seed, 5))
    resid = esm.esm_residual(model, analytic, [(t - two_pi, t)], n_particles, stream)
    report.verdicts.append(Verdict.at_most("esm.residual_analytic_family", resid, resid_bound))

    wrong = ms.GaussianFamily(model.periodic_mean, std * np.sqrt(2.0), salt=chain(seed, 6))
    stream2 = RealizationStream(chain(seed, 7))
    resid_wrong = esm.esm_residual(model, wrong, [(t - two_pi, t)], n_particles, stream2)
    report.verdicts.append(Verdict.above("esm.residual_rejects_wrong_family", resid_wrong,
                                         10.0 * resid_bound))

    pts2 = _refused(cfg, causes, lambda: esm.pullback_points(
        model, RealizationStream(chain(seed, 8)).take(ensemble),
        esm.PullbackSchedule.geometric(t + two_pi, depth, 2)),
        times=("anchor", "depth"))[:, 0]
    d_period = ms.distance(mean_measure, ms.EmpiricalMeasure.equal_weight(pts2[:, None]))
    report.verdicts.append(Verdict.at_most("esm.periodicity", d_period, bound))
    report.tables["pullback_points.csv"] = _fmt_rows(
        ("index", "at_anchor", "at_anchor_plus_period"),
        [(i, float(points[i]), float(pts2[i])) for i in range(ensemble)],
    )

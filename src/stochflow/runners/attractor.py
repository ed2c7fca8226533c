"""The ``attractor`` kind: pullback attractor clouds of a noise-free flow."""

from __future__ import annotations

import numpy as np

from .. import esm, measure as ms
from ..cli import RunReport, Verdict, _fmt_rows, _refused, _shown
from ..dyadic import dyadic
from ..errors import ConfigError
from ..flow_core import ScalarExpFlow
from ..wiener import NoiseRealization


def run_attractor(cfg: dict, report: RunReport):
    seed = cfg["seed"]
    det_rate = cfg["deterministic_rate"]
    model = _refused(cfg, ("model.level",),
                     lambda: ScalarExpFlow(det_rate, grid_level=cfg["model.level"]))
    t = dyadic(cfg["anchor"])
    s_earlier = t - 1
    tol = cfg["schedule.tol"]
    depth = cfg["schedule.depth"]
    schedule_t, schedule_s = _refused(cfg, ("schedule.depth", "schedule.tol"), lambda: tuple(
        esm.PullbackSchedule.geometric(anchor, depth, 1, tol) for anchor in (t, s_earlier)))
    radius = cfg["box_radius"]
    if not np.isfinite(2.0 * radius):  # the width linspace forms
        raise ConfigError(f"'box_radius' = {_shown(radius)} gives a box too wide for a float")
    box = np.linspace(-radius, radius, cfg["box_points"])[:, None]
    omega = NoiseRealization(seed, cfg["realization"])
    cloud_t = esm.pullback_attractor(model, omega, [box], schedule_t)
    cloud_s = esm.pullback_attractor(model, omega, [box], schedule_s)
    report.verdicts.append(Verdict("esm.attractor_converged", cloud_t.converged,
                                   len(cloud_t.history)))
    collapse = float(np.max(np.abs(cloud_t.particles))) if det_rate < 0 else float("nan")
    if det_rate < 0:
        report.verdicts.append(Verdict.at_most("esm.attractor_collapse_to_zero", collapse, tol))
    if cloud_t.converged and cloud_s.converged:
        resid = esm.attractor_invariance_residual(model, omega, cloud_s, cloud_t)
        report.verdicts.append(Verdict.at_most("esm.attractor_invariance", resid, 2 * tol))
    report.tables["semidistance.csv"] = _fmt_rows(
        ("step", "semidistance"), list(enumerate(map(float, cloud_t.history)))
    )
    cloud = _refused(cfg, ("deterministic_rate",),  # a cloud that blew up is no measure
                     lambda: ms.EmpiricalMeasure.equal_weight(cloud_t.particles))
    report.tables["cloud.tsv"] = ms.table_pieces(cloud)

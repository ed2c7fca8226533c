"""The ``noise`` kind: path-store statistics, straight on ``wiener``."""

from __future__ import annotations

import numpy as np

from ..cli import RunReport, Verdict, _fmt_rows, _refused
from ..dyadic import DyadicTime, dyadic
from ..errors import ConfigError
from ..keyed import chain, chain_offsets
from ..wiener import (
    NoiseRealization,
    OUConfig,
    RealizationStream,
    grid_values,
    increments,
    ou_grid,
)


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
    if n < 2:  # the variance checks take a sample variance
        raise ConfigError(f"'ensemble' must be an integer >= 2 for noise, got {n!r}")
    level = cfg["level"]
    ou_cfg = _refused(cfg, ("ou_rate", "level"),
                      lambda: OUConfig(rate=cfg["ou_rate"], level=level))
    one, zero, two = dyadic(1), dyadic(0), dyadic(2)
    omegas = RealizationStream(seed).take(n)

    w1 = grid_values(omegas, 0, one, one, 0)[:, 0]
    var = float(w1.var(ddof=1))
    report.verdicts.append(Verdict.within("wiener.w1_variance", var, 0.06, target=1.0))
    report.tables["w1_samples.csv"] = _fmt_rows(("index", "w1"), list(enumerate(map(float, w1))))

    half = 1 << level  # increments over [0, 2], split at 1; row sums are exact
    incs = increments(omegas[:10_000], 0, zero, two, level)
    sums = np.stack([incs[:, :half].sum(axis=1), incs[:, half:].sum(axis=1)], axis=1)
    corr = float(np.corrcoef(sums[:, 0], sums[:, 1])[0, 1])
    report.verdicts.append(Verdict.within("wiener.disjoint_interval_corr", corr, 0.05))

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
    ou_var = float(z0.var(ddof=1))
    report.verdicts.append(Verdict.within("wiener.ou_variance", ou_var, 0.1 * target,
                                          target=target))
    ac = float(np.corrcoef(z0, z1)[0, 1])
    report.verdicts.append(Verdict.within("wiener.ou_autocorr_lag1", ac, 0.05,
                                          target=float(np.exp(-ou_cfg.rate))))

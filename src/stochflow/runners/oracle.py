"""The ``oracle`` and ``counterexamples`` kinds: exact checks in rational
arithmetic on finite flows."""

from __future__ import annotations

from .. import finite_oracle as fo
from ..cli import RunReport, Verdict, _refused


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

    pull = fo.ff_pullback(flow, 0, depth)
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

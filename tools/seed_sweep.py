#!/usr/bin/env python3
"""How often each verdict fails over a range of seeds, and by how much.

Usage (from anywhere):

    python3 tools/seed_sweep.py esm-verify 20
    python3 tools/seed_sweep.py esm-ensemble geometry 20
    python3 tools/seed_sweep.py all 20

Each target is an experiment kind, run at its default config, or a workload
of ``bench/run.py``'s ``WORKLOADS``, run at each of its configs, parsed from
the same config text the benchmark writes; ``all`` is every kind and then
every workload.  The last argument is N (default 20): each config runs at
seeds 1..N, in this process through ``stochflow.cli.run_experiment``.

Prints one table per config: for each verdict, the number of seeds where it
failed, and the min, median and max over the seeds of |value - target| over
its threshold, with target 0 where the verdict records none: for a band check
that is the distance from the centre over the half-width, for a check of
|value| <= threshold the magnitude over the threshold.  Most checks pass at a
ratio of at most 1; one that passes above its threshold, such as
``esm.residual_rejects_wrong_family``, passes at a ratio above 1.  A ratio is
``-`` where a verdict has no numeric value or a zero threshold.  A seed whose
run is refused (exit 2) counts on a ``refused`` row.  Nothing here changes a
check, a seed or a tolerance.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stochflow import cli  # noqa: E402
from stochflow.errors import StochFlowError  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def configs(target: str):
    """(label, config at a seed) for each config of ``target``."""
    if target in cli.EXPERIMENTS:
        return [(f"default:{target}", lambda seed, kind=target: {"kind": kind, "seed": seed})]
    if target in bench_run.WORKLOADS:
        return [(f"{target}[{i}]",
                 lambda seed, cfg=cfg: cli.parse_config_text(bench_run.config_text(cfg, seed)))
                for i, cfg in enumerate(bench_run.WORKLOADS[target])]
    raise SystemExit(f"unknown target {target!r}: a kind of {cli.EXPERIMENTS}, a workload "
                     f"of {tuple(bench_run.WORKLOADS)} or 'all'")


def ratio(verdict) -> float | None:
    """|value - target| over threshold, target 0 where none is recorded."""
    try:
        value, threshold = float(verdict.value), float(verdict.threshold)
    except (TypeError, ValueError):
        return None
    if threshold == 0:
        return None
    target = 0.0 if verdict.target is None else float(verdict.target)
    return abs(value - target) / threshold


def sweep(make, n: int) -> tuple[dict, int]:
    """verdict name -> (fails, ratios) over seeds 1..n, and the refused count."""
    rows, refused = {}, 0
    for seed in range(1, n + 1):
        try:
            report = cli.run_experiment(make(seed))
        except StochFlowError:
            refused += 1
            continue
        for v in report.verdicts:
            entry = rows.setdefault(v.name, [0, []])
            entry[0] += not v.passed
            r = ratio(v)
            if r is not None:
                entry[1].append(r)
    return rows, refused


def table(label: str, rows: dict, refused: int, n: int) -> str:
    width = max([len("verdict"), len("refused")] + [len(name) for name in rows])
    lines = [f"# {label}, seeds 1..{n}",
             f"{'verdict':<{width}}  fails  {'min':>9}  {'median':>9}  {'max':>9}"]
    for name, (fails, ratios) in rows.items():
        stats = ([f"{x:9.3g}" for x in (min(ratios), statistics.median(ratios), max(ratios))]
                 if ratios else [f"{'-':>9}"] * 3)
        lines.append(f"{name:<{width}}  {fails:>5}  " + "  ".join(stats))
    if refused:
        lines.append(f"{'refused':<{width}}  {refused:>5}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    n = int(args.pop()) if args and args[-1].isdigit() else 20
    targets = args or ["all"]
    if targets == ["all"]:
        targets = [*cli.EXPERIMENTS, *bench_run.WORKLOADS]
    for target in targets:
        for label, make in configs(target):
            print(table(label, *sweep(make, n), n), end="\n\n", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Where a run's memory goes, stage by stage.

Usage (from anywhere):

    python3 tools/memory.py                        # the geometry pullback, seed 1
    python3 tools/memory.py seed=11 particles=65536
    python3 tools/memory.py kind=esm-verify seed=1

The arguments are ``key=value`` config lines.  They override the geometry
benchmark's pullback, at 2^18 particles with ``schedule.tol = 0.001`` and
seed 1; another ``kind`` starts from its own defaults at seed 1.  The config runs twice in this process through ``stochflow.cli``,
each time with its outputs written to a temporary directory, and with the
pullback's stages wrapped: each source sample, each ``evolve_batch``, each
``spread``, each ``distance`` and the write.  A run's tables are formatted
piece by piece as they are written (``measure.table_pieces``), so the write
stage holds the formatting of ``measure.tsv`` too.  The first run is
untraced and reads ``ru_maxrss``, the process's peak resident memory so far,
after each stage.  The second runs under ``tracemalloc``.  For each stage
call the script prints the live memory held when the call began, the live
peak during the call, what was held after it, and the first run's
``ru_maxrss`` after the call; the live figures also in bytes per particle
when the config has ``particles``.  An MB is 2^20 bytes, as in the
benchmark's ``peak_rss_mb``.  Then the traced run's overall live peak
and the first run's ``ru_maxrss``.  A stage that a kind does not call prints
nothing.
"""

from __future__ import annotations

import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stochflow import cli, esm, measure  # noqa: E402

GEOMETRY = {"kind": "pullback", "seed": 1, "particles": 1 << 18, "schedule.tol": 0.001}
MB = 1 << 20  # as the benchmark's peak_rss_mb
STAGES = ((measure.GaussianFamily, "sample", "sample"), (esm, "evolve_batch", "evolve"),
          (measure.EmpiricalMeasure, "spread", "spread"), (esm, "distance", "distance"),
          (cli, "write_outputs", "fmt+write"))
CALLS: list = []  # (stage, held, peak, after, ru_maxrss) per wrapped call
PEAK = [0]  # the live peak over the traced run: each stage resets tracemalloc's


def run(cfg: dict) -> list:
    """Run ``cfg`` and write its outputs; return the wrapped stages' records."""
    del CALLS[:]
    report = cli.run_experiment(cfg)
    with tempfile.TemporaryDirectory() as out:
        cli.write_outputs(report, out)
    return list(CALLS)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB  # KiB on Linux


def wrap(owner, name: str, stage: str):
    """Replace ``owner.name`` by a wrapper that appends (stage, held, peak,
    after, ru_maxrss) to CALLS; the live figures read 0 when untraced."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        held, peak = tracemalloc.get_traced_memory()
        PEAK[0] = max(PEAK[0], peak)
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            after, peak = tracemalloc.get_traced_memory()
            PEAK[0] = max(PEAK[0], peak)
            CALLS.append((stage, held, peak, after, maxrss_mb()))
    setattr(owner, name, wrapper)


def main(argv: list[str]) -> int:
    try:
        given = cli.parse_config_text("\n".join(argv))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    cfg = {**(GEOMETRY if given.get("kind", "pullback") == "pullback" else {"seed": 1}), **given}
    problem = cli.validate_config(cfg)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    for owner, name, stage in STAGES:
        wrap(owner, name, stage)
    plain = run(cfg)
    maxrss = maxrss_mb()
    tracemalloc.start()
    try:
        traced = run(cfg)
        overall = max(PEAK[0], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()

    n = cfg.get("particles")
    print(f"config: {' '.join(f'{k}={v}' for k, v in cfg.items())}")
    print(f"{'stage':<10} {'held MB':>8} {'peak MB':>8} {'after MB':>8} {'maxrss MB':>9}"
          + (f"  {'held B/p':>8} {'peak B/p':>8}" if n else ""))
    for (stage, held, peak, after, _), (*_, rss) in zip(traced, plain):
        print(f"{stage:<10} {held / MB:8.2f} {peak / MB:8.2f} {after / MB:8.2f} {rss:9.2f}"
              + (f"  {held / n:8.1f} {peak / n:8.1f}" if n else ""))
    print(f"live peak {overall / MB:.2f} MB" + (f", {overall / n:.1f} B/particle" if n else ""))
    print(f"ru_maxrss {maxrss:.2f} MB after the untraced run, imports included")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

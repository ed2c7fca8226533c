#!/usr/bin/env python3
"""SHA-256 of every artifact of the benchmark configs and the default configs.

Usage (from anywhere):

    python3 tools/artifact_digests.py 1 101

For each seed given (default: 1), runs each config of ``bench/run.py``'s
``WORKLOADS``, parsed from the same config text the benchmark writes, and
then each experiment kind at its default config, then ``nse`` at resolutions
18 and 32, then ``oracle`` at depth 16, in this process through
``stochflow.cli.run_experiment``.  Prints one line per artifact:
``<sha256>  <seed> <run> <file>``, where ``<run>`` is ``<workload>[<i>]``,
``default:<kind>``, ``nse:resolution=<n>`` or ``oracle:depth=<d>``, and
``<file>`` is ``summary.json`` or a table, named as ``--out`` would write
them.  Two trees print the same lines exactly when every artifact keeps its
bytes, so ``diff`` of two outputs is the check.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stochflow import cli  # noqa: E402


_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


# nse grids the benchmark does not run: at 18 the n**2 scalings are inexact, 32 is larger
NSE_RESOLUTIONS = (18, 32)
# the oracle at the enumeration limit, 2**16 words: its deepest martingale check and pullback
ORACLE_DEPTH = 16


def runs(seed: int):
    """(label, config) for each run at ``seed``: the benchmark's, the defaults, larger sizes."""
    for name, cfgs in bench_run.WORKLOADS.items():
        for i, cfg in enumerate(cfgs):
            yield f"{name}[{i}]", cli.parse_config_text(bench_run.config_text(cfg, seed))
    for kind in cli.EXPERIMENTS:
        yield f"default:{kind}", {"kind": kind, "seed": seed}
    for res in NSE_RESOLUTIONS:
        yield f"nse:resolution={res}", {"kind": "nse", "seed": seed, "resolution": res}
    yield f"oracle:depth={ORACLE_DEPTH}", {"kind": "oracle", "seed": seed, "depth": ORACLE_DEPTH}


def digests(seed: int):
    """(label, file, sha256) for every artifact of every run at ``seed``."""
    for label, cfg in runs(seed):
        report = cli.run_experiment(cfg)
        files = {"summary.json": report.summary_json(), **report.tables}
        for name, content in sorted(files.items()):
            digest = hashlib.sha256()
            for piece in cli.pieces(content):
                digest.update(piece.encode())
            yield label, name, digest.hexdigest()


def main(argv=None) -> int:
    seeds = [int(arg) for arg in (sys.argv[1:] if argv is None else argv)] or [1]
    for seed in seeds:
        for label, name, digest in digests(seed):
            print(f"{digest}  {seed} {label} {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

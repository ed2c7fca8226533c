#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, and whether a gain claim holds.

Usage (from anywhere):

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload geometry --seed 1 --pairs 10
    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload esm-ensemble --seed 1 \\
        --pairs 3 --seconds 8

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one after the other; odd pairs run the parent first,
even pairs the change.  A run that exits non-zero or reports ``"correct":
false`` stops the script with exit 1.  Each run prints its end-to-end metrics
as the last line of its output, one value each (the median of its
repetitions); the metrics and which way is better come from this
checkout's ``BENCHMARK.json``, and the quartiles are ``bench/run.py``'s.

For each end-to-end metric the script prints each side's median and
quartiles over the pairs, the number of pairs in which the change was
strictly better, and whether the claim rule holds: the change better in at
least 9 of every 10 pairs, and the medians further apart, in the change's
favour, than the parent's quartile distance.  Only the standard library is
used, and nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def summarize(parent: list, change: list, better: str) -> dict:
    """The claim rule on one metric's paired values, ``parent[i]`` against
    ``change[i]``; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq, cq = bench_run.quartiles(parent), bench_run.quartiles(change)
    gain = sign * (pq[1] - cq[1])  # positive when the change's median is better
    return {"parent": pq, "change": cq, "wins": wins, "pairs": len(parent),
            "claim": 10 * wins >= 9 * len(parent) and gain > pq[2] - pq[0]}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its metric values by name."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if done.returncode or not result.get("correct"):
        raise SystemExit(f"{checkout}: bench/run.py exited {done.returncode}\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(bench_run.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    metrics = [(m["name"], m["unit"], m["better"]) for m in bench_run.SPEC["end_to_end"]]
    values = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values[side].append(run_once(getattr(args, side), args.workload, args.seed,
                                         args.seconds))
        print(f"pair {i + 1}: " + "; ".join(
            f"{name} {values['parent'][-1][name]:.6g} -> {values['change'][-1][name]:.6g}"
            for name, _, _ in metrics), flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: median (q1 .. q3)")
    for name, unit, better in metrics:
        s = summarize([v[name] for v in values["parent"]],
                      [v[name] for v in values["change"]], better)
        p, c = s["parent"], s["change"]
        print(f"{name} [{unit}, {better} is better]: parent {p[1]:.6g} ({p[0]:.6g} .. "
              f"{p[2]:.6g}), change {c[1]:.6g} ({c[0]:.6g} .. {c[2]:.6g}); change better "
              f"in {s['wins']}/{s['pairs']}; claim {'holds' if s['claim'] else 'fails'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

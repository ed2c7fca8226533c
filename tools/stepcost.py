#!/usr/bin/env python3
"""Microseconds per step of the spectral model's stepping loop.

Usage (from anywhere):

    python3 tools/stepcost.py             # resolution 16
    python3 tools/stepcost.py 18 --reps 31

Builds ``NSEModel`` at its default config on the given grid size and times
``NSEModel._advance`` over 64 steps of a stack of 1, 2, 4 and 6 rows of
random divergence-free fields, with the noise averages computed beforehand.
The row counts alternate within each repetition, so a drift in the host's
speed touches all of them alike.  Prints, per row count, the median over the
repetitions of the call's wall time divided by its steps, and the quartiles.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stochflow.dyadic import DyadicTime  # noqa: E402
from stochflow.models.nse import NSEConfig, NSEModel, random_divfree  # noqa: E402
from stochflow.wiener import NoiseRealization  # noqa: E402

ROWS = (1, 2, 4, 6)
STEPS = 64


def step_costs(n: int, reps: int) -> dict:
    """rows -> the per-step microseconds of each repetition."""
    model = NSEModel(NSEConfig(resolution=n))
    omega = NoiseRealization(1, 0, num_components=model.n_noise)
    s = DyadicTime(0, model.grid_level)
    zvals = model.z_values(omega, s, DyadicTime(STEPS, model.grid_level))
    stacks = {rows: np.stack([random_divfree(n, r) for r in range(rows)]) for rows in ROWS}
    for rows in ROWS:  # warm the caches and the grid
        model._advance(stacks[rows], zvals, 0)
    costs = {rows: [] for rows in ROWS}
    for _ in range(reps):
        for rows in ROWS:
            start = time.perf_counter()
            model._advance(stacks[rows], zvals, 0)
            costs[rows].append((time.perf_counter() - start) / STEPS * 1e6)
    return costs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("resolution", nargs="?", type=int, default=16)
    parser.add_argument("--reps", type=int, default=21)
    args = parser.parse_args(argv)
    costs = step_costs(args.resolution, args.reps)
    print(f"n = {args.resolution}, {STEPS} steps per call, {args.reps} repetitions")
    print("rows  us/step (median)  quartiles")
    for rows, us in costs.items():
        q1, med, q3 = np.percentile(us, [25, 50, 75])
        print(f"{rows:>4}  {med:>16.1f}  {q1:.1f}-{q3:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

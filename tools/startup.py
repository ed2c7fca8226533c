#!/usr/bin/env python3
"""Where each experiment kind's set-up time goes, module by module.

Usage (from anywhere):

    python3 tools/startup.py             # every kind
    python3 tools/startup.py noise nse

For each kind, one fresh ``python3 -X importtime`` child imports
``stochflow.cli`` and validates the kind's default config: the set-up that
``bench/run.py`` times.  Prints, per kind, the child's wall time and the
import time of all its modules, then one line per ``stochflow`` module that
set-up loaded, in the order the imports finished, nested as they nested:
its self and its cumulative milliseconds.  The cumulative time includes the
modules it imported first, numpy and scipy among them.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stochflow import cli  # noqa: E402

SETUP = ("import json, sys, stochflow.cli as cli; "
         "sys.exit(cli.validate_config(json.loads(sys.argv[1])) is not None)")
# -X importtime's line: self and cumulative microseconds, then the indented name
LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def setup_imports(kind: str):
    """(wall s, [(self us, cumulative us, depth, module)]) of one fresh set-up."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cfg = json.dumps({"kind": kind, "seed": 1})
    start = time.monotonic()
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP, cfg],
                         env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    if run.returncode != 0:
        raise SystemExit(f"{kind}: set-up failed: {run.stderr.strip()[-400:]}")
    rows = []
    for line in run.stderr.splitlines():
        match = LINE.match(line)
        if match:
            own, cumulative, indent, name = match.groups()
            rows.append((int(own), int(cumulative), (len(indent) - 1) // 2, name))
    return wall, rows


def main(argv: list[str]) -> int:
    kinds = argv or list(cli.EXPERIMENTS)
    unknown = [k for k in kinds if k not in cli.EXPERIMENTS]
    if unknown:
        print(f"unknown kind(s): {', '.join(unknown)}; kinds: {', '.join(cli.EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    for kind in kinds:
        wall, rows = setup_imports(kind)
        ours = [r for r in rows if r[3].split(".")[0] == "stochflow"]
        print(f"{kind}: set-up {wall * 1e3:.0f} ms wall, imports {sum(r[0] for r in rows) / 1e3:.1f} ms, "
              f"stochflow's own {sum(r[0] for r in ours) / 1e3:.1f} ms in {len(ours)} modules")
        print(f"  {'self ms':>8} {'cum ms':>8}  module")
        for own, cumulative, depth, name in ours:
            print(f"  {own / 1e3:8.2f} {cumulative / 1e3:8.2f}  {'  ' * depth}{name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Which artifact bytes depend on the host's numpy and OpenBLAS kernels.

Usage (from anywhere):

    python3 tools/hostdep.py

Runs two digest printers in child processes: ``tools/artifact_digests.py 1``
(every benchmark config and default config at seed 1) and the golden-digest
printer of ``tests/test_golden_artifacts.py`` (the configs that Tier-1 pins).
Each printer runs twice under the default environment (the second run shows
whether a rerun keeps every byte) and once under each setting below, set on
the children only: numpy's dispatch capped at AVX2, and OpenBLAS's kernels
fixed to Haswell.  A setting stands in for a host without AVX-512, or one
where OpenBLAS picks another kernel.

Prints one row per (setting, printer): the number of artifacts and how many
of them differ from the first default run, then the artifacts that moved.  An
artifact of the golden printer that moves here would fail
``test_golden_artifacts.py`` on such a host.  Nothing here changes a setting
of this process or of the machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# variables that pick kernels; unset in every child but the one that sets it
KNOBS = ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
SETTINGS = {
    "default": {},
    "numpy dispatch <= AVX2": {
        "NPY_ENABLE_CPU_FEATURES": "SSSE3 SSE41 POPCNT SSE42 AVX F16C FMA3 AVX2"},
    "OPENBLAS_CORETYPE=Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}


def _artifact_digests(out: str, err: str) -> dict:
    """``<sha256>  <seed> <run> <file>`` lines -> {"<seed> <run> <file>": sha256}."""
    return {key: digest for digest, key in (line.split("  ", 1) for line in out.splitlines())}


def _golden(out: str, err: str) -> dict:
    """The golden printer's ``'<kind>': (<code>, {`` and ``'<file>': '<sha256>',``
    lines on stderr -> {"<kind> <file>": sha256}."""
    found, kind = {}, None
    for line in err.splitlines():
        parts = line.strip().split("'")
        if line.strip().endswith("{"):
            kind = parts[1]
        elif len(parts) == 5 and kind is not None:
            found[f"{kind} {parts[1]}"] = parts[3]
    return found


PRINTERS = {
    "artifact_digests.py 1": ([str(ROOT / "tools" / "artifact_digests.py"), "1"],
                              _artifact_digests),
    "golden digests": ([str(ROOT / "tests" / "test_golden_artifacts.py")], _golden),
}


def digests(args: list[str], parse, extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    env.update(extra, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                         cwd=ROOT)
    if run.returncode != 0:
        raise RuntimeError(run.stderr.strip().splitlines()[-1] if run.stderr.strip()
                           else f"exit {run.returncode}")
    return parse(run.stdout, run.stderr)


def main() -> int:
    base = {printer: digests(args, parse, {}) for printer, (args, parse) in PRINTERS.items()}
    rows, moved_lines = [], []
    for setting, extra in SETTINGS.items():
        for printer, (args, parse) in PRINTERS.items():
            try:
                got = digests(args, parse, extra)
            except RuntimeError as err:
                rows.append((setting, printer, "-", f"failed: {err}"))
                continue
            moved = sorted(k for k in base[printer].keys() | got.keys()
                           if base[printer].get(k) != got.get(k))
            rows.append((setting, printer, str(len(got)), str(len(moved))))
            moved_lines += [f"{setting} | {printer} | {key}" for key in moved]
    print("| setting | printer | artifacts | moved |\n|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print()
    print("\n".join(moved_lines) if moved_lines else "no artifact moved")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

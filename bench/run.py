#!/usr/bin/env python3
"""stochflow benchmark: time to verdict, set-up, memory and failure share.

Usage (from the repository root):

    python3 bench/run.py --workload esm-ensemble --seed 1 --seconds 30 --trace 0

Each repetition is one fresh ``python3 bench/child.py`` process that imports
``stochflow.cli`` from ``src/``, validates the workload's configs and runs
them through ``cli.main`` with a temporary ``--out`` directory: the same path
as the ``stochflow`` command.  Repetitions run one at a time, with ``jobs = 1``
and BLAS/OpenMP threads capped at the number of usable cores, for about
``--seconds``.  The workload seed is the config seed.

Every repetition passes a gate: each CLI exit code is 0 or 1, ``summary.json``
agrees with it, and every artifact's SHA-256 and every verdict outcome match
the first repetition, traced or not.  A repetition that fails the gate makes
the run incorrect and the command exit 1.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
Timings are scaled by reference work timed next to them: a calibration
computation in the child for the run, a reference interpreter start for
set-up.  So the host's speed drifting between runs cancels out; the raw
medians are printed too (see README.md).
``--trace 1`` alternates plain and traced repetitions and reports per-layer
metrics from the traced ones (see ``layertrace.py``), each traced layer's
share of wall time, and the tracing overhead.  The traced run also fails its
gate when the layers leave half of the wall time or more unaccounted.
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Why each workload exists is in README.md.  Sizes keep a repetition at a few
# seconds, so that a run holds several repetitions, and keep each workload's
# traced mix of layers near that of its default config (README.md gives it).
WORKLOADS = {
    "esm-ensemble": [{"kind": "esm-verify", "ensemble": 40, "particles": 200}],
    "noise-paths": [{"kind": "noise", "ensemble": 300, "intervals": 200}],
    "nse-spectral": [{"kind": "nse", "steps": 128, "lookbacks": "8,16,32"}],
    # schedule.tol = 0.001 makes every seed use all six starts, so the work
    # done does not depend on the seed.
    "geometry": [{"kind": "pullback", "particles": 1 << 18, "schedule.tol": 0.001},
                 {"kind": "attractor", "box_points": 4000}],
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
RAW = {"setup_s": "setup_raw_s", "time_to_verdict_s": "time_to_verdict_raw_s"}
# A traced run whose layers leave this share of wall time unaccounted fails its
# gate: its per-layer figures would not describe where the time goes.
MAX_UNACCOUNTED = 0.5

# The child times a fixed reference computation right before and right after
# the run (child.calibrate).  Run times are reported at the speed at which that
# computation takes CAL_REF_S, the usual figure on a quiet 2-core host.
CAL_REF_S = 0.2
# Set-up is mostly interpreter start and third-party imports, whose cost drifts
# apart from the calibration's (README.md).  So right before each repetition a
# reference interpreter imports the third-party modules that stochflow imported
# when this benchmark was defined, and set-up is reported at the speed at which
# that takes SETUP_REF_S.  The list is fixed: stochflow dropping an import
# shows as faster set-up.
SETUP_REFERENCE = "import numpy, scipy.special, scipy.spatial.distance"
SETUP_REF_S = 0.55
CHILD_TIMEOUT_S = 120
LAST_START_S = 60  # past this, stop at two repetitions: the run must end within 180 s


class GateError(Exception):
    pass


def config_text(cfg: dict, seed: int) -> str:
    lines = [f"{key} = {val}" for key, val in cfg.items()]
    return "\n".join(lines + [f"seed = {seed}", "jobs = 1"]) + "\n"


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(job: dict, work: Path, env: dict) -> tuple[dict, float]:
    """Run one child; return its result and the monotonic stamp before spawn."""
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job_path)],
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise GateError(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(Path(job["result"]).read_text()), spawned


def time_setup_reference(env: dict) -> float:
    start = time.monotonic()
    try:
        subprocess.run([sys.executable, "-c", SETUP_REFERENCE], env=env, check=True,
                       capture_output=True, timeout=CHILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        raise GateError(f"set-up reference failed: {err}") from None
    return time.monotonic() - start


def read_artifacts(outs: list[Path], codes: list[int]):
    """SHA-256 per artifact, verdict outcomes, total bytes; checks the exit codes."""
    digests, verdicts, total = {}, [], 0
    for i, (out, code) in enumerate(zip(outs, codes)):
        if code not in (0, 1):
            raise GateError(f"config {i} exited {code}")
        summary = json.loads((out / "summary.json").read_text())
        if summary["passed"] != (code == 0):
            raise GateError(f"config {i}: summary.json passed={summary['passed']} "
                            f"but exit code {code}")
        if not summary["verdicts"]:
            raise GateError(f"config {i} reached no verdict")
        verdicts += [(v["name"], v["passed"], v.get("value"), v.get("threshold"))
                     for v in summary["verdicts"]]
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            total += len(data)
            digests[f"{i}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return digests, verdicts, total


def run_repetition(configs: list[Path], trace: bool, work: Path, env: dict) -> dict:
    began = time.monotonic()
    setup_ref = time_setup_reference(env)
    rep_dir = Path(tempfile.mkdtemp(dir=work))
    try:
        outs = [rep_dir / f"out{i}" for i in range(len(configs))]
        job = {"configs": [str(c) for c in configs], "outs": [str(o) for o in outs],
               "trace": trace, "run": True, "result": str(rep_dir / "result.json")}
        res, spawned = spawn(job, rep_dir, env)
        try:
            digests, verdicts, total = read_artifacts(outs, res["exit_codes"])
        except (GateError, OSError, ValueError, KeyError) as err:
            raise GateError(f"{err}; CLI output ends: {res['output'][-400:]!r}") from None
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    cal_before, cal_after = res["calibration_s"]
    setup_raw = res["setup_done"] - spawned
    ttv_raw = res["done"] - res["run_start"]
    return {
        "traced": trace,
        "wall_s": time.monotonic() - began,
        "setup_raw_s": setup_raw,
        "time_to_verdict_raw_s": ttv_raw,
        "setup_s": setup_raw * SETUP_REF_S / setup_ref,
        "time_to_verdict_s": ttv_raw * 2 * CAL_REF_S / (cal_before + cal_after),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "import_s": res["imported"] - res["import_start"],
        "exit_codes": res["exit_codes"],
        "digests": digests,
        "verdicts": verdicts,
        "artifact_bytes": total,
        "trace": res.get("trace"),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# -- per-layer metrics from one traced repetition -----------------------------------

def layer_metrics(rep: dict) -> dict:
    tr = rep["trace"]
    stats, counters = tr["stats"], tr["counters"]
    edges = {(p, c): n for p, c, n in tr["edges"]}

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    nse_steps = counters.get("models.nse.steps", 0)
    points = calls("esm.pullback_point")
    wall = rep["time_to_verdict_raw_s"]
    return {
        "keyed.calls": calls("keyed"),
        "keyed.keys": counters.get("keyed.keys", 0),
        "keyed.self_s": self_s("keyed"),
        "wiener.grid_values.calls": calls("wiener.grid_values"),
        "wiener.grid_values.self_s": self_s("wiener.grid_values"),
        "wiener.wiener_at.self_s": self_s("wiener.wiener_at"),
        "wiener.intervals_requested": counters.get("wiener.intervals_requested", 0),
        "wiener.intervals_distinct": counters.get("wiener.intervals_distinct", 0),
        "wiener.ou_grid.self_s": self_s("wiener.ou_grid"),
        "wiener.ou_points": counters.get("wiener.ou_points", 0),
        "flow_core.evolve_batch.calls": calls("flow_core.evolve_batch"),
        "flow_core.evolve_batch.self_s": self_s("flow_core.evolve_batch"),
        "models.linear.evolve_batch.self_s": self_s("models.linear.evolve_batch"),
        "models.linear.grid_steps": counters.get("models.linear.grid_steps", 0),
        "models.nse.steps": nse_steps,
        # stepping time: model evolution minus its noise-average lookups
        "models.nse.step_us": ((incl("models.nse.evolve") - incl("models.nse.z_values"))
                               / nse_steps * 1e6 if nse_steps else 0.0),
        "models.nse.transform_calls": counters.get("models.nse.transform_calls", 0),
        "models.nse.bilinear_b.self_s": self_s("models.nse.bilinear_b"),
        "models.nse.estimate_beta_s": incl("models.nse.estimate_beta"),
        "esm.evolve_calls_per_point": (edges.get(("esm.pullback_point",
                                                  "flow_core.evolve_batch"), 0) / points
                                       if points else 0.0),
        "esm.esm_residual.self_s": self_s("esm.esm_residual"),
        "esm.pullback_measure.self_s": self_s("esm.pullback_measure"),
        "esm.pullback_attractor.self_s": self_s("esm.pullback_attractor"),
        "esm.hausdorff.self_s": self_s("esm.hausdorff"),
        "esm.hausdorff.pairs": counters.get("esm.hausdorff.pairs", 0),
        "measure.sample.self_s": self_s("measure.sample"),
        "measure.distance.self_s": self_s("measure.distance"),
        "measure.distance.particles": counters.get("measure.distance.particles", 0),
        "measure.to_table.self_s": self_s("measure.to_table"),
        "measure.to_table.bytes": counters.get("measure.to_table.bytes", 0),
        "cli.runner.self_s": self_s("cli.runner"),
        "cli.write_outputs.self_s": self_s("cli.write_outputs"),
        "cli.artifact_bytes": rep["artifact_bytes"],
        "cli.import_s": rep["import_s"],
        "trace.unaccounted_share": (wall - sum(s[2] for s in stats.values())) / wall,
    }


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    per_rep = [layer_metrics(r) for r in traced]
    out = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    point_ms = [s[4] * 1e3 for r in traced for s in r["trace"]["spans"]
                if s[2] == "esm.pullback_point"]
    if len(point_ms) >= 2:
        deciles = statistics.quantiles(point_ms, n=10)
        out["esm.pullback_point.ms.p50"], out["esm.pullback_point.ms.p90"] = deciles[4], deciles[8]
    else:
        out["esm.pullback_point.ms.p50"] = out["esm.pullback_point.ms.p90"] = \
            point_ms[0] if point_ms else 0.0
    out["esm.pullback_point.samples"] = len(point_ms)
    untraced = statistics.median(r["time_to_verdict_s"] for r in plain)
    out["trace.overhead_share"] = (
        statistics.median(r["time_to_verdict_s"] for r in traced) / untraced - 1.0)
    return {name: out[name] for name in PER_LAYER}


# -- the run ---------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "stochflow" / "cli.py").is_file():
        print(f"error: no stochflow sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        configs = []
        for i, cfg in enumerate(WORKLOADS[workload]):
            path = work / f"config{i}.txt"
            path.write_text(config_text(cfg, seed))
            configs.append(path)

        # Warm-up: one set-up-only child compiles bytecode and fills the page
        # cache, so the timed repetitions all see the same state.
        try:
            warm, _ = spawn({"configs": [str(c) for c in configs], "outs": [],
                             "trace": False, "run": False,
                             "result": str(work / "warm.json")}, work, env)
        except GateError as err:
            print(f"error: stochflow does not start: {err}", file=sys.stderr)
            return 2

        env_block = {"nproc": threads, **warm["versions"],
                     "thread_caps": {v: env[v] for v in ("OMP_NUM_THREADS",
                                                         "OPENBLAS_NUM_THREADS",
                                                         "MKL_NUM_THREADS")},
                     "jobs": 1, "workload": workload, "seed": seed,
                     "src_lines": src_lines(),
                     "configs": [c.read_text().strip().splitlines() for c in configs]}
        print("env " + json.dumps(env_block, sort_keys=True))

        reps, error = [], None
        min_reps = 4 if trace else 3
        started = time.monotonic()
        while True:
            elapsed = time.monotonic() - started
            typical = statistics.median(r["wall_s"] for r in reps) if reps else 0.0
            # Start a repetition only if it should end by the deadline, give or
            # take half a repetition.  Keep at least two, so that a traced run
            # has one of each kind, unless repetitions have become very slow.
            if len(reps) >= min_reps and elapsed + typical / 2 > seconds:
                break
            if len(reps) >= 2 and elapsed + typical > LAST_START_S:
                break
            try:
                rep = run_repetition(configs, trace and len(reps) % 2 == 1, work, env)
                first = reps[0] if reps else rep
                if rep["digests"] != first["digests"]:
                    changed = sorted(k for k in set(rep["digests"]) | set(first["digests"])
                                     if rep["digests"].get(k) != first["digests"].get(k))
                    raise GateError(f"artifact bytes differ from repetition 1: {changed}")
                if [v[:2] for v in rep["verdicts"]] != [v[:2] for v in first["verdicts"]]:
                    raise GateError("verdict outcomes differ from repetition 1")
            except GateError as err:
                error = f"repetition {len(reps) + 1}: {err}"
                break
            reps.append(rep)
            print(f"rep {len(reps)} {'traced' if rep['traced'] else 'plain '} "
                  f"exit={rep['exit_codes']} setup_s={rep['setup_s']:.4f} "
                  f"time_to_verdict_s={rep['time_to_verdict_s']:.4f} "
                  f"(raw {rep['setup_raw_s']:.4f} / {rep['time_to_verdict_raw_s']:.4f}) "
                  f"peak_rss_mb={rep['peak_rss_mb']:.1f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    traced = [r for r in reps if r["traced"]]
    if traced:
        path = WORK / f"trace-{workload}.json"
        path.write_text(json.dumps(traced[-1]["trace"]))
        print(f"spans and counters of the last traced repetition: {path.relative_to(ROOT)}")
    return report(reps, error, trace)


def self_shares(traced: list[dict]) -> list[tuple[str, float]]:
    """Each traced name's self time as a share of traced wall time (median)."""
    names = sorted({name for r in traced for name in r["trace"]["stats"]})
    shares = {name: statistics.median(r["trace"]["stats"].get(name, [0, 0.0, 0.0])[2]
                                      / r["time_to_verdict_raw_s"] for r in traced)
              for name in names}
    return sorted(shares.items(), key=lambda kv: -kv[1])


def report(reps: list[dict], error: str | None, trace: bool) -> int:
    n_verdicts = sum(len(r["verdicts"]) for r in reps)
    failed_verdicts = sum(not v[1] for r in reps for v in r["verdicts"])
    failed_reps = 1 if error else 0
    attempted_reps = len(reps) + failed_reps
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = {}
    if not error and not trace:
        for name, unit in END_TO_END.items():
            values = [r[name] for r in plain]
            q1, q2, q3 = quartiles(values)
            metrics[name] = {"value": q2, "unit": unit}
            note = (f"; raw median {statistics.median(r[RAW[name]] for r in plain):.6g} s"
                    if name in RAW else "")
            print(f"{name} {q2:.6g} {unit} (median of {len(values)}; "
                  f"quartiles {q1:.6g} .. {q3:.6g}{note})")
    elif not error:
        layers = per_layer_metrics(plain, traced)
        for name, share in self_shares(traced):
            if share > 0:
                print(f"self share {name} {share:.4f}")
        if layers["trace.unaccounted_share"] >= MAX_UNACCOUNTED:
            error = (f"traced run: layers leave {layers['trace.unaccounted_share']:.1%} "
                     f"of wall time unaccounted (limit {MAX_UNACCOUNTED:.0%})")
        else:
            metrics = {name: {"value": v, "unit": PER_LAYER[name]}
                       for name, v in layers.items()}
            for name, m in metrics.items():
                print(f"{name} {m['value']:.6g} {m['unit']}")
    if error:
        print(f"GATE FAILED {error}")
    if reps:
        for name, passed, value, threshold in reps[0]["verdicts"]:
            print(f"verdict {'PASS' if passed else 'FAIL'} {name} value={value} "
                  f"threshold={threshold}")
    share = (failed_verdicts + failed_reps) / max(n_verdicts + attempted_reps, 1)
    print(f"failed_share {share:.6g} ratio ({failed_verdicts} of {n_verdicts} verdicts "
          f"failed; {failed_reps} of {attempted_reps} repetitions failed the gate)")
    print(json.dumps({"correct": error is None, "attempted": max(attempted_reps, 1),
                      "failed": 1 if error else 0, "metrics": metrics}))
    return 1 if error else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())

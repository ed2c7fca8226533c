"""One benchmark repetition, run in a fresh interpreter.

Usage: python3 child.py JOB.json

The job names config files, one output directory per config, a result path,
and whether to trace.  The child imports ``stochflow.cli``, validates every
config (that ends set-up), then runs each config through ``cli.main`` exactly
as the ``stochflow`` command would.  It writes clock stamps, exit codes,
calibration times, peak resident memory and (when traced) the layer trace to
the result path.
Clock stamps use ``time.monotonic``, which is system-wide on Linux, so the
parent can subtract its own stamp taken before it started this process.
"""

import contextlib
import io
import json
import resource
import sys
import time

MASK64 = (1 << 64) - 1


def calibrate() -> float:
    """Seconds for a fixed reference computation that uses no stochflow code.

    The mix resembles the program's own: Python integer mixing, many small
    numpy and scipy calls, and small sorts.  It takes about 0.2 s on a 2-core
    host; shorter versions were too noisy.  The benchmark divides its run
    timings by this, so that the host's speed drifting between runs (other
    tenants, frequency) cancels out of the reported figures.
    """
    import numpy as np
    from scipy.special import ndtri

    start = time.perf_counter()
    x = 0x243F6A8885A308D3
    for i in range(250000):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 + i) & MASK64
    base = np.arange(64, dtype=np.uint64)
    for i in range(13000):
        keys = (base ^ np.uint64(i)) * np.uint64(0x9E3779B97F4A7C15)
        ndtri(((keys >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
    data = np.random.default_rng(0).random(20000)  # small: must not raise peak RSS
    for _ in range(33):
        np.sort(data)
    return time.perf_counter() - start


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import_start = time.monotonic()
    import stochflow.cli as cli
    imported = time.monotonic()

    tracer = None
    if job["trace"]:
        import layertrace
        tracer = layertrace.install()

    for path in job["configs"]:
        with open(path) as fh:
            problem = cli.validate_config(cli.parse_config_text(fh.read()))
        if problem:
            print(f"invalid benchmark config {path}: {problem}", file=sys.stderr)
            return 2
    setup_done = time.monotonic()
    cal_before = calibrate() if job["run"] else 0.0

    run_start = time.monotonic()
    codes = []
    sink = io.StringIO()
    if job["run"]:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for path, out in zip(job["configs"], job["outs"]):
                codes.append(cli.main(["--config", path, "--out", out]))
    done = time.monotonic()
    cal_after = calibrate() if job["run"] else 0.0

    import numpy
    import scipy

    result = {
        "import_start": import_start,
        "imported": imported,
        "setup_done": setup_done,
        "run_start": run_start,
        "done": done,
        "calibration_s": [cal_before, cal_after],
        "exit_codes": codes,
        "output": sink.getvalue()[-2000:],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["trace"] = layertrace.finish(tracer)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))

"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest bench/tests -q

Every workload runs once untraced and once traced, with the workload table
swapped for tiny configs.  The runner runs in this process; its repetitions
are still fresh child processes.  The test checks the metric names and units
against ``BENCHMARK.json``, the human-readable lines, the environment block
and the correctness gate.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = {
    "esm-ensemble": [{"kind": "esm-verify", "ensemble": 2, "particles": 16}],
    "noise-paths": [{"kind": "noise", "ensemble": 8, "intervals": 8}],
    "nse-spectral": [{"kind": "nse", "steps": 8, "lookbacks": "1,2"}],
    "geometry": [{"kind": "pullback", "particles": 256, "schedule.tol": 0.001},
                 {"kind": "attractor", "box_points": 64}],
}

sys.path.insert(0, str(ROOT / "bench"))
import run as bench_run  # noqa: E402


def run_bench(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(bench_run, "WORKLOADS", TINY)
    code = bench_run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace)])
    return code, capsys.readouterr().out.strip().splitlines()


def test_tiny_table_covers_every_workload():
    assert sorted(TINY) == sorted(WORKLOADS) == sorted(bench_run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(monkeypatch, capsys, workload):
    code, lines = run_bench(monkeypatch, capsys, workload, 0)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and f" {unit} (median of" in line
                   for line in lines[:-1]), name
    assert any(line.startswith("failed_share ") and " ratio (" in line for line in lines)
    assert any(line.startswith("verdict ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("nproc", "python", "numpy", "scipy", "thread_caps", "seed", "src_lines"):
        assert key in env, key
    assert env["seed"] == 3 and env["src_lines"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(monkeypatch, capsys, workload):
    # the gate also holds traced artifacts to the untraced bytes
    code, lines = run_bench(monkeypatch, capsys, workload, 1)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert any(line.startswith("self share cli.runner ") for line in lines)


def test_gate_rejects_bad_exit_code_and_inconsistent_summary(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text(json.dumps(
        {"passed": True, "verdicts": [{"name": "x", "passed": True}]}))
    digests, verdicts, total = bench_run.read_artifacts([out], [0])
    assert verdicts == [("x", True, None, None)] and total > 0 and len(digests) == 1
    with pytest.raises(bench_run.GateError):
        bench_run.read_artifacts([out], [2])
    with pytest.raises(bench_run.GateError):
        bench_run.read_artifacts([out], [1])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

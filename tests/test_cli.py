import ast
import errno
import filecmp
import importlib.util
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stochflow import cli, esm, wiener
from stochflow.cli import main, parse_config_text, run_experiment, validate_config
from stochflow.dyadic import DyadicTime
from stochflow.keyed import chain, chain_offsets
from stochflow.runners import noise as noise_runner, oracle as oracle_runner
from test_golden_artifacts import CONFIGS as GOLDEN_CONFIGS
from test_measure import _old_distance_1d, _table_rows


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_list_experiments(capsys):
    # one line per kind, the kind first, then each key=default of its table
    assert main(["--list-experiments"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(cli._TABLES)
    for line, (kind, table) in zip(lines, cli._TABLES.items()):
        listed = dict(token.split("=", 1) for token in line.split()[1:])
        assert list(listed) == list(table), kind
        for key, shown in listed.items():
            # each default, read back as a config line would be, is the default
            assert cli._checked(key, parse_config_text(f"{key} = {shown}")[key],
                                table[key]) == table[key], (kind, key)


def test_cli_import_leaves_scipy_spatial_unloaded():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys, stochflow.cli; print(sorted(m for m in sys.modules if 'scipy.spatial' in m))"
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


# the stochflow modules that validating each kind's config loads, beyond the
# package, ``cli`` and ``errors`` that ``import stochflow.cli`` loads
_PATHS = {"runners", "dyadic", "keyed", "wiener"}
_ESTIMATORS = _PATHS | {"flow_core", "measure", "esm"}
_SETUP_MODULES = {
    "noise": _PATHS | {"runners.noise"},
    "pullback": _ESTIMATORS | {"models", "models.linear", "runners.linear"},
    "attractor": _ESTIMATORS | {"runners.attractor"},
    "esm-verify": _ESTIMATORS | {"models", "models.linear", "runners.linear"},
    "oracle": _PATHS | {"flow_core", "finite_oracle", "runners.oracle"},
    "nse": _PATHS | {"flow_core", "models", "models.nse", "runners.nse"},
    "counterexamples": _PATHS | {"flow_core", "finite_oracle", "runners.oracle"},
}
_LOADED = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("stochflow", "scipy"))
import stochflow.cli as cli
at_import = loaded()
cfg = json.loads(sys.argv[1])
assert cli.validate_config(cfg) is None
at_setup = loaded()
cli.run_experiment(cfg)
print(json.dumps([at_import, at_setup, loaded()]))
"""


@pytest.mark.parametrize("kind", sorted(_SETUP_MODULES))
def test_setup_loads_the_kinds_modules_and_the_run_loads_none(kind):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    cfg = {"kind": kind, "seed": 1, **_TINY[kind]}
    if kind == "esm-verify":  # at depth 2 the probes do not collapse, and the run is refused
        cfg["depth"] = 7
    run = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(cfg)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    at_import, at_setup, after_run = json.loads(run.stdout)
    base = {"stochflow", "stochflow.cli", "stochflow.errors"}
    assert set(at_import) == base
    assert {m for m in at_setup if m.startswith("stochflow")} == \
        base | {f"stochflow.{m}" for m in _SETUP_MODULES[kind]}
    assert after_run == at_setup


def test_layer_tracer_finds_every_name_it_wraps():
    # the benchmark's traced runs wrap stochflow functions and methods by name;
    # then every stochflow import of bench/ and tools/ resolves, so a name they
    # read that leaves src/ fails here, not in a benchmark run
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    imports = []
    for folder in ("bench", "tools"):
        for name in sorted(os.listdir(os.path.join(root, folder))):
            if name.endswith(".py"):
                with open(os.path.join(root, folder, name)) as fh:
                    tree = ast.parse(fh.read())
                imports += [ast.unparse(node) for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom)
                            and (node.module or "").split(".")[0] == "stochflow"]
    assert len(imports) >= 5, imports
    code = "\n".join(["import stochflow.cli, layertrace", "layertrace.install()", *imports])
    path = os.pathsep.join(os.path.join(root, d) for d in ("src", "bench"))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_seed_sweep_ratio_is_the_distance_from_the_target():
    # a two-sided check that records no target is centred at 0: its ratio is a magnitude
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "seed_sweep.py")
    spec = importlib.util.spec_from_file_location("seed_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.ratio(cli.Verdict("corr", False, -0.125, 0.0625)) == 2.0
    assert sweep.ratio(cli.Verdict("corr", True, 0.03125, 0.0625)) == 0.5
    assert sweep.ratio(cli.Verdict("band", True, 0.75, 0.5, target=1.0)) == 0.5
    assert sweep.ratio(cli.Verdict("band", False, 2.0, 0.5, target=1.0)) == 2.0
    assert sweep.ratio(cli.Verdict("flag", True)) is None
    assert sweep.ratio(cli.Verdict("zero", True, 1.0, 0.0)) is None


def test_each_rule_passes_at_its_bound_and_fails_on_nan():
    nan, up = float("nan"), lambda x: np.nextafter(x, np.inf)
    assert cli.Verdict.at_most("m", 0.1, 0.1).passed
    assert not cli.Verdict.at_most("m", up(0.1), 0.1).passed
    assert cli.Verdict.within("band", 1.5, 0.5, target=1.0).passed
    assert cli.Verdict.within("band", 0.5, 0.5, target=1.0).passed
    assert not cli.Verdict.within("band", up(1.5), 0.5, target=1.0).passed
    assert cli.Verdict.within("corr", -0.0625, 0.0625).passed
    assert not cli.Verdict.within("corr", up(0.0625), 0.0625).passed
    assert not cli.Verdict.above("a", 0.1, 0.1).passed  # equality fails
    assert cli.Verdict.above("a", up(0.1), 0.1).passed
    for verdict in (cli.Verdict.at_most("m", nan, 1.0), cli.Verdict.at_most("m", 0.0, nan),
                    cli.Verdict.within("band", nan, 0.5, target=1.0),
                    cli.Verdict.within("band", 1.0, 0.5, target=nan),
                    cli.Verdict.within("band", 1.0, nan, target=1.0),
                    cli.Verdict.within("corr", nan, 0.05), cli.Verdict.above("a", nan, 0.0),
                    cli.Verdict.above("a", 1.0, nan)):
        assert verdict.passed is False, verdict


def test_within_with_no_target_is_centred_on_zero_and_records_none():
    verdict = cli.Verdict.within("wiener.disjoint_interval_corr", -0.03, 0.05)
    assert verdict.passed and verdict.target is None
    assert "target" not in verdict.to_dict()
    assert not cli.Verdict.within("wiener.disjoint_interval_corr", 0.97, 0.05).passed


# each rule next to the verdict the runners built by hand before it, same numbers
_RULES_AND_HAND_BUILT = [
    (cli.Verdict.within("wiener.w1_variance", 1.03, 0.06, target=1.0),
     cli.Verdict("wiener.w1_variance", 0.94 <= 1.03 <= 1.06, 1.03, 0.06, target=1.0)),
    (cli.Verdict.within("wiener.w1_variance", 0.9, 0.06, target=1.0),
     cli.Verdict("wiener.w1_variance", 0.94 <= 0.9 <= 1.06, 0.9, 0.06, target=1.0)),
    (cli.Verdict.within("wiener.disjoint_interval_corr", -0.07, 0.05),
     cli.Verdict("wiener.disjoint_interval_corr", abs(-0.07) <= 0.05, -0.07, 0.05)),
    (cli.Verdict.within("wiener.ou_autocorr_lag1", 0.4, 0.05, target=float(np.exp(-1.0))),
     cli.Verdict("wiener.ou_autocorr_lag1", abs(0.4 - float(np.exp(-1.0))) <= 0.05, 0.4, 0.05,
                 target=float(np.exp(-1.0)))),
    (cli.Verdict.at_most("esm.periodicity", np.float64(0.012), np.float64(0.02)),
     cli.Verdict("esm.periodicity", np.float64(0.012) <= np.float64(0.02), np.float64(0.012),
                 np.float64(0.02))),
    (cli.Verdict.at_most("models.absorbing_radius_agreement", 0.07, 0.05, note="t_star=4"),
     cli.Verdict("models.absorbing_radius_agreement", 0.07 <= 0.05, 0.07, 0.05,
                 note="t_star=4")),
    (cli.Verdict.at_most("esm.attractor_invariance", 0.01, 2 * 1),
     cli.Verdict("esm.attractor_invariance", 0.01 <= 2 * 1, 0.01, 2 * 1)),
    (cli.Verdict.above("esm.residual_rejects_wrong_family", 0.04, 0.43),
     cli.Verdict("esm.residual_rejects_wrong_family", 0.04 > 0.43, 0.04, 0.43)),
]


@pytest.mark.parametrize("rule, by_hand", _RULES_AND_HAND_BUILT,
                         ids=[f"{rule.name}-{rule.value}" for rule, _ in _RULES_AND_HAND_BUILT])
def test_each_rule_records_what_the_hand_built_verdict_did(rule, by_hand):
    assert rule.to_dict() == by_hand.to_dict()
    assert json.dumps(rule.to_dict()) == json.dumps(by_hand.to_dict())


def test_parse_config_text():
    cfg = parse_config_text("""
    # comment
    kind = pullback
    seed = 7
    model.rate = 0.5
    schedule.depth = 4
    flag = true
    """)
    assert cfg["kind"] == "pullback"
    assert cfg["seed"] == 7
    assert cfg["model.rate"] == 0.5
    assert cfg["flag"] is True


def test_repeated_key_names_both_lines():
    with pytest.raises(ValueError, match="line 4: 'seed = 2' repeats key 'seed' of line 2"):
        parse_config_text("kind = oracle\nseed = 1\n# the seed again\nseed = 2\n")


def test_seed_of_a_wrong_type_is_refused():
    # the refusal table's seed rows repeat the key; this is the type check alone
    for val in (True, 2.5, "x"):
        assert "'seed' must be an integer" in validate_config({"kind": "oracle", "seed": val})


@pytest.mark.parametrize("route", ["flag", "key"])
def test_unwritable_output_dir_exits_2_with_one_error_line(tmp_path, capsys, route):
    (tmp_path / "notadir").write_text("a regular file\n")
    out = str(tmp_path / "notadir" / route)
    text = "kind = counterexamples\nseed = 1\n"
    path = _write(tmp_path, "c.cfg", text if route == "flag" else f"{text}out = {out}\n")
    assert main(["--config", path] + (["--out", out] if route == "flag" else [])) == 2
    captured = capsys.readouterr()
    line, = captured.err.splitlines()
    assert line.startswith("error: ") and repr(out) in line, line
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["c.cfg", "notadir"]


def test_fail_lines_name_their_bounds(tmp_path, capsys):
    # a tiny noise run fails four checks, three of them two-sided bands with a target
    path = _write(tmp_path, "n.cfg", "kind = noise\nseed = 1\nensemble = 8\nintervals = 4\n")
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out)]) == 1
    failed = [v for v in json.loads((out / "summary.json").read_text())["verdicts"]
              if not v["passed"]]
    lines = [line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL")]
    assert len(lines) == len(failed) == 4 and sum("target" in v for v in failed) == 3
    for (_, name, *fields), v in zip(lines, failed):
        assert name == v["name"]
        assert {key: float(val) for key, val in (f.split("=") for f in fields)} == {
            key: v[key] for key in ("value", "threshold", "target") if key in v}


def test_unknown_kind_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.cfg", "kind = frobnicate\nseed = 1\n")
    assert main(["--config", path]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_unknown_key_named(tmp_path, capsys):
    path = _write(tmp_path, "bad.cfg", "kind = oracle\nseed = 1\nbogus.key = 3\n")
    assert main(["--config", path]) == 2
    assert "bogus.key" in capsys.readouterr().err


def test_missing_seed_rejected():
    assert validate_config({"kind": "oracle"}) is not None


def test_oracle_experiment_passes(tmp_path, capsys):
    path = _write(tmp_path, "oracle.cfg", "kind = oracle\nseed = 3\n")
    out_dir = str(tmp_path / "out")
    assert main(["--config", path, "--out", out_dir]) == 0
    stdout = capsys.readouterr().out
    assert "PASS finite_oracle.conditional_expectation" in stdout
    assert os.path.exists(os.path.join(out_dir, "summary.json"))


def test_counterexamples_experiment(tmp_path, capsys):
    path = _write(tmp_path, "c.cfg", "kind = counterexamples\nseed = 1\n")
    assert main(["--config", path]) == 0
    stdout = capsys.readouterr().out
    for name in ("remark-attractor", "remark-shift", "remark-identity"):
        assert f"PASS finite_oracle.{name}" in stdout


def test_pullback_run_writes_tables_and_is_deterministic(tmp_path):
    text = ("kind = pullback\nseed = 11\nparticles = 128\n"
            "schedule.depth = 5\nmodel.rate = 0.5\nmodel.sigma = 0.3\n")
    path = _write(tmp_path, "p.cfg", text)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["--config", path, "--out", out_a]) == 0
    assert main(["--config", path, "--out", out_b]) == 0
    for name in ("summary.json", "distances.csv", "measure.tsv"):
        assert filecmp.cmp(os.path.join(out_a, name), os.path.join(out_b, name),
                           shallow=False)


def test_failed_write_leaves_every_file_whole_and_no_temp_file(tmp_path, monkeypatch):
    # the second table's write stops halfway with a full disk: each file keeps
    # its old bytes or has its new ones, summary.json (written last) its old
    out_dir = tmp_path / "out"
    old = cli.RunReport("oracle", {"seed": 1}, tables={"a.csv": "old a\n", "b.csv": "old b\n"})
    cli.write_outputs(old, str(out_dir))
    new = cli.RunReport("oracle", {"seed": 2},
                        tables={"a.csv": "new a\n", "b.csv": "new b\n" * 1000})

    def failing_open(path, mode="r"):
        fh = open(path, mode)
        if "b.csv" in os.path.basename(path):
            def half_then_full_disk(text):
                type(fh).write(fh, text[:len(text) // 2])
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")
            fh.write = half_then_full_disk
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        cli.write_outputs(new, str(out_dir))
    assert {path.name: path.read_text() for path in out_dir.iterdir()} == {
        "a.csv": "new a\n", "b.csv": "old b\n", "summary.json": old.summary_json()}


def test_seed_override_changes_measure(tmp_path):
    text = ("kind = pullback\nseed = 11\nparticles = 64\nschedule.depth = 5\n")
    path = _write(tmp_path, "p.cfg", text)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["--config", path, "--out", out_a]) == 0
    assert main(["--config", path, "--seed", "12", "--out", out_b]) == 0
    assert not filecmp.cmp(os.path.join(out_a, "measure.tsv"),
                           os.path.join(out_b, "measure.tsv"), shallow=False)


def test_collapsing_pullback_writes_the_reference_tables(tmp_path):
    # the contracting flow collapses the deep-start measures onto few points
    path = _write(tmp_path, "p.cfg",
                  "kind = pullback\nseed = 1\nparticles = 4096\nschedule.tol = 0.001\n")
    results, pairs = [], []
    pullback_measure, distance = esm.pullback_measure, esm.distance

    def measure_spy(*args):
        results.append(pullback_measure(*args))
        return results[-1]

    def distance_spy(mu, nu):
        pairs.append((mu, nu))
        return distance(mu, nu)

    out = tmp_path / "out"
    with mock.patch.object(esm, "pullback_measure", measure_spy), \
            mock.patch.object(esm, "distance", distance_spy):
        assert main(["--config", path, "--out", str(out)]) in (0, 1)
    (mu, _diag), = results
    assert np.unique(mu.particles).size < mu.size
    assert (out / "measure.tsv").read_text() == _table_rows(mu)
    rows = (out / "distances.csv").read_text().splitlines()[1:]
    got = np.array([float(row.split(",")[1]) for row in rows])
    want = np.array([_old_distance_1d(a, b) for a, b in pairs])
    assert len(rows) == 5 and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_writing_a_collapsed_measure_never_holds_its_text_twice(tmp_path):
    # from the pulled-back measure's return through the write, the live peak
    # stays below twice the size of measure.tsv: a whole text held in the
    # report and encoded whole once more for the write reaches that on its own
    n = 1 << 16
    cfg = {"kind": "pullback", "seed": 11, "particles": n, "schedule.tol": 0.001}
    pullback_measure = esm.pullback_measure

    def measure_spy(*args):
        result = pullback_measure(*args)
        tracemalloc.reset_peak()
        return result

    with mock.patch.object(esm, "pullback_measure", measure_spy):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli.write_outputs(run_experiment(cfg), str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    text = (tmp_path / "measure.tsv").stat().st_size
    assert np.unique((tmp_path / "measure.tsv").read_text().splitlines()).size < n // 8
    assert peak < 2 * text


def test_attractor_experiment(tmp_path, capsys):
    path = _write(tmp_path, "a.cfg",
                  "kind = attractor\nseed = 5\nschedule.depth = 6\nbox_points = 17\n")
    assert main(["--config", path]) == 0
    stdout = capsys.readouterr().out
    assert "PASS esm.attractor_converged" in stdout
    assert "PASS esm.attractor_invariance" in stdout


def test_run_experiment_rejects_unknown_kind():
    from stochflow.errors import StochFlowError
    with pytest.raises(StochFlowError):
        run_experiment({"kind": "nope", "seed": 1})


@pytest.mark.parametrize("text", [
    "kind = noise\nseed = 11\nensemble = 100\nintervals = 50\n",
    "kind = esm-verify\nseed = 12\nensemble = 16\nparticles = 100\ndepth = 6\n",
], ids=["noise", "esm-verify"])
def test_output_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, text):
    # the two kinds whose ensembles run along the realization axis, at the
    # golden-artifact sizes; blocks of one row take the one-realization path
    path = _write(tmp_path, "run.cfg", text)
    outs = []
    for block in (1, 1 << 40):
        monkeypatch.setattr(wiener, "BLOCK_VALUES", block)
        outs.append(tmp_path / f"block{block}")
        assert main(["--config", path, "--out", str(outs[-1])]) in (0, 1)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and "summary.json" in names
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


@pytest.mark.parametrize("intervals", [200, 5000])
def test_refinement_check_makes_one_fill_per_level_and_grid(intervals):
    # ten levels, each one coarse and one child query of one fill, whatever
    # the number of intervals; the run's other three queries (W(1), the [0, 2]
    # increments, the OU points, which take one query) take one fill each at
    # this ensemble size
    cfg = {"kind": "noise", "seed": 1, "ensemble": 8, "intervals": intervals}
    with mock.patch.object(wiener, "_fill", wraps=wiener._fill) as fill:
        report = run_experiment(cfg)
    assert fill.call_count <= 2 * 10 + 3
    check = next(v for v in report.verdicts if v.name == "wiener.refinement_bit_exact")
    assert check.passed and check.value == intervals


def test_noise_ou_points_fill_each_interval_once():
    # both OU points (t = 0 and 1) read one history per row over [-19, 1]
    fills = []

    def ou_grid(*args):
        with mock.patch.object(wiener, "_fill", wraps=wiener._fill) as fill:
            out = wiener.ou_grid(*args)
        fills.extend(fill.call_args_list)
        return out

    cfg = {"kind": "noise", "seed": 1, "ensemble": 300, "intervals": 200}
    with mock.patch.object(noise_runner, "ou_grid", side_effect=ou_grid) as ou:
        run_experiment(cfg)
    assert ou.call_count == 1
    filled = Counter((o, n, c.args[4]) for c in fills for o in c.args[0]
                     for n in range(c.args[2], c.args[3]))
    assert max(filled.values()) == 1
    assert sorted({(n, lv) for _, n, lv in filled}) == [(n, 6) for n in range(-19, 1)]
    assert len(filled) == 300 * 20


@pytest.mark.parametrize("intervals", [200, 5000])
def test_refinement_pairs_match_per_interval_queries(intervals):
    # the run's draw of levels and starts, plus the hull's edge starts -512
    # and 511 at levels 0 and 9, against two one-row queries per interval
    keys = chain_offsets(chain(1, 0xA11CE), np.arange(3 * intervals)).reshape(intervals, 3)
    lvs = np.concatenate((keys[:, 0] % 10, [0, 0, 9, 9]))
    starts = np.concatenate(((keys[:, 1] % 1024).astype(np.int64) - 512, [-512, 511] * 2))
    omega = wiener.NoiseRealization(1, 0)
    coarse, children = noise_runner._refinement_pairs(omega, lvs, starts)
    for lv, k, got, halves in zip(map(int, lvs), map(int, starts), coarse, children):
        s, e = DyadicTime(k, lv), DyadicTime(k + 1, lv)
        assert got == wiener.increments(omega, 0, s, e, lv)[0]
        assert np.array_equal(halves, wiener.increments(omega, 0, s, e, lv + 1))


def test_unexpected_error_exits_3_with_one_stderr_line(tmp_path, capsys):
    # a fault inside a run is not a failed check (1) nor a bad config (2)
    def broken(cfg, report):
        raise RuntimeError("boom")

    path = _write(tmp_path, "run.cfg", "kind = oracle\nseed = 1\n")
    with mock.patch.object(oracle_runner, "run_oracle", broken):
        assert main(["--config", path]) == 3
        with pytest.raises(RuntimeError):  # Python callers still get the exception
            run_experiment({"kind": "oracle", "seed": 1})
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: RuntimeError: boom"]


def test_jobs_flag_is_gone_and_jobs_key_is_ignored(tmp_path, capsys):
    path = _write(tmp_path, "run.cfg", "kind = oracle\nseed = 1\ndepth = 4\njobs = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", path, "--jobs", "2"])
    assert exc.value.code == 2
    assert main(["--config", path]) == 0


def test_nse_lookback_order_does_not_change_verdicts():
    # lookback 32 settles (gap 2.6e-4), lookback 8 does not (gap 0.31): the
    # check must read the deepest start and t_star the shallowest that settles,
    # whatever order the config lists them in
    base = {"kind": "nse", "seed": 21, "resolution": 8, "level": 5, "steps": 8}
    up = run_experiment({**base, "lookbacks": "8,16,32"})
    down = run_experiment({**base, "lookbacks": "32,16,8"})
    verdicts = [[(v.name, v.passed, v.value, v.threshold, v.note) for v in rep.verdicts]
                for rep in (up, down)]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][-1][1] is True
    assert verdicts[0][-1][-1] == "t_star=16"
    assert up.tables["absorbing.csv"] == down.tables["absorbing.csv"]


def _assert_rejected(tmp_path, capsys, kind, line, key):
    path = _write(tmp_path, "bad.cfg", f"kind = {kind}\nseed = 1\n{line}\n")
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) == 2, line
    err = capsys.readouterr().err
    assert key in err and line.split("= ")[1] in err, err
    assert "Traceback" not in err
    assert not out_dir.exists()


_BAD_SIZES = [
    ("nse", "lookbacks = 8,x", "lookbacks"),
    ("nse", "lookbacks = 0", "lookbacks"),
    ("nse", "lookbacks = 8,-4", "lookbacks"),
    ("nse", "lookbacks = 8.5", "lookbacks"),
    ("nse", "steps = 0", "steps"),
    ("nse", "steps = 2.5", "steps"),
    ("nse", "resolution = abc", "resolution"),
    ("nse", "resolution = 6", "resolution"),
    ("nse", "level = 5.5", "level"),
    ("nse", "viscosity = abc", "viscosity"),
    # values of the right type and floor that the model refuses
    ("nse", "resolution = 9", "resolution"),
    ("nse", "level = 0", "level"),
    ("nse", "level = 3", "level"),
    ("nse", "ou_rate = 0", "ou_rate"),
    ("nse", "viscosity = 0", "viscosity"),
    ("pullback", "particles = -5", "particles"),
    ("pullback", "particles = 2.5", "particles"),
    ("pullback", "schedule.depth = 2.5", "schedule.depth"),
    ("attractor", "box_points = -3", "box_points"),
    ("attractor", "box_points = abc", "box_points"),
    ("attractor", "box_radius = 1e+308", "box_radius"),
    ("esm-verify", "particles = 0", "particles"),
    ("noise", "level = 5.5", "level"),
    ("noise", "ensemble = -2", "ensemble"),
    ("noise", "intervals = -1", "intervals"),
    ("pullback", "model.level = 2.5", "model.level"),
    ("pullback", "anchor = 0.3", "anchor"),
    ("pullback", "schedule.tol = nan", "schedule.tol"),
    # a tolerance that no strict convergence test can stay under
    ("pullback", "schedule.tol = 0", "schedule.tol"),
    ("attractor", "schedule.tol = -1", "schedule.tol"),
    ("esm-verify", "depth = 2.5", "depth"),
    ("esm-verify", "depth = 1", "depth"),
    # a schedule too shallow for the probes to collapse
    ("esm-verify", "depth = 2", "depth"),
    ("pullback", "model.rate = 0", "model.rate"),
    ("noise", "ou_rate = 0", "ou_rate"),
    ("noise", "level = 40", "level"),
    ("oracle", "depth = -1", "depth"),
    ("oracle", "seed = true", "seed"),
    # refusals raised while the run steps or enumerates
    ("pullback", "model.level = 40", "model.level"),
    ("attractor", "model.level = 40", "model.level"),
    ("oracle", "depth = 40", "depth"),
    ("nse", "noise_amp = 1000000.0", "noise_amp"),
    # a rate whose cutoff history leaves the path horizon
    ("noise", "ou_rate = 1e-308", "ou_rate"),
    ("nse", "ou_rate = 1e-308", "ou_rate"),
    ("noise", "ou_rate = 0.0001", "ou_rate"),
    # a rate whose stationary variance 1 / (2 * rate) underflows to 0
    ("noise", "ou_rate = 1e+308", "ou_rate"),
    ("nse", "ou_rate = 1e+308", "ou_rate"),
    # run_attractor reads no linear-model key but the grid level
    ("attractor", "model.rate = 7", "model.rate"),
    # a time past the path horizon, named by the key that sets it
    ("nse", "steps = 4200000", "steps"),
    ("nse", "lookbacks = 70000", "lookbacks"),
    ("pullback", "anchor = 70000", "anchor"),
    ("esm-verify", "anchor = 70000", "anchor"),
    # absorbing.csv would hold the repeated row twice
    ("nse", "lookbacks = 4,4,2", "lookbacks"),
    # a sample variance of one draw
    ("noise", "ensemble = 1", "ensemble"),
    # a span past the path horizon, refused before the linear model's grid
    ("pullback", f"schedule.coeff = {2**63}", "schedule.coeff"),
    ("pullback", f"schedule.coeff = {10**30}", "schedule.coeff"),
    ("pullback", f"anchor = {10**30}", "anchor"),
    # a deepest start past the float range
    ("attractor", "schedule.depth = 1025", "schedule.depth"),
    # a key given twice: seed = 1 is on line 2
    ("oracle", "seed = 2", "seed"),
]


# the ids of the nse rows, the first cases here, leave out the kind
@pytest.mark.parametrize("kind, line, key", _BAD_SIZES, ids=[
    f"{line}-{key}" if kind == "nse" else f"{kind}-{line}-{key}" for kind, line, key in _BAD_SIZES])
def test_bad_nse_sizes_exit_2(tmp_path, capsys, kind, line, key):
    _assert_rejected(tmp_path, capsys, kind, line, key)


def test_esm_verify_takes_an_ensemble_of_one(tmp_path, capsys):
    # noise refuses one realization; esm-verify's checks need no sample variance
    path = _write(tmp_path, "run.cfg", "kind = esm-verify\nseed = 1\nensemble = 1\n"
                  "particles = 20\ndepth = 6\n")
    assert main(["--config", path]) in (0, 1)
    assert capsys.readouterr().err.startswith("# wall-clock")


def _address_space_limit():
    limit = 1536 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("kind, key, val", [("esm-verify", "depth", 2**63),
                                            ("pullback", "schedule.depth", 10**12),
                                            ("attractor", "schedule.depth", 10**12)])
def test_huge_depth_is_refused_before_any_start_is_built(tmp_path, kind, key, val):
    # one start per unit of depth would exhaust memory first; the child runs
    # under an address-space limit, so a regression fails here as exit 3
    path = _write(tmp_path, "run.cfg", f"kind = {kind}\nseed = 1\n{key} = {val}\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    run = subprocess.run([sys.executable, "-m", "stochflow.cli", "--config", path],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True, timeout=120, preexec_fn=_address_space_limit)
    assert run.returncode == 2, run.stderr
    assert run.stderr.splitlines() == [run.stderr.strip()]
    assert f"{key!r} = {val}" in run.stderr


@pytest.mark.parametrize("key", ["forcing_amp", "noise_amp"])
def test_nse_blow_up_writes_one_stderr_line(tmp_path, capfd, key):
    # the guard judges the overflowing norms, so no numpy warning comes first
    path = _write(tmp_path, "nse.cfg", f"kind = nse\nseed = 1\n{key} = 1e300\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    run = subprocess.run([sys.executable, "-m", "stochflow.cli", "--config", path],
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 2
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1, err
    for name in ("viscosity", "forcing_amp", "noise_amp"):
        assert repr(name) in err, err
    assert f"{key!r} = 1e+300" in err


@pytest.mark.parametrize("res", [18, 32])
def test_nse_reaches_a_verdict_above_resolution_16(tmp_path, capsys, res):
    # the noise bound is exact at every size, so larger grids run to a verdict
    path = _write(tmp_path, "nse.cfg", f"kind = nse\nseed = 1\nresolution = {res}\n"
                  "steps = 2\nlookbacks = 1\n")
    out_dir = tmp_path / "out"
    assert main(["--config", path, "--out", str(out_dir)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    assert (out_dir / "energy.csv").read_text().count("\n") == 3


# a value of the wrong type for each type a table default can have
_WRONG_TYPE = {int: "2.5", float: "abc", tuple: "8.5", str: "5"}


def test_every_table_key_rejects_wrong_type_and_below_floor(tmp_path, capsys):
    cases = 0
    for kind, table in cli._TABLES.items():
        for key, default in {**cli._COMMON, **table}.items():
            lines = [f"{key} = {_WRONG_TYPE[type(default)]}"]
            floor = cli._FLOORS.get(key, 1)
            if type(default) is int and floor is not None:
                lines.append(f"{key} = {floor - 1}")
            for line in lines:
                _assert_rejected(tmp_path, capsys, kind, line, key)
                cases += 1
    assert cases > 2 * len(cli._TABLES)


# every float key of every kind at the edges of the double range
_EXTREMES = ("1e+308", "-1e+308", "1e-308")
_FLOAT_CASES = [(kind, key, val) for kind, table in cli._TABLES.items()
                for key, default in table.items() if type(default) is float
                for val in _EXTREMES]


@pytest.mark.parametrize("kind, key, val", _FLOAT_CASES,
                         ids=[f"{kind}-{key}={val}" for kind, key, val in _FLOAT_CASES])
def test_float_extremes_keep_the_exit_contract(tmp_path, capsys, kind, key, val):
    # at the golden-artifact sizes: a verdict with only the wall-clock line on
    # stderr, or a refusal on one line that names the key; never a warning
    path = _write(tmp_path, "run.cfg", f"{GOLDEN_CONFIGS[kind]}{key} = {val}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    lines = err.splitlines()
    assert len(lines) == 1, err
    if code == 2:
        assert f"{key!r} = {val}" in err, err
    else:
        assert code in (0, 1) and lines[0].startswith("# wall-clock"), err


_FLOAT_KEYS = sorted({(kind, key) for kind, key, _ in _FLOAT_CASES})


@pytest.mark.parametrize("kind, key", _FLOAT_KEYS, ids=[f"{k}-{key}" for k, key in _FLOAT_KEYS])
def test_float_key_given_a_huge_integer_exits_2_naming_the_key(tmp_path, capsys, kind, key):
    # 10**400 has no float: refused as a config error, not an OverflowError in the run
    path = _write(tmp_path, "run.cfg", f"kind = {kind}\nseed = 1\n{key} = {10**400}\n")
    assert main(["--config", path]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{key!r} must be a finite real number" in err, err


def test_an_integer_for_a_float_key_runs_as_its_float(tmp_path, capsys):
    # 10**300 reaches the run as 1e300, as its float spelling does; as an int it
    # used to reach np.exp, which raised a TypeError (exit 3)
    outcomes = []
    for val in (str(10**300), "1e300"):
        path = _write(tmp_path, "run.cfg", f"{GOLDEN_CONFIGS['noise']}ou_rate = {val}\n")
        outcomes.append((main(["--config", path]), capsys.readouterr().out))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 1, outcomes


# -- a fuzz of the exit contract over tiny configs of every kind -------------------

# Sizes small enough that any run of a drawn config takes milliseconds; a drawn
# value replaces one of these or a table default.
_TINY = {
    "noise": {"ensemble": 4, "intervals": 3, "level": 2},
    "pullback": {"particles": 8, "schedule.depth": 2, "model.level": 2},
    "attractor": {"box_points": 3, "schedule.depth": 2, "model.level": 2},
    "esm-verify": {"ensemble": 2, "particles": 4, "depth": 2, "model.level": 2},
    "oracle": {"depth": 3},
    "nse": {"resolution": 8, "steps": 2, "lookbacks": "1", "level": 4},
    "counterexamples": {},
}
_WRONG = st.sampled_from(["abc", "2.5", "true", "1,2", "", "-0.0"])
_HUGE_INTS = ["17", "40", str(2**63), str(-(2**63)), str(10**30)]
# keys that size a run: small and boundary values only, but for the oracle's
# depth, which is refused above 16 before any word is built
_SIZED = {key: st.integers(-1, 4).map(str) for key in
          ("ensemble", "intervals", "particles", "box_points", "steps", "schedule.depth", "depth")}
_ORACLE_DEPTH = st.integers(-1, 5).map(str) | st.sampled_from(_HUGE_INTS[:3])
_KEY_VALUES = {
    **_SIZED,
    "level": st.sampled_from(["-1", "0", "1", "2", "4", "21", "40", str(2**63)]),
    "model.level": st.sampled_from(["-1", "0", "1", "2", "4", "21", "40", str(2**63)]),
    "resolution": st.sampled_from(["7", "8", "9", "10"]),
    "lookbacks": st.sampled_from(["1", "1,2", "2,1", "0", "1,1", "-3", "8.5", "x", "70000"]),
}
_INTS = st.integers(-3, 3).map(str) | st.sampled_from(["70000", *_HUGE_INTS])
_FLOATS = st.sampled_from(["0", "0.5", "1.0", "-1.0", "2", "1e-308", "5e-324", "1e+308",
                           "-1e+308", "nan", "inf", "-inf"])


def _drawn_value(kind, key, default):
    if (kind, key) == ("oracle", "depth"):
        return _ORACLE_DEPTH | _WRONG
    if key in _KEY_VALUES:
        return _KEY_VALUES[key] | _WRONG
    return (_FLOATS if type(default) is float else _INTS) | _WRONG


_CONFIGS = st.sampled_from(sorted(cli._TABLES)).flatmap(lambda kind: st.tuples(
    st.just(kind),
    st.fixed_dictionaries({}, optional={  # no ``out``: a run here writes no files
        key: _drawn_value(kind, key, default)
        for key, default in {**cli._COMMON, **cli._TABLES[kind]}.items() if key != "out"}),
))


# derandomized: the same examples on every run, so the suite stays reproducible
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_CONFIGS)
def test_fuzzed_tiny_configs_keep_the_exit_contract(tmp_path, capsys, config):
    kind, drawn = config
    lines = {"seed": "1", **_TINY[kind], **drawn}
    text = f"kind = {kind}\n" + "".join(f"{key} = {val}\n" for key, val in lines.items())
    code = main(["--config", _write(tmp_path, "fuzz.cfg", text)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in err, text + err


import filecmp
import json
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from stochflow import cli, esm, wiener
from stochflow.cli import main, parse_config_text, run_experiment, validate_config
from stochflow.dyadic import DyadicTime
from stochflow.keyed import chain, chain_offsets
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


def test_layer_tracer_finds_every_name_it_wraps():
    # the benchmark's traced runs wrap stochflow functions and methods by name
    here = os.path.dirname(__file__)
    path = os.pathsep.join(os.path.join(here, os.pardir, d) for d in ("src", "bench"))
    code = "import stochflow.cli, layertrace; layertrace.install()"
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
    # the number of intervals; the run's other four queries (W(1), the [0, 2]
    # increments, two OU points) take one fill each at this ensemble size
    cfg = {"kind": "noise", "seed": 1, "ensemble": 8, "intervals": intervals}
    with mock.patch.object(wiener, "_fill", wraps=wiener._fill) as fill:
        report = run_experiment(cfg)
    assert fill.call_count <= 2 * 10 + 4
    check = next(v for v in report.verdicts if v.name == "wiener.refinement_bit_exact")
    assert check.passed and check.value == intervals


@pytest.mark.parametrize("intervals", [200, 5000])
def test_refinement_pairs_match_per_interval_queries(intervals):
    # the run's draw of levels and starts, plus the hull's edge starts -512
    # and 511 at levels 0 and 9, against two one-row queries per interval
    keys = chain_offsets(chain(1, 0xA11CE), np.arange(3 * intervals)).reshape(intervals, 3)
    lvs = np.concatenate((keys[:, 0] % 10, [0, 0, 9, 9]))
    starts = np.concatenate(((keys[:, 1] % 1024).astype(np.int64) - 512, [-512, 511] * 2))
    omega = wiener.NoiseRealization(1, 0)
    coarse, children = cli._refinement_pairs(omega, lvs, starts)
    for lv, k, got, halves in zip(map(int, lvs), map(int, starts), coarse, children):
        s, e = DyadicTime(k, lv), DyadicTime(k + 1, lv)
        assert got == wiener.increments(omega, 0, s, e, lv)[0]
        assert np.array_equal(halves, wiener.increments(omega, 0, s, e, lv + 1))


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
    ("esm-verify", "depth = 2.5", "depth"),
    ("esm-verify", "depth = 1", "depth"),
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
]


# the ids of the nse rows, the first cases here, leave out the kind
@pytest.mark.parametrize("kind, line, key", _BAD_SIZES, ids=[
    f"{line}-{key}" if kind == "nse" else f"{kind}-{line}-{key}" for kind, line, key in _BAD_SIZES])
def test_bad_nse_sizes_exit_2(tmp_path, capsys, kind, line, key):
    _assert_rejected(tmp_path, capsys, kind, line, key)


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

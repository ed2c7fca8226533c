"""Config-driven experiment runner.

Configs are flat ``key = value`` text with dotted section prefixes, checked
against their kind's table (``_TABLES``) before anything runs.  Runners, one
module per group of kinds in ``stochflow.runners``, read the resolved config;
``summary.json`` records it as given.  Every run is a
pure function of (config, seed): rerunning writes byte-identical output
files.  Wall-clock goes to stderr only, never into the artifacts.

Each ensemble is one path-store or estimator call along a realization axis,
in one process.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad config
(a repeated key, or an output directory that cannot be written, among them),
3 an unexpected error inside the run (one line on stderr names it).  Each
numeric check is one of three rules of ``Verdict``: ``at_most`` a bound,
``within`` a half-width of a target (0 when none is recorded), or ``above`` a
bound.  A FAIL line on stdout names the check's value and that rule's bound
(its threshold), and the target where one is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, HorizonError, StochFlowError

@dataclass
class Verdict:
    name: str
    passed: bool
    value: object = None
    threshold: object = None
    note: str = ""
    target: object = None  # the centre of a two-sided band; threshold is its half-width

    # the numeric checks' rules, each comparison written once; NaN fails every rule
    @classmethod
    def at_most(cls, name, value, bound, note=""):
        """Passes when ``value <= bound``."""
        return cls(name, bool(value <= bound), value, bound, note)

    @classmethod
    def within(cls, name, value, half_width, target=None):
        """Passes when ``|value - target| <= half_width``; no target: centred on 0."""
        passed = abs(value - (0.0 if target is None else target)) <= half_width
        return cls(name, bool(passed), value, half_width, target=target)

    @classmethod
    def above(cls, name, value, bound):
        """Passes when ``value > bound``: equality fails."""
        return cls(name, bool(value > bound), value, bound)

    def to_dict(self):
        out = {"name": self.name, "passed": bool(self.passed)}
        for key in ("value", "threshold", "target", "note"):
            val = getattr(self, key)
            if val not in (None, ""):
                out[key] = float(val) if isinstance(val, (int, float, np.floating)) and key != "note" else val
        return out


@dataclass
class RunReport:
    kind: str
    config: dict
    verdicts: list = field(default_factory=list)
    # name -> text content: a str, or an iterable of str pieces (read once) written in turn
    tables: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def summary_json(self) -> str:
        payload = {
            "kind": self.kind,
            "config": self.config,
            "passed": self.passed,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- config handling -----------------------------------------------------------

def parse_config_text(text: str) -> dict:
    """The keys and values of config text; a repeated key is refused."""
    out, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in first_line:
            raise ValueError(f"line {lineno}: {line!r} repeats key {key!r} of line "
                             f"{first_line[key]}")
        first_line[key] = lineno
        out[key] = _coerce(val)
    return out


def _coerce(val: str):
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        pass
    return val


# One table per kind: key -> default.  The default's type is the key's type:
# an int key takes an integer of at least _FLOORS.get(key, 1) (None: any), a
# float key a finite real (an integer is read as its float), and the tuple
# ``lookbacks`` comma-separated distinct positive integers, used in ascending
# order.  A bool is never a number.
_LINEAR = {"model.rate": 0.5, "model.sigma": 0.3, "model.level": 6, "model.forcing_amp": 1.0}
_TABLES = {
    "noise": {"ensemble": 10_000, "level": 6, "ou_rate": 1.0, "intervals": 1000},
    "pullback": {**_LINEAR, "schedule.depth": 6, "schedule.coeff": 2, "schedule.tol": 0.02,
                 "particles": 1 << 10, "realization": 0, "anchor": 0},
    "attractor": {"model.level": 6, "schedule.depth": 6, "schedule.tol": 0.02,
                  "box_radius": 1.0, "box_points": 33, "realization": 0, "anchor": 0,
                  "deterministic_rate": -1.0},
    "esm-verify": {**_LINEAR, "model.sigma": 1.0, "ensemble": 400, "particles": 2000,
                   "depth": 7, "anchor": 0},
    "oracle": {"depth": 12},
    "nse": {"viscosity": 0.2, "resolution": 16, "level": 6, "forcing_amp": 0.5,
            "noise_amp": 0.05, "ou_rate": 1.0, "steps": 128, "lookbacks": (8, 16, 32),
            "realization": 0},
    "counterexamples": {},
}
EXPERIMENTS = tuple(_TABLES)
# Every kind also takes these; ``seed`` must be given (no implicit randomness).
# ``jobs`` does nothing: it is still accepted because existing configs set it.
_COMMON = {"seed": 0, "jobs": 1, "out": ""}
_FLOORS = {"seed": None, "anchor": None, "level": 0, "model.level": 0, "realization": 0,
           "schedule.depth": 2, "resolution": 8}
# Each kind's module in ``stochflow.runners``, which holds its ``run_<kind>``.
# The module's imports are the kind's only dependencies; kinds that share them
# share a module.
_RUNNERS = {"noise": "noise", "pullback": "linear", "attractor": "attractor",
            "esm-verify": "linear", "oracle": "oracle", "nse": "nse",
            "counterexamples": "oracle"}


def _checked(key: str, val, default):
    """``val`` as a value of ``key``'s type; ConfigError names the key and value."""
    if isinstance(default, tuple):
        rule = "comma-separated distinct positive integers"
        try:
            lbs = tuple(sorted(int(x) for x in str(val).split(",")))
            if lbs[0] >= 1 and len(set(lbs)) == len(lbs):
                return lbs
        except ValueError:
            pass
    elif isinstance(default, int):
        floor = _FLOORS.get(key, 1)
        rule = "an integer" if floor is None else f"an integer >= {floor}"
        if type(val) is int and (floor is None or val >= floor):
            return val
    elif isinstance(default, float):
        rule = "a finite real number"
        if type(val) is int:
            try:
                return float(val)
            except OverflowError:  # an integer beyond the float range
                pass
        elif type(val) is float and np.isfinite(val):
            return val
    else:
        rule = "a path"
        if isinstance(val, str):
            return val
    raise ConfigError(f"{key!r} must be {rule}, got {_shown(val)}")


def _shown(val) -> str:
    """``val`` as a config line spells it."""
    if isinstance(val, tuple):
        return ",".join(map(str, val))
    return str(val).lower() if isinstance(val, bool) else repr(val)


def _runner(kind: str):
    """The function that runs ``kind``, from its module, imported on first use
    (by ``__import__``, which ``-X importtime`` reports, as it does ``import``)."""
    module = f"{__package__}.runners.{_RUNNERS[kind]}"
    __import__(module)
    return getattr(sys.modules[module], "run_" + kind.replace("-", "_"))


def _resolve(cfg: dict) -> dict:
    """``cfg`` checked against its kind's table, with the defaults filled in.
    Its kind's runner module is imported here, so that validation, not the
    run, pays for the kind's imports."""
    kind = cfg.get("kind")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind: {kind!r}")
    if "seed" not in cfg:
        raise ConfigError("config must carry an integer 'seed' (no implicit randomness)")
    table = {**_COMMON, **_TABLES[kind]}
    resolved = dict(table)
    for key, val in cfg.items():
        if key == "kind":
            continue
        if key not in table:
            raise ConfigError(f"unknown config key for kind {kind!r}: {key!r} = {_shown(val)}")
        resolved[key] = _checked(key, val, table[key])
    _runner(kind)
    return resolved


def _refused(cfg: dict, keys: tuple, make, times: tuple = ()):
    """``make()``; a model's refusal is raised again naming the keys it rests on,
    and a query past the path horizon naming ``times``, the keys that set the times."""
    try:
        return make()
    except StochFlowError as err:
        named = times if times and isinstance(err, HorizonError) else keys
        shown = ", ".join(f"{key!r} = {_shown(cfg[key])}" for key in named)
        raise ConfigError(f"{shown} refused by the model: {err}") from err


def validate_config(cfg: dict) -> str | None:
    """The first problem with ``cfg``, or None when its kind's table accepts it
    (its kind's runner module is then loaded)."""
    try:
        _resolve(cfg)
    except ConfigError as err:
        return str(err)
    return None


# -- experiments -----------------------------------------------------------------

def _fmt_rows(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def run_experiment(cfg: dict) -> RunReport:
    resolved = _resolve(cfg)
    report = RunReport(cfg["kind"], cfg)
    started = time.monotonic()
    # checks and refusals judge inf and NaN themselves, so numpy's warnings
    # would only add stderr lines; no value depends on them
    with np.errstate(all="ignore"):
        _runner(cfg["kind"])(resolved, report)
    report.wall_clock = time.monotonic() - started
    return report


def pieces(content):
    """A table's text as the pieces it is written in: a str is one piece."""
    return (content,) if isinstance(content, str) else content


def write_outputs(report: RunReport, out_dir: str):
    """Write the tables, then ``summary.json``.  A table's pieces are written
    one after another, so one formatted piece at a time is held, never the
    whole text.  Each file goes to a temporary name in ``out_dir`` and is
    renamed onto its target, so a failed write leaves every file whole: its
    new bytes or its old ones."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in [*sorted(report.tables.items()), ("summary.json", report.summary_json())]:
        target = os.path.join(out_dir, name)
        tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w") as fh:
                fh.writelines(pieces(content))
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stochflow",
                                     description="run a configured experiment")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--list-experiments", action="store_true")
    args = parser.parse_args(argv)

    if args.list_experiments:
        for kind, table in _TABLES.items():  # the kind, then each key=default
            print(kind, *(f"{key}={_shown(val)}" for key, val in table.items()))
        return 0
    if not args.config:
        print("error: --config is required (or --list-experiments)", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            cfg = parse_config_text(fh.read())
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        report = run_experiment(cfg)
    except StochFlowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault of the program, not a failed check
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    out_dir = args.out or cfg.get("out")
    if out_dir:
        try:
            write_outputs(report, out_dir)
        except OSError as err:
            print(f"error: cannot write the outputs to {out_dir!r}: {err}", file=sys.stderr)
            return 2
    for v in report.verdicts:
        shown = ("value",) if v.passed else ("value", "threshold", "target")
        extra = "".join(f" {key}={getattr(v, key)}" for key in shown
                        if getattr(v, key) is not None)
        print(f"{'PASS' if v.passed else 'FAIL'} {v.name}{extra}")
    print(f"# wall-clock {report.wall_clock:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

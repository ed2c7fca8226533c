"""``src/`` holds only what a run reads.

A run is what the scripts under ``bench/`` and ``tools/`` execute and what the
``stochflow`` command reaches.  The walk starts from every name those scripts
read, from the top-level statements of ``src/`` that are not definitions
(``cli``'s ``__main__`` block), and from ``run_<kind>`` for each kind of
``cli._RUNNERS``, which ``cli._runner`` looks up by string.  A top-level
definition of ``src/`` is read once a reached piece of code names it: as a
``Name``, an ``Attribute``, an import alias or a string constant that is an
identifier.  Its body is then walked in turn.  A module-level import in
``src/`` only binds a name, so it reads nothing by itself.

Names are matched by identifier alone, not by module: a definition is reached
when anything of its name is read, a method of the same name included.
"""

import ast
from pathlib import Path

from stochflow import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stochflow"
RUN_DIRS = (ROOT / "bench", ROOT / "tools")

# Definitions that no run reads yet, each with the reason it stays.  Their
# bodies count as reached, so what they read stays too.
EXCEPTIONS = {
    "FiniteFlowLift": "ROADMAP item 11 step B: pullback points on the lift, checked "
                      "against the exact law in a run of its own",
    "synchronizing_pair": "ROADMAP item 11 step B: the lift's synchronizing example",
    "martingale_trace": "ROADMAP item 12: the pitchfork kind's semigroup -> flow check",
    "MartingaleTrace": "ROADMAP item 12: what martingale_trace returns",
    "coordinate": "ROADMAP item 12: a bounded function for martingale_trace",
    "tanh_coordinate": "ROADMAP item 12: a bounded function for martingale_trace",
    "esm_mean": "test_esm.py::TestEsmMeanResidual::"
                "test_mean_of_diracs_is_the_equal_weight_measure_bitwise holds "
                "esm-verify's mean measure to it",
}


def _reads(node) -> set:
    """Every identifier that ``node`` names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _scan():
    """({name: [(path, definition)]} for ``src/``, the names that runs read)."""
    defs, roots = {}, {"run_" + kind.replace("-", "_") for kind in cli._RUNNERS}
    for path in sorted(SRC.rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = [n for n in _defined_names(stmt) if not n.startswith("__")]
            for name in names:
                defs.setdefault(name, []).append((path.relative_to(ROOT), stmt))
            if not names and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _reads(stmt)
    for folder in RUN_DIRS:
        for path in sorted(folder.glob("*.py")):
            roots |= _reads(ast.parse(path.read_text()))
    return defs, roots


def _reached(defs: dict, roots: set) -> set:
    """The names that ``roots`` read, directly or through reached definitions."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, stmt in defs.get(name, ()):
            todo.extend(_reads(stmt) - seen)
    return seen


def test_every_definition_in_src_is_read_by_a_run():
    defs, roots = _scan()
    reached = _reached(defs, roots | set(EXCEPTIONS))
    unread = sorted(f"{path}:{stmt.lineno} {name}" for name, places in defs.items()
                    if name not in reached for path, stmt in places)
    assert not unread, "read by no run; delete it, move it to tests/support.py, or " \
                       "give it a reason in EXCEPTIONS:\n" + "\n".join(unread)


def test_every_exception_is_defined_and_still_unread():
    defs, roots = _scan()
    reached = _reached(defs, roots)
    stale = sorted(name for name in EXCEPTIONS if name not in defs or name in reached)
    assert not stale, f"drop from EXCEPTIONS, now gone or read by a run: {stale}"

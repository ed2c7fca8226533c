"""``src/`` holds only what a run reads.

A run is what the scripts under ``bench/`` and ``tools/`` execute and what the
``stochflow`` command reaches.  The walk starts from every name those scripts
read, from the top-level statements of ``src/`` that are not definitions
(``cli``'s ``__main__`` block), and from ``run_<kind>`` for each kind of
``cli._RUNNERS``, which ``cli._runner`` looks up by string.  A top-level
definition of ``src/`` is read once a reached piece of code names it, and its
body is then walked in turn.  A module-level import in ``src/`` only binds a
name, so it reads nothing by itself.

Reads resolve to the module that defines the name: a ``Name`` in the module
that defines it or imports it (``from .mod import name``, through re-exports),
an ``Attribute`` on a module (``mod.name``, ``pkg.mod.name``) in that module,
and an import inside reached code to what it imports.  An attribute of
anything else (``obj.name``) reads no top-level definition, so a method never
hides a function of its name.  A string constant that is an identifier is
matched by name alone, in every module, because ``getattr`` and the tracer
look names up by string.
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
    "FiniteFlowLift": "ROADMAP item 11(c): pullback points on the lift, checked "
                      "against the exact law in a run of its own",
    "synchronizing_pair": "ROADMAP item 11(c): the lift's synchronizing example",
    "martingale_trace": "ROADMAP item 12: the pitchfork kind's semigroup -> flow check",
    "MartingaleTrace": "ROADMAP item 12: what martingale_trace returns",
    "coordinate": "ROADMAP item 12: a bounded function for martingale_trace",
    "tanh_coordinate": "ROADMAP item 12: a bounded function for martingale_trace",
    "esm_mean": "test_esm.py::TestEsmMeanResidual::"
                "test_mean_of_diracs_is_the_equal_weight_measure_bitwise holds "
                "esm-verify's mean measure to it",
}


def _module_name(path: Path) -> tuple:
    """(module, package) of a file of ``src/``: a package's ``__init__`` is both."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), ".".join(parts[:-1])
    return ".".join(parts), ".".join(parts[:-1])


def _bindings(nodes, package: str, modules: set) -> dict:
    """{local name: ("module", module) or ("name", (module, name))} of every
    import among ``nodes`` that binds a module or a name of ``stochflow``;
    ``package`` anchors the relative imports."""
    out = {}
    for node in nodes:
        if isinstance(node, ast.Import):  # "import a.b" binds a, "import a.b as c" binds a.b
            for alias in node.names:
                if alias.name.split(".")[0] == "stochflow":
                    out[alias.asname or "stochflow"] = ("module", alias.name if alias.asname
                                                        else "stochflow")
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            if base.split(".")[0] != "stochflow":
                continue
            for alias in node.names:
                full = f"{base}.{alias.name}"
                out[alias.asname or alias.name] = ("module", full) if full in modules \
                    else ("name", (base, alias.name))
    return out


class _Surface:
    """The top-level definitions of ``src/`` and the import bindings of each
    module and script, with the resolution of a read to a definition."""

    def __init__(self):
        paths = sorted(SRC.rglob("*.py"))
        self.modules = {_module_name(path)[0] for path in paths}
        self.defs, self.bindings, self.packages = {}, {}, {}
        self.roots = []  # (module, node) pairs that a run executes
        for path in paths:
            (module, package), tree = _module_name(path), ast.parse(path.read_text())
            self.packages[module] = package
            self.bindings[module] = _bindings(ast.walk(tree), package, self.modules)
            for stmt in tree.body:
                names = [n for n in _defined_names(stmt) if not n.startswith("__")]
                for name in names:
                    self.defs.setdefault((module, name), []).append((path.relative_to(ROOT), stmt))
                if not names and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    self.roots.append((module, stmt))
        for folder in RUN_DIRS:
            for path in sorted(folder.glob("*.py")):
                script, tree = str(path.relative_to(ROOT)), ast.parse(path.read_text())
                self.packages[script] = ""
                self.bindings[script] = _bindings(ast.walk(tree), "", self.modules)
                self.roots.append((script, tree))

    def named(self, name: str) -> set:
        """Every definition called ``name``, in any module."""
        return {key for key in self.defs if key[1] == name}

    def _chase(self, module: str, name: str):
        """What ``name`` means in ``module``: ("module", a module), ("def", a
        definition's key) or None, through imports and re-exports."""
        if f"{module}.{name}" in self.modules:
            return ("module", f"{module}.{name}")
        if (module, name) in self.defs:
            return ("def", (module, name))
        bound = self.bindings.get(module, {}).get(name)
        return bound if bound is None or bound[0] == "module" else self._chase(*bound[1])

    def _resolve(self, module: str, node):
        if isinstance(node, ast.Name):
            return self._chase(module, node.id)
        if isinstance(node, ast.Attribute):
            owner = self._resolve(module, node.value)
            if owner is not None and owner[0] == "module":
                return self._chase(owner[1], node.attr)
        return None

    def reads(self, module: str, node) -> set:
        """The keys of every definition that ``node``, in ``module``, reads."""
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Name, ast.Attribute)):
                found = self._resolve(module, sub)
                if found is not None and found[0] == "def":
                    out.add(found[1])
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                for bound in _bindings([sub], self.packages[module], self.modules).values():
                    target = self._chase(*bound[1]) if bound[0] == "name" else None
                    if target is not None and target[0] == "def":
                        out.add(target[1])
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                    and sub.value.isidentifier():
                out |= self.named(sub.value)
        return out

    def reached(self, extra_names=()) -> set:
        """The keys of the definitions that runs read, directly or through
        reached definitions; ``extra_names`` count as read."""
        todo = [key for name in extra_names for key in self.named(name)]
        todo += [key for name in ("run_" + kind.replace("-", "_") for kind in cli._RUNNERS)
                 for key in self.named(name)]
        for module, node in self.roots:
            todo.extend(self.reads(module, node))
        seen = set()
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            for _, stmt in self.defs.get(key, ()):
                todo.extend(self.reads(key[0], stmt) - seen)
        return seen


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_every_definition_in_src_is_read_by_a_run():
    surface = _Surface()
    reached = surface.reached(EXCEPTIONS)
    unread = sorted(f"{path}:{stmt.lineno} {key[1]}" for key, places in surface.defs.items()
                    if key not in reached for path, stmt in places)
    assert not unread, "read by no run; delete it, move it to tests/support.py, or " \
                       "give it a reason in EXCEPTIONS:\n" + "\n".join(unread)


def test_every_exception_is_defined_and_still_unread():
    surface = _Surface()
    reached = surface.reached()
    stale = sorted(name for name in EXCEPTIONS
                   if not surface.named(name) or surface.named(name) & reached)
    assert not stale, f"drop from EXCEPTIONS, now gone or read by a run: {stale}"

"""Layer tracer for the benchmark's traced run.

The tracer wraps public functions of each stochflow layer and puts the
wrappers into every ``stochflow`` module namespace (and class) that holds the
original, so calls between modules go through them.  Nothing under ``src/``
changes.  Each wrapped call is a span with an id and the id of the span that
was open when it started.  Every span feeds per-name aggregates (calls,
inclusive time, self time); spans of the coarser layers are also kept whole.
Hooks add counters at the same boundaries.

Self time is a span's duration minus the time its direct child calls took,
wrappers included.  So the tracer's own bookkeeping lands in no layer's self
time: it shows as wall time that no layer accounts for.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [span id, name, child time]
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.edges = {}  # (parent name, name) -> calls
        self.counters = {}
        self.spans = []  # (id, parent id, name, start s, duration s)
        self.next_id = 1
        self.origin = perf_counter()
        self.filled = set()  # (omega, component, unit interval, level) bridge-filled

    def count(self, key, k=1):
        self.counters[key] = self.counters.get(key, 0) + k

    def wrap(self, fn, name, record=False, hook=None):
        """Span wrapper; ``hook(tracer, args, result)`` runs after the call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, edges, spans = self.stack, self.edges, self.spans
        tracer = self

        def traced(*args, **kwargs):
            entered = perf_counter()
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                edge = (parent[1] if parent else "", name)
                edges[edge] = edges.get(edge, 0) + 1
                if record:
                    spans.append((sid, parent[0] if parent else 0, name,
                                  start - tracer.origin, dur))
            if hook is not None:
                hook(tracer, args, result)
            if parent is not None:
                # the whole call, wrapper included, is child time of the parent
                parent[2] += perf_counter() - entered
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, key):
        """Counter-only wrapper, for calls too cheap to time one by one."""
        counters = self.counters
        counters.setdefault(key, 0)

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def dump(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counters": dict(self.counters),
            "spans": [list(s) for s in self.spans],
        }


def _replace_everywhere(original, replacement):
    """Swap ``original`` for ``replacement`` in every stochflow module."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "stochflow" or modname.startswith("stochflow.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


def _wrap_function(tracer, module, attr, name, **kw):
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(original, name, **kw))


def _wrap_method(tracer, cls, attr, name, **kw):
    setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, **kw))


# -- counter hooks ---------------------------------------------------------------

def _one_key(tracer, args, result):
    tracer.count("keyed.keys")


def _offset_keys(tracer, args, result):
    tracer.count("keyed.keys", int(np.size(result)))


def _grid_intervals(tracer, args, result):
    omega, component, s, t, level = args
    if level == 0:
        return
    n0 = s.at_level(level) >> level
    n1 = -((-t.at_level(level)) >> level)
    if n1 <= n0:
        return
    tracer.count("wiener.intervals_requested", n1 - n0)
    seen = tracer.filled
    for n in range(n0, n1):
        seen.add((omega, component, n, level))


def _ou_points(tracer, args, result):
    tracer.count("wiener.ou_points", int(np.size(result)))


def _linear_steps(tracer, args, result):
    model, omega, s, t = args[:4]
    tracer.count("models.linear.grid_steps",
                 t.at_level(model.grid_level) - s.at_level(model.grid_level))


def _nse_steps(tracer, args, result):
    model, omega, s, t, states = args[:5]
    rows = np.atleast_2d(states).shape[0] if states.dtype == float else 1
    tracer.count("models.nse.steps",
                 rows * (t.at_level(model.grid_level) - s.at_level(model.grid_level)))


def _hausdorff_pairs(tracer, args, result):
    a, b = (np.atleast_2d(x) for x in args[:2])
    tracer.count("esm.hausdorff.pairs", a.shape[0] * b.shape[0])


def _distance_particles(tracer, args, result):
    tracer.count("measure.distance.particles", args[0].size + args[1].size)


def _table_bytes(tracer, args, result):
    tracer.count("measure.to_table.bytes", len(result))


def install() -> Tracer:
    """Wrap every traced layer of an imported ``stochflow.cli``."""
    from stochflow import cli, esm, flow_core, keyed, measure, wiener
    from stochflow.models import linear, nse

    tracer = Tracer()
    _wrap_function(tracer, keyed, "chain", "keyed", hook=_one_key)
    _wrap_function(tracer, keyed, "extend_key", "keyed", hook=_one_key)
    _wrap_function(tracer, keyed, "chain_offsets", "keyed", hook=_offset_keys)
    _wrap_function(tracer, keyed, "gauss_from_key", "keyed")
    _wrap_function(tracer, keyed, "gauss_from_keys", "keyed")

    _wrap_function(tracer, wiener, "grid_values", "wiener.grid_values", hook=_grid_intervals)
    _wrap_function(tracer, wiener, "wiener_at", "wiener.wiener_at")
    _wrap_function(tracer, wiener, "ou_grid", "wiener.ou_grid", hook=_ou_points)

    _wrap_function(tracer, flow_core, "evolve_batch", "flow_core.evolve_batch", record=True)
    _wrap_method(tracer, linear.LinearOUModel, "evolve_batch",
                 "models.linear.evolve_batch", hook=_linear_steps)

    for attr in ("evolve_trace", "evolve_field", "evolve_batch"):
        _wrap_method(tracer, nse.NSEModel, attr, "models.nse.evolve",
                     record=True, hook=_nse_steps)
    _wrap_method(tracer, nse.NSEModel, "z_values", "models.nse.z_values")
    _wrap_function(tracer, nse, "bilinear_b", "models.nse.bilinear_b")
    _wrap_function(tracer, nse, "estimate_beta", "models.nse.estimate_beta", record=True)
    for attr in ("to_phys", "to_spec"):
        original = getattr(nse, attr)
        _replace_everywhere(original, tracer.counting(original, "models.nse.transform_calls"))

    _wrap_function(tracer, esm, "pullback_point", "esm.pullback_point", record=True)
    _wrap_function(tracer, esm, "esm_residual", "esm.esm_residual", record=True)
    _wrap_function(tracer, esm, "pullback_measure", "esm.pullback_measure", record=True)
    _wrap_function(tracer, esm, "pullback_attractor", "esm.pullback_attractor", record=True)
    _wrap_function(tracer, esm, "hausdorff_semidistance", "esm.hausdorff",
                   record=True, hook=_hausdorff_pairs)

    _wrap_method(tracer, measure.GaussianFamily, "sample", "measure.sample", record=True)
    _wrap_function(tracer, measure, "gaussian_draw", "measure.sample", record=True)
    _wrap_function(tracer, measure, "distance", "measure.distance",
                   record=True, hook=_distance_particles)
    _wrap_function(tracer, measure, "to_table", "measure.to_table",
                   record=True, hook=_table_bytes)

    _wrap_function(tracer, cli, "run_experiment", "cli.runner", record=True)
    _wrap_function(tracer, cli, "write_outputs", "cli.write_outputs", record=True)
    return tracer


def finish(tracer: Tracer) -> dict:
    out = tracer.dump()
    out["counters"]["wiener.intervals_distinct"] = len(tracer.filled)
    return out

"""Per-layer tracing and profiling of spinlab from outside the package.

``Tracer`` wraps the public functions and methods of every ``spinlab``
module, the layers of the package, and records a span at each layer
boundary: trace id (one per scenario), span id, parent span id, name, start
and end.  Spans are kept in memory and written out when the run ends.
Every wrapped call, also a call within one layer, adds to that function's
call count and inclusive time and to its layer's self time (its duration
minus the time of the wrapped calls it made).  The ``jets`` and
``surfaces`` layers are called thousands of times per sample point, far
too often for a span each, so their calls only count.

``profile_scenario`` fills a scenario's shared point evaluations stage by
stage and then times every check with that shared work already done.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from functools import cached_property

LAYERS = ("jets", "clifford", "surfaces", "product", "hypersurfaces",
          "restriction", "systems", "catalog", "checks", "reports", "cli")
COUNT_ONLY = ("jets", "surfaces")

# Jet methods counted under one operation name; both operand orders of a
# binary operator share the name.
JET_OPS = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add",
           "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
           "__neg__": "neg", "__truediv__": "div", "__rtruediv__": "div",
           "deriv": "deriv", "_compose": "compose", "__init__": "alloc"}

# PointEvaluation cached properties, grouped into pipeline stages and
# listed in dependency order, so forcing them in turn charges each stage
# only its own work.  The immersion stage also covers ``evaluate``, whose
# immersion check computes the chart jets.
STAGES = {
    "immersion": ("phi", "position", "T", "T_val", "gbar", "gbar_val"),
    "metric": ("g", "g_val", "g_inv", "g_inv_val"),
    "normal": ("nu", "nu_val"),
    "shape": ("ambient_gamma", "shape_ambient", "second_fundamental",
              "E_mixed", "E_mixed_val", "mean_curvature"),
    "splitting": ("V_form", "h", "V_ambient", "V_coord", "V_coord_val",
                  "f_mixed", "f_mixed_val", "xi_ambient", "xi_ambient_val",
                  "xi_coord", "xi_coord_val", "eta", "chi_mixed"),
    "frame": ("frame", "E_frame", "f_frame", "V_frame"),
    "christoffel": ("gamma_induced", "gamma_induced_val"),
    "curvature": ("riemann", "riemann_frame"),
    "derivatives": ("nabla_E", "nabla_f", "nabla_V", "nabla_xi", "dh", "dH",
                    "dE_frame"),
}
_STAGED = {name for names in STAGES.values() for name in names}


def modules() -> dict:
    return {layer: importlib.import_module(f"spinlab.{layer}")
            for layer in LAYERS}


class Tracer:
    """Install with ``install``, run, read ``snapshot``, then ``uninstall``."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.spans = []
        self.stats = {}
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.trace_id = 0
        self._stack = []
        self._next_span = 0
        self._patches = []

    def reset(self):
        self.spans.clear()
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        for layer in self.self_time:
            self.self_time[layer] = 0.0

    def snapshot(self) -> dict:
        """Calls and inclusive seconds per name, and self seconds per layer."""
        return {"calls": {k: s[0] for k, s in self.stats.items() if s[0]},
                "seconds": {k: s[1] for k, s in self.stats.items() if s[0]},
                "self_seconds": dict(self.self_time)}

    def _wrap(self, fn, layer, name, spans="boundary"):
        """``spans``: "boundary" records a span when the caller is in
        another layer, "always" on every call, "never" only counts."""
        stack, self_time, recorded = self._stack, self.self_time, self.spans
        stat = self.stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if spans == "always" or (spans == "boundary" and (
                    parent is None or parent[1] != layer)):
                span_id = tracer._next_span
                tracer._next_span += 1
            # frame: nearest recorded span, layer, seconds of wrapped callees
            frame = [span_id if span_id is not None
                     else (parent[0] if parent else None), layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self_time[layer] += duration - frame[2]
                stat[0] += 1
                stat[1] += duration
                if span_id is not None:
                    recorded.append((tracer.trace_id, span_id,
                                     parent[0] if parent else None, name,
                                     start, end))
        return traced

    def _patch(self, target, key, new):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = new
        else:
            self._patches.append((target, key, target.__dict__[key]))
            setattr(target, key, new)

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            spans = "never" if layer in COUNT_ONLY else "boundary"
            if layer == "jets":
                name = f"jets.{JET_OPS.get(attr, attr)}"
                if attr.startswith("_") and attr not in JET_OPS:
                    continue
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
                if attr.startswith("_") and (attr, cls.__name__) != (
                        "__init__", "ScenarioContext"):
                    continue
            if isinstance(obj, cached_property):
                new = cached_property(self._wrap(obj.func, layer, name, spans))
                new.__set_name__(cls, attr)
            elif isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(obj.__func__, layer, name, spans))
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, layer, name, spans))
            elif inspect.isfunction(obj):
                new = self._wrap(obj, layer, name, spans)
            else:
                continue
            self._patch(cls, attr, new)

    def install(self):
        wrapped = {}
        for layer, mod in self.mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(
                        obj, layer, f"{layer}.{attr}",
                        "never" if layer in COUNT_ONLY else "boundary")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # modules hold functions of other layers under imported names
        for mod in self.mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        registry = self.mods["checks"].REGISTRY_BY_NAME
        for name, spec in list(registry.items()):
            fn = self._wrap(spec.fn, "checks", f"check.{name}", "always")
            self._patch(registry, name, dataclasses.replace(spec, fn=fn))

    def uninstall(self):
        while self._patches:
            target, key, old = self._patches.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)


def _cached_names(cls) -> list:
    return [k for k, v in vars(cls).items() if isinstance(v, cached_property)]


def profile_scenario(mods: dict, raw: dict) -> tuple[list, dict]:
    """Stage seconds per sample point, and seconds per check with the
    scenario's point evaluations and restricted structures already filled.
    """
    checks = mods["checks"]
    ctx = checks.ScenarioContext(mods["reports"].Scenario.from_dict(raw))
    clock = time.perf_counter
    present = set(_cached_names(mods["hypersurfaces"].PointEvaluation))
    per_point = []
    for i in range(len(ctx.points)):
        start = clock()
        ev = ctx.evaluation(i)
        stage_seconds = {}
        for stage, names in STAGES.items():
            for name in names:
                if name in present:
                    getattr(ev, name)
            now = clock()
            stage_seconds[stage] = now - start
            start = now
        for name in present - _STAGED:
            getattr(ev, name)
        stage_seconds["other"] = clock() - start
        per_point.append(stage_seconds)
        for tag in (1, 2):
            rs = ctx.restricted(i, tag)
            for name in _cached_names(type(rs)):
                getattr(rs, name)
    names = raw.get("checks")
    if names is None:
        names = [spec.name for spec in checks.REGISTRY]
    check_seconds = {}
    for name in names:
        start = clock()
        checks.REGISTRY_BY_NAME[name].fn(ctx)
        check_seconds[name] = clock() - start
    return per_point, check_seconds

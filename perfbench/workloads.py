"""Seeded scenario generation and the expected verdict of every check.

Each workload is a list of scenario dicts, the unit a user hands to
``spinlab run``.  The workload seed fixes every scenario seed and every
drawn parameter, so the same seed always gives the same inputs.  Why each
workload exists is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import random

from spinlab import list_checks
from spinlab.catalog import BUILTIN_SCENARIOS

WORKLOADS = ("catalog", "curvature-dense", "spinor-ambient", "sweep")

CURVATURE_CHECKS = ["curvature.gauss", "curvature.codazzi", "system.one",
                    "system.two", "structure.derivatives",
                    "connection.xi_derivative"]

# The runner skips this check, rightly, when no sampled point is umbilic.
MAY_SKIP = {"umbilic.gradient_identity"}

_BUILTIN = {d["name"]: d for d in BUILTIN_SCENARIOS}
_SWEEP_KINDS = ("flat-hyperplane", "round-sphere", "slice-geodesic",
                "sphere-circle-tube", "graph")
_SWEEP_C1 = (0.0, 1.0, -0.5, 2.0)
_SWEEP_C2 = (0.0, 0.8, -0.3, 4.0)


def _seed(rng):
    return rng.randrange(1, 2 ** 31)


def _catalog(rng):
    return [dict(d, seed=_seed(rng)) for d in BUILTIN_SCENARIOS]


def _curvature_dense(rng):
    members = [("graph", 1.0, -0.5, {"kind": "graph", "params": {}}),
               ("round-sphere", 1.0, 4.0,
                {"kind": "round-sphere", "params": {"r": 0.35}})]
    return [{"name": f"{name}-{k}", "c1": c1, "c2": c2, "hypersurface": hs,
             "samples": 50, "seed": _seed(rng), "checks": CURVATURE_CHECKS}
            for k in range(2) for name, c1, c2, hs in members]


def _spinor_ambient(rng):
    checks = [name for name, *_ in list_checks()
              if name.split(".")[0] in ("ambient", "killing", "spinc")]
    members = ("slice-geodesic", "sphere-circle-tube", "chart-sphere-curved",
               "graph-spherical-flat")
    return [dict(_BUILTIN[members[k % 4]], name=f"{members[k % 4]}-{k}",
                 samples=12, seed=_seed(rng), checks=checks)
            for k in range(12)]


def _sweep(rng):
    # every kind on every curvature pair once, so each seed costs the same
    cells = [(kind, c1, c2) for kind in _SWEEP_KINDS for c1 in _SWEEP_C1
             for c2 in _SWEEP_C2]
    rng.shuffle(cells)
    return [{"name": f"sweep-{k}", "c1": c1, "c2": c2,
             "hypersurface": {"kind": kind, "params": {}},
             "samples": 3, "seed": _seed(rng)}
            for k, (kind, c1, c2) in enumerate(cells)]


_GENERATORS = {"catalog": _catalog, "curvature-dense": _curvature_dense,
               "spinor-ambient": _spinor_ambient, "sweep": _sweep}


def scenarios(workload: str, seed: int) -> list[dict]:
    """The scenario dicts of ``workload`` for workload seed ``seed``."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def check_kinds() -> dict:
    """Registry kind (assert, control, record) of every check name."""
    return {name: kind for name, kind, *_ in list_checks()}


def verdict_ok(kind: str, record: dict) -> bool:
    """Whether a report record carries the verdict its check should give."""
    if kind == "record":
        return record["verdict"] == "recorded"
    if record["verdict"] == "skip":
        return record["name"] in MAY_SKIP
    return record["verdict"] == "pass"

"""Registry of named hypersurface charts and the built-in scenarios.

Catalog keys
------------
flat-hyperplane        u -> ((u1, u2), (u3, 0)); totally geodesic slice of the
                       flat product, h = -1, V = 0.
round-sphere           torus-style parametrization of the chart sphere
                       |p| = r.  For c1 = c2 = 0 this is the round 3-sphere
                       with inner normal (orientation -1, so H = 1/r > 0);
                       for curved factors it is a generic compact hypersurface
                       exercising every term of the theory.
slice-geodesic         u -> ((u1, u2), (u3, 0)) viewed inside curved factors;
                       the second-factor line through the chart origin is a
                       geodesic, so the slice is totally geodesic with
                       h = -1, V = 0 and factor-1 curvature only.
sphere-circle-tube     product of the first factor with the chart circle of
                       radius a in the second factor; parallel nonzero shape
                       operator.
graph                  ((u1, u2), (u3, w(u))) for a fixed trigonometric
                       polynomial family w; coefficients come from the
                       scenario parameters, giving generic E, V, h fields.
"""

from __future__ import annotations

import math

import numpy as np

from .hypersurfaces import HypersurfaceChart
from .product import ProductModel
from .reports import ScenarioError, _json_number

DEFAULT_GRAPH_COEFFS = (0.25, 0.2, 0.15, 0.2, 0.1)


def _number(x, name):
    """A finite float chart parameter, given as a JSON number."""
    out = _json_number(x, f"chart parameter {name!r}")
    if not math.isfinite(out):
        raise ScenarioError(f"chart parameter {name!r} must be finite")
    return out


def _orientation(params, default):
    o = params.get("orientation", default)
    if isinstance(o, bool) or o not in (1, -1):
        raise ScenarioError(f"orientation must be 1 or -1, got {o!r}")
    return int(o)


def _coordinate_slice(half):
    """Builder of the slice (x, y, z, 0) over the box [-half, half]^3."""
    def build(params):
        return HypersurfaceChart(
            map_fn=lambda x, y, z: (x, y, z, 0.0 * z),
            domain=np.array([[-half, half]] * 3),
            orientation=_orientation(params, 1),
        )
    return build


def _round_sphere(params):
    r = _number(params.get("r", 1.0), "r")

    def sphere_map(x, y, z):
        ca, sa = x.cos(), x.sin()
        return (r * ca * y.cos(), r * ca * y.sin(),
                r * sa * z.cos(), r * sa * z.sin())

    # orientation -1 selects the inner normal -p/r (positive mean curvature)
    return HypersurfaceChart(
        map_fn=sphere_map,
        domain=np.array([[0.25, 1.32], [0.0, 6.28], [0.0, 6.28]]),
        orientation=_orientation(params, -1),
    )


def _sphere_circle_tube(params):
    a = _number(params.get("a", 0.5), "a")
    return HypersurfaceChart(
        map_fn=lambda x, y, z: (x, y, a * z.cos(), a * z.sin()),
        domain=np.array([[-0.7, 0.7], [-0.7, 0.7], [0.0, 6.28]]),
        orientation=_orientation(params, 1),
    )


def _graph(params):
    raw = params.get("coeffs", DEFAULT_GRAPH_COEFFS)
    if not isinstance(raw, (list, tuple)) or len(raw) != 5:
        raise ScenarioError(f"graph expects 5 coefficients, got {raw!r}")
    co = tuple(_number(c, "coeffs") for c in raw)

    def graph_map(x, y, z):
        w = (co[0] * x.sin() * y.cos() + co[1] * z * z + co[2] * x * z
             + co[3] * y.sin() + co[4] * y * z)
        return (x, y, z, w)

    return HypersurfaceChart(
        map_fn=graph_map,
        domain=np.array([[-0.7, 0.7], [-0.7, 0.7], [-0.7, 0.7]]),
        orientation=_orientation(params, 1),
    )


CATALOG = {
    "flat-hyperplane": _coordinate_slice(1.0),
    "round-sphere": _round_sphere,
    "slice-geodesic": _coordinate_slice(0.7),
    "sphere-circle-tube": _sphere_circle_tube,
    "graph": _graph,
}

# the parameters each kind reads; any other name is a mistake
PARAMETERS = {
    "flat-hyperplane": ("orientation",),
    "round-sphere": ("r", "orientation"),
    "slice-geodesic": ("orientation",),
    "sphere-circle-tube": ("a", "orientation"),
    "graph": ("coeffs", "orientation"),
}


def build_chart(kind: str, params=None) -> HypersurfaceChart:
    """The catalog chart ``kind``; ScenarioError on bad parameters."""
    if kind not in CATALOG:
        raise KeyError(f"unknown hypersurface kind {kind!r}; "
                       f"known: {sorted(CATALOG)}")
    if params is not None and not isinstance(params, dict):
        raise ScenarioError(f"chart parameters must be an object, got {params!r}")
    for name in params or {}:
        if name not in PARAMETERS[kind]:
            raise ScenarioError(
                f"chart kind {kind!r} has no parameter {name!r}; it reads "
                f"{', '.join(map(repr, PARAMETERS[kind]))}")
    return CATALOG[kind](params or {})


def sample_points(chart: HypersurfaceChart, count: int, rng) -> np.ndarray:
    box = chart.domain
    return rng.uniform(box[:, 0], box[:, 1], size=(count, 3))


# Built-in scenario definitions (name, c1, c2, hypersurface kind, params).
BUILTIN_SCENARIOS = [
    {"name": "flat-hyperplane", "c1": 0.0, "c2": 0.0,
     "hypersurface": {"kind": "flat-hyperplane", "params": {}},
     "samples": 40, "seed": 11},
    {"name": "round-sphere-flat", "c1": 0.0, "c2": 0.0,
     "hypersurface": {"kind": "round-sphere", "params": {"r": 1.0}},
     "samples": 40, "seed": 12},
    {"name": "slice-geodesic", "c1": 1.0, "c2": -0.5,
     "hypersurface": {"kind": "slice-geodesic", "params": {}},
     "samples": 40, "seed": 13},
    {"name": "sphere-circle-tube", "c1": 1.0, "c2": 0.8,
     "hypersurface": {"kind": "sphere-circle-tube", "params": {"a": 0.5}},
     "samples": 40, "seed": 14},
    {"name": "graph-spherical-flat", "c1": 1.0, "c2": 0.0,
     "hypersurface": {"kind": "graph", "params": {}},
     "samples": 40, "seed": 15},
    {"name": "chart-sphere-curved", "c1": 1.0, "c2": 4.0,
     "hypersurface": {"kind": "round-sphere", "params": {"r": 0.35}},
     "samples": 40, "seed": 16},
    {"name": "graph-flat-spin", "c1": 0.0, "c2": 0.0,
     "hypersurface": {"kind": "graph",
                      "params": {"coeffs": (0.3, 0.15, 0.2, 0.1, 0.12)}},
     "samples": 40, "seed": 17},
]


def build_product(c1: float, c2: float) -> ProductModel:
    return ProductModel(c1, c2)

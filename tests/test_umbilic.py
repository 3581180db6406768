"""Umbilic hypersurfaces and the contracted Codazzi equation

    div E - 3 dH = -(c1 - c2)/2 V-flat,

checked at every sample point; its umbilic case is the paper's corollary."""

import numpy as np
import pytest

from conftest import run_checks, sample
from spinlab import build_chart, build_product, evaluate
from spinlab.catalog import BUILTIN_SCENARIOS
from spinlab.checks import REGISTRY_BY_NAME, ScenarioContext
from spinlab.jets import worst_of
from spinlab.reports import Scenario
from spinlab.systems import contracted_codazzi_residual

UMBILIC = REGISTRY_BY_NAME["umbilic.gradient_identity"]


def test_round_sphere_everywhere_umbilic(rng):
    """Flat factors, equal curvatures: dH = 0 and div E = 0."""
    chart = build_chart("round-sphere", {"r": 1.5})
    prod = build_product(0.0, 0.0)
    ev = evaluate(chart, prod, sample(chart, rng, 25))
    assert np.all(contracted_codazzi_residual(ev) < 1e-12)
    (rec,) = run_checks("round-sphere", 0.0, 0.0, 25, [UMBILIC.name],
                        {"r": 1.5})
    assert rec.notes["umbilic_points"] == 25
    assert rec.max_residual < 1e-12 and rec.verdict == "pass"


def test_geodesic_slice_satisfies_identity_trivially(rng):
    """Totally geodesic slices: V = 0, E = 0 and dH = 0, so the identity is
    0 = 0."""
    chart = build_chart("slice-geodesic")
    prod = build_product(1.0, -0.5)
    ev = evaluate(chart, prod, sample(chart, rng, 25))
    assert np.all(contracted_codazzi_residual(ev) == 0.0)


def test_graph_scan_records_absence():
    """A generic graph family in a curved-times-flat product has no umbilic
    point; the identity is still checked, and holds, at every point."""
    (rec,) = run_checks("graph", 1.0, 0.0, 60, [UMBILIC.name])
    assert rec.points_evaluated == 60
    assert rec.notes["umbilic_points"] == 0
    assert rec.verdict == "pass"


def test_tube_is_not_umbilic():
    (rec,) = run_checks("sphere-circle-tube", 1.0, 0.8, 10, [UMBILIC.name],
                        {"a": 0.5})
    assert rec.notes["umbilic_points"] == 0
    assert rec.points_evaluated == 10
    assert rec.verdict == "pass"


def test_umbilic_points_verified_on_mixed_scan():
    (rec,) = run_checks("round-sphere", 0.0, 0.0, 20, [UMBILIC.name],
                        {"r": 1.0})
    assert rec.points_evaluated == 20
    assert rec.max_residual < 1e-5


def _catalog_worst(name, corrupt):
    """The check's worst residual on the built-in scenario ``name`` with its
    batch replaced by ``corrupt(batch)``."""
    ctx = ScenarioContext(Scenario.from_dict(
        next(d for d in BUILTIN_SCENARIOS if d["name"] == name)))
    clean, _ = UMBILIC.fn(ctx)
    assert worst_of(clean) <= UMBILIC.tolerance, name
    ctx.batch = corrupt(ctx.batch)
    return worst_of(UMBILIC.fn(ctx)[0])


@pytest.mark.parametrize("name", ["graph-spherical-flat", "graph-flat-spin",
                                  "chart-sphere-curved"])
def test_scaled_divergence_fails(name):
    """nabla_E scaled by 1 + 1e-9 leaves dH as it is, so div E - 3 dH moves
    off the right side: the check reads nabla_E, also where c1 = c2."""
    worst = _catalog_worst(
        name, lambda ev: ev.replace(nabla_E=ev.nabla_E * (1 + 1e-9)))
    assert worst > UMBILIC.tolerance, name


def test_flipped_V_fails_where_the_right_side_is_nonzero():
    """The opposite sign of V fails wherever (c1 - c2) V is nonzero."""
    flagged = []
    for d in BUILTIN_SCENARIOS:
        ctx = ScenarioContext(Scenario.from_dict(d))
        if d["c1"] == d["c2"] or np.abs(ctx.batch.V_frame).max() < 1e-6:
            continue
        flagged.append(d["name"])
        worst = _catalog_worst(
            d["name"], lambda ev: ev.replace(V_frame=-ev.V_frame))
        assert worst > UMBILIC.tolerance, d["name"]
    assert "chart-sphere-curved" in flagged
    assert "graph-spherical-flat" in flagged

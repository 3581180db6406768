"""Umbilic hypersurfaces and the mean-curvature gradient identity."""

import numpy as np

from conftest import run_checks, sample
from spinlab import build_chart, build_product, evaluate
from spinlab.systems import umbilic_gradient_identity


def test_round_sphere_everywhere_umbilic(rng):
    """Flat factors, equal curvatures: dH = 0 and both sides vanish."""
    chart = build_chart("round-sphere", {"r": 1.5})
    prod = build_product(0.0, 0.0)
    for u in sample(chart, rng, 25):
        r = umbilic_gradient_identity(evaluate(chart, prod, u))
        assert r.umbilic
        assert r.residuals["dH-xi"] < 1e-6
        assert r.residuals["dH-tangential"] < 1e-5
        assert r.residuals["norm-identity"] < 1e-5


def test_geodesic_slice_satisfies_identity_trivially(rng):
    """Totally geodesic slices: V = 0 and dH = 0, the identity is 0 = 0."""
    chart = build_chart("slice-geodesic")
    prod = build_product(1.0, -0.5)
    for u in sample(chart, rng, 25):
        r = umbilic_gradient_identity(evaluate(chart, prod, u))
        assert r.umbilic
        assert max(r.residuals.values()) < 1e-12


def test_graph_scan_records_absence():
    """Scanning a generic graph family in a curved-times-flat product finds
    no umbilic points; the identity is then vacuous, consistent with
    umbilic hypersurfaces being forced to constant mean curvature."""
    (rec,) = run_checks("graph", 1.0, 0.0, 60, ["umbilic.gradient_identity"])
    assert rec.points_evaluated == 0
    assert rec.points_skipped == 60
    assert rec.max_residual == 0.0
    assert rec.verdict == "skip"


def test_tube_is_not_umbilic(rng):
    chart = build_chart("sphere-circle-tube", {"a": 0.5})
    prod = build_product(1.0, 0.8)
    for u in sample(chart, rng, 10):
        r = umbilic_gradient_identity(evaluate(chart, prod, u))
        assert not r.umbilic
        assert r.deviation > 1e-3


def test_umbilic_points_verified_on_mixed_scan():
    """A scan mixing umbilic members and a generic graph distinguishes
    'verified at N points' from 'vacuous'."""
    (rec,) = run_checks("round-sphere", 0.0, 0.0, 20,
                        ["umbilic.gradient_identity"], {"r": 1.0})
    assert rec.points_evaluated == 20 and rec.points_skipped == 0
    assert rec.max_residual < 1e-5
    assert rec.notes["status"] == "verified"

"""Rounding-level bounds on every point of the built-in catalog.

The record tests read the same run of ``run_catalog()``: every member
carries one record per named check, that record evaluated every sample
point, and its value stays within the bound.  The perturbed copy that the
controls read is bounded at every sample point of each member's context.
``data/catalog-floors.json`` holds the committed floor of every record, its
``max_residual``; a change that moves a floor re-generates that file and
says why.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from spinlab import hypersurfaces as hyp
from spinlab import systems as sysmod
from spinlab.catalog import BUILTIN_SCENARIOS
from spinlab.checks import (REGISTRY, REGISTRY_BY_NAME, ScenarioContext,
                            run_catalog, run_scenario)
from spinlab.reports import Scenario


@pytest.fixture(scope="module")
def reports():
    return run_catalog()


def _records(reports, names):
    """(member, record) of every record of ``names``, after checking that
    each member has one of each and that each evaluated every sample
    point."""
    recs = [(r.scenario["name"], r.scenario["samples"], c)
            for r in reports for c in r.checks if c.name in names]
    assert len(recs) == len(names) * len(reports)
    off = [(name, c.name) for name, n, c in recs if c.points_evaluated != n]
    assert not off, off
    return [(name, c) for name, _, c in recs]


def test_ambient_checks_at_rounding_level(reports):
    recs = _records(reports, {spec.name for spec in REGISTRY
                              if spec.name.startswith("ambient.")})
    bad = [(name, c.name, c.max_residual) for name, c in recs
           if not c.max_residual <= 1e-13]
    assert not bad, bad


def test_compatibility_systems_at_rounding_level(reports):
    recs = _records(reports, {"system.one", "system.two"})
    bad = [(name, c.name, c.max_residual) for name, c in recs
           if not c.max_residual <= 1e-12]
    assert not bad, bad


def test_umbilic_identity_at_rounding_level(reports):
    recs = _records(reports, {"umbilic.gradient_identity"})
    bad = [(name, c.verdict, c.max_residual) for name, c in recs
           if c.verdict != "pass" or not c.max_residual <= 1e-12]
    assert not bad, bad


def test_perturbed_copy_breaks_gauss_and_both_systems_at_every_point():
    """On every member, the perturbed copy that both controls read pushes
    the smaller of the Gauss and the system residual above 1e-3 at every
    sample point, for both structures."""
    bad = []
    for raw in BUILTIN_SCENARIOS:
        ctx = ScenarioContext(Scenario.from_dict(raw))
        gauss = hyp.gauss_residual(ctx.perturbed)
        assert gauss.shape == (raw["samples"],)
        for tag in (1, 2):
            joint = np.minimum(gauss, sysmod.system_residuals(
                tag, ctx.perturbed).max_residual)
            if not np.all(joint > 1e-3):
                bad.append((raw["name"], tag, float(np.min(joint))))
    assert not bad, bad


def _alone(raw, name):
    return Scenario.from_dict(dict(raw, checks=[name]))


def test_each_check_reads_only_its_declared_order(reports, monkeypatch):
    """Run alone, a check's batch is seeded at the order it declares, and
    its record is the one of the catalog run, whose batch is at order 3
    (it selects ``curvature.gauss``): ``max_residual``, verdict and notes
    are equal.  Declared one order too low, each order-3 check raises the
    order assertion of ``Jet.grad`` or ``Jet.deriv``."""
    assert {spec.name for spec in REGISTRY if spec.order == 3} == {
        "curvature.gauss", "curvature.codazzi", "curvature.gauss_control",
        "system.one", "system.two", "system.control",
        "umbilic.gradient_identity", "theorem.converse_roundtrip"}
    assert {spec.order for spec in REGISTRY} == {2, 3}
    for raw, report in zip(BUILTIN_SCENARIOS, reports):
        assert ScenarioContext(Scenario.from_dict(raw)).order == 3
        for spec, full in zip(REGISTRY, report.checks):
            scenario = _alone(raw, spec.name)
            assert ScenarioContext(scenario).order == spec.order
            (rec,) = run_scenario(scenario).checks
            assert repr((rec.max_residual, rec.verdict, rec.notes)) == repr(
                (full.max_residual, full.verdict, full.notes)), (
                raw["name"], spec.name)
    for spec in REGISTRY:
        if spec.order == 3:
            monkeypatch.setitem(REGISTRY_BY_NAME, spec.name,
                                dataclasses.replace(spec, order=2))
            for raw in BUILTIN_SCENARIOS:
                with pytest.raises(AssertionError) as exc:
                    run_scenario(_alone(raw, spec.name))
                assert exc.traceback[-1].path.name == "jets.py", spec.name


FLOORS = Path(__file__).parent / "data" / "catalog-floors.json"


def test_catalog_floors_stay_at_their_baseline(reports):
    """No record's ``max_residual`` exceeds max(10 x its committed floor,
    1e-15), the absolute term keeping exact zeros from failing on one ulp;
    every floor that moved more than 2x either way is printed."""
    baseline = json.loads(FLOORS.read_text())
    floors = {r.scenario["name"]: {c.name: c.max_residual for c in r.checks}
              for r in reports}
    assert {m: sorted(f) for m, f in floors.items()} == {
        m: sorted(f) for m, f in baseline.items()}
    moved, bad = [], []
    for member, checks in sorted(floors.items()):
        for name, floor in sorted(checks.items()):
            base = baseline[member][name]
            if not floor <= max(10 * base, 1e-15):
                bad.append((member, name, base, floor))
            if not base / 2 <= floor <= 2 * base:
                moved.append((member, name, base, floor))
    for member, name, base, floor in moved:
        print(f"floor moved: {member} {name} {base:.3e} -> {floor:.3e}")
    assert not bad, bad

"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import catalog_members, run_checks, sample
from spinlab import build_chart, build_product, evaluate, structure
from spinlab.catalog import BUILTIN_SCENARIOS
from spinlab.checks import run_catalog, run_scenario
from spinlab.clifford import build_clifford
from spinlab.hypersurfaces import (codazzi_residual, contact_identities,
                                   gauss_residual, involution_identities)
from spinlab.reports import Scenario, emit_json
from spinlab.restriction import (algebraic_conditions,
                                 dirac_and_energy_momentum,
                                 omega_formula_residual, pairing_identities,
                                 projection_cancellation_residuals,
                                 restrict_structure)
from spinlab.systems import (gauss_iff_codazzi, perturbed_shape,
                             system_residuals)

from helpers import (CORRUPTION_TARGETS, build_clifford3, converse_check,
                     corrupt, kahler_action, killing_residual,
                     shape_commutator_residual)

RNG_SEED = 1234


def _stopwatch():
    t0 = time.perf_counter()
    return lambda: time.perf_counter() - t0


def _report(criterion, ok, elapsed, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {criterion}: {detail} ({elapsed:.2f} s)")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_clifford_suite():
    took = _stopwatch()
    model3 = build_clifford3()
    model4 = build_clifford(4)
    ok = True
    for model in (build_clifford(2), model3, model4):
        eye = np.eye(model.spinor_dim)
        for a, ga in enumerate(model.generators):
            for b, gb in enumerate(model.generators):
                want = -2.0 * eye if a == b else 0.0 * eye
                ok &= bool(np.max(np.abs(ga @ gb + gb @ ga - want)) < 1e-14)
    ok &= bool(np.max(np.abs(model3.volume - np.eye(2))) < 1e-14)
    ok &= bool(np.max(np.abs(model4.volume @ model4.volume - np.eye(4))) < 1e-14)
    J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    spec2 = np.sort(np.linalg.eigvals(
        kahler_action(build_clifford(2), J2)).imag)
    ok &= bool(np.allclose(spec2, [-1.0, 1.0], atol=1e-13))
    J4 = np.kron(np.eye(2), J2)
    spec4 = np.sort(np.linalg.eigvals(kahler_action(model4, J4)).imag)
    ok &= bool(np.allclose(spec4, [-2.0, 0.0, 0.0, 2.0], atol=1e-13))
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(1000):
        A = rng.standard_normal((3, 3))
        worst = max(worst, shape_commutator_residual(A + A.T, model3))
    ok &= worst < 1e-12
    elapsed = took()
    _report(1, ok and elapsed < 1.0, elapsed,
            f"Clifford relations, volume conventions, Kaehler spectra, "
            f"commutator identity worst={worst:.2e} over 1000 trials")


def test_criterion_2_structure_suite():
    took = _stopwatch()
    rng = np.random.default_rng(RNG_SEED)
    members = catalog_members()
    assert len(members) >= 5
    worst = 0.0
    for name, prod, chart in members:
        for u in sample(chart, rng, 100):
            ev = evaluate(chart, prod, u)
            worst = max(worst, max(involution_identities(ev).values()),
                        max(contact_identities(ev).values()))
    elapsed = took()
    _report(2, worst < 1e-9 and elapsed < 5.0, elapsed,
            f"splitting + contact identities, {len(members)} members x 100 "
            f"points, worst={worst:.2e}")


def test_criterion_3_curvature_suite():
    took = _stopwatch()
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    control = np.inf
    for name, prod, chart in catalog_members():
        for k, u in enumerate(sample(chart, rng, 25)):
            ev = evaluate(chart, prod, u)
            worst = max(worst, gauss_residual(ev), codazzi_residual(ev))
            if k < 3:
                control = min(control, gauss_residual(
                    ev.replace(E_frame=perturbed_shape(ev, rng))))
    elapsed = took()
    ok = worst < 1e-5 and control > 1e-2 and elapsed < 20.0
    _report(3, ok, elapsed,
            f"Gauss/Codazzi worst={worst:.2e}, perturbed control "
            f"min={control:.2e}")


def test_criterion_4_restriction_suite():
    took = _stopwatch()
    rng = np.random.default_rng(RNG_SEED)
    worst = {"killing": 0.0, "algebraic": 0.0, "pairing": 0.0,
             "omega": 0.0, "cancellation": 0.0}
    for name, prod, chart in catalog_members():
        for u in sample(chart, rng, 25):
            ev = evaluate(chart, prod, u)
            worst["cancellation"] = max(
                worst["cancellation"],
                max(projection_cancellation_residuals(ev).values()))
            for tag in (1, 2):
                rs = restrict_structure(ev, structure(tag))
                worst["killing"] = max(worst["killing"], max(
                    killing_residual(rs, ev.frame[:, k]) for k in range(3)))
                worst["algebraic"] = max(worst["algebraic"],
                                         algebraic_conditions(rs))
                worst["omega"] = max(worst["omega"],
                                     omega_formula_residual(rs))
                if tag == 2:
                    worst["pairing"] = max(
                        worst["pairing"],
                        max(pairing_identities(rs).values()))
    elapsed = took()
    ok = (worst["killing"] < 1e-6 and worst["algebraic"] < 1e-8
          and worst["pairing"] < 1e-8 and worst["omega"] < 1e-6
          and worst["cancellation"] < 1e-10 and elapsed < 20.0)
    _report(4, ok, elapsed,
            "restriction suite worst residuals "
            + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_5_system_suite():
    took = _stopwatch()
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    covanish_ok = True
    perturbed_ok = True
    for name, prod, chart in catalog_members():
        pts = sample(chart, rng, 20)
        for u in pts:
            ev = evaluate(chart, prod, u)
            for tag in (1, 2):
                worst = max(worst, system_residuals(tag, ev).max_residual)
        head = evaluate(chart, prod, pts[:6])
        bumped = head.replace(E_frame=perturbed_shape(head, rng))
        for tag in (1, 2):
            rep = gauss_iff_codazzi(tag, head, bumped)
            covanish_ok &= rep.verdict and rep.confirmed == 6
            perturbed_ok &= all(min(g, s) > 1e-3
                                for g, s in rep.perturbed_joint)
    elapsed = took()
    ok = worst < 1e-5 and covanish_ok and perturbed_ok and elapsed < 10.0
    _report(5, ok, elapsed,
            f"24 system equations worst={worst:.2e}, co-vanishing confirmed "
            f"on genuine and perturbed ensembles")


# the restricted-structure battery of the forward direction
FORWARD_CHECKS = ["killing.s1", "killing.s2", "spinc.normal_condition_s1",
                  "spinc.normal_condition_s2", "spinc.pairing_identities",
                  "spinc.omega_s1", "spinc.omega_s2",
                  "spinc.omega_restriction_s1", "spinc.omega_restriction_s2",
                  "spinc.projection_cancellation"]


def test_criterion_6_theorem_round_trip():
    took = _stopwatch()
    rng = np.random.default_rng(RNG_SEED)
    forward_ok = True
    for sc in BUILTIN_SCENARIOS:
        records = run_checks(sc["hypersurface"]["kind"], sc["c1"], sc["c2"],
                             8, FORWARD_CHECKS,
                             sc["hypersurface"].get("params", {}))
        forward_ok &= all(r.verdict == "pass" for r in records)
    ev = evaluate(build_chart("graph"), build_product(1.0, 0.0),
                  [0.3, -0.2, 0.4])
    _, clean_failed = converse_check(ev)
    converse_ok = clean_failed == []
    corruption_ok = True
    for mode, target in CORRUPTION_TARGETS.items():
        _, failed = converse_check(corrupt(ev, mode, rng))
        corruption_ok &= target in failed
    elapsed = took()
    ok = forward_ok and converse_ok and corruption_ok and elapsed < 15.0
    _report(6, ok, elapsed,
            "forward check on every member; converse clean; all four "
            "single-field corruptions fail their named check")


def test_criterion_7_dirac_energy_momentum():
    took = _stopwatch()
    rng = np.random.default_rng(RNG_SEED)
    worst_d = worst_q1 = 0.0
    signs = set()
    for name, prod, chart in catalog_members():
        for u in sample(chart, rng, 8):
            ev = evaluate(chart, prod, u)
            de1 = dirac_and_energy_momentum(restrict_structure(ev, structure(1)))
            de2 = dirac_and_energy_momentum(restrict_structure(ev, structure(2)))
            worst_d = max(worst_d, de1.dirac_residual, de2.dirac_residual)
            worst_q1 = max(worst_q1, float(np.max(np.abs(de1.Q - ev.E_frame))))
            if np.max(np.abs(ev.E_frame)) > 1e-8:
                signs.add(1 if np.max(np.abs(de2.Q - ev.E_frame))
                          <= np.max(np.abs(de2.Q + ev.E_frame)) else -1)
    elapsed = took()
    ok = worst_d < 1e-5 and worst_q1 < 1e-5 and signs == {-1} and elapsed < 5.0
    _report(7, ok, elapsed,
            f"Dirac laws worst={worst_d:.2e}, Q(structure 1)=E to "
            f"{worst_q1:.2e}, measured sign of Q(structure 2) vs E: "
            f"{sorted(signs)}")


def test_criterion_8_umbilic_suite():
    took = _stopwatch()
    ok = True
    # trivially satisfied members, verified exactly
    for kind, c1, c2, params in [("round-sphere", 0.0, 0.0, {"r": 1.0}),
                                 ("slice-geodesic", 1.0, -0.5, {})]:
        (rec,) = run_checks(kind, c1, c2, 20, ["umbilic.gradient_identity"],
                            params)
        ok &= rec.points_evaluated == 20
        ok &= rec.notes["dH_xi_max"] < 1e-6
        ok &= rec.max_residual < 1e-5
    # scan of a graph family in curved x flat: absence recorded
    (rec,) = run_checks("graph", 1.0, 0.0, 40, ["umbilic.gradient_identity"])
    ok &= rec.max_residual < 1e-5
    elapsed = took()
    _report(8, ok and elapsed < 10.0, elapsed,
            f"gradient identity verified on umbilic members; graph scan: "
            f"{rec.notes['umbilic_points']} umbilic of "
            f"{rec.points_evaluated} verified")


def test_criterion_9_determinism_and_interface(tmp_path):
    took = _stopwatch()
    scen = {"name": "determinism", "c1": 1.0, "c2": 0.0,
            "hypersurface": {"kind": "graph", "params": {}},
            "samples": 5, "seed": 99,
            "checks": ["structure.contact", "spinc.omega_s1", "system.one"]}
    r1 = run_scenario(Scenario.from_dict(scen)).to_dict()
    r2 = run_scenario(Scenario.from_dict(scen)).to_dict()
    r1["runtime_seconds"] = r2["runtime_seconds"] = 0.0
    deterministic = json.dumps(r1, sort_keys=True) == json.dumps(r2,
                                                                 sort_keys=True)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scen))
    exit0 = subprocess.run(
        [sys.executable, "-m", "spinlab.cli", "run", "--scenario", str(path)],
        capture_output=True).returncode == 0
    scen["tolerances"] = {"system.one": 1e-30}
    path.write_text(json.dumps(scen))
    exit1 = subprocess.run(
        [sys.executable, "-m", "spinlab.cli", "run", "--scenario", str(path)],
        capture_output=True).returncode == 1
    exit2 = subprocess.run(
        [sys.executable, "-m", "spinlab.cli", "run", "--scenario",
         str(tmp_path / "missing.json")], capture_output=True).returncode == 2

    t_cat = time.perf_counter()
    reports = run_catalog()
    catalog_time = time.perf_counter() - t_cat
    catalog_ok = all(r.passed for r in reports) and catalog_time < 60.0
    for r in reports:
        emit_json(r)  # must serialize cleanly
    elapsed = took()
    ok = deterministic and exit0 and exit1 and exit2 and catalog_ok
    _report(9, ok, elapsed,
            f"byte-identical reports, exit codes 0/1/2 honored, full "
            f"catalog pass in {catalog_time:.1f} s")

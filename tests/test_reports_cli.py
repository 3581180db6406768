"""Scenario runner, report formats, determinism and the CLI contract."""

import copy
import dataclasses
import json
import re
import subprocess
import sys
import warnings
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab.checks import (REGISTRY, REGISTRY_BY_NAME, list_checks,
                            run_catalog, run_scenario)
from spinlab.reports import (Scenario, ScenarioError, _json_text, emit,
                             emit_csv, emit_json, emit_text)

BASE = {
    "name": "unit", "c1": 1.0, "c2": 0.0,
    "hypersurface": {"kind": "graph", "params": {}},
    "samples": 6, "seed": 42,
}

FAST_CHECKS = ["structure.involution", "structure.contact",
               "spinc.normal_condition_s1", "spinc.omega_s2"]


def small_scenario(**over):
    d = dict(BASE, checks=FAST_CHECKS)
    d.update(over)
    return Scenario.from_dict(d)


def test_scenario_validation_errors():
    for bad in [
        dict(BASE, samples=0),
        dict(BASE, hypersurface={"kind": "nonsense"}),
        dict(BASE, tolerances={"structure.contact": -1.0}),
        dict(BASE, structure_pairing="sideways"),
        {"name": "missing-fields"},
    ]:
        with pytest.raises(ScenarioError):
            Scenario.from_dict(bad)


def test_run_scenario_passes_and_reports():
    report = run_scenario(small_scenario())
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == FAST_CHECKS
    for c in report.checks:
        assert c.points_evaluated > 0
        assert c.verdict == "pass"
        assert c.anchor


def test_unknown_check_rejected():
    with pytest.raises(ScenarioError):
        run_scenario(small_scenario(checks=["no.such.check"]))


@pytest.mark.parametrize("order", [1, -1], ids=["after", "before"])
def test_unknown_check_refused_before_any_check_runs(monkeypatch, order):
    """Every name is checked before the first check runs, so a check
    ahead of the unknown one never runs, and the error names the unknown
    check in either order, also where the geometry would fail."""
    spec = REGISTRY_BY_NAME["curvature.gauss"]
    calls = []

    def counted(ctx):
        calls.append(ctx)
        return spec.fn(ctx)

    monkeypatch.setitem(REGISTRY_BY_NAME, spec.name,
                        dataclasses.replace(spec, fn=counted))
    for c1 in (1.0, 1e308):
        with pytest.raises(ScenarioError, match="unknown check 'nope'"):
            run_scenario(small_scenario(
                c1=c1, checks=[spec.name, "nope"][::order]))
    assert calls == []


def test_empty_check_list_warns_and_passes():
    report = run_scenario(small_scenario(checks=[]))
    assert report.passed
    assert report.checks == []
    assert any("empty" in w for w in report.warnings)


def test_unattainable_tolerance_fails():
    report = run_scenario(small_scenario(
        tolerances={"structure.contact": 1e-20}))
    assert not report.passed
    failing = [c for c in report.checks if c.verdict == "fail"]
    assert [c.name for c in failing] == ["structure.contact"]


def test_determinism_byte_identical():
    r1 = run_scenario(small_scenario())
    r2 = run_scenario(small_scenario())
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1["runtime_seconds"] = d2["runtime_seconds"] = 0.0
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_seed_changes_report():
    r1 = run_scenario(small_scenario())
    r2 = run_scenario(small_scenario(seed=43))
    v1 = [c.max_residual for c in r1.checks]
    v2 = [c.max_residual for c in r2.checks]
    assert v1 != v2


def test_json_round_trip():
    report = run_scenario(small_scenario())
    assert json.loads(emit_json(report)) == report.to_dict()


def test_json_record_keys():
    """A JSON check record carries exactly these fields."""
    (rec,) = json.loads(emit_json(run_scenario(
        small_scenario(checks=["structure.involution"]))))["checks"]
    assert sorted(rec) == ["anchor", "max_residual", "name", "notes",
                           "points_evaluated", "tolerance", "verdict"]


# surrogates and control characters included
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT | _FLOATS
    | _FLOATS.map(np.float64),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_text_is_the_stdlib_encoding(x):
    assert _json_text(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


def _case_id(x):
    """repr without memory addresses, so a case keeps its name across runs."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(x))


@pytest.mark.parametrize("x", [
    {2: "a", 10: "b", 1.5: "c"}, {True: 1, False: 2}, {None: 3},
    {float("nan"): 1, float("inf"): 2}, {"b": 1, 1: 2},
    {(1, 2): 3}, np.float32(1.0), np.int64(3), np.bool_(True), {1, 2},
    [object()]], ids=_case_id)
def test_json_text_keys_and_refusals_follow_the_stdlib(x):
    """Non-string keys are written as json writes them, and keys that do
    not sort or a value json cannot encode raise json's TypeError."""
    try:
        want = json.dumps(x, indent=2, sort_keys=True) + "\n"
    except TypeError as exc:
        with pytest.raises(TypeError, match=f"^{re.escape(str(exc))}$"):
            _json_text(x)
    else:
        assert _json_text(x) == want


def test_catalog_json_is_the_stdlib_encoding(tmp_path, monkeypatch):
    from spinlab import cli
    made = []

    def recording(pairing):
        made.extend(run_catalog(pairing))
        return made

    monkeypatch.setattr(cli, "run_catalog", recording)
    out = tmp_path / "catalog.json"
    assert cli.main(["catalog", "--format", "json", "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(
        [r.to_dict() for r in made], indent=2, sort_keys=True) + "\n"


def test_catalog_reports_repeat():
    """Two catalog runs in one process write the same JSON bytes once
    their run times are zeroed: every kernel path is deterministic."""
    first, second = ([emit_json(dataclasses.replace(r, runtime_seconds=0.0))
                      for r in run_catalog()] for _ in range(2))
    assert first == second


def test_csv_row_count():
    report = run_scenario(small_scenario())
    rows = emit_csv(report).strip().splitlines()
    assert len(rows) == 1 + len(report.checks)


def test_csv_header():
    header = emit_csv(run_scenario(small_scenario())).splitlines()[0]
    assert header == ("scenario,check,anchor,max_residual,tolerance,"
                      "verdict,points_evaluated")


def test_text_contains_anchor_of_failing_check():
    report = run_scenario(small_scenario(
        tolerances={"spinc.omega_s2": 1e-30}))
    text = emit_text(report)
    spec = next(s for s in REGISTRY if s.name == "spinc.omega_s2")
    assert spec.anchor.split(";")[0][:40] in text
    assert "FAIL" in text


def test_unknown_format_rejected():
    report = run_scenario(small_scenario())
    with pytest.raises(ScenarioError):
        emit(report, "yaml")


def test_tolerance_scale_env(monkeypatch):
    """SPINLAB_TOL_SCALE is not read: however it is set, every record
    carries its registry tolerance."""
    spec_tol = {s.name: s.tolerance for s in REGISTRY}
    for raw in ("1e6", "-2"):
        monkeypatch.setenv("SPINLAB_TOL_SCALE", raw)
        report = run_scenario(small_scenario())
        assert [c.name for c in report.checks] == FAST_CHECKS
        for rec in report.checks:
            assert rec.tolerance == spec_tol[rec.name], rec.name


def test_list_checks_registry():
    rows = list_checks()
    names = [r[0] for r in rows]
    assert len(names) == len(set(names))
    assert "curvature.gauss" in names
    assert "system.two" in names
    assert all(r[2] > 0 for r in rows)


def _cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "spinlab.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cli_exit_codes(tmp_path):
    scen = dict(BASE, checks=FAST_CHECKS)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scen))

    ok = _cli("run", "--scenario", str(path), "--format", "json")
    assert ok.returncode == 0
    payload = json.loads(ok.stdout)
    assert payload["overall_verdict"] == "pass"

    scen_bad = copy.deepcopy(scen)
    scen_bad["tolerances"] = {"structure.contact": 1e-20}
    path.write_text(json.dumps(scen_bad))
    fail = _cli("run", "--scenario", str(path))
    assert fail.returncode == 1

    scen_cfg = copy.deepcopy(scen)
    scen_cfg["hypersurface"] = {"kind": "nonsense"}
    path.write_text(json.dumps(scen_cfg))
    cfg = _cli("run", "--scenario", str(path))
    assert cfg.returncode == 2

    missing = _cli("run", "--scenario", str(tmp_path / "absent.json"))
    assert missing.returncode == 2


def test_cli_seed_override_and_out_file(tmp_path):
    scen = dict(BASE, checks=FAST_CHECKS)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scen))
    out = tmp_path / "report.json"
    res = _cli("run", "--scenario", str(path), "--format", "json",
               "--seed", "7", "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["scenario"]["seed"] == 7


def test_cli_list_checks():
    res = _cli("list-checks")
    assert res.returncode == 0
    assert "curvature.codazzi" in res.stdout


def test_geometry_errors_become_configuration_errors():
    """A sampling box escaping a negatively curved chart is a scenario
    problem, not a crash: it must surface as a configuration error."""
    scen = Scenario.from_dict({
        "name": "escape", "c1": 0.0, "c2": -100.0,  # chart radius 0.2
        "hypersurface": {"kind": "flat-hyperplane", "params": {}},
        "samples": 6, "seed": 1, "checks": ["structure.involution"]})
    with pytest.raises(ScenarioError):
        run_scenario(scen)


def test_unwritable_output_path_is_configuration_error(tmp_path):
    import json as _json

    from spinlab.cli import main
    scen = dict(BASE, checks=FAST_CHECKS)
    path = tmp_path / "scen.json"
    path.write_text(_json.dumps(scen))
    code = main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / "no" / "such" / "dir" / "r.json")])
    assert code == 2


def test_flipped_pairing_localizes_structure2_checks():
    """Moving the anti-canonical gauge to the other factor must fail the
    negative-structure curvature formula and nothing else in this set."""
    scen = Scenario.from_dict({
        "name": "pairing", "c1": 1.0, "c2": 4.0,
        "hypersurface": {"kind": "round-sphere", "params": {"r": 0.35}},
        "samples": 5, "seed": 3,
        "checks": ["spinc.omega_s1", "spinc.omega_s2", "curvature.gauss"],
        "structure_pairing": "flipped"})
    report = run_scenario(scen)
    verdicts = {c.name: c.verdict for c in report.checks}
    assert verdicts["spinc.omega_s2"] == "fail"
    assert verdicts["spinc.omega_s1"] == "pass"
    assert verdicts["curvature.gauss"] == "pass"
    assert not report.passed


def test_flipped_pairing_catalog_fails_exactly_the_structure2_checks(
        tmp_path):
    """``spinlab catalog --structure-pairing flipped`` exits 1, and the
    checks that fail on some member are exactly the three structure-2
    checks that read the factor whose sign moved."""
    from spinlab import cli
    out = tmp_path / "flipped.json"
    assert cli.main(["catalog", "--structure-pairing", "flipped",
                     "--format", "json", "--out", str(out)]) == 1
    failing = {c["name"] for r in json.loads(out.read_text())
               for c in r["checks"] if c["verdict"] == "fail"}
    assert failing == {"spinc.normal_condition_s2",
                       "spinc.pairing_identities", "spinc.omega_s2"}


def _nan_at(arr, index):
    arr = np.array(arr, dtype=float)
    arr[index] = np.nan
    return arr


@pytest.mark.parametrize("check, target", [
    ("structure.involution", "involution_identities"),  # assert
    ("curvature.gauss_control", "gauss_residual"),      # control
])
def test_nan_residual_fails_the_check(monkeypatch, check, target):
    """A NaN at any point, here the second of the batch, must fail assert
    and control checks alike; max(0.0, nan) is 0.0, so a running max would
    lose it."""
    from spinlab import hypersurfaces as hyp
    original = getattr(hyp, target)
    calls = []

    def with_nan(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(1)
        if isinstance(out, dict):
            return {k: _nan_at(v, 1) for k, v in out.items()}
        return _nan_at(out, 1)

    monkeypatch.setattr(hyp, target, with_nan)
    report = run_scenario(small_scenario(checks=[check]))
    assert calls
    (rec,) = report.checks
    assert np.isnan(rec.max_residual)
    assert rec.verdict == "fail"
    assert not report.passed


def test_involution_and_converse_read_one_battery(monkeypatch):
    """A full-registry run computes the splitting algebra once, and a NaN
    at one point of it fails both checks that read it."""
    from spinlab import hypersurfaces as hyp
    original = hyp._involution_identities
    calls = []

    def with_nan(ev):
        calls.append(1)
        return {k: _nan_at(v, 1) for k, v in original(ev).items()}

    monkeypatch.setattr(hyp, "_involution_identities", with_nan)
    report = run_scenario(small_scenario(checks=None))
    assert len(calls) == 1
    failed = {rec.name for rec in report.checks if rec.verdict == "fail"}
    assert failed == {"structure.involution", "theorem.converse_roundtrip"}


def _worst_at_one_point(shape, n, worst):
    """Per-point residuals in ``shape`` that are 0 except ``worst`` at one
    point."""
    clean = np.zeros(n)
    bad = clean.copy()
    bad[n // 2] = worst
    return {"array": bad, "list": [clean, bad],
            "dict": {"clean": clean, "bad": bad}}[shape]


@pytest.mark.parametrize("shape", ["array", "list", "dict"])
@pytest.mark.parametrize("name", [s.name for s in REGISTRY])
def test_runner_reduces_every_check_alike(monkeypatch, name, shape):
    """The runner takes the worst value of whatever a check returns: a NaN
    at one point fails an assert or a control; a control passes only
    strictly above its tolerance, an assert only at or below it."""
    spec = REGISTRY_BY_NAME[name]

    def record(worst):
        monkeypatch.setitem(REGISTRY_BY_NAME, name, dataclasses.replace(
            spec, fn=lambda ctx: (
                _worst_at_one_point(shape, len(ctx.points), worst), {})))
        (rec,) = run_scenario(small_scenario(checks=[name])).checks
        assert rec.points_evaluated == BASE["samples"]
        assert rec.tolerance == spec.tolerance
        return rec

    tol = spec.tolerance
    nan = record(np.nan)
    assert np.isnan(nan.max_residual)
    at, above = record(tol), record(np.nextafter(tol, np.inf))
    assert (at.max_residual, above.max_residual) == (
        tol, np.nextafter(tol, np.inf))
    want = {"assert": ("fail", "pass", "fail"),
            "control": ("fail", "fail", "pass")}[spec.kind]
    assert (nan.verdict, at.verdict, above.verdict) == want


AMBIENT = ["ambient.product_structure", "ambient.auxiliary_curvature"]


@pytest.mark.parametrize("check", AMBIENT)
def test_nan_in_ambient_probe_fails_the_check(monkeypatch, check):
    """A NaN value of the flat second factor's conformal factor jet at one
    sample point, the second, must fail the check."""
    from spinlab import product
    from spinlab.jets import Jet
    original = product.conformal
    poisoned = []

    def with_nan(c, xy):
        lam = original(c, xy)
        if isinstance(lam, Jet):
            lam = Jet(lam.c.copy(), lam.shape)
            lam.c[0, np.flatnonzero(c == 0.0), 1] = np.nan
            poisoned.append(lam.order)
        return lam

    monkeypatch.setattr(product, "conformal", with_nan)
    report = run_scenario(small_scenario(checks=[check]))
    assert poisoned == [2]
    (rec,) = report.checks
    assert np.isnan(rec.max_residual)
    assert rec.verdict == "fail"


def test_corrupted_ricci_form_fails_both_ambient_checks(monkeypatch):
    """A Ricci form coefficient off by a relative 1e-9 fails both ambient
    checks on every catalog member with a curved factor."""
    from spinlab import product
    from spinlab.catalog import BUILTIN_SCENARIOS
    original = product.ricci_coefficient
    monkeypatch.setattr(product, "ricci_coefficient",
                        lambda c, lam: original(c, lam) * (1 + 1e-9))
    curved = [raw for raw in BUILTIN_SCENARIOS if raw["c1"] or raw["c2"]]
    assert len(curved) == 4
    for raw in curved:
        report = run_scenario(Scenario.from_dict(dict(raw, checks=AMBIENT)))
        for rec in report.checks:
            assert rec.verdict == "fail", (raw["name"], rec.name)


def _poison_batch(monkeypatch, **changes):
    """Every scenario batch gets each stage ``attr`` of ``changes``
    replaced by ``changes[attr](batch, values)`` before any check reads
    it."""
    from spinlab.checks import ScenarioContext
    build = ScenarioContext.batch.func

    def batch(self):
        ev = build(self)
        return ev.replace(**{attr: change(ev, getattr(ev, attr))
                             for attr, change in changes.items()})

    prop = cached_property(batch)
    prop.__set_name__(ScenarioContext, "batch")
    monkeypatch.setattr(ScenarioContext, "batch", prop)


@pytest.mark.parametrize("check, attr, index", [
    ("connection.xi_derivative", "frame", (slice(None), 1)),  # second column
    ("induced.consistency", "g_val", (1, 1)),
    ("structure.rank_two", "f_frame", (0, 0)),
    ("theorem.converse_roundtrip", "f_frame", (0, 0)),
])
def test_nan_inside_a_point_residual_fails_the_check(monkeypatch, check, attr,
                                                     index):
    """A NaN in the second node of a residual (the second frame vector, or
    the metric behind the positive-definiteness margin), or in the frame
    data behind the trace of F, at the second point must reach the
    verdict."""
    _poison_batch(monkeypatch,
                  **{attr: lambda ev, x: _nan_at(x, (1, *index))})
    report = run_scenario(small_scenario(checks=[check]))
    (rec,) = report.checks
    assert np.isnan(rec.max_residual)
    assert rec.verdict == "fail"


def test_nan_frame_data_fails_gauss_and_codazzi(monkeypatch):
    """A NaN f at the second point makes the Gauss and Codazzi residuals
    NaN there, and both checks fail."""
    _poison_batch(monkeypatch, f_frame=lambda ev, x: _nan_at(x, 1))
    report = run_scenario(small_scenario(checks=[
        "curvature.gauss", "curvature.codazzi"]))
    assert [c.verdict for c in report.checks] == ["fail"] * 2
    assert all(np.isnan(c.max_residual) for c in report.checks)


def test_shifted_h_fails_rank_two_on_every_member(monkeypatch):
    """h shifted by 1e-8 at every point of each catalog member leaves
    |tr f + h| at 1e-8, above the tolerance 1e-9: structure.rank_two
    fails, where an SVD rank count at 1e-8 would still read (2, 2)."""
    from spinlab.catalog import BUILTIN_SCENARIOS
    _poison_batch(monkeypatch, h_val=lambda ev, h: h + 1e-8)
    for raw in BUILTIN_SCENARIOS:
        (rec,) = run_scenario(Scenario.from_dict(dict(
            raw, checks=["structure.rank_two"]))).checks
        assert rec.verdict == "fail", raw["name"]
        assert rec.max_residual > rec.tolerance, raw["name"]


def test_nan_fails_the_normal_condition(monkeypatch):
    """A NaN normal at the second sample point fails
    spinc.normal_condition_s1; spinc.omega_s1, which does not read the
    normal, stays finite and passes."""
    _poison_batch(monkeypatch, nu_val=lambda ev, x: _nan_at(x, (1, 0)))
    report = run_scenario(small_scenario(checks=[
        "spinc.normal_condition_s1", "spinc.omega_s1"]))
    normal, omega = report.checks
    assert np.isnan(normal.max_residual) and normal.verdict == "fail"
    assert omega.verdict == "pass" and omega.max_residual < 1e-6


RESTRICTED_ASSERTS = [spec.name for spec in REGISTRY
                      if spec.name.split(".")[0] in ("killing", "spinc")
                      and spec.kind == "assert"]


@pytest.mark.parametrize("check", RESTRICTED_ASSERTS)
def test_nan_fails_every_restricted_check(monkeypatch, check):
    """A NaN tangent vector component at the second sample point reaches
    every Killing and spin^c assert check, which each run once on the
    whole batch."""
    _poison_batch(monkeypatch, T_val=lambda ev, x: _nan_at(x, (1, 0, 0)))
    (rec,) = run_scenario(small_scenario(checks=[check])).checks
    assert np.isnan(rec.max_residual)
    assert rec.verdict == "fail"


UMBILIC = {"checks": ["umbilic.gradient_identity"], "c1": 0.0, "c2": 0.0,
           "hypersurface": {"kind": "round-sphere", "params": {"r": 1.5}}}


def test_nan_fails_the_umbilic_identity(monkeypatch):
    """A NaN mean-curvature gradient at the second point of an everywhere
    umbilic sphere fails the gradient identity."""
    _poison_batch(monkeypatch, dH=lambda ev, x: _nan_at(x, 1))
    (rec,) = run_scenario(small_scenario(**UMBILIC)).checks
    assert rec.points_evaluated == 6
    assert np.isnan(rec.max_residual)
    assert rec.verdict == "fail"


def test_umbilic_identity_asserts_dH_of_xi(monkeypatch):
    """dH(xi) = 0 is asserted, not only noted.  On the geodesic slice
    (V = 0, dH = 0) the second point gets dH = t eta, so dH(xi) = t and
    dH(e_i) = 0, and V = (0, 0, 4t / |c1 - c2|), so the tangential law and
    4|dH| = |V||c1 - c2| still hold: only dH(xi) is off."""
    t, c1, c2 = 1e-3, 1.0, -0.5
    second = np.arange(6)[:, None] == 1
    _poison_batch(
        monkeypatch,
        dH=lambda ev, x: x + np.where(
            second, t * np.einsum("...ab,...b->...a", ev.g_val,
                                  ev.xi_coord_val), 0.0),
        V_frame=lambda ev, x: x + np.where(
            second, [0.0, 0.0, 4.0 * t / abs(c1 - c2)], 0.0))
    (rec,) = run_scenario(small_scenario(**{
        **UMBILIC, "c1": c1, "c2": c2,
        "hypersurface": {"kind": "slice-geodesic", "params": {}}})).checks
    assert rec.points_evaluated == 6
    assert rec.max_residual == pytest.approx(t, rel=1e-9)
    assert rec.verdict == "fail"


def test_dirac_law_runs_once_per_point_and_structure(monkeypatch):
    """The Dirac and energy-momentum checks of one structure share one
    computation, made once on the batch of all sample points."""
    from spinlab import restriction
    original = restriction.dirac_and_energy_momentum
    calls = []

    def counted(rs):
        calls.append((rs.ev.position.shape, rs.struct.tag))
        return original(rs)

    monkeypatch.setattr(restriction, "dirac_and_energy_momentum", counted)
    report = run_scenario(small_scenario(checks=[
        "spinc.dirac_s1", "spinc.dirac_s2", "spinc.energy_momentum_s1",
        "spinc.energy_momentum_s2"]))
    assert report.passed
    assert calls == [((6, 4), 1), ((6, 4), 2)]


def test_shared_work_runs_once_per_scenario(monkeypatch):
    """Over one run of every check, each quantity that several checks read
    is computed once on the clean batch: Gauss, Codazzi, the derivative
    identities and the trace of F once, both compatibility systems in one
    pass, the frame spinor derivative, the frame images gamma(e_k) phi and
    the closed form of Omega once per structure, and the factor record of
    the Ricci coefficients once for both structures.  The two controls
    share one perturbed copy, on which Gauss, the systems and so Omega are
    computed once more."""
    from spinlab import hypersurfaces as hyp
    from spinlab import restriction as rst
    from spinlab import systems as sysmod
    from spinlab.restriction import RestrictedSpinc
    calls = []

    def count(owner, name, label):
        original = getattr(owner, name)

        def counted(*args):
            calls.append(label(*args))
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for body in ("_gauss", "_codazzi", "_derivative_identities",
                 "_trace_residual"):
        count(hyp, body, lambda ev, body=body: (body, len(ev.u)))
    count(sysmod, "_system_equations", lambda ev: ("systems", len(ev.u)))
    count(rst, "factors", lambda ev: ("factors", len(ev.u)))

    def count_property(name, label):
        body = RestrictedSpinc.__dict__[name].func

        def counted(rs):
            calls.append((label, rs.struct.tag))
            return body(rs)

        counted = cached_property(counted)
        counted.__set_name__(RestrictedSpinc, name)
        monkeypatch.setattr(RestrictedSpinc, name, counted)

    count_property("frame_derivative", "frame derivative")
    count_property("frame_images", "frame images")
    count(rst, "closed_form_omega",
          lambda tag, c1, c2, h, V: ("omega", tag, len(h)))
    report = run_scenario(small_scenario(samples=14, checks=None))
    assert report.passed

    def runs(label):
        return sorted(c[1:] for c in calls if c[0] == label)

    for body in ("_codazzi", "_derivative_identities", "_trace_residual"):
        assert runs(body) == [(14,)], body
    # once on the clean batch and once on the one perturbed copy that
    # curvature.gauss_control and system.control read, every one of them
    # all 14 points
    assert runs("_gauss") == [(14,)] * 2
    assert runs("systems") == [(14,)] * 2
    # the systems and spinc.omega_s1/_s2 read one Omega per tag
    assert runs("omega") == [(1, 14), (1, 14), (2, 14), (2, 14)]
    assert runs("frame derivative") == [(1,), (2,)]
    assert runs("frame images") == [(1,), (2,)]
    # on the clean batch, for every Ricci form of both structures; the
    # ambient probes read the factors' forms as jets, not through this
    # record
    assert runs("factors") == [(14,)]


def test_records_do_not_depend_on_which_checks_run():
    """What the checks share is built on first use by whichever check comes
    first, so no record may depend on the selection: on every catalog
    member, each check run alone gives the record of the full run, and the
    registry run in reverse order gives the same report."""
    from spinlab.catalog import BUILTIN_SCENARIOS
    names = [spec.name for spec in REGISTRY]
    for raw in BUILTIN_SCENARIOS:
        full = run_scenario(Scenario.from_dict(raw))
        records = [rec.to_dict() for rec in full.checks]
        assert [r["name"] for r in records] == names
        reverse = run_scenario(Scenario.from_dict(dict(raw,
                                                       checks=names[::-1])))
        assert [rec.to_dict() for rec in reverse.checks[::-1]] == records
        assert (reverse.overall_verdict, reverse.warnings) == (
            full.overall_verdict, full.warnings)
        for name, record in zip(names, records):
            (alone,) = run_scenario(Scenario.from_dict(dict(
                raw, checks=[name]))).checks
            assert alone.to_dict() == record, (raw["name"], name)


CONTROLS = ["curvature.gauss_control", "system.control"]


def test_controls_run_on_every_sample_point():
    """The two controls evaluate every sample point of the scenario, and
    both trip on every catalog member."""
    from spinlab.catalog import BUILTIN_SCENARIOS
    for raw in BUILTIN_SCENARIOS:
        report = run_scenario(Scenario.from_dict(dict(raw, checks=CONTROLS)))
        for rec in report.checks:
            assert rec.points_evaluated == raw["samples"], (raw["name"],
                                                            rec.name)
            assert rec.verdict == "pass", (raw["name"], rec.name)
            assert rec.max_residual > rec.tolerance


def test_one_sample_geodesic_slice_exits_0(tmp_path):
    """The built-in totally geodesic slice at one sample passes every
    check: where E = 0 the control's rank-two bump s (v v^T + w w^T) leaves
    a Gauss residual of at least s^2 / 3, above the tolerance 1e-2 at the
    default s = 0.2."""
    from spinlab.catalog import BUILTIN_SCENARIOS
    from spinlab.cli import main
    (raw,) = [d for d in BUILTIN_SCENARIOS if d["name"] == "slice-geodesic"]
    path = tmp_path / "slice.json"
    path.write_text(json.dumps(dict(raw, samples=1)))
    assert main(["run", "--scenario", str(path), "--format", "json",
                 "--out", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["overall_verdict"] == "pass"


# the chart kinds and curvature pairs of the sweep workload
SWEEP_KINDS = ("flat-hyperplane", "round-sphere", "slice-geodesic",
               "sphere-circle-tube", "graph")
SWEEP_PAIRS = [(c1, c2) for c1 in (0.0, 1.0, -0.5, 2.0)
               for c2 in (0.0, 0.8, -0.3, 4.0)]


@pytest.mark.parametrize("seed", [1, 2])
def test_one_sample_controls_trip_over_the_sweep_grid(tmp_path, seed):
    """Every chart kind on every curvature pair of the sweep grid at one
    sample exits 0, and both controls trip: the one perturbed copy they
    share is large enough at every single point."""
    from spinlab.cli import main
    controls = [spec.name for spec in REGISTRY if spec.kind == "control"]
    path, out = tmp_path / "scenario.json", tmp_path / "report.json"
    for kind in SWEEP_KINDS:
        for c1, c2 in SWEEP_PAIRS:
            cell = (kind, c1, c2)
            path.write_text(json.dumps({
                "name": f"{kind}-{c1}-{c2}", "c1": c1, "c2": c2,
                "hypersurface": {"kind": kind, "params": {}}, "samples": 1,
                "seed": seed}))
            assert main(["run", "--scenario", str(path), "--format", "json",
                         "--out", str(out)]) == 0, cell
            recs = {c["name"]: c for c in
                    json.loads(out.read_text())["checks"]}
            for name in controls:
                assert recs[name]["verdict"] == "pass", (cell, name)
                assert recs[name]["max_residual"] > recs[name]["tolerance"]


@pytest.mark.parametrize("nan_at", [None, 0, 3, -1])
def test_product_structure_reduces_one_array(monkeypatch, nan_at):
    """The Liouville residuals reduce as one array to the bits of the list
    of Python scalars it replaced, NaN included."""
    from spinlab.checks import ScenarioContext
    from spinlab.jets import worst_of
    from spinlab.product import ProductModel
    original = ProductModel.liouville_residual

    def liouville(self, jets):
        res = original(self, jets).copy()
        if nan_at is not None:
            res.flat[nan_at] = np.nan
        return res

    monkeypatch.setattr(ProductModel, "liouville_residual", liouville)
    scenario = small_scenario(checks=AMBIENT[:1])
    ctx = ScenarioContext(scenario)
    got = run_scenario(scenario).checks[0].max_residual
    listed = [float(x) for x in np.ravel(liouville(ctx.product,
                                                   ctx.factor_jets))]
    assert type(got) is float and (nan_at is None) == (got == got)
    assert np.float64(got).tobytes() == np.float64(worst_of(listed)).tobytes()


def _patch_everywhere(monkeypatch, fn, new):
    """Replace the function ``fn`` by ``new`` under every name that a
    spinlab module binds it to."""
    for name, mod in list(sys.modules.items()):
        if name == "spinlab" or name.startswith("spinlab."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, new)


def test_product_structure_is_one_jet_pass(monkeypatch):
    """Both ambient checks read one factor-jet record: one order-2
    conformal factor of both factors, a (2,) jet at every sample point,
    which Liouville's formula reads and Cartan's structure equation reads
    cut to order 1.  A full-registry run evaluates the conformal factor and
    the log-gradient of ``surfaces`` twice each: once for the batch and
    once for the factor record."""
    from spinlab import surfaces
    from spinlab.jets import Jet
    calls = []

    def counted(fn):
        def count(*args):
            out = fn(*args)
            calls.append((fn.__name__, out.order, out.val.shape)
                         if isinstance(out, Jet) else (fn.__name__,))
            return out

        _patch_everywhere(monkeypatch, fn, count)

    counted(surfaces.conformal)
    counted(surfaces.log_gradient)
    report = run_scenario(small_scenario(checks=AMBIENT))
    assert report.passed
    assert calls == [("conformal", 2, (6, 2)), ("conformal", 2, (6, 2)),
                     ("log_gradient", 1, (6, 2, 2))]
    calls.clear()
    report = run_scenario(small_scenario(checks=None))
    assert report.passed
    assert sorted(calls) == [("conformal", 2, (6, 2))] * 2 \
        + [("log_gradient", 1, (6, 2, 2))] * 2


@pytest.mark.parametrize("name", ["conformal", "log_gradient"])
def test_slipped_factor_formula_fails_an_ambient_check(monkeypatch, name):
    """The pipeline and the ambient probes read one formula of the factor
    geometry: a relative 1e-9 slip in it fails an ambient check on every
    catalog member with a curved factor."""
    from spinlab import surfaces
    from spinlab.catalog import BUILTIN_SCENARIOS
    fn = getattr(surfaces, name)
    _patch_everywhere(monkeypatch, fn,
                      lambda *args: fn(*args) * (1 + 1e-9))
    curved = [raw for raw in BUILTIN_SCENARIOS if raw["c1"] or raw["c2"]]
    assert len(curved) == 4
    for raw in curved:
        report = run_scenario(Scenario.from_dict(dict(raw, checks=AMBIENT)))
        assert "fail" in [rec.verdict for rec in report.checks], raw["name"]


@pytest.mark.parametrize("change, extra, says", [
    ({"seed": -1}, [], "seed"),
    ({}, ["--seed", "-3"], "seed"),
    ({"hypersurface": {"kind": "graph", "params": {"coeffs": [1, 2, 3, 4]}}},
     [], "5 coefficients"),
    ({"hypersurface": {"kind": "round-sphere", "params": {"r": "big"}}}, [],
     "'r' must be a number"),
    ({"checks": "system.one"}, [], "list of check names"),
    ({"c1": float("nan")}, [], "finite"),
    ({"c2": float("inf")}, [], "finite"),
    ({"hypersurface": {"kind": "graph", "params": {"orientation": 0}}}, [],
     "orientation"),
    ({"hypersurface": {"kind": "graph", "params": {"coeffs": [1e200] * 5}}},
     [], "differential of the immersion is not finite"),
    ({"c1": 1e300}, [], "differential of the immersion is not finite"),
    # an order-3 batch overflows in the normal's second derivatives
    ({"hypersurface": {"kind": "graph", "params": {"coeffs": [1e100] * 5}},
      "checks": ["structure.involution", "curvature.gauss"]}, [],
     "unit normal is not finite"),
    # an order-2 batch keeps a finite order-1 normal, and the cofactors of
    # the metric (entries near 1e200) overflow first
    ({"hypersurface": {"kind": "graph", "params": {"coeffs": [1e100] * 5}},
      "checks": ["structure.involution"]}, [],
     "determinant of the induced metric is not finite"),
    # the cofactors of g cancel to an exact zero determinant
    ({"hypersurface": {"kind": "graph", "params": {"coeffs": [1e20] * 5}},
      "samples": 4, "seed": 1, "checks": ["structure.involution"]}, [],
     "induced metric is singular"),
    ({"hypersurface": {"kind": "graph", "params": {"coeffs": [1e30] * 5}},
      "samples": 4, "seed": 1, "checks": ["structure.involution"]}, [],
     "induced metric is singular"),
    ({"tolerances": [1, 2]}, [], "tolerances must map check names"),
    ({"tolerances": "structure.contact"}, [], "tolerances must map"),
    ({"hypersurface": {"kind": ["graph"]}}, [], "unknown hypersurface kind"),
    ({"tolerances": {"structure.contat": 1e-9}}, [],
     "tolerance for unknown check 'structure.contat'"),
    ({"samples": 2.7}, [], "sample count must be an integer"),
    ({"samples": True}, [], "sample count must be an integer"),
    ({"tolerances": {"structure.involution": 1e999}}, [],
     "tolerances must be positive and finite"),
    (b"[1, 2]", ["--seed", "3"], "a scenario must be a JSON object, got list"),
    (b'"x"', ["--structure-pairing", "flipped"],
     "a scenario must be a JSON object, got str"),
    ('{"name": "caf\u00e9"}'.encode("latin-1"), [], "cannot read scenario"),
    (b"[" * 100000 + b"]" * 100000, [], "cannot read scenario"),
    ({"tolerances": {"curvature.gauss": True}}, [],
     "tolerance of 'curvature.gauss' must be a number, got True"),
    ({"c1": True}, [], "c1 must be a number, got True"),
    ({"c1": "1.5"}, [], "c1 must be a number, got '1.5'"),
    ({"c2": 10 ** 400}, [], "c2 must be finite"),
    ({"hypersurface": [["kind", "graph"]]}, [],
     "hypersurface must be an object"),
    ({"hypersurface": {"kind": "round-sphere", "params": {"r": True}}}, [],
     "chart parameter 'r' must be a number, got True"),
    ({"hypersurface": {"kind": "round-sphere", "params": {"r": "0.5"}}}, [],
     "chart parameter 'r' must be a number, got '0.5'"),
    ({"hypersurface": {"kind": "sphere-circle-tube", "params": {"a": "0.5"}}},
     [], "chart parameter 'a' must be a number, got '0.5'"),
    ({"hypersurface": {"kind": "graph", "params": {
        "coeffs": [True, False, 0.1, 0.2, 0.1]}}}, [],
     "chart parameter 'coeffs' must be a number, got True"),
    ({"hypersurface": {"kind": "round-sphere", "params": {"r": 10 ** 400}}},
     [], "chart parameter 'r' must be finite"),
    ({"hypersurface": {"kind": "round-sphere", "params": {"radius": 0.35}}},
     [], "chart kind 'round-sphere' has no parameter 'radius'"),
    ({"checks": ["structure.involution", "structure.contact",
                 "structure.involution"]}, [],
     "check 'structure.involution' is named twice"),
    # refused before any check meets the overflowing geometry
    ({"hypersurface": {"kind": "graph", "params": {"coeffs": [1e200] * 5}},
      "checks": ["structure.involution", "no.such.check"]}, [],
     "unknown check 'no.such.check'"),
    # the sample array (21.3 PiB) is refused at once, before any memory is
    # touched; never use a count that could really be allocated
    ({"samples": 10 ** 15}, [], "out of memory: Unable to allocate"),
    # a misspelled key would run its default: the standard pairing, and the
    # default coefficients instead of the overflowing ones
    ({"structure_paring": "flipped"}, [],
     "scenario has no key 'structure_paring'"),
    ({"hypersurface": {"kind": "graph", "param": {"coeffs": [1e200] * 5}}},
     [], "hypersurface has no key 'param'; it reads 'kind', 'params'"),
    # the out-of-chart position is named in 3 significant digits, not as
    # two 200-digit numbers
    ({"c2": -1.0, "hypersurface": {"kind": "sphere-circle-tube",
                                   "params": {"a": 1e200}}}, [],
     "e+199) outside chart of curvature -1.0 at u="),
    ({"name": {"a": 1}}, [], "name must be a string, got dict"),
], ids=["negative-seed", "negative-seed-flag", "graph-four-coeffs",
        "non-numeric-param", "checks-as-string", "nan-curvature",
        "infinite-curvature", "orientation-zero", "graph-overflow",
        "curvature-overflow", "graph-normal-overflow",
        "graph-normal-overflow-order-two",
        "graph-singular-metric-1e20", "graph-singular-metric-1e30",
        "tolerances-as-list", "tolerances-as-string",
        "kind-as-list", "unknown-tolerance-name", "fractional-samples",
        "boolean-samples", "infinite-tolerance", "list-with-seed-flag",
        "string-with-pairing-flag", "not-utf8", "deeply-nested",
        "boolean-tolerance", "boolean-curvature", "string-curvature",
        "huge-integer-curvature", "hypersurface-as-list", "boolean-radius",
        "string-radius", "string-tube-radius", "boolean-coeffs",
        "huge-integer-radius", "unknown-chart-parameter",
        "repeated-check", "unknown-check", "huge-sample-count",
        "unknown-scenario-key", "unknown-hypersurface-key",
        "huge-tube-radius", "non-string-name"])
def test_bad_scenario_exits_2_with_one_line(tmp_path, capsys, change, extra,
                                            says):
    from spinlab.cli import main
    path = tmp_path / "scen.json"
    # a bytes case is the whole file, any other the changes to a scenario
    path.write_bytes(change if isinstance(change, bytes) else json.dumps(
        {**BASE, "checks": FAST_CHECKS, **change}).encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--scenario", str(path), *extra]) == 2
    assert not [w for w in caught if w.category is RuntimeWarning], caught
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err
    assert len(err) <= 200, len(err)  # one readable line


def test_samples_near_the_chart_rim_exit_0(tmp_path):
    """Sample positions at radius 0.995 of the unit disk (c2 = -4) lie in
    the chart, and both ambient checks evaluate them there and pass: they
    compare the 2-forms on the orthonormal frame, where the chart
    coefficients' growth like lam^2 ~ 1e4 divides out."""
    from spinlab.cli import main
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({
        **BASE, "c1": 0.0, "c2": -4.0, "samples": 4,
        "hypersurface": {"kind": "sphere-circle-tube", "params": {"a": 0.995}},
        "checks": AMBIENT}))
    out = tmp_path / "report.json"
    assert main(["run", "--scenario", str(path), "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["points_evaluated"] for c in report["checks"]] == [4, 4]


def test_subnormal_negative_curvature_runs_without_warnings():
    """c2 = -1e-310 makes a disk of radius 2/sqrt(-c2) whose square
    overflows; every check still runs, passes and raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scenario(Scenario.from_dict(
            {**BASE, "c2": -1e-310, "samples": 4}))
    assert report.passed
    assert len(report.checks) == len(REGISTRY)

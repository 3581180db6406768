"""Restricted spin^c structures: Clifford layer, Killing law, curvature
formulas, pairing identities, Dirac operator and energy-momentum tensors."""

import gc
import weakref

import numpy as np
import pytest

from conftest import sample
from helpers import (adapted_gauge_derivative, gamma, gamma_matrix,
                     killing_residual, ricci_form)
from spinlab import build_chart, build_product, evaluate, structure
from spinlab.catalog import BUILTIN_SCENARIOS
from spinlab.checks import REGISTRY, ScenarioContext, run_catalog
from spinlab.hypersurfaces import HypersurfaceChart
from spinlab.product import _curvature
from spinlab.reports import Scenario
from spinlab.restriction import (algebraic_conditions, closed_form_omega,
                                 curvature_restriction_residual,
                                 dirac_and_energy_momentum, frame_ambient,
                                 frame_killing_residual, frame_ricci,
                                 normal_ricci, omega_formula_residual,
                                 pairing_identities, plane_ricci,
                                 projection_cancellation_residuals,
                                 restrict_structure, scale)


def test_restricted_field_has_constant_unit_norm(members, rng):
    for name, prod, chart in members:
        for tag in (1, 2):
            st = structure(tag)
            for u in sample(chart, rng, 100):
                rs = restrict_structure(evaluate(chart, prod, u), st)
                assert abs(np.linalg.norm(rs.psi) - 1.0) < 1e-8, name


def test_clifford_relations_at_points(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 8):
            ev = evaluate(chart, prod, u)
            for tag in (1, 2):
                rs = restrict_structure(ev, structure(tag))
                assert rs.anticommutation_residual(rng) < 1e-12, name


def test_volume_element_measurement(members, rng):
    """gamma(e1) gamma(e2) gamma(xi) acts as -Id on both restricted
    structures for every catalog member (measured, and pinned here)."""
    for name, prod, chart in members:
        for u in sample(chart, rng, 6):
            ev = evaluate(chart, prod, u)
            for tag in (1, 2):
                m = restrict_structure(ev, structure(tag)).volume_measurement()
                assert abs(m + 1.0) < 1e-12, (name, tag, m)


def test_killing_residual_on_catalog(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 15):
            ev = evaluate(chart, prod, u)
            for tag in (1, 2):
                rs = restrict_structure(ev, structure(tag))
                for k in range(3):
                    assert killing_residual(rs, ev.frame[:, k]) < 1e-6, name


def test_frame_derivative_is_the_derivative_along_the_frame(members, rng):
    """The frame derivative that the Killing and Dirac checks share is
    read-only, its shape term is gamma(E e_k) phi along e1, e2, xi, taken
    from the frame images by linearity and within rounding of the 4x4
    route, its derivative is -sign/2 times that term, and it gives, bit for
    bit, the Killing residual taken along the frame, on a batch and on one
    point.  Along other vectors it is compared with the one-point oracle in
    ``test_batch``."""
    for name, prod, chart in members:
        batch = evaluate(chart, prod, sample(chart, rng, 4))
        for ev in (batch, evaluate(chart, prod, batch.u[2])):
            for tag in (1, 2):
                rs = restrict_structure(ev, structure(tag))
                frame = np.swapaxes(ev.frame, -1, -2)
                nabla, shape_term = rs.frame_derivative
                with pytest.raises(ValueError, match="read-only"):
                    nabla[...] = 0.0
                assert np.array_equal(shape_term,
                                      ev.E_frame @ rs.frame_images), name
                assert np.array_equal(nabla, -0.5 * rs.sign * shape_term)
                want = gamma(rs, np.einsum("...ij,...kj->...ki",
                                           ev.E_mixed_val, frame), rs.psi)
                assert np.abs(shape_term - want).max() <= 2e-15 * max(
                    1.0, np.abs(want).max()), name
                assert np.array_equal(
                    frame_killing_residual(rs),
                    killing_residual(rs, frame)), name


def test_frame_images_match_the_matrix_routes(members, rng):
    """The residuals that apply a tangent gamma to phi only read the frame
    images gamma(e_k) phi, and take gamma(V) phi and gamma(nu -| Omega^N)
    phi by linearity from adapted-frame components; the factor Ricci forms
    come from one record of c_k lam_k^2.  Each agrees with the
    4x4 route or with the factors' own evaluators, on a batch and on one
    point."""
    def relative(got, want):
        got, want = np.asarray(got), np.asarray(want)
        return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)

    for name, prod, chart in members:
        batch = evaluate(chart, prod, sample(chart, rng, 4))
        for ev in (batch, evaluate(chart, prod, batch.u[2])):
            p = ev.position.T[..., None]
            amb = frame_ambient(ev)
            eps = np.eye(4).reshape((4,) + (1,) * (ev.u.ndim - 1) + (4,)) \
                / scale(ev).T[..., None]
            a, b = np.triu_indices(4, 1)
            i, j = np.triu_indices(3, 1)
            for got, want in [
                    (frame_ricci(ev), [ricci_form(prod, p, amb[..., i],
                                                  amb[..., j], k)
                                       for k in (1, 2)]),
                    (plane_ricci(ev), [ricci_form(prod, p, eps[..., a],
                                                  eps[..., b], k)
                                       for k in (1, 2)]),
                    (normal_ricci(ev), [ricci_form(prod, p,
                                                   ev.nu_val.T[..., None],
                                                   amb, k)
                                        for k in (1, 2)])]:
                for g, w in zip(got, want):
                    assert relative(g, w) <= 1e-15, name
            for tag in (1, 2):
                rs = restrict_structure(ev, structure(tag))
                assert np.array_equal(rs.frame_images,
                                      rs.frame_gammas @ rs.psi), name
                V = gamma_matrix(rs, ev.V_coord_val) @ rs.psi
                assert np.abs(rs.frame_image(ev.V_frame) - V).max() \
                    <= 2e-15, (name, tag)
                contraction = _curvature(rs.struct, *normal_ricci(ev))
                W = np.einsum("...ai,...i->...a", ev.frame, contraction)
                assert np.abs(rs.frame_image(contraction)
                              - gamma(rs, W, rs.psi)).max() <= 2e-15, (name,
                                                                      tag)


def test_scenario_context_is_freed_without_the_collector():
    """What the checks share lives in the evaluations' memos, which hold
    arrays only, so no reference cycle keeps an evaluation alive: once
    every check has run, deleting the context frees the batch and its
    perturbed copy with the garbage collector off."""
    for raw in BUILTIN_SCENARIOS:
        ctx = ScenarioContext(Scenario.from_dict(dict(raw, samples=3)))
        gc.disable()
        try:
            for spec in REGISTRY:
                spec.fn(ctx)
            refs = [weakref.ref(ctx.batch), weakref.ref(ctx.perturbed)]
            del ctx
            assert [r() for r in refs] == [None, None], raw["name"]
        finally:
            gc.enable()


def test_killing_law_against_adapted_gauge_oracle(rng):
    """Independent route: trivialize by the adapted frame, lift the frame
    change to the spin group, differentiate there with the induced
    Levi-Civita rotation coefficients and the restricted auxiliary form.
    Must reproduce -+ 1/2 gamma(EX) phi."""
    cases = [
        ("round-sphere", 0.0, 0.0, {"r": 1.0}),
        ("graph", 1.0, 0.0, {}),
        ("round-sphere", 1.0, 4.0, {"r": 0.35}),
        ("sphere-circle-tube", 1.0, 0.8, {"a": 0.5}),
    ]
    for kind, c1, c2, params in cases:
        prod = build_product(c1, c2)
        chart = build_chart(kind, params)
        for _ in range(3):
            u = rng.uniform(chart.domain[:, 0], chart.domain[:, 1])
            ev = evaluate(chart, prod, u)
            X = rng.standard_normal(3)
            for tag in (1, 2):
                st = structure(tag)
                rs = restrict_structure(ev, st)
                oracle = adapted_gauge_derivative(chart, prod, st, u, X)
                EX = ev.E_mixed_val @ X
                killing_rhs = -0.5 * rs.sign * gamma(rs, EX, rs.psi)
                assert np.linalg.norm(oracle - killing_rhs) < 1e-6
                # the derivative along X by linearity, x_k = g(X, e_k)
                nabla = X @ ev.g_val @ ev.frame @ rs.frame_derivative[0]
                assert np.linalg.norm(oracle - nabla) < 1e-6


def test_totally_geodesic_members_have_parallel_spinors():
    for kind, c1, c2 in [("flat-hyperplane", 0.0, 0.0),
                         ("slice-geodesic", 1.0, -0.5)]:
        ev = evaluate(build_chart(kind), build_product(c1, c2),
                      [0.2, -0.1, 0.3])
        for tag in (1, 2):
            rs = restrict_structure(ev, structure(tag))
            for k in range(3):
                assert np.linalg.norm(rs.frame_derivative[0][k]) < 1e-6


def test_algebraic_conditions_on_catalog(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 25):
            ev = evaluate(chart, prod, u)
            for tag in (1, 2):
                rs = restrict_structure(ev, structure(tag))
                assert algebraic_conditions(rs) < 1e-8, (name, tag)


def test_algebraic_condition_sign_flip_control():
    """Using the opposite chirality convention in the Clifford restriction
    turns gamma(xi) phi = -i phi into +i phi: the defect saturates at 2.
    Flipping the whole normal instead leaves the condition invariant,
    since xi and nu change sign together."""
    ev = evaluate(build_chart("round-sphere", {"r": 1.0}),
                  build_product(0.0, 0.0), [0.7, 1.0, 2.0])
    rs = restrict_structure(ev, structure(1))
    rs.sign = -rs.sign  # wrong chirality rule for this structure
    assert algebraic_conditions(rs) == pytest.approx(2.0, abs=1e-9)

    base = build_chart("round-sphere", {"r": 1.0})
    flipped = HypersurfaceChart(map_fn=base.map_fn, domain=base.domain,
                                orientation=-base.orientation)
    ev2 = evaluate(flipped, build_product(0.0, 0.0), [0.7, 1.0, 2.0])
    assert algebraic_conditions(restrict_structure(ev2, structure(1))) < 1e-12


def test_pairing_identities_on_catalog(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 25):
            rs = restrict_structure(evaluate(chart, prod, u), structure(2))
            assert max(pairing_identities(rs).values()) < 1e-8, name


def test_pairing_identity_at_extreme_h():
    """Where h = -1 and V = 0 the xi-pairing gives i(gamma(xi)phi, phi) = -1."""
    ev = evaluate(build_chart("slice-geodesic"), build_product(1.0, -0.5),
                  [0.1, 0.2, 0.3])
    rs = restrict_structure(ev, structure(2))
    g3 = gamma_matrix(rs, ev.frame[:, 2])
    val = 1j * np.vdot(rs.psi, g3 @ rs.psi)
    assert val.real == pytest.approx(-1.0, abs=1e-12)
    assert abs(val.imag) < 1e-12


def test_omega_closed_forms_on_catalog(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 25):
            ev = evaluate(chart, prod, u)
            for tag in (1, 2):
                rs = restrict_structure(ev, structure(tag))
                assert omega_formula_residual(rs) < 1e-6, (name, tag)


def test_omega_slice_value():
    """Geodesic slice (h = -1, V = 0): Omega_1(e1, e2) = -c1, xi-row zero."""
    c1 = 1.0
    ev = evaluate(build_chart("slice-geodesic"), build_product(c1, -0.5),
                  [0.2, 0.1, -0.3])
    rs = restrict_structure(ev, structure(1))
    Om = rs.omega_pullback  # (e1, e2), (e1, xi), (e2, xi)
    assert Om[0] == pytest.approx(-c1, abs=1e-12)
    assert abs(Om[1]) < 1e-13 and abs(Om[2]) < 1e-13
    ref = closed_form_omega(1, c1, -0.5, -1.0, np.zeros(3))
    assert np.allclose(Om, ref, atol=1e-12)


def test_omega_closed_form_fails_under_flipped_pairing(rng):
    """The pairing with the anti-canonical gauge on the second factor does
    not satisfy the negative-structure curvature formulas; this pins which
    factor carries the anti-canonical gauge."""
    prod = build_product(1.0, 4.0)
    chart = build_chart("round-sphere", {"r": 0.35})
    worst = 0.0
    for u in sample(chart, rng, 10):
        rs = restrict_structure(evaluate(chart, prod, u),
                                structure(2, "flipped"))
        worst = max(worst, omega_formula_residual(rs))
    assert worst > 1e-2


def test_curvature_restriction_relation(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 20):
            ev = evaluate(chart, prod, u)
            for tag in (1, 2):
                rs = restrict_structure(ev, structure(tag))
                assert curvature_restriction_residual(rs) < 1e-8, (name, tag)


def test_projection_cancellation(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 30):
            res = projection_cancellation_residuals(evaluate(chart, prod, u))
            assert max(res.values()) < 1e-10, name


def test_dirac_law_on_catalog(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 15):
            ev = evaluate(chart, prod, u)
            for tag in (1, 2):
                de = dirac_and_energy_momentum(
                    restrict_structure(ev, structure(tag)))
                assert de.dirac_residual < 1e-5, (name, tag)


def test_dirac_eigenvalue_on_sphere():
    r = 2.0
    ev = evaluate(build_chart("round-sphere", {"r": r}),
                  build_product(0.0, 0.0), [0.8, 0.4, 1.3])
    rs = restrict_structure(ev, structure(1))
    nab = rs.frame_derivative[0]
    D = sum(rs.frame_gammas[k] @ nab[k] for k in range(3))
    assert np.linalg.norm(D - (1.5 / r) * rs.psi) < 1e-12


def test_energy_momentum_structure1_equals_shape(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 15):
            ev = evaluate(chart, prod, u)
            de = dirac_and_energy_momentum(restrict_structure(ev, structure(1)))
            assert np.max(np.abs(de.Q - ev.E_frame)) < 1e-5, name


def test_energy_momentum_structure2_measured_sign(members, rng):
    """The negative-structure tensor has the sign opposite to the shape
    operator: Q = -E."""
    for name, prod, chart in members:
        for u in sample(chart, rng, 10):
            ev = evaluate(chart, prod, u)
            de = dirac_and_energy_momentum(restrict_structure(ev, structure(2)))
            assert np.max(np.abs(de.Q + ev.E_frame)) < 1e-5, name


def test_spinc_checks_at_rounding_level_on_the_catalog():
    """Every spinc.* record of the built-in catalog evaluates every sample
    point and reads at most 1e-13, and every member carries one record per
    spinc.* check of the registry."""
    per = sum(spec.name.startswith("spinc.") for spec in REGISTRY)
    reports = run_catalog()
    recs = [(r.scenario["name"], r.scenario["samples"], c)
            for r in reports for c in r.checks if c.name.startswith("spinc.")]
    assert len(recs) == per * len(reports)
    bad = [(name, c.name, c.max_residual) for name, n, c in recs
           if c.points_evaluated != n or not c.max_residual <= 1e-13]
    assert not bad, bad


def test_vanishing_shape_gives_zero_dirac_and_Q():
    ev = evaluate(build_chart("slice-geodesic"), build_product(1.0, -0.5),
                  [0.0, 0.1, 0.2])
    for tag in (1, 2):
        de = dirac_and_energy_momentum(restrict_structure(ev, structure(tag)))
        assert de.dirac_residual < 1e-14
        assert np.max(np.abs(de.Q)) < 1e-14

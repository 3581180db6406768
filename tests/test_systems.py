"""Compatibility systems, their perturbed control, converse round trip."""

import numpy as np
import pytest

from conftest import sample
from spinlab import build_chart, build_product, evaluate
from spinlab.hypersurfaces import codazzi_residual, gauss_residual
from spinlab.product import structure
from spinlab.restriction import restrict_structure
from spinlab.systems import (CONVERSE_TOLERANCES, perturbed_shape,
                             ricci_components, system_residuals,
                             xi_derivative_residual)

from helpers import (CORRUPTION_TARGETS, converse_check, corrupt,
                     transcribed_system)


def test_systems_vanish_on_catalog(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 50):
            ev = evaluate(chart, prod, u)
            for tag in (1, 2):
                res = system_residuals(tag, ev)
                assert res.max_residual < 1e-5, (name, tag, res.residuals)


def test_systems_vanish_identically_on_flat_hyperplane():
    ev = evaluate(build_chart("flat-hyperplane"), build_product(0.0, 0.0),
                  [0.5, -0.4, 0.1])
    for tag in (1, 2):
        assert system_residuals(tag, ev).max_residual == 0.0


def test_every_equation_reads_its_terms(members, rng):
    """Every one of the 24 equations must respond to shifts of the shape
    operator and of its covariant exterior derivative (guards against dead
    transcriptions that would vacuously pass)."""
    ev = evaluate(build_chart("graph"), build_product(1.0, 0.0),
                  [0.3, -0.2, 0.4])
    a = ev.E_frame
    dE = ev.dE_frame
    gen = np.random.default_rng(7)
    sym = gen.standard_normal((3, 3))
    bump_a = a + 0.3 * (sym + sym.T)
    bump_d = dE + gen.standard_normal((3, 3, 3))
    for tag in (1, 2):
        base = system_residuals(tag, ev).residuals
        with_a = system_residuals(tag, ev.replace(E_frame=bump_a)).residuals
        with_d = system_residuals(tag, ev.replace(dE_frame=bump_d)).residuals
        for k in base:
            moved = max(abs(with_a[k] - base[k]), abs(with_d[k] - base[k]))
            assert moved > 1e-6, (tag, k)


def test_degenerate_equations_reported_at_vanishing_V():
    ev = evaluate(build_chart("slice-geodesic"), build_product(1.0, -0.5),
                  [0.2, 0.1, 0.3])
    for tag in (1, 2):
        res = system_residuals(tag, ev)
        assert res.degenerate == ["eq04", "eq08"]


def test_rank_one_perturbation_on_sphere_triggers():
    """On the unit 3-sphere the classical perturbation E + 0.1 v v^T pushes
    at least one system residual above 1e-2."""
    ev = evaluate(build_chart("round-sphere", {"r": 1.0}),
                  build_product(0.0, 0.0), [0.8, 1.1, 2.2])
    rng = np.random.default_rng(99)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    bumped = ev.replace(E_frame=ev.E_frame + 0.1 * np.outer(v, v))
    worst = max(system_residuals(1, bumped).max_residual,
                system_residuals(2, bumped).max_residual)
    assert worst > 1e-2
    assert gauss_residual(bumped) > 1e-2


def test_rank_two_control_triggers_everywhere(members, rng):
    for name, prod, chart in members:
        u = sample(chart, rng, 1)[0]
        ev = evaluate(chart, prod, u)
        bumped = ev.replace(E_frame=perturbed_shape(ev, rng))
        worst = max(system_residuals(1, bumped).max_residual,
                    system_residuals(2, bumped).max_residual,
                    gauss_residual(bumped))
        assert worst > 1e-2, name


def test_xi_derivative_identity(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 30):
            assert xi_derivative_residual(evaluate(chart, prod, u)) < 1e-6, name


def test_xi_derivative_on_sphere_is_chi_over_r():
    r = 2.0
    ev = evaluate(build_chart("round-sphere", {"r": r}),
                  build_product(0.0, 0.0), [0.9, 0.3, 1.7])
    for i in range(3):
        X = ev.frame[:, i]
        lhs = np.einsum("ba,b->a", ev.nabla_xi, X)
        assert np.allclose(lhs, ev.chi_mixed @ X / r, atol=1e-12)


def test_converse_round_trip_clean(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 10):
            res, failed = converse_check(evaluate(chart, prod, u))
            assert failed == [], (name, res)


def test_converse_rebuilt_f_matches_harvested(members, rng):
    from spinlab.systems import rebuild_f
    for name, prod, chart in members:
        for u in sample(chart, rng, 10):
            ev = evaluate(chart, prod, u)
            assert np.max(np.abs(rebuild_f(ev.V_frame, ev.h_val)
                                 - ev.f_frame)) < 1e-9, name


@pytest.mark.parametrize("mode", sorted(CORRUPTION_TARGETS))
def test_single_field_corruption_fails_named_check(mode, rng):
    ev = evaluate(build_chart("graph"), build_product(1.0, 0.0),
                  [0.3, -0.2, 0.4])
    target = CORRUPTION_TARGETS[mode]
    res, failed = converse_check(corrupt(ev, mode, rng))
    assert target in failed, (mode, failed)
    assert res[target] > 10 * CONVERSE_TOLERANCES[target]


def test_unknown_corruption_mode_raises(rng):
    ev = evaluate(build_chart("graph"), build_product(1.0, 0.0),
                  [0.3, -0.2, 0.4])
    with pytest.raises(ValueError):
        corrupt(ev, "nonsense", rng)


def test_converse_detects_scaled_shape(rng):
    """Doubling E breaks the Gauss residual loudly (> 1e-2)."""
    ev = evaluate(build_chart("round-sphere", {"r": 1.0}),
                  build_product(0.0, 0.0), [0.8, 0.7, 1.4])
    res, failed = converse_check(corrupt(ev, "E-scale", rng))
    assert "gauss" in failed
    assert res["gauss"] > 1e-2


def test_codazzi_residual_consistency_with_converse(members, rng):
    """The chart-level Codazzi residual and the harvested one agree."""
    for name, prod, chart in members[:3]:
        u = sample(chart, rng, 1)[0]
        ev = evaluate(chart, prod, u)
        res, _ = converse_check(ev)
        assert res["codazzi"] == pytest.approx(codazzi_residual(ev), abs=1e-14)


def _bumped_with_dE_noise(ev, rng):
    """``ev`` with its shape operator perturbed (``perturbed_shape``) and
    antisymmetric noise of size 0.1 on dE(e_i, e_j): data on which no
    equation vanishes."""
    noise = rng.standard_normal(np.shape(ev.dE_frame))
    noise = 0.1 * (noise - np.swapaxes(noise, -3, -2))
    return ev.replace(E_frame=perturbed_shape(ev, rng),
                      dE_frame=ev.dE_frame + noise)


def test_derived_systems_equal_the_paper_transcriptions(members, rng):
    """The equations derived from the spinor Ricci identity are the 24
    transcribed ones, on real hypersurfaces and off them.  One sign
    differs: system 2's eq12 is the negative of the transcribed eq12, which
    reads dE(e1, xi)(e1) + dE(e2, xi)(e2) in both systems where the
    derivation carries the structure sign s."""
    for name, prod, chart in members:
        ev = evaluate(chart, prod, sample(chart, rng, 20))
        for data in (ev, _bumped_with_dE_noise(ev, rng)):
            for tag in (1, 2):
                derived = system_residuals(tag, data).residuals
                paper = transcribed_system(data, tag)
                assert list(derived) == list(paper)
                for eq in paper:
                    sign = -1.0 if (tag, eq) == (2, "eq12") else 1.0
                    gap = np.max(np.abs(derived[eq] - sign * paper[eq]))
                    assert gap <= 1e-13, (name, tag, eq, gap)


def test_ricci_components_are_the_spinor_ricci_identity(members, rng):
    """The spinor Ricci identity built literally from each restricted
    structure, projected on the real frame {phi, gamma(e_k) phi}: no phi
    component, and S/2 along gamma(e_k) phi."""
    for name, prod, chart in members:
        ev = evaluate(chart, prod, sample(chart, rng, 20))
        for data in (ev, _bumped_with_dE_noise(ev, rng)):
            E, dE, R = data.E_frame, data.dE_frame, data.riemann_frame
            for tag in (1, 2):
                rs = restrict_structure(data, structure(tag))
                G, phi = rs.frame_gammas, rs.psi
                G_phi = G @ phi
                G_E = np.einsum("...jk,...kab->...jab", E, G)
                S = ricci_components(data)[..., tag - 1, :, :]
                for p, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
                    T = (-0.5 * rs.sign * np.einsum(
                            "...k,...ka->...a", dE[..., i, j, :], G_phi)
                         + 0.25 * (G_E[..., j, :, :] @ G_E[..., i, :, :]
                                   - G_E[..., i, :, :] @ G_E[..., j, :, :])
                         @ phi
                         - 0.25 * np.einsum("...kl,...kab,...lbc,c->...a",
                                            R[..., i, j, :, :], G, G, phi)
                         - 0.5j * rs.omega_pullback[..., p, None] * phi)
                    along_phi = rs.expectation(T).real
                    along_G = np.einsum("...ka,...a->...k", G_phi.conj(),
                                        T).real / np.vdot(phi, phi).real
                    assert np.max(np.abs(along_phi)) <= 1e-14, (name, tag)
                    gap = np.max(np.abs(along_G - 0.5 * S[..., p, :]))
                    assert gap <= 1e-13, (name, tag, p, gap)


@pytest.mark.parametrize("index, reads", [
    ((0, 1, 0), {"eq03", "eq08"}),
    ((0, 2, 1), {"eq01", "eq11"}),
    ((1, 2, 2), {"eq08", "eq09"}),
])
def test_nan_reaches_only_the_equations_reading_it(index, reads, rng):
    """A NaN in one component dE[p, i, j, k], i < j, turns only point p
    NaN, and there only the equations that read that component."""
    chart = build_chart("graph")
    ev = evaluate(chart, build_product(1.0, -0.5), sample(chart, rng, 5))
    dE = np.array(ev.dE_frame)
    dE[(3,) + index] = np.nan
    for tag in (1, 2):
        res = system_residuals(tag, ev.replace(dE_frame=dE)).residuals
        nan = {(int(p), eq) for eq, v in res.items()
               for p in np.flatnonzero(np.isnan(v))}
        assert nan == {(3, eq) for eq in reads}, tag

"""Product model: tensors F and J, curvature forms, spinor connection."""

import numpy as np
import pytest

from spinlab.jets import value
from spinlab.product import (CLIFFORD, F_MATRIX, J_MATRIX, ProductModel,
                             structure)
from spinlab.surfaces import OutsideDomainError

from helpers import (connection_matrix, curvature_form, dense_christoffels,
                     frame_components, loop_auxiliary_curvature_residual,
                     metric_diagonal)


def test_structure_tags_and_chirality():
    s1 = structure(1)
    s2 = structure(2)
    assert s1.signs == (1, 1) and s1.chirality == 1
    assert s2.signs == (-1, 1) and s2.chirality == -1
    assert structure(2, "flipped").signs == (1, -1)
    with pytest.raises(ValueError):
        structure(3)


def test_F_and_J_algebra():
    assert np.max(np.abs(F_MATRIX @ F_MATRIX - np.eye(4))) == 0.0
    assert np.max(np.abs(J_MATRIX @ J_MATRIX + np.eye(4))) == 0.0
    assert np.max(np.abs(J_MATRIX @ F_MATRIX - F_MATRIX @ J_MATRIX)) == 0.0
    assert np.trace(F_MATRIX) == 0.0
    assert np.max(np.abs(F_MATRIX - np.eye(4))) > 0.5  # F != Id


def test_F_is_parallel():
    """Ambient Christoffel symbols never mix the factor blocks, so the
    coordinate-constant F has vanishing covariant derivative."""
    prod = ProductModel(1.3, -0.6)
    p = [0.2, -0.1, 0.4, 0.3]
    from spinlab.jets import variables
    jx, jy, jz = variables([0.0, 0.0, 0.0])
    pj = [p[0] + jx, p[1] + jy, p[2] + jz, p[3] + 0.0 * jx]
    G = dense_christoffels(prod, pj)
    # (nabla F)^a_c = G^a_{b d} F^d_c - F^a_d G^d_{b c} for every direction b
    worst = 0.0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                term = value(G[a][b][c]) if not isinstance(G[a][b][c], float) \
                    else G[a][b][c]
                resid = term * F_MATRIX[c, c] - F_MATRIX[a, a] * term
                worst = max(worst, abs(resid))
    assert worst == 0.0


def test_curvature_form_flat_vanishes(rng):
    prod = ProductModel(0.0, 0.0)
    for tag in (1, 2):
        st = structure(tag)
        for _ in range(5):
            p = rng.uniform(-1, 1, 4)
            X, Y = rng.standard_normal(4), rng.standard_normal(4)
            assert value(curvature_form(prod, p, X, Y, st)) == 0.0


def test_curvature_form_sign_on_each_structure(rng):
    """On a curvature-c first factor, Omega(X, JX) = -+ c for a unit X
    tangent to that factor (canonical vs anti-canonical gauge)."""
    c = 1.7
    prod = ProductModel(c, 0.0)
    for _ in range(5):
        p = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0.3, -0.2])
        lam = value(prod.factor1.conformal_factor(p[0], p[1]))
        X = np.array([1.0 / lam, 0.0, 0.0, 0.0])  # unit vector
        JX = J_MATRIX @ X
        om1 = value(curvature_form(prod, p, X, JX, structure(1)))
        om2 = value(curvature_form(prod, p, X, JX, structure(2)))
        assert om1 == pytest.approx(-c, abs=1e-12)
        assert om2 == pytest.approx(c, abs=1e-12)


def test_parallel_spinor_chirality():
    prod = ProductModel(0.7, -0.3)
    vol = CLIFFORD.volume
    psi1 = prod.parallel_spinor(structure(1))
    psi2 = prod.parallel_spinor(structure(2))
    assert np.allclose(vol @ psi1, psi1)
    assert np.allclose(vol @ psi2, -psi2)


def test_parallel_spinor_is_the_product_of_factor_spinors():
    """psi0 = b(s1) (x) b(s2) with b(+1) = (1, 0), b(-1) = (0, 1), for both
    structures under both pairings."""
    prod = ProductModel(0.7, -0.3)
    b = {1: np.array([1.0, 0.0], dtype=complex),
         -1: np.array([0.0, 1.0], dtype=complex)}
    for pairing in ("standard", "flipped"):
        for tag in (1, 2):
            st = structure(tag, pairing)
            psi = prod.parallel_spinor(st)
            assert psi.dtype == complex, (pairing, tag)
            assert np.array_equal(psi, np.kron(b[st.signs[0]],
                                               b[st.signs[1]])), (pairing, tag)


def test_connection_annihilates_the_parallel_spinor(rng):
    """C(X) psi0 = 0 exactly, on flat and curved factors, for both
    structures of both pairings: E1 E2 psi0 = -i s1 psi0 and
    E3 E4 psi0 = -i s2 psi0 cancel the auxiliary term, which is why the
    restricted derivative is the Gauss-formula shape term alone.  C(X)
    itself vanishes only where both factors are flat."""
    for c1, c2 in [(0.0, 0.0), (1.0, -0.5), (-0.7, 2.0), (0.0, 4.0)]:
        prod = ProductModel(c1, c2)
        for pairing in ("standard", "flipped"):
            for tag in (1, 2):
                st = structure(tag, pairing)
                psi0 = prod.parallel_spinor(st)
                for _ in range(5):
                    p = rng.uniform(-1, 1, 4)
                    X = rng.standard_normal(4)
                    C = connection_matrix(prod, p, X, st)
                    assert (np.max(np.abs(C)) == 0.0) == (c1 == c2 == 0.0)
                    assert np.array_equal(C @ psi0, np.zeros(4)), (
                        c1, c2, pairing, tag)


def test_connection_clifford_compatibility(rng):
    """d/dt gamma(Y) + [C, gamma(Y)] = gamma(nabla_dot Y) along curves:
    the spin part of V rotates exactly with the frame (finite differences)."""
    prod = ProductModel(1.2, -0.4)
    st = structure(1)
    h = 1e-6
    for _ in range(6):
        p0 = rng.uniform(-0.4, 0.4, 4)
        vel = rng.standard_normal(4)
        Y = rng.standard_normal(4)  # constant chart components

        def gammaY(t):
            p = p0 + t * vel
            return CLIFFORD.vector(frame_components(prod, p, Y))

        dG = (gammaY(h) - gammaY(-h)) / (2 * h)
        C = connection_matrix(prod, p0, vel, st)
        G = dense_christoffels(prod, p0)
        covY = np.array([
            sum(value(G[a][b][c]) * vel[b] * Y[c] if not isinstance(
                G[a][b][c], float) else G[a][b][c] * vel[b] * Y[c]
                for b in range(4) for c in range(4))
            for a in range(4)])
        want = CLIFFORD.vector(frame_components(prod, p0, covY))
        resid = dG + C @ gammaY(0.0) - gammaY(0.0) @ C - want
        assert np.max(np.abs(resid)) < 1e-7


@pytest.mark.parametrize("c1,c2", [(1.0, 1.0), (1.0, 4.0), (-0.5, 2.0)])
def test_auxiliary_curvature_consistency(c1, c2, rng):
    """The jet curl of the gauge potential reproduces the curvature form
    (Cartan's structure equation d(w12) = -rho) to rounding."""
    prod = ProductModel(c1, c2)
    for tag in (1, 2):
        st = structure(tag)
        worst = 0.0
        for _ in range(100):
            p = rng.uniform(-0.4, 0.4, 4)
            worst = max(worst, prod.auxiliary_curvature_residual(
                prod.factor_jets(p), [st])[0])
        assert worst < 1e-13


@pytest.mark.parametrize("c1,c2", [(1.0, 1.0), (1.0, 4.0), (-0.5, 2.0),
                                   (2.0, -0.3)])
def test_liouville_residual_is_rounding(c1, c2, rng):
    """Liouville's formula on the order-2 jet of each conformal factor
    gives the Ricci form on the orthonormal frame, c, to rounding, at one
    position and at a stack of them."""
    prod = ProductModel(c1, c2)
    p = rng.uniform(-0.4, 0.4, (50, 4))
    res = prod.liouville_residual(prod.factor_jets(p))
    assert res.shape == (2, 50)
    assert np.all(res < 1e-13)
    assert prod.liouville_residual(prod.factor_jets(p[0])).shape == (2,)
    assert np.all(prod.liouville_residual(prod.factor_jets(p[0])) < 1e-13)


@pytest.mark.parametrize("helper", ["_auxiliary", "_curvature"])
@pytest.mark.parametrize("factor", [0, 1])
def test_sign_slip_in_either_helper_fails_the_probe(monkeypatch, rng, helper,
                                                    factor):
    """A flipped factor sign in the auxiliary form or in the curvature form
    breaks the structure equation on that factor's plane, for both
    structures."""
    from spinlab import product
    original = getattr(product, helper)

    def slipped(struct, a, b):
        return original(struct, -a, b) if factor == 0 \
            else original(struct, a, -b)

    monkeypatch.setattr(product, helper, slipped)
    prod = ProductModel(1.0, 4.0)
    p = rng.uniform(-0.4, 0.4, (5, 4))
    res = prod.auxiliary_curvature_residual(prod.factor_jets(p),
                                            [structure(1), structure(2)])
    assert np.all(res > 0.5)


def test_metric_diagonal_blocks():
    prod = ProductModel(2.0, -0.5)
    p = [0.1, 0.2, 0.3, -0.1]
    d = [value(x) for x in metric_diagonal(prod, p)]
    l1 = value(prod.factor1.conformal_factor(0.1, 0.2))
    l2 = value(prod.factor2.conformal_factor(0.3, -0.1))
    assert d[0] == d[1] == pytest.approx(l1 * l1)
    assert d[2] == d[3] == pytest.approx(l2 * l2)


@pytest.mark.parametrize("n", [1, 5, 12])
@pytest.mark.parametrize("c1,c2", [(1.0, 1.0), (1.0, 4.0), (-0.5, 2.0),
                                   (2.0, -0.3)])
def test_array_probes_match_scalar_loops(c1, c2, n, rng):
    """At the same random points and for both pairings, the jet probe and
    the scalar loop-holonomy oracle both reproduce the closed-form
    curvature: the oracle to its quadrature error (1e-6), the jet probe to
    rounding (1e-13)."""
    prod = ProductModel(c1, c2)
    p = rng.uniform(-0.4, 0.4, (n, 4))
    for pairing in ("standard", "flipped"):
        structs = [structure(1, pairing), structure(2, pairing)]
        jet = prod.auxiliary_curvature_residual(prod.factor_jets(p), structs)
        assert jet.shape == (2, n)
        assert np.all(jet <= 1e-13)
        for st in structs:
            assert max(loop_auxiliary_curvature_residual(prod, q, st)
                       for q in p) <= 1e-6
        single = prod.auxiliary_curvature_residual(prod.factor_jets(p[0]),
                                                   structs)
        assert single.shape == (2,) and np.all(single <= 1e-13)


def test_array_probes_vanish_exactly_on_flat_factors(rng):
    prod = ProductModel(0.0, 0.0)
    p = rng.uniform(-1, 1, (5, 4))
    for tag in (1, 2):
        st = structure(tag)
        assert np.all(prod.auxiliary_curvature_residual(
            prod.factor_jets(p), [st]) == 0.0)
    assert np.all(prod.liouville_residual(prod.factor_jets(p)) == 0.0)


def test_position_outside_a_factor_chart_is_named():
    """Just outside the unit disk (c = -4), both probes name the position:
    alone and inside a batch."""
    prod = ProductModel(-4.0, 0.0)
    edge = np.array([1.005, 0.0, 0.1, -0.2])
    batch = np.array([[0.1, 0.2, 0.3, 0.4], edge, [-0.3, 0.1, 0.0, 0.5]])
    for p in (edge, batch):
        for probe in (lambda q: prod.auxiliary_curvature_residual(
                          prod.factor_jets(q), [structure(1)]),
                      lambda q: prod.liouville_residual(prod.factor_jets(q))):
            with pytest.raises(OutsideDomainError,
                               match=r"point \(1\.005, 0\.000\) outside "
                                     r"chart of curvature -4\.0"):
                probe(p)

"""Clifford models: exact relations, volume conventions, product rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ProductSpinorSpace, build_clifford3, conjugate,
                     kahler_action, shape_commutator_residual)
from spinlab.clifford import build_clifford

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _model(m):
    """The package's model in dimensions 2 and 4, the test oracle's in 3."""
    return build_clifford3() if m == 3 else build_clifford(m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_anticommutation_exact(m):
    model = _model(m)
    eye = np.eye(model.spinor_dim)
    for a, ga in enumerate(model.generators):
        for b, gb in enumerate(model.generators):
            want = -2.0 * eye if a == b else 0.0 * eye
            assert np.max(np.abs(ga @ gb + gb @ ga - want)) == 0.0


def test_unsupported_dimension():
    for m in (3, 5):
        with pytest.raises(ValueError):
            build_clifford(m)


def test_dim3_volume_is_identity():
    model = build_clifford3()
    e1, e2, e3 = model.generators
    # i^2 e1 e2 e3 = Id, i.e. e1 e2 e3 = -Id
    assert np.max(np.abs((1j ** 2) * e1 @ e2 @ e3 - np.eye(2))) < 1e-15
    assert np.max(np.abs(model.volume - np.eye(2))) == 0.0
    for g in model.generators:
        assert np.max(np.abs(g @ g + np.eye(2))) == 0.0


def test_dim4_volume_and_chirality():
    model = build_clifford(4)
    assert np.max(np.abs(model.volume @ model.volume - np.eye(4))) == 0.0
    pp, pm = model.chirality
    assert np.linalg.matrix_rank(pp) == 2
    assert np.linalg.matrix_rank(pm) == 2
    assert np.max(np.abs(pp @ pp - pp)) == 0.0
    assert np.max(np.abs(pp + pm - np.eye(4))) == 0.0


def test_kahler_spectrum_dim2():
    model = build_clifford(2)
    spec = np.sort_complex(np.linalg.eigvals(kahler_action(model, J2)))
    assert np.allclose(spec, [-1j, 1j], atol=1e-14)


def test_kahler_spectrum_dim4_product():
    model = build_clifford(4)
    J4 = np.block([[J2, np.zeros((2, 2))], [np.zeros((2, 2)), J2]])
    eig = np.sort(np.linalg.eigvals(kahler_action(model, J4)).imag)
    assert np.allclose(eig, [-2.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_kahler_spectrum_conjugated_under_J_flip():
    model = build_clifford(2)
    s1 = np.linalg.eigvals(kahler_action(model, J2))
    s2 = np.linalg.eigvals(kahler_action(model, -J2))
    assert np.allclose(np.sort_complex(s1), np.sort_complex(np.conj(s2)),
                       atol=1e-14)


def test_kahler_rejects_bad_inputs():
    with pytest.raises(ValueError):
        kahler_action(build_clifford3(), np.eye(3))
    with pytest.raises(ValueError):
        kahler_action(build_clifford(2), np.eye(2))


def test_conjugation_is_involutive_and_graded(rng):
    model = build_clifford(4)
    pp, pm = model.chirality
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    plus = pp @ psi
    minus = pm @ psi
    assert np.allclose(conjugate(model, plus), plus)
    assert np.allclose(conjugate(model, minus), -minus)
    assert np.allclose(conjugate(model, conjugate(model, psi)), psi)
    with pytest.raises(ValueError):
        conjugate(build_clifford3(), np.array([1.0, 0.0]))


def test_product_rule_one_sided(rng):
    space = ProductSpinorSpace.build()
    psi1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x1 = rng.standard_normal(2)
    out = space.product_clifford(x1, np.zeros(2), psi1, psi2)
    want = space.identify(space.factor.vector(x1) @ psi1, psi2)
    assert np.allclose(out, want, atol=1e-14)


def test_product_rule_squares_to_minus_norm(rng):
    space = ProductSpinorSpace.build()
    for _ in range(20):
        psi1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x1, x2 = rng.standard_normal(2), rng.standard_normal(2)
        once = space.product_clifford(x1, x2, psi1, psi2)
        # apply the rule twice through the dim-4 identification
        vec4 = space.product.vector(np.concatenate([x1, x2]))
        twice = vec4 @ once
        want = -(x1 @ x1 + x2 @ x2) * space.identify(psi1, psi2)
        assert np.allclose(twice, want, atol=1e-12)


def test_product_identification_exhaustive():
    """The tensor-rule multiplication intertwines the dim-4 generators on
    every basis vector pair: exhaustive and exact."""
    space = ProductSpinorSpace.build()
    basis2 = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for a in range(4):
        x = np.zeros(2)
        x[a % 2] = 1.0
        comps = np.zeros(4)
        comps[a] = 1.0
        for p1 in basis2:
            for p2 in basis2:
                if a < 2:
                    via_rule = space.product_clifford(x, np.zeros(2), p1, p2)
                else:
                    via_rule = space.product_clifford(np.zeros(2), x, p1, p2)
                via_dim4 = space.product.vector(comps) @ space.identify(p1, p2)
                assert np.max(np.abs(via_rule - via_dim4)) == 0.0


def test_unit_vector_action_skew(rng):
    """(gamma(e) phi, phi) is purely imaginary; gamma(e)^2 = -Id."""
    for m in (2, 3, 4):
        model = _model(m)
        for _ in range(25):
            x = rng.standard_normal(m)
            x /= np.linalg.norm(x)
            gx = model.vector(x)
            assert np.max(np.abs(gx @ gx + np.eye(model.spinor_dim))) < 1e-14
            phi = rng.standard_normal(model.spinor_dim) \
                + 1j * rng.standard_normal(model.spinor_dim)
            assert abs(np.vdot(phi, gx @ phi).real) < 1e-12


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=6, max_size=6))
@settings(max_examples=150, deadline=None)
def test_shape_commutator_identity_hypothesis(vals):
    E = np.array([[vals[0], vals[3], vals[4]],
                  [vals[3], vals[1], vals[5]],
                  [vals[4], vals[5], vals[2]]])
    assert shape_commutator_residual(E) < 1e-12


def test_shape_commutator_thousand_trials():
    rng = np.random.default_rng(2718)
    model = build_clifford3()
    worst = 0.0
    for _ in range(1000):
        A = rng.standard_normal((3, 3))
        worst = max(worst, shape_commutator_residual(A + A.T, model))
    assert worst < 1e-12


def test_shape_commutator_diagonal_and_identity():
    assert shape_commutator_residual(np.eye(3)) == 0.0
    assert shape_commutator_residual(np.diag([1.7, -0.4, 3.1])) < 1e-14
    with pytest.raises(ValueError):
        shape_commutator_residual(np.array([[0.0, 1.0, 0.0],
                                            [0.0, 0.0, 0.0],
                                            [0.0, 0.0, 0.0]]))


@given(st.sampled_from([2, 3, 4]),
       st.lists(st.integers(1, 4), max_size=3),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_vector_is_the_generator_sum_bit_for_bit(m, batch, seed):
    """``vector`` (one matrix product) equals sum_a x_a e_a exactly, for
    any batch shape of frame components."""
    model = _model(m)
    x = np.random.default_rng(seed).standard_normal(tuple(batch) + (m,)) \
        * 10.0 ** np.random.default_rng(seed + 1).integers(-8, 8)
    want = np.zeros(x.shape[:-1] + (model.spinor_dim,) * 2, dtype=complex)
    for a in range(m):
        want += x[..., a, None, None] * model.generators[a]
    got = model.vector(x)
    assert got.shape == want.shape
    assert np.array_equal(got, want)

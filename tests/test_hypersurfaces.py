"""Induced geometry of the catalog hypersurfaces.

Derived reference values used below:
  * flat hyperplane ((u1,u2),(u3,0)): totally geodesic, normal in the second
    factor, so E = 0, h = -1, V = 0 and f has eigenvalues (1, 1, -1).
  * round 3-sphere of radius r in the flat product, torus chart with angle
    alpha between the factor planes: E = Id/r (inner normal), H = 1/r,
    h = |p1|^2/r^2 - |p2|^2/r^2 = cos(2 alpha), |V|^2 = 1 - h^2,
    and grad h = -(2/r) V.
  * geodesic slice in curved factors: E = 0, h = -1, V = 0 and the only
    curvature is the factor-1 block, g(R(e1,e2)e2,e1) = c1.
"""

from functools import cached_property

import numpy as np
import pytest

from conftest import catalog_members, sample
from helpers import (fd_gradient, fd_weingarten, scalar_jet_evaluation,
                     svd_rank_pair, value)
from spinlab import build_chart, build_product, evaluate
from spinlab.hypersurfaces import (HypersurfaceChart, PointEvaluation,
                                   RankDeficientError, codazzi_residual,
                                   consistency_residuals, contact_identities,
                                   derivative_identities,
                                   frame_orthonormality_residual,
                                   gauss_residual, involution_identities,
                                   projection_formulas, trace_residual)
from spinlab.jets import Jet
from spinlab.surfaces import OutsideDomainError


def test_flat_hyperplane_reference_values():
    ev = evaluate(build_chart("flat-hyperplane"), build_product(0.0, 0.0),
                  [0.3, -0.5, 0.2])
    assert np.max(np.abs(ev.E_mixed_val)) == 0.0
    assert ev.h_val == pytest.approx(-1.0, abs=1e-15)
    assert np.max(np.abs(ev.V_coord_val)) == 0.0
    assert np.allclose(np.sort(np.linalg.eigvals(ev.f_mixed_val).real),
                       [-1.0, 1.0, 1.0])


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_round_sphere_reference_values(r, rng):
    chart = build_chart("round-sphere", {"r": r})
    prod = build_product(0.0, 0.0)
    for _ in range(5):
        u = rng.uniform(chart.domain[:, 0], chart.domain[:, 1])
        ev = evaluate(chart, prod, u)
        g, V, h = ev.g_val, ev.V_coord_val, ev.h_val
        assert np.allclose(ev.E_frame, np.eye(3) / r, atol=1e-11)
        assert value(ev.mean_curvature) == pytest.approx(1.0 / r, abs=1e-12)
        alpha = u[0]
        assert h == pytest.approx(np.cos(2 * alpha), abs=1e-12)
        V2 = float(V @ g @ V)
        assert h ** 2 + V2 == pytest.approx(1.0, abs=1e-12)
        # grad h = -(2/r) V [also the h-gradient identity with E = Id/r]
        assert np.max(np.abs(ev.dh + (2.0 / r) * g @ V)) < 1e-12


def test_round_sphere_mixed_point():
    """At alpha = pi/4 the normal splits evenly: h = 0, |V| = 1,
    |pi_1 nu|^2 = |pi_2 nu|^2 = 1/2."""
    chart = build_chart("round-sphere", {"r": 1.0})
    ev = evaluate(chart, build_product(0.0, 0.0), [np.pi / 4, 0.7, 1.9])
    V = ev.V_coord_val
    assert abs(ev.h_val) < 1e-14
    assert float(V @ ev.g_val @ V) == pytest.approx(1.0, abs=1e-14)
    nu = ev.nu_val
    assert nu[0] ** 2 + nu[1] ** 2 == pytest.approx(0.5, abs=1e-14)
    assert nu[2] ** 2 + nu[3] ** 2 == pytest.approx(0.5, abs=1e-14)


def test_geodesic_slice_curvature_block():
    prod = build_product(1.0, -0.5)
    ev = evaluate(build_chart("slice-geodesic"), prod, [0.2, -0.3, 0.4])
    assert np.max(np.abs(ev.E_mixed_val)) < 1e-15
    assert ev.h_val == pytest.approx(-1.0, abs=1e-14)
    assert np.max(np.abs(ev.V_coord_val)) < 1e-15
    # factor-1 tangent plane carries curvature c1; we locate it via f = +1
    evec = np.linalg.eigh(ev.f_frame)[1][:, 1:]  # eigenvalues (-1, 1, 1)
    e1, e2 = evec[:, 0], evec[:, 1]
    R = ev.riemann_frame
    sec = np.einsum("i,j,k,l,ijkl->", e1, e2, e2, e1, R)
    assert sec == pytest.approx(1.0, abs=1e-12)


def test_weingarten_against_finite_differences(rng):
    prod = build_product(1.0, 0.8)
    chart = build_chart("sphere-circle-tube", {"a": 0.5})
    for _ in range(4):
        u = rng.uniform(chart.domain[:, 0], chart.domain[:, 1])
        ev = evaluate(chart, prod, u)
        Efd = fd_weingarten(chart, prod, u)
        assert np.max(np.abs(Efd - ev.E_mixed_val)) < 1e-7


def test_mean_curvature_gradient_against_fd(rng):
    prod = build_product(1.0, 0.0)
    chart = build_chart("graph")
    for _ in range(3):
        u = rng.uniform(chart.domain[:, 0], chart.domain[:, 1])
        ev = evaluate(chart, prod, u)
        dH_fd = fd_gradient(
            lambda uu: value(evaluate(chart, prod, uu).mean_curvature), u)
        assert np.max(np.abs(dH_fd - ev.dH)) < 1e-7


def test_identity_battery_on_catalog(members, rng):
    """Pointwise identities below 1e-9 on >= 5 members x 100 points."""
    assert len(members) >= 5
    for name, prod, chart in members:
        pts = sample(chart, rng, 100)
        worst = 0.0
        for u in pts:
            ev = evaluate(chart, prod, u)
            worst = max(worst,
                        max(involution_identities(ev).values()),
                        max(contact_identities(ev).values()),
                        max(consistency_residuals(ev).values()),
                        frame_orthonormality_residual(ev))
            assert max(projection_formulas(ev).values()) < 1e-10
        assert worst < 1e-9, name


def test_frame_is_orthonormal_tightly(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 20):
            assert frame_orthonormality_residual(
                evaluate(chart, prod, u)) < 1e-12, name


def test_gauss_codazzi_on_catalog(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 30):
            ev = evaluate(chart, prod, u)
            assert gauss_residual(ev) < 1e-5, name
            assert codazzi_residual(ev) < 1e-5, name


def test_structure_derivative_identities_on_catalog(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 30):
            ev = evaluate(chart, prod, u)
            assert max(derivative_identities(ev).values()) < 1e-6, name


def test_shape_operator_symmetric(members, rng):
    for name, prod, chart in members:
        for u in sample(chart, rng, 20):
            II = value(evaluate(chart, prod, u).second_fundamental)
            assert np.max(np.abs(II - II.T)) < 1e-10, name


def test_xi_quarter_turn_is_minus_J_nu(rng):
    """The quarter turn that ``xi_ambient`` hard-codes is -J nu, bit for
    bit in every slot it keeps, on a random normal jet at one point and at
    a batch of points."""
    from spinlab.product import J_MATRIX
    chart, prod = build_chart("graph"), build_product(1.0, -0.5)
    for u in (sample(chart, rng, 1)[0], sample(chart, rng, 7)):
        ev = evaluate(chart, prod, u)
        nu = Jet(rng.standard_normal(ev.nu.c.shape), (4,))
        xi = ev.replace(nu=nu).xi_ambient
        assert xi.order == 1 and xi.shape == (4,)
        want = -np.einsum("ab,kb...->ka...", J_MATRIX, nu.c[:4])
        assert np.array_equal(xi.c, want)


def test_rank_detection_flags_corruption(rng):
    ev = evaluate(build_chart("graph"), build_product(1.0, 0.0),
                  [0.3, -0.2, 0.4])
    assert svd_rank_pair(ev) == (2, 2)
    assert trace_residual(ev) <= 1e-14
    bad = ev.replace(h_val=ev.h_val + 0.3)
    assert svd_rank_pair(bad) != (2, 2)
    assert max(svd_rank_pair(bad)) >= 3
    assert trace_residual(bad) > 1e-9


def test_rank_two_trivial_at_slice():
    ev = evaluate(build_chart("slice-geodesic"), build_product(1.0, -0.5),
                  [0.1, 0.1, 0.1])
    # h = -1, V = 0: (F + Id)/2 projects onto the first factor directions
    F4 = np.empty((4, 4))
    F4[:3, :3] = ev.f_frame
    F4[:3, 3] = ev.V_frame
    F4[3, :3] = ev.V_frame
    F4[3, 3] = ev.h_val
    P = (F4 + np.eye(4)) / 2.0
    assert np.allclose(P @ P, P, atol=1e-12)
    assert svd_rank_pair(ev) == (2, 2)
    assert trace_residual(ev) <= 1e-14


def test_trace_residual_agrees_with_the_svd_rank_count(members, rng):
    """On every catalog member the SVD count of the ranks of (F + Id)/2 and
    (F - Id)/2 reads (2, 2), which is rank (F +- Id)/2 = (4 +- tr F)/2 for
    the involution F, and |tr f + h| stays at rounding level; with h
    shifted by 0.3 both flag every point."""
    for name, prod, chart in members:
        ev = evaluate(chart, prod, sample(chart, rng, 8))
        plus, minus = svd_rank_pair(ev)
        assert np.all(plus == 2) and np.all(minus == 2), name
        assert np.all(trace_residual(ev) <= 1e-14), name
        bad = ev.replace(h_val=ev.h_val + 0.3)
        plus, minus = svd_rank_pair(bad)
        assert np.all((plus != 2) | (minus != 2)), name
        assert np.all(trace_residual(bad) > 1e-9), name


def test_outside_domain_raises():
    prod = build_product(0.0, -1.0)  # factor-2 chart radius 2
    chart = build_chart("flat-hyperplane")
    with pytest.raises(OutsideDomainError):
        evaluate(chart, prod, [0.0, 0.0, 2.5])


def test_rank_deficient_immersion_raises():
    # a map collapsing the third direction is not an immersion
    bad = HypersurfaceChart(
        map_fn=lambda x, y, z: (x, y, 0.0 * z, 0.0 * z),
        domain=np.array([[-1, 1], [-1, 1], [-1, 1]]))
    with pytest.raises(RankDeficientError):
        evaluate(bad, build_product(0.0, 0.0), [0.1, 0.2, 0.3])


def test_sphere_poles_are_rank_deficient():
    chart = build_chart("round-sphere", {"r": 1.0})
    with pytest.raises(RankDeficientError):
        evaluate(chart, build_product(0.0, 0.0), [0.0, 1.0, 2.0])


def test_gauss_codazzi_arrays_match_loop_reference(members, rng):
    """The array forms of the Gauss and Codazzi residuals do the same
    elementwise arithmetic as the loops they replaced: equal results, on
    each row of a batch and at single points."""
    from helpers import loop_codazzi_residual, loop_gauss_residual

    def loops(prod, riemann, dE, f, E, V):
        args = (prod.c1, prod.c2, f)
        return (loop_gauss_residual(riemann, *args, E),
                loop_codazzi_residual(dE, *args, V))

    for name, prod, chart in members:
        pts = sample(chart, rng, 6)
        batch = evaluate(chart, prod, pts)
        gauss = gauss_residual(batch)
        codazzi = codazzi_residual(batch)
        assert gauss.shape == codazzi.shape == (6,)
        for i in range(6):
            ref_g, ref_c = loops(prod, batch.riemann_frame[i],
                                 batch.dE_frame[i], batch.f_frame[i],
                                 batch.E_frame[i], batch.V_frame[i])
            assert ref_g == gauss[i] and ref_c == codazzi[i], name
            ev = evaluate(chart, prod, pts[i])
            ref_g, ref_c = loops(prod, ev.riemann_frame, ev.dE_frame,
                                 ev.f_frame, ev.E_frame, ev.V_frame)
            assert gauss_residual(ev) == ref_g, name
            assert codazzi_residual(ev) == ref_c, name


# --- the tensor pipeline against the scalar-jet pipeline it replaced ----------
# Tensor jets reorder the sums of a few contractions, which may cost a few
# ulps per stage; the bound is fixed at 1e-12, relative to the largest entry
# of the stage (entries below 1 are measured absolutely).
ORACLE_REL_TOL = 1e-12
STAGES = [name for name, attr in vars(PointEvaluation).items()
          if isinstance(attr, cached_property) and not name.startswith("_")]
# each chart kind of the sweep workload (default parameters) on one of its
# curvature pairs, besides the catalog members
SWEEP_MEMBERS = [(f"sweep-{kind}", build_product(2.0, -0.3), build_chart(kind))
                 for kind in ("flat-hyperplane", "round-sphere",
                              "slice-geodesic", "sphere-circle-tube", "graph")]


@pytest.mark.parametrize("npts", [1, 3, 17])
@pytest.mark.parametrize("member", catalog_members() + SWEEP_MEMBERS,
                         ids=lambda m: m[0])
def test_tensor_stages_match_scalar_jets(member, npts):
    name, prod, chart = member
    pts = sample(chart, np.random.default_rng(npts), npts)
    ref = scalar_jet_evaluation(chart, prod, pts)
    ev = evaluate(chart, prod, pts)
    for stage in STAGES:
        want, got = getattr(ref, stage), getattr(ev, stage)
        assert type(got) is type(want), stage
        if isinstance(want, Jet):
            assert got.shape == want.shape, stage
            # the slots both carry: the engine may build a stage to a lower
            # order than the scalar reference (gbar and ambient_gamma)
            nt = min(len(want.c), len(got.c))
            want, got = want.c[:nt], got.c[:nt]
        assert np.shape(got) == np.shape(want), stage
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= ORACLE_REL_TOL * scale, stage


# --- seeds against plain jets -------------------------------------------------
def _bits(x):
    """Shape and bytes of a jet stage's coefficients or a value stage."""
    if isinstance(x, Jet):
        return x.shape, x.c.shape, x.c.tobytes()
    x = np.asarray(x)
    return x.shape, x.tobytes()


@pytest.mark.parametrize("npts", [None, 1, 5])
def test_seed_compositions_give_the_bits_of_plain_jets(members, npts):
    """Seeds compose by writing into the slots of their monomial powers,
    plain jets through products; a chart map handed plain copies of the
    seeds gives every jet stage and every value stage bit for bit."""
    for name, prod, chart in members:
        plain = HypersurfaceChart(
            lambda *xs, f=chart.map_fn: f(*(Jet(x.c.copy()) for x in xs)),
            chart.domain, chart.orientation)
        rng = np.random.default_rng(7)
        pts = sample(chart, rng, 1)[0] if npts is None else sample(chart, rng,
                                                                    npts)
        ev, ref = evaluate(chart, prod, pts), evaluate(plain, prod, pts)
        for stage in STAGES + ["_lam", "_T_low"]:
            assert _bits(getattr(ev, stage)) == _bits(getattr(ref, stage)), \
                (name, stage)


# --- the curvature frame components as four matrix products -----------------
@pytest.mark.parametrize("npts", [None, 1, 3, 40, 50])
def test_riemann_frame_path_matches_optimized_einsum(npts):
    """``riemann_frame`` contracts one frame index at a time in four batched
    matrix products, the ones np.einsum's path search (``optimize=True``)
    runs, and gives their bits, at one point and for batches."""
    chart = build_chart("graph")
    rng = np.random.default_rng(3)
    pts = sample(chart, rng, 1)[0] if npts is None else sample(chart, rng,
                                                                npts)
    ev = evaluate(chart, build_product(1.0, -0.5), pts)
    Rl = np.einsum("...abcd,...de->...abce", ev.riemann, ev.g_val)
    e = ev.frame
    want = np.einsum("...abcd,...ai,...bj,...ck,...dl->...ijkl",
                     Rl, e, e, e, e, optimize=True)
    assert np.array_equal(ev.riemann_frame, want)

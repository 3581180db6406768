"""Batch evaluation: one jet pass over many sample points.

A batch of N points must agree with N single-point evaluations on every
stage, and a bad point inside a batch must be reported by its chart
parameter u.
"""

import dataclasses
from functools import cached_property

import numpy as np
import pytest

import helpers
from conftest import sample
from spinlab import build_chart, build_product, evaluate, structure
from spinlab import hypersurfaces as hyp
from spinlab import restriction as rst
from spinlab import systems as sysmod
from spinlab.catalog import BUILTIN_SCENARIOS
from spinlab.checks import REGISTRY_BY_NAME, ScenarioContext
from spinlab.hypersurfaces import PointEvaluation, RankDeficientError
from spinlab.jets import Jet, contract, worst_of
from spinlab.reports import Scenario
from spinlab.surfaces import OutsideDomainError, christoffel

# float64 carries ~16 digits; batching reorders a few sums per jet product,
# which may cost a few ulps per stage of a ~30-stage pipeline.  The error is
# measured against the largest entry of the stage (normwise), since Taylor
# coefficients cancel.
REL_TOL = 1e-12

STAGES = [name for name, attr in vars(PointEvaluation).items()
          if isinstance(attr, cached_property)]


def _row(x, i):
    """Row ``i`` of batch data: a jet, an array or a tuple of arrays."""
    if isinstance(x, Jet):
        return Jet(x.c[..., i], x.shape)
    if isinstance(x, tuple):
        return tuple(v[i] for v in x)
    return x[i]


def _assert_row_matches(got, want, where):
    """Stage value ``got`` (a batch row) equals ``want`` (one point)."""
    assert type(got) is type(want), where
    assert np.shape(got) == np.shape(want), where
    a, b = _numbers(want), _numbers(got)
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(a - b)) <= REL_TOL * scale, where


def _numbers(x):
    """Every number of a stage value: arrays, jets and nested lists."""
    if isinstance(x, Jet):
        return x.c.ravel()
    if isinstance(x, list):
        return np.concatenate([_numbers(y) for y in x])
    return np.ravel(np.asarray(x))


def test_batch_matches_single_points(members, rng):
    for name, prod, chart in members:
        pts = sample(chart, rng, 6)
        batch = evaluate(chart, prod, pts)
        # the shape operator is an order-1 jet: its second derivatives
        # are beyond its order
        with pytest.raises(AssertionError):
            batch.E_mixed.deriv().grad()
        for i, u in enumerate(pts):
            single = evaluate(chart, prod, u)
            for stage in STAGES:
                _assert_row_matches(_row(getattr(batch, stage), i),
                                    getattr(single, stage), (name, stage))


def test_perfbench_hooks_match_batch_rows():
    """``ScenarioContext.evaluation(i)`` and ``restricted(i, tag)`` build
    sample point ``i`` alone; their records are row ``i`` of the scenario's
    batch and of its restricted structures."""
    for raw in BUILTIN_SCENARIOS:
        ctx = ScenarioContext(Scenario.from_dict(dict(raw, samples=3)))
        for i in range(3):
            ev = ctx.evaluation(i)
            assert ev.u.shape == (3,)
            for stage in STAGES:
                _assert_row_matches(_row(getattr(ctx.batch, stage), i),
                                    getattr(ev, stage), (raw["name"], stage))
            for tag in (1, 2):
                one, whole = ctx.restricted(i, tag), ctx.spinc(tag)
                assert one.struct == whole.struct
                for name in ("frame_gammas", "omega_pullback",
                             "frame_derivative"):
                    _assert_row_matches(
                        _row(getattr(whole, name), i), getattr(one, name),
                        (raw["name"], tag, name))


def test_batch_stages_have_a_leading_point_axis(members, rng):
    name, prod, chart = members[4]
    batch = evaluate(chart, prod, sample(chart, rng, 5))
    assert batch.g_val.shape == (5, 3, 3)
    assert batch.riemann_frame.shape == (5, 3, 3, 3, 3)
    assert batch.dE_frame.shape == (5, 3, 3, 3)
    assert batch.dH.shape == (5, 3)
    assert batch.check_immersion().shape == (5,)
    # a jet holds exactly the slots of its order: 20 to order 3, 10 to 2,
    # 4 to 1 and 1 to 0, the point axis last
    slots = {20: ("phi",),
             10: ("_lam", "gbar", "T", "_T_low", "g", "nu"),
             4: ("g_inv", "ambient_gamma", "shape_ambient",
                 "second_fundamental", "E_mixed", "mean_curvature", "h",
                 "V_form", "V_coord", "f_mixed", "xi_ambient", "xi_coord",
                 "gamma_induced"),
             1: ("V_ambient",)}
    jet_stages = {name for name in STAGES
                  if isinstance(getattr(batch, name), Jet)}
    assert jet_stages == {name for names in slots.values() for name in names}
    for nterms, names in slots.items():
        for name in names:
            jet = getattr(batch, name)
            assert jet.c.shape == (nterms,) + jet.shape + (5,), name
    # the ambient metric is built to order 2: its third derivatives are
    # beyond its order
    with pytest.raises(AssertionError):
        batch.gbar.deriv().deriv().grad()


def _full_order_stages(ev):
    """The stages that ``PointEvaluation`` builds below order 2, each by
    its formula on the order-2 stages it reads, at order 2 throughout."""
    F, m, n1, n2 = hyp._F, ev.g, hyp._N1, hyp._N2
    adj = (m[n1, n1[:, None]] * m[n2, n2[:, None]]
           - m[n2, n1[:, None]] * m[n1, n2[:, None]])
    g_inv = adj / contract("j,j->", m[0], adj[:, 0])
    gamma = christoffel(ev.product.curvatures,
                        ev.phi.truncated(2).reshape((2, 2)), ev._lam)
    V_form = contract("am,m->a", ev._T_low, ev.nu * F)
    h = contract("m,m->", ev.nu * F * ev.gbar, ev.nu)
    fT = ev.T * F - contract("j,a->ja", V_form, ev.nu)
    xi_ambient = ev.nu[[1, 0, 3, 2]] * np.array([1.0, -1.0, 1.0, -1.0])
    return {
        "g_inv": g_inv, "ambient_gamma": gamma, "V_form": V_form, "h": h,
        "V_ambient": ev.nu * F - h * ev.nu,
        "V_coord": contract("ab,b->a", g_inv, V_form),
        "f_mixed": contract("ic,jc->ij", g_inv,
                            contract("ja,ca->jc", fT, ev._T_low)),
        "xi_ambient": xi_ambient,
        "xi_coord": contract("ab,b->a", g_inv, contract(
            "m,bm->b", xi_ambient, ev._T_low)),
    }


def test_reduced_stages_are_full_order_stages_cut(members):
    """A stage built only to the order its readers use holds, bit for bit,
    the first slots of the same formula run at order 2: below order 2 a
    product slot sums at most two pair products, and truncating before or
    after the product gives the same sums."""
    orders = {"V_ambient": 0}
    for label, prod, chart in members:
        batch = evaluate(chart, prod, sample(chart, np.random.default_rng(7), 9))
        for name, full in _full_order_stages(batch).items():
            assert full.order == 2, (label, name)
            got = getattr(batch, name)
            assert got.order == orders.get(name, 1), (label, name)
            assert np.array_equal(full.truncated(got.order).c, got.c), (
                label, name)


def test_reading_past_a_reduced_stage_raises(members):
    name, prod, chart = members[5]
    batch = evaluate(chart, prod, sample(chart, np.random.default_rng(8), 3))
    for read in (lambda: batch.h.deriv().grad(),
                 lambda: batch.g_inv.deriv().grad(),
                 lambda: batch.f_mixed.deriv().deriv(),
                 lambda: batch.xi_coord.deriv().grad(),
                 lambda: batch.ambient_gamma.deriv().grad(),
                 lambda: batch.V_ambient.grad()):
        with pytest.raises(AssertionError):
            read()
    # what the readers take is there
    assert batch.h.grad().shape == (3, 3)
    assert batch.V_ambient.val.shape == (3, 4)


def test_replace_shares_computed_stages():
    chart = build_chart("graph")
    batch = evaluate(chart, build_product(1.0, 0.0),
                     [[0.1, 0.2, 0.3], [0.3, -0.2, 0.4]])
    # ``replace``: the copy shows its stages, the original keeps its own,
    # and a stage computed before the copy is shared
    E = batch.E_frame
    copy = batch.replace(E_frame=2.0 * E, h_val=batch.h_val + 0.1)
    assert np.array_equal(copy.E_frame, 2.0 * E)
    assert np.array_equal(copy.h_val, batch.h_val + 0.1)
    assert batch.E_frame is E
    assert np.shares_memory(copy.frame, batch.frame)
    with pytest.raises(AssertionError):  # not a stage
        batch.replace(E_fram=E)


def _shared_results(ev):
    """Every identity residual that several checks read, as arrays."""
    return {"gauss": hyp.gauss_residual(ev),
            "codazzi": hyp.codazzi_residual(ev),
            "trace": hyp.trace_residual(ev),
            **hyp.derivative_identities(ev),
            **{f"system{tag}:{k}": v for tag in (1, 2) for k, v in
               sysmod.system_residuals(tag, ev).residuals.items()}}


def test_shared_identities_match_standalone_points(members):
    """The shared identities of a batch, row by row, against evaluations of
    each point alone."""
    for label, prod, chart in members:
        batch = evaluate(chart, prod, sample(chart, np.random.default_rng(5), 4))
        whole = _shared_results(batch)
        for i, u in enumerate(batch.u):
            for key, w in _shared_results(evaluate(chart, prod, u)).items():
                w = np.asarray(w, dtype=float)
                assert np.abs(whole[key][i] - w) <= IDENTITY_TOL * max(
                    1.0, abs(w)), (label, key)


def test_replace_never_reuses_a_shared_identity():
    """An evaluation made by ``replace`` computes every shared identity
    from its own data, also after the clean one was read."""
    chart, prod = build_chart("round-sphere", {"r": 0.35}), build_product(1.0, 4.0)
    batch = evaluate(chart, prod, sample(chart, np.random.default_rng(2), 4))
    for ev in (batch, evaluate(chart, prod, batch.u[1]),
               evaluate(chart, prod, batch.u[2:4])):
        clean = hyp.gauss_residual(ev)
        doubled = ev.replace(E_frame=2 * ev.E_frame)
        assert np.all(hyp.gauss_residual(doubled) > 1e-2)
        assert np.all(clean < 1e-12)
        assert np.array_equal(hyp.gauss_residual(ev), clean)
        # stages the copy shares still give the shared values
        same = ev.replace(E_frame=ev.E_frame)
        assert np.array_equal(hyp.gauss_residual(same), clean)
        # each corruption of the converse moves the residual it targets
        for mode, target in helpers.CORRUPTION_TARGETS.items():
            corrupted = helpers.corrupt(ev, mode, np.random.default_rng(0))
            assert np.all(sysmod.converse_residuals(corrupted)[target]
                          > sysmod.CONVERSE_TOLERANCES[target]), mode


def test_shared_identities_are_read_only():
    """A reader can change neither an array nor the mapping of a shared
    result: arrays refuse writes, and a dict handed out is a copy."""
    chart, prod = build_chart("graph"), build_product(1.0, -0.5)
    batch = evaluate(chart, prod, sample(chart, np.random.default_rng(4), 4))
    for ev in (batch, evaluate(chart, prod, batch.u[1:3]),
               evaluate(chart, prod, batch.u[[2, 0]])):
        for key, value in _shared_results(ev).items():
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0.0
        res = hyp.derivative_identities(ev)
        res["h-gradient"] = np.zeros(2)
        del res["f-derivative"]
        again = hyp.derivative_identities(ev)
        assert set(again) == {"f-derivative", "V-derivative", "h-gradient"}
        assert np.any(again["h-gradient"] != 0.0)
        eqs = sysmod.system_residuals(1, ev).residuals
        eqs.clear()
        assert len(sysmod.system_residuals(1, ev).residuals) == 12


def test_out_of_domain_point_is_named():
    prod = build_product(0.0, -1.0)  # factor-2 chart radius 2
    chart = build_chart("flat-hyperplane")
    pts = np.array([[0.0, 0.0, 0.5], [0.1, 0.2, 0.3],
                    [0.125, -0.375, 2.5], [0.2, 0.1, 0.0]])
    with pytest.raises(OutsideDomainError) as exc:
        evaluate(chart, prod, pts)
    assert f"u={pts[2]}" in str(exc.value)


def test_rank_deficient_point_is_named():
    chart = build_chart("round-sphere", {"r": 1.0})
    pts = np.array([[0.5, 1.0, 2.0], [0.7, 0.4, 1.1],
                    [0.9, 2.0, 0.3], [0.0, 1.0, 2.0]])  # alpha = 0: a pole
    with pytest.raises(RankDeficientError) as exc:
        evaluate(chart, build_product(0.0, 0.0), pts)
    assert f"u={pts[3]}" in str(exc.value)


# A batched identity does the one-point arithmetic with the point axis
# added; reordered sums may move the last few bits.  Fixed before measuring:
# agreement to 1e-12, relative to values above 1.
IDENTITY_TOL = 1e-12


def _corrupted_converse(ev, rng):
    return {f"{mode}:{k}": v for mode in sorted(helpers.CORRUPTION_TARGETS)
            for k, v in sysmod.converse_residuals(
                helpers.corrupt(ev, mode, rng)).items()}


# identity name -> fn(evaluation, rng): one value per point, or a dict
IDENTITIES = {
    "frame_orthonormality": lambda ev, rng: hyp.frame_orthonormality_residual(ev),
    "consistency": lambda ev, rng: hyp.consistency_residuals(ev),
    "involution": lambda ev, rng: hyp.involution_identities(ev),
    "contact": lambda ev, rng: hyp.contact_identities(ev),
    "projection_formulas": lambda ev, rng: hyp.projection_formulas(ev),
    "trace_residual": lambda ev, rng: hyp.trace_residual(ev),
    "xi_derivative": lambda ev, rng: sysmod.xi_derivative_residual(ev),
    "system_one": lambda ev, rng: sysmod.system_residuals(1, ev).residuals,
    "system_two": lambda ev, rng: sysmod.system_residuals(2, ev).residuals,
    "perturbed_shape": lambda ev, rng: sysmod.perturbed_shape(ev, rng),
    "umbilic_gradient": lambda ev, rng: (
        sysmod.contracted_codazzi_residual(ev)),
    "projection_cancellation": lambda ev, rng: (
        rst.projection_cancellation_residuals(ev)),
    "converse": lambda ev, rng: sysmod.converse_residuals(ev),
    "converse_corrupted": _corrupted_converse,
}


# the one-point loops the array functions replaced (tests/helpers.py)
REFERENCES = {
    "consistency": lambda ev, rng: helpers.point_consistency_residuals(ev),
    "involution": lambda ev, rng: helpers.point_involution_identities(ev),
    "contact": lambda ev, rng: helpers.point_contact_identities(ev),
    "projection_formulas": lambda ev, rng: helpers.point_projection_formulas(ev),
    "xi_derivative": lambda ev, rng: helpers.point_xi_derivative_residual(ev),
    "perturbed_shape": helpers.point_perturbed_shape,
    "umbilic_gradient": lambda ev, rng: (
        helpers.point_contracted_codazzi_residual(ev)),
    "projection_cancellation": lambda ev, rng: (
        helpers.point_projection_cancellation(ev)),
    "converse": lambda ev, rng: helpers.point_converse_residuals(ev),
}


def _as_dict(x):
    return x if isinstance(x, dict) else {"": x}


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_batched_identity_matches_one_point(members, name):
    """An identity run once on N points gives, at each point, what it gives
    on an evaluation of that point alone, and what the one-point loop it
    replaced gives; random draws follow one point after another."""
    runs = [IDENTITIES[name]] + ([REFERENCES[name]] if name in REFERENCES
                                 else [])
    n = 5
    for label, prod, chart in members:
        batch = evaluate(chart, prod, sample(chart, np.random.default_rng(5), n))
        got = _as_dict(IDENTITIES[name](batch, np.random.default_rng(11)))
        streams = [np.random.default_rng(11) for _ in runs]
        for i in range(n):
            point = evaluate(chart, prod, batch.u[i])
            for one_point, rng in zip(runs, streams):
                want = _as_dict(one_point(point, rng))
                if one_point is IDENTITIES[name]:
                    assert want.keys() == got.keys()
                for key, w in want.items():
                    w, g = np.asarray(w, dtype=float), np.asarray(got[key])[i]
                    assert g.shape == w.shape, (label, key)
                    assert np.all(np.abs(g - w) <= IDENTITY_TOL * np.maximum(
                        1.0, np.abs(w))), (label, key, g, w)


def _frame_rows(ev):
    return [ev.frame[:, k] for k in range(3)]


def _point_dirac(ps, rng):
    return dict(zip(("dirac_residual", "Q"),
                    helpers.point_dirac_and_energy_momentum(ps)))


def _along_random(rs, rng):
    """The Killing residual and the derivative along four random coordinate
    vectors per point, the derivative read off the frame derivative by
    linearity with x_k = g(X, e_k)."""
    X = rng.standard_normal(rs.ev.u.shape[:-1] + (4, 3))
    x = X @ rs.ev.g_val @ rs.ev.frame
    return {"killing": helpers.killing_residual(rs, X),
            "derivative": x @ rs.frame_derivative[0]}


def _point_along_random(ps, rng):
    X = rng.standard_normal((4, 3))
    return {"killing": np.array([ps.killing_residual(v) for v in X]),
            "derivative": np.stack([ps.covariant_derivative(v) for v in X])}


# restricted identity -> (fn(batched or one-point RestrictedSpinc, rng),
# the per-point implementation it replaced, fn(helpers.PointSpinc, rng))
RESTRICTED = {
    "frame_gammas": (lambda rs, rng: rs.frame_gammas,
                     lambda ps, rng: np.stack(ps.frame_gammas)),
    "frame_derivative": (
        lambda rs, rng: rs.frame_derivative[0],
        lambda ps, rng: np.stack([ps.covariant_derivative(e)
                                  for e in _frame_rows(ps.ev)])),
    "killing_residual": (
        lambda rs, rng: helpers.killing_residual(
            rs, np.swapaxes(rs.ev.frame, -1, -2)),
        lambda ps, rng: np.array([ps.killing_residual(e)
                                  for e in _frame_rows(ps.ev)])),
    "along_random_vectors": (_along_random, _point_along_random),
    "anticommutation_residual": (
        lambda rs, rng: helpers.anticommutation_residual(rs, rng),
        lambda ps, rng: ps.anticommutation_residual(rng, trials=3)),
    "volume_measurement": (lambda rs, rng: rs.volume_measurement(),
                           lambda ps, rng: ps.volume_measurement()),
    "algebraic_conditions": (
        lambda rs, rng: rst.algebraic_conditions(rs),
        lambda ps, rng: helpers.point_algebraic_conditions(ps)),
    "pairing_identities": (
        lambda rs, rng: rst.pairing_identities(rs),
        lambda ps, rng: helpers.point_pairing_identities(ps)),
    "omega_pullback": (
        lambda rs, rng: rs.omega_pullback,
        lambda ps, rng: ps.omega_pullback[rst._PAIR_I, rst._PAIR_J]),
    "omega_formula_residual": (
        lambda rs, rng: rst.omega_formula_residual(rs),
        lambda ps, rng: helpers.point_omega_formula_residual(ps)),
    "curvature_restriction_residual": (
        lambda rs, rng: rst.curvature_restriction_residual(rs),
        lambda ps, rng: helpers.point_curvature_restriction_residual(ps)),
    "dirac_and_energy_momentum": (
        lambda rs, rng: dataclasses.asdict(rst.dirac_and_energy_momentum(rs)),
        _point_dirac),
}


@pytest.mark.parametrize("normal_scale", [1.0, 2.0],
                         ids=["unit-normal", "doubled-normal"])
@pytest.mark.parametrize("name", sorted(RESTRICTED))
def test_batched_restriction_matches_one_point(members, name, normal_scale):
    """A restricted residual run once on N points gives, at each point and
    for both structures, what it gives on that point's one-point structure
    and what the per-point implementation it replaced gives, each point
    evaluated alone with the same normal; random draws follow one point
    after another.  A doubled normal turns gamma into
    twice a Clifford map, so every residual is of order one there and the
    Clifford defect 6|g(X, Y)| depends on every draw."""
    batched, reference = RESTRICTED[name]
    n = 5
    for label, prod, chart in members:
        batch = evaluate(chart, prod, sample(chart, np.random.default_rng(5), n))
        batch = batch.replace(nu_val=normal_scale * batch.nu_val)
        points = [evaluate(chart, prod, u) for u in batch.u]
        points = [ev.replace(nu_val=normal_scale * ev.nu_val) for ev in points]
        for tag in (1, 2):
            st = structure(tag)
            got = _as_dict(batched(rst.restrict_structure(batch, st),
                                   np.random.default_rng(11)))
            runs = [lambda ev, rng: batched(rst.restrict_structure(ev, st),
                                            rng),
                    lambda ev, rng: reference(helpers.PointSpinc(ev, st), rng)]
            streams = [np.random.default_rng(11) for _ in runs]
            for i, point in enumerate(points):
                for one_point, rng in zip(runs, streams):
                    want = _as_dict(one_point(point, rng))
                    assert want.keys() == got.keys()
                    for key, w in want.items():
                        w, g = np.asarray(w), np.asarray(got[key])[i]
                        assert g.shape == w.shape, (label, tag, key)
                        assert np.all(np.abs(g - w) <= IDENTITY_TOL * np.maximum(
                            1.0, np.abs(w))), (label, tag, key, g, w)


def test_closed_form_omega_matches_one_point(members):
    rng = np.random.default_rng(3)
    h, V = rng.uniform(-1, 1, 6), rng.standard_normal((6, 3))
    for tag in (1, 2):
        got = rst.closed_form_omega(tag, 1.0, -0.5, h, V)
        for i in range(6):
            want = helpers.point_closed_form_omega(tag, 1.0, -0.5, h[i], V[i])
            assert np.array_equal(got[i], want[rst._PAIR_I, rst._PAIR_J])


@pytest.mark.parametrize("normal_scale", [1.0, 2.0],
                         ids=["unit-normal", "doubled-normal"])
@pytest.mark.parametrize("tag", [1, 2])
def test_relations_check_keeps_the_point_stream(tag, normal_scale):
    """spinc.relations_s<tag> draws its random vectors as the per-point
    loop did, one point after another: the same worst residual and the same
    measured volume-element signs on every catalog member."""
    for raw in BUILTIN_SCENARIOS:
        ctx = ScenarioContext(Scenario.from_dict(dict(raw, samples=8)))
        ctx.batch = ctx.batch.replace(nu_val=normal_scale * ctx.batch.nu_val)
        residuals, notes = REGISTRY_BY_NAME[f"spinc.relations_s{tag}"].fn(ctx)
        point_residuals, point_notes = helpers.point_relations_check(
            ctx, tag, normal_scale)
        got = worst_of(np.ravel(residuals))
        worst = worst_of(np.ravel(point_residuals))
        assert abs(got - worst) <= IDENTITY_TOL * max(1.0, worst)
        assert notes["volume_element_sign"] == point_notes[
            "volume_element_sign"]


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.dtype, x.tobytes()


@pytest.mark.parametrize("samples", [1, 3, 40])
def test_pair_axes_match_the_loops_bit_for_bit(samples):
    """The factor axis of the ambient probes and the structure axis of the
    Clifford relations give, bit for bit, what the per-factor and
    per-structure loops they replaced give: on every catalog member in both
    pairings, at every sample point, at a single (4,) position and on a
    one-point evaluation."""
    for raw in BUILTIN_SCENARIOS:
        for pairing in ("standard", "flipped"):
            ctx = ScenarioContext(Scenario.from_dict(dict(
                raw, samples=samples, structure_pairing=pairing)))
            prod, structs = ctx.product, ctx.structures
            for p in (ctx.batch.position, ctx.batch.position[0]):
                new, old = prod.factor_jets(p), helpers.loop_factor_jets(prod, p)
                assert (_bits(prod.liouville_residual(new))
                        == _bits(helpers.loop_liouville_residual(prod, old)))
                assert (_bits(prod.auxiliary_curvature_residual(new, structs))
                        == _bits(helpers.loop_auxiliary_curvature(
                            prod, old, structs))), (raw["name"], pairing)
            for tag in (1, 2):
                got, notes = REGISTRY_BY_NAME[f"spinc.relations_s{tag}"].fn(ctx)
                want, want_notes = helpers.loop_relations_check(ctx, tag)
                assert [_bits(r) for r in got] == [_bits(r) for r in want]
                assert notes == want_notes
            one = ctx.evaluation(0)
            rngs = [np.random.default_rng(tag) for tag in (1, 2)]
            got = rst.relation_defects(one, rngs)
            for tag, st in zip((1, 2), structs):
                rs = rst.restrict_structure(one, st)
                anti, m = helpers.loop_relations(rs, np.random.default_rng(tag))
                assert _bits(got[..., tag - 1]) == _bits(anti)
                assert (_bits(np.abs(rs.volume_measurement() - 1.0))
                        == _bits(np.abs(m - 1.0)))

"""Check registry and scenario runner.

Every check has a stable name, a math anchor string, a tolerance and a
kind:

    assert   worst residual must stay below tolerance
    control  a deliberately corrupted input must push the residual above
             the tolerance (negative control)

Point checks share one batched :class:`PointEvaluation` of all sampled
points, seeded at the highest jet order that a selected check states: 3
where a check reads a curvature-level stage, 2 otherwise.  Every residual
of a point evaluation, and of the restricted spin^c structures (one per
tag, cached by ``ScenarioContext``), runs once on the whole batch.  A
check returns its per-point residuals (one array, a list of same-shape
arrays or a dict of them) and the notes of its record;
``run_scenario`` alone reduces them to the worst value over every point
and component, NaN if any is NaN, judges that by kind and builds the
record.  ``ScenarioContext`` also holds what several checks read beside
the batch, each built on first use: one copy of the batch with its shape
operator perturbed, drawn from the stream named ``perturbed`` at the
scale 0.2 (``systems.perturbed_shape``), which both controls and
co-vanishing read, one record of both factors' coordinates seeded as
order-2 jets at every sample position, which both ambient probes read,
and the Clifford-relation defects of both structures from one draw array,
which both relations checks read.  RNG streams are derived from the
scenario seed and a fixed name, so reports are deterministic and
independent of check selection order.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hypersurfaces as hyp
from . import restriction as rst
from . import systems as sysmod
from .catalog import build_chart, build_product, sample_points
from .jets import value, worst_of
from .product import F_MATRIX, structure
from .reports import CheckRecord, ResidualReport, Scenario, ScenarioError
from .surfaces import OutsideDomainError


class ScenarioContext:
    """Shared state of one scenario run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.product = build_product(scenario.c1, scenario.c2)
        kind = scenario.hypersurface["kind"]
        params = scenario.hypersurface.get("params", {})
        self.chart = build_chart(kind, params)
        rng = np.random.default_rng(scenario.seed)
        self.points = sample_points(self.chart, scenario.samples, rng)
        # structures 1 (positive) and 2 (negative)
        self.structures = tuple(structure(tag, scenario.structure_pairing)
                                for tag in (1, 2))
        self._spinc = {}
        # the jet order of the batch, the highest its checks read
        names = REGISTRY_BY_NAME if scenario.checks is None \
            else scenario.checks
        self.order = max((REGISTRY_BY_NAME[name].order for name in names),
                         default=2)

    def rng_for(self, name: str):
        return np.random.default_rng(
            (self.scenario.seed << 16) ^ zlib.crc32(name.encode()))

    @cached_property
    def batch(self) -> hyp.PointEvaluation:
        """One evaluation of every sample point, built on first use so that
        a bad point surfaces inside the first check that needs it."""
        return hyp.evaluate(self.chart, self.product, self.points, self.order)

    @cached_property
    def perturbed(self) -> hyp.PointEvaluation:
        """The batch with its shape operator perturbed, the one copy that
        both controls and co-vanishing read; the identities they compute
        on it are shared like those of the batch."""
        return self.batch.replace(E_frame=sysmod.perturbed_shape(
            self.batch, self.rng_for("perturbed")))

    @cached_property
    def factor_jets(self):
        """The factor coordinates seeded as order-2 jets at every sample
        position, with the area density and Ricci form there: the record
        both ambient probes read."""
        return self.product.factor_jets(self.batch.position)

    @cached_property
    def relation_defects(self):
        """The Clifford-relation defects of both structures at every sample
        point, one column per structure, in one pass over one draw array:
        each structure draws from its own stream spinc.relations_s<tag>."""
        return rst.relation_defects(
            self.batch, [self.rng_for(f"spinc.relations_s{tag}")
                         for tag in (1, 2)])

    # perfbench's stage profile calls this; no check does
    def evaluation(self, i: int) -> hyp.PointEvaluation:
        """A new evaluation of sample point ``i`` alone, at order 3 so that
        every stage can be read."""
        return hyp.evaluate(self.chart, self.product, self.points[i])

    def spinc(self, tag: int) -> rst.RestrictedSpinc:
        """The structure ``tag`` (1 positive, 2 negative) restricted at
        every sample point, built on first use."""
        if tag not in self._spinc:
            self._spinc[tag] = rst.restrict_structure(
                self.batch, self.structures[tag - 1])
        return self._spinc[tag]

    # perfbench's stage profile calls this; no check does
    def restricted(self, i: int, tag: int) -> rst.RestrictedSpinc:
        """The structure ``tag`` restricted on ``evaluation(i)``."""
        return rst.restrict_structure(self.evaluation(i),
                                      self.structures[tag - 1])


@dataclass(frozen=True)
class CheckSpec:
    name: str
    anchor: str
    tolerance: float
    kind: str
    fn: object
    order: int = 2  # the highest jet order of the stages it reads


def _batch_check(residual, tag=None, **notes):
    """Check of ``residual`` run once on the batch of every sample point,
    or on the structure ``tag`` restricted there; ``notes`` go on the
    record."""
    # ``residual`` names the module function it calls inside its body, so
    # a patched or traced function is the one that runs
    return lambda ctx: (residual(ctx.batch if tag is None
                                 else ctx.spinc(tag)), dict(notes))


# --- ambient / product-model checks -----------------------------------------

# |F F - Id|, |F - F^T| and |tr F|, the same in every scenario
_F_DEFECTS = np.array([np.abs(F_MATRIX @ F_MATRIX - np.eye(4)).max(),
                       np.abs(F_MATRIX - F_MATRIX.T).max(),
                       abs(np.trace(F_MATRIX))])


def check_ambient_product_structure(ctx):
    """F involutive/symmetric/trace-free and rho against the Gauss
    curvature of the conformal factors (Liouville's formula)."""
    return np.concatenate((
        _F_DEFECTS,
        np.ravel(ctx.product.liouville_residual(ctx.factor_jets)))), {}


# --- hypersurface point checks ------------------------------------------------

def check_consistency(ctx):
    res = hyp.consistency_residuals(ctx.batch)
    H = value(ctx.batch.mean_curvature)
    return res, {"mean_curvature_min": float(H.min()),
                 "mean_curvature_max": float(H.max())}


def _system_check(tag):
    def fn(ctx):
        res = sysmod.system_residuals(tag, ctx.batch)
        degenerate = int(np.sum(res.vanishing_V))
        return res.max_residual, {
            "points_with_vanishing_V": degenerate,
            "degenerate_equations": res.degenerate} if degenerate else {}
    return fn


def check_covanish(ctx):
    """1.0 for a system whose Gauss-iff-Codazzi verdict fails, else 0.0."""
    failed, notes = [], {}
    for tag in (1, 2):
        rep = sysmod.gauss_iff_codazzi(tag, ctx.batch, ctx.perturbed)
        joint = rep.perturbed_joint.min(axis=1)  # NaN kept
        notes[f"system{tag}"] = {
            "confirmed": rep.confirmed, "skipped": rep.skipped,
            "counterexamples": rep.counterexamples,
            "perturbed_min_joint": float(joint.min()) if joint.size
            else None,
        }
        failed.append(0.0 if rep.verdict else 1.0)
    return failed, notes


KILLING_STATUS = ("structural: the Gauss-formula derivative is -sign/2 "
                  "gamma(EX) phi by construction, so the residual is zero "
                  "(ROADMAP item 1)")


def _relations_check(tag):
    def fn(ctx):
        m = ctx.spinc(tag).volume_measurement()
        signs = np.sign(m.real[np.isfinite(m.real)])
        return ([ctx.relation_defects[..., tag - 1],
                 np.minimum(np.abs(m - 1.0), np.abs(m + 1.0))],
                {"volume_element_sign": sorted({int(s) for s in signs})})
    return fn


def _energy_momentum(rs):
    """|Q - sign E| per point, Q = E for structure 1 and -E for 2."""
    return np.abs(rs.dirac_energy.Q - rs.sign * rs.ev.E_frame).max(
        axis=(-2, -1))


def check_umbilic(ctx):
    ev = ctx.batch
    res = sysmod.contracted_codazzi_residual(ev)
    H = value(ev.mean_curvature)
    deviation = np.abs(ev.E_frame - H[..., None, None] * np.eye(3))
    umbilic = ~(deviation.max(axis=(-2, -1)) > 1e-8)  # NaN counts as umbilic
    dH_xi = np.einsum("...a,...a->...", ev.frame[..., 2], ev.dH)
    return res, {"umbilic_points": int(np.sum(umbilic)),
                 "dH_xi_max": worst_of(np.abs(dH_xi[umbilic]))}


def check_converse(ctx):
    res = sysmod.converse_residuals(ctx.batch)
    names = list(res)
    # point by point, each point's checks in order
    ratios = np.ravel(np.stack(
        [res[k] / sysmod.CONVERSE_TOLERANCES[k] for k in names], axis=-1))
    worst_ratio = worst_of(ratios)
    # the first check reaching the worst ratio, or the first NaN one
    hits = np.flatnonzero(np.isnan(ratios) | (
        (ratios > 0.0) & (ratios >= worst_ratio)))
    return ratios, {"worst_named_check": names[hits[0] % len(names)]
                    if hits.size else "",
                    "unit": "residual / per-check tolerance"}


REGISTRY = [
    CheckSpec("ambient.product_structure",
              "product endomorphism F: involutive, symmetric, trace free; "
              "Ricci form = curvature times area form, the curvature by "
              "Liouville's formula", 1e-12, "assert",
              check_ambient_product_structure),
    CheckSpec("ambient.auxiliary_curvature",
              "exterior derivative of the auxiliary gauge equals the "
              "curvature 2-form of the structure, by Cartan's structure "
              "equation d(w12) = -rho on each factor plane", 1e-12, "assert",
              lambda ctx: (ctx.product.auxiliary_curvature_residual(
                  ctx.factor_jets, ctx.structures), {})),
    CheckSpec("frame.orthonormality",
              "adapted frame {e1, Chi e1, xi} is orthonormal",
              1e-12, "assert",
              _batch_check(lambda ev: hyp.frame_orthonormality_residual(ev))),
    CheckSpec("induced.consistency",
              "unit normal, symmetric second fundamental form, tangency of "
              "xi and V, agreement of both routes to V",
              1e-10, "assert", check_consistency),
    CheckSpec("structure.involution",
              "splitting algebra: f symmetric, f^2 + V (x) V-flat = Id, "
              "f V = -h V, h^2 + |V|^2 = 1", 1e-9, "assert",
              _batch_check(lambda ev: hyp.involution_identities(ev))),
    CheckSpec("structure.contact",
              "ten pointwise identities tying (Chi, xi, eta) to (f, V, h)",
              1e-9, "assert",
              _batch_check(lambda ev: hyp.contact_identities(ev))),
    CheckSpec("structure.projection_split",
              "closed forms of the factor projections of V, nu, xi",
              1e-10, "assert",
              _batch_check(lambda ev: hyp.projection_formulas(ev))),
    CheckSpec("structure.rank_two",
              "(F + Id)/2 and (F - Id)/2 have rank 2 in the adapted basis",
              0.5, "assert",
              _batch_check(lambda ev: sum(np.abs(r - 2)
                                          for r in hyp.rank_pair(ev)))),
    CheckSpec("structure.derivatives",
              "first-order compatibility: nabla f, nabla V and grad h "
              "expressed through E and V", 1e-6, "assert",
              _batch_check(lambda ev: hyp.derivative_identities(ev))),
    CheckSpec("curvature.gauss",
              "Gauss equation for a product of two space forms",
              1e-5, "assert", _batch_check(lambda ev: hyp.gauss_residual(ev)),
              order=3),
    CheckSpec("curvature.codazzi",
              "Codazzi equation for a product of two space forms",
              1e-5, "assert",
              _batch_check(lambda ev: hyp.codazzi_residual(ev)), order=3),
    CheckSpec("curvature.gauss_control",
              "negative control: perturbed shape operator must violate the "
              "Gauss equation", 1e-2, "control",
              lambda ctx: (hyp.gauss_residual(ctx.perturbed), {
                  "control": "shape operator perturbed by symmetric "
                             "rank-two noise; residual must exceed "
                             "tolerance"}), order=3),
    CheckSpec("connection.xi_derivative",
              "derivative of the contact direction: nabla_X xi = Chi E X",
              1e-6, "assert",
              _batch_check(lambda ev: sysmod.xi_derivative_residual(ev))),
    CheckSpec("system.one",
              "twelve scalar components of the Ricci identity for the "
              "positive structure (compatibility system 1)",
              1e-5, "assert", _system_check(1), order=3),
    CheckSpec("system.two",
              "twelve scalar components of the Ricci identity for the "
              "negative structure (compatibility system 2)",
              1e-5, "assert", _system_check(2), order=3),
    CheckSpec("system.control",
              "negative control: perturbed shape operator must violate the "
              "compatibility systems", 1e-2, "control",
              lambda ctx: ([sysmod.system_residuals(t, ctx.perturbed)
                            .max_residual for t in (1, 2)], {}), order=3),
    CheckSpec("system.covanish",
              "Gauss and Codazzi residuals vanish together wherever the "
              "compatibility system holds", 0.5, "assert", check_covanish,
              order=3),
    CheckSpec("killing.s1",
              "generalized Killing law nabla_X phi = -1/2 gamma(EX) phi "
              "for the restricted positive-structure spinor",
              1e-6, "assert",
              _batch_check(lambda rs: rst.frame_killing_residual(rs), 1,
                           status=KILLING_STATUS)),
    CheckSpec("killing.s2",
              "generalized Killing law nabla_X phi = +1/2 gamma(EX) phi "
              "for the restricted negative-structure spinor",
              1e-6, "assert",
              _batch_check(lambda rs: rst.frame_killing_residual(rs), 2,
                           status=KILLING_STATUS)),
    CheckSpec("spinc.relations_s1",
              "induced Clifford relations and skew-adjointness; volume "
              "element gamma(e1)gamma(e2)gamma(xi) = -Id measured",
              1e-12, "assert", _relations_check(1)),
    CheckSpec("spinc.relations_s2",
              "induced Clifford relations and skew-adjointness; volume "
              "element measured (negative structure)",
              1e-12, "assert", _relations_check(2)),
    CheckSpec("spinc.normal_condition_s1",
              "gamma(xi) phi = -i phi for the restricted positive-structure "
              "spinor", 1e-8, "assert",
              _batch_check(lambda rs: rst.algebraic_conditions(rs), 1)),
    CheckSpec("spinc.normal_condition_s2",
              "gamma(V) phi = -i gamma(xi) phi + h phi for the restricted "
              "negative-structure spinor", 1e-8, "assert",
              _batch_check(lambda rs: rst.algebraic_conditions(rs), 2)),
    CheckSpec("spinc.pairing_identities",
              "four spinor pairings recovering (V, e_i) and h from the "
              "negative-structure spinor", 1e-8, "assert",
              _batch_check(lambda rs: rst.pairing_identities(rs), 2)),
    CheckSpec("spinc.omega_s1",
              "pullback auxiliary curvature equals its closed form "
              "(positive structure)", 1e-6, "assert",
              _batch_check(lambda rs: rst.omega_formula_residual(rs), 1)),
    CheckSpec("spinc.omega_s2",
              "pullback auxiliary curvature equals its closed form "
              "(negative structure)", 1e-6, "assert",
              _batch_check(lambda rs: rst.omega_formula_residual(rs), 2)),
    CheckSpec("spinc.omega_restriction_s1",
              "restriction law for the Clifford action of the ambient "
              "curvature 2-form (positive structure)", 1e-8, "assert",
              _batch_check(
                  lambda rs: rst.curvature_restriction_residual(rs), 1)),
    CheckSpec("spinc.omega_restriction_s2",
              "restriction law for the Clifford action of the ambient "
              "curvature 2-form (negative structure)", 1e-8, "assert",
              _batch_check(
                  lambda rs: rst.curvature_restriction_residual(rs), 2)),
    CheckSpec("spinc.projection_cancellation",
              "tensor cancellation identities for the factor projections of "
              "nu, xi, V acting on the factor spinors", 1e-10, "assert",
              _batch_check(
                  lambda ev: rst.projection_cancellation_residuals(ev))),
    CheckSpec("spinc.dirac_s1",
              "Dirac eigenvalue law D phi = +3/2 H phi (positive structure)",
              1e-5, "assert",
              _batch_check(lambda rs: rs.dirac_energy.dirac_residual, 1)),
    CheckSpec("spinc.dirac_s2",
              "Dirac eigenvalue law D phi = -3/2 H phi (negative structure)",
              1e-5, "assert",
              _batch_check(lambda rs: rs.dirac_energy.dirac_residual, 2)),
    CheckSpec("spinc.energy_momentum_s1",
              "energy-momentum tensor of the positive-structure spinor "
              "equals the shape operator", 1e-5, "assert",
              _batch_check(_energy_momentum, 1)),
    CheckSpec("spinc.energy_momentum_s2",
              "energy-momentum tensor of the negative-structure spinor "
              "equals minus the shape operator", 1e-5, "assert",
              _batch_check(_energy_momentum, 2)),
    CheckSpec("umbilic.gradient_identity",
              "contracted Codazzi equation div E - 3 dH = -(c1-c2)/2 V-flat "
              "at every point; for E = H Id it gives dH = (c1-c2)/4 V-flat, "
              "so totally umbilical hypersurfaces of M(c) x M(c), and those "
              "with a local product structure (V = 0), have constant mean "
              "curvature",
              1e-10, "assert", check_umbilic, order=3),
    CheckSpec("theorem.converse_roundtrip",
              "abstract-data direction: harvested point data passes the "
              "full compatibility battery (ratios to per-check tolerances)",
              1.0, "assert", check_converse, order=3),
]

REGISTRY_BY_NAME = {spec.name: spec for spec in REGISTRY}


def list_checks():
    return [(s.name, s.kind, s.tolerance, s.anchor) for s in REGISTRY]


def run_scenario(scenario: Scenario) -> ResidualReport:
    """Run the scenario's checks and build one record per check: its
    per-point residuals reduced to the worst value (NaN wherever any is
    NaN) and compared with the tolerance by the check's kind."""
    t0 = time.perf_counter()
    names = scenario.checks if scenario.checks is not None \
        else [s.name for s in REGISTRY]
    unknown = sorted(set(scenario.tolerances) - set(REGISTRY_BY_NAME))
    if unknown:
        raise ScenarioError(f"tolerance for unknown check {unknown[0]!r}")
    unknown = [name for name in names if name not in REGISTRY_BY_NAME]
    if unknown:
        raise ScenarioError(f"unknown check {unknown[0]!r}")
    ctx = ScenarioContext(scenario)
    records = []
    for name in names:
        spec = REGISTRY_BY_NAME[name]
        try:
            residuals, notes = spec.fn(ctx)
        except (OutsideDomainError, hyp.RankDeficientError) as exc:
            raise ScenarioError(
                f"scenario geometry invalid while running {name!r}: {exc}"
            ) from exc
        if isinstance(residuals, dict):
            residuals = list(residuals.values())
        worst = worst_of(np.ravel(residuals))
        tol = scenario.tolerances.get(name, spec.tolerance)
        if spec.kind == "control":
            verdict = "pass" if worst > tol else "fail"
        else:
            verdict = "pass" if worst <= tol else "fail"
        records.append(CheckRecord(
            name, spec.anchor, worst, tol, verdict,
            points_evaluated=len(ctx.points), notes=notes))
    return ResidualReport(
        scenario=scenario.to_dict(), checks=records,
        overall_verdict="fail" if any(r.verdict == "fail" for r in records)
        else "pass",
        runtime_seconds=time.perf_counter() - t0,
        warnings=[] if names else ["empty check list: nothing was verified"])


def run_catalog(structure_pairing="standard"):
    """Run every built-in scenario; returns the list of reports."""
    from .catalog import BUILTIN_SCENARIOS
    reports = []
    for raw in BUILTIN_SCENARIOS:
        d = dict(raw)
        d["structure_pairing"] = structure_pairing
        reports.append(run_scenario(Scenario.from_dict(d)))
    return reports

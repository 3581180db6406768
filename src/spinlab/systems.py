"""Theorem-level compatibility checks.

The two systems of twelve scalar equations arise from evaluating the
spinorial curvature of the generalized Killing law on the restricted fields
and expanding the Ricci identity over the real frame
{phi, gamma(e1)phi, gamma(e2)phi, gamma(e3)phi}.  Each equation is
transcribed once, keyed, and evaluated as LHS - RHS from independently
computed tensors (curvature of the induced metric, shape operator and its
covariant exterior derivative, splitting data (f, V, h)); a failing residual
therefore names its equation.  Inputs per point, all in the adapted frame:

    R[i,j,k,l]   curvature components g(R(e_i, e_j) e_k, e_l)
    a[i,j]       shape operator components g(E e_i, e_j)
    dE[i,j,k]    g(dNabla E(e_i, e_j), e_k)
    vV[i]        (V, e_i),   h,   c1, c2

System 1 corresponds to the positive structure (Killing sign -1/2), System 2
to the negative structure (+1/2); the derivative terms flip sign between the
two while the curvature quadratics are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypersurfaces import (PointEvaluation, codazzi_defect, codazzi_residual,
                            derivative_defects, gauss_defect, gauss_residual,
                            rank_pair)
from .jets import value, worst_of


def system_one(R, a, dE, vV, h, c1, c2):
    """The twelve scalar residuals of the first compatibility system."""
    w1 = 0.5 * c1 * (h - 1.0) - 0.5 * c2 * (h + 1.0)
    k = 0.5 * (c1 - c2)
    eqs = {
        "eq01": (R[0, 1, 1, 0] + R[0, 2, 2, 0]
                 - (a[0, 0] * a[2, 2] + a[0, 0] * a[1, 1]
                    - a[0, 2] ** 2 - a[0, 1] ** 2) + w1
                 - (dE[0, 1, 2] - dE[0, 2, 1])),
        "eq02": (R[0, 2, 2, 1] - (a[0, 1] * a[2, 2] - a[1, 2] * a[0, 2])
                 - dE[0, 2, 0]),
        "eq03": (R[0, 1, 1, 2] - (a[1, 1] * a[0, 2] - a[1, 2] * a[0, 1])
                 + dE[0, 1, 0]),
        "eq04": (-k * vV[0] - (dE[1, 0, 1] + dE[2, 0, 2])),
        "eq05": (R[1, 2, 2, 0] - (a[0, 1] * a[2, 2] - a[0, 2] * a[1, 2])
                 + dE[1, 2, 1]),
        "eq06": (R[1, 2, 2, 1] + R[1, 0, 0, 1]
                 - (a[1, 1] * a[2, 2] + a[1, 1] * a[0, 0]
                    - a[1, 2] ** 2 - a[0, 1] ** 2) + w1
                 - (dE[1, 2, 0] + dE[0, 1, 2])),
        "eq07": (R[1, 0, 0, 2] - (a[1, 2] * a[0, 0] - a[0, 1] * a[0, 2])
                 + dE[0, 1, 1]),
        "eq08": (-k * vV[1] - (dE[0, 1, 0] + dE[2, 1, 2])),
        "eq09": (R[2, 1, 1, 0] - (a[0, 2] * a[1, 1] - a[1, 2] * a[0, 1])
                 - k * vV[1] + dE[1, 2, 2]),
        "eq10": (R[2, 0, 0, 1] - (a[1, 2] * a[0, 0] - a[0, 2] * a[0, 1])
                 + k * vV[0] - dE[0, 2, 2]),
        "eq11": (R[2, 0, 0, 2] + R[2, 1, 1, 2]
                 - (a[0, 0] * a[2, 2] + a[1, 1] * a[2, 2]
                    - a[0, 2] ** 2 - a[1, 2] ** 2)
                 - (dE[1, 2, 0] - dE[0, 2, 1])),
        "eq12": (dE[1, 2, 1] + dE[0, 2, 0]),
    }
    return eqs


def system_two(R, a, dE, vV, h, c1, c2):
    """The twelve scalar residuals of the second compatibility system."""
    w = c1 * (h - 1.0) + c2 * (h + 1.0)
    s = c1 + c2
    eqs = {
        "eq01": (R[0, 1, 1, 0] + R[0, 2, 2, 0]
                 - (a[0, 0] * a[2, 2] + a[0, 0] * a[1, 1]
                    - a[0, 2] ** 2 - a[0, 1] ** 2)
                 - 0.5 * s * vV[0] ** 2 - 0.5 * h * w
                 - (dE[1, 0, 2] - dE[2, 0, 1])),
        "eq02": (R[0, 2, 2, 1] - (a[0, 1] * a[2, 2] - a[1, 2] * a[0, 2])
                 - 0.5 * s * vV[0] * vV[1] + dE[0, 2, 0]),
        "eq03": (R[0, 1, 1, 2] - (a[1, 1] * a[0, 2] - a[1, 2] * a[0, 1])
                 + 0.5 * w * vV[1] - dE[0, 1, 0]),
        "eq04": (0.5 * (s * h - w) * vV[0] - (dE[0, 1, 1] + dE[0, 2, 2])),
        "eq05": (R[1, 2, 2, 0] - (a[0, 1] * a[2, 2] - a[0, 2] * a[1, 2])
                 - 0.5 * s * vV[1] * vV[0] - dE[1, 2, 1]),
        "eq06": (R[1, 2, 2, 1] + R[1, 0, 0, 1]
                 - (a[1, 1] * a[2, 2] + a[1, 1] * a[0, 0]
                    - a[1, 2] ** 2 - a[0, 1] ** 2)
                 - 0.5 * s * vV[1] ** 2 - 0.5 * h * w
                 + (dE[1, 2, 0] + dE[0, 1, 2])),
        "eq07": (R[1, 0, 0, 2] - (a[1, 2] * a[0, 0] - a[0, 1] * a[0, 2])
                 - 0.5 * w * vV[0] - dE[0, 1, 1]),
        "eq08": (0.5 * (s * h - w) * vV[1] + dE[0, 1, 0] - dE[1, 2, 2]),
        "eq09": (R[2, 1, 1, 0] - (a[0, 2] * a[1, 1] - a[1, 2] * a[0, 1])
                 + 0.5 * s * h * vV[1] - dE[1, 2, 2]),
        "eq10": (R[2, 0, 0, 1] - (a[1, 2] * a[0, 0] - a[0, 2] * a[0, 1])
                 - 0.5 * s * h * vV[0] + dE[0, 2, 2]),
        "eq11": (R[2, 0, 0, 2] + R[2, 1, 1, 2]
                 - (a[0, 0] * a[2, 2] + a[1, 1] * a[2, 2]
                    - a[0, 2] ** 2 - a[1, 2] ** 2)
                 - 0.5 * s * vV[0] ** 2 - 0.5 * s * vV[1] ** 2
                 + (dE[1, 2, 0] - dE[0, 2, 1])),
        "eq12": (dE[1, 2, 1] + dE[0, 2, 0]),
    }
    return eqs


@dataclass
class SystemResiduals:
    tag: int
    residuals: dict
    degenerate: list = field(default_factory=list)

    @property
    def max_residual(self):
        """Largest |residual|; NaN when any residual is NaN."""
        return float(np.max(np.abs(list(self.residuals.values()))))


def system_residuals(tag: int, ev: PointEvaluation, E_frame=None,
                     dE_frame=None) -> SystemResiduals:
    """Evaluate one compatibility system at a point; optionally with a
    substituted shape operator (negative controls)."""
    R = ev.riemann_frame
    a = ev.E_frame if E_frame is None else E_frame
    dE = ev.dE_frame if dE_frame is None else dE_frame
    vV = ev.V_frame
    h = value(ev.h)
    c1, c2 = ev.product.c1, ev.product.c2
    fn = system_one if tag == 1 else system_two
    eqs = {k: float(v) for k, v in fn(R, a, dE, vV, h, c1, c2).items()}
    # eq04 and eq08 are linear in V in both systems: at V = 0 their
    # curvature content degenerates and only the derivative terms remain
    degenerate = ["eq04", "eq08"] if np.linalg.norm(vV) < 1e-12 else []
    return SystemResiduals(tag, eqs, degenerate)


def perturbed_shape(ev: PointEvaluation, rng, scale=0.15):
    """E plus a rank-two symmetric perturbation, in frame components.

    Rank two matters: the Gauss and system quadratics are 2x2 minors, which
    a rank-one bump cannot excite when E = 0 (totally geodesic members).
    """
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    w = rng.standard_normal(3)
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    return ev.E_frame + scale * (np.outer(v, v) + np.outer(w, w))


def xi_derivative_residual(ev: PointEvaluation) -> float:
    """max_X |nabla_X xi - Chi E X| over the adapted frame."""
    def defect(X):
        lhs = np.einsum("ba,b->a", ev.nabla_xi, X)
        return np.max(np.abs(lhs - ev.chi_mixed @ ev.E_mixed_val @ X))
    return worst_of(defect(ev.frame[:, i]) for i in range(3))


@dataclass
class CovanishReport:
    """Bookkeeping for the equivalence of the Gauss and Codazzi laws on an
    ensemble: wherever the system holds, the two residuals must be small
    together; perturbed ensembles must break both."""

    confirmed: int = 0
    skipped: int = 0
    counterexamples: list = field(default_factory=list)
    perturbed_joint: list = field(default_factory=list)

    @property
    def verdict(self):
        return len(self.counterexamples) == 0


def gauss_iff_codazzi(tag, evs, rng, tol_system=1e-5, tol=1e-5,
                      control_scale=0.1) -> CovanishReport:
    rep = CovanishReport()
    for ev in evs:
        sysres = system_residuals(tag, ev)
        gres = gauss_residual(ev)
        cres = codazzi_residual(ev)
        if sysres.max_residual > tol_system:
            rep.skipped += 1
            continue
        ok = (gres < tol) == (cres < tol)
        if ok:
            rep.confirmed += 1
        else:
            rep.counterexamples.append(
                {"u": ev.u.tolist(), "gauss": gres, "codazzi": cres})
        aperp = perturbed_shape(ev, rng, control_scale)
        rep.perturbed_joint.append(
            (gauss_residual(ev, E_frame=aperp),
             system_residuals(tag, ev, E_frame=aperp).max_residual))
    return rep


# ---------------------------------------------------------------------------
# theorem-level aggregates
# ---------------------------------------------------------------------------

FORWARD_TOLERANCES = {
    "killing": 1e-6, "normal-condition": 1e-8, "pairing": 1e-8,
    "omega": 1e-6, "omega-restriction": 1e-8, "cancellation": 1e-10,
}


def theorem_forward_check(chart, product, points, pairing="standard"):
    """Both restricted structures on a chart: generalized Killing law,
    algebraic normal conditions, spinor pairings and curvature formulas.

    Returns (passed, residuals, notes); the spin case (flat factors, where
    the two structures coincide) is flagged in the notes.
    """
    from .hypersurfaces import evaluate
    from .product import structure
    from .restriction import (algebraic_conditions,
                              curvature_restriction_residual,
                              omega_formula_residual, pairing_identities,
                              projection_cancellation_residuals,
                              restrict_structure)
    found = {k: [] for k in FORWARD_TOLERANCES}
    batch = evaluate(chart, product, np.asarray(points, dtype=float))
    for i in range(len(batch.u)):
        ev = batch.point(i)
        found["cancellation"] += projection_cancellation_residuals(ev).values()
        for tag in (1, 2):
            rs = restrict_structure(ev, structure(tag, pairing))
            found["killing"] += [rs.killing_residual(ev.frame[:, k])
                                 for k in range(3)]
            found["normal-condition"].append(algebraic_conditions(rs))
            found["omega"].append(omega_formula_residual(rs))
            found["omega-restriction"].append(
                curvature_restriction_residual(rs))
            if tag == 2:
                found["pairing"] += pairing_identities(rs).values()
    worst = {k: worst_of(v) for k, v in found.items()}
    passed = all(worst[k] <= FORWARD_TOLERANCES[k] for k in worst)
    notes = {}
    if product.c1 == 0.0 and product.c2 == 0.0:
        notes["spin_case"] = ("flat factors: the two induced structures "
                              "coincide and the auxiliary curvature vanishes")
    return passed, worst, notes


# ---------------------------------------------------------------------------
# converse direction: abstract data round trip
# ---------------------------------------------------------------------------

@dataclass
class Harvest:
    """Value-level data lifted off a chart point, then treated abstractly."""

    c1: float
    c2: float
    g: np.ndarray
    E: np.ndarray
    f: np.ndarray
    V: np.ndarray
    h: float
    chi: np.ndarray
    xi: np.ndarray
    frame: np.ndarray
    E_frame: np.ndarray
    f_frame: np.ndarray
    V_frame: np.ndarray
    R_frame: np.ndarray
    dE_frame: np.ndarray
    nabla_f: np.ndarray
    nabla_V: np.ndarray
    dh: np.ndarray


def harvest(ev: PointEvaluation) -> Harvest:
    return Harvest(
        c1=ev.product.c1, c2=ev.product.c2,
        g=ev.g_val.copy(), E=ev.E_mixed_val.copy(), f=ev.f_mixed_val.copy(),
        V=ev.V_coord_val.copy(), h=value(ev.h),
        chi=ev.chi_mixed.copy(), xi=ev.xi_coord_val.copy(),
        frame=ev.frame.copy(), E_frame=ev.E_frame.copy(),
        f_frame=ev.f_frame.copy(), V_frame=ev.V_frame.copy(),
        R_frame=ev.riemann_frame.copy(), dE_frame=ev.dE_frame.copy(),
        nabla_f=ev.nabla_f.copy(), nabla_V=ev.nabla_V.copy(),
        dh=ev.dh.copy())


def rebuild_f(V_frame, h):
    """The splitting endomorphism forced by (V, h) and the contact frame:
    diagonal (-h, -h, h), no e1-e2 mixing, xi-row (V2, -V1)."""
    v1, v2 = V_frame[0], V_frame[1]
    return np.array([[-h, 0.0, v2],
                     [0.0, -h, -v1],
                     [v2, -v1, h]])


def corrupt(hv: Harvest, mode: str, rng) -> Harvest:
    """Single-field corruptions used as negative controls."""
    import copy
    out = copy.deepcopy(hv)
    if mode == "E-scale":
        out.E = 2.0 * out.E
        out.E_frame = 2.0 * out.E_frame
    elif mode == "h-shift":
        out.h = out.h + 0.1
    elif mode == "V-rotate":
        c, s = np.cos(0.9), np.sin(0.9)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        out.V_frame = rot @ out.V_frame
        out.V = (out.frame @ out.V_frame)  # frame columns are coordinates
    elif mode == "f-perturb":
        noise = rng.standard_normal((3, 3))
        noise = 0.1 * (noise + noise.T)
        out.f_frame = out.f_frame + noise
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return out


def converse_residuals(hv: Harvest):
    """All named residuals of the converse (abstract-data) direction."""
    out = {}
    fr = rebuild_f(hv.V_frame, hv.h)
    out["f-rebuild"] = float(np.max(np.abs(fr - hv.f_frame)))
    Vf = hv.V_frame
    out["f-squared"] = float(np.max(np.abs(
        hv.f_frame @ hv.f_frame + np.outer(Vf, Vf) - np.eye(3))))
    out["f-of-V"] = float(np.max(np.abs(hv.f_frame @ Vf + hv.h * Vf)))
    out["unit-split"] = abs(hv.h ** 2 + float(Vf @ Vf) - 1.0)

    out["gauss"] = float(gauss_defect(hv.R_frame, hv.c1, hv.c2, hv.f_frame,
                                      hv.E_frame))
    out["codazzi"] = float(codazzi_defect(hv.dE_frame, hv.c1, hv.c2,
                                          hv.f_frame, hv.V_frame))
    out.update((k, float(v)) for k, v in derivative_defects(
        hv.g, hv.E, hv.f, hv.V, hv.h, hv.nabla_f, hv.nabla_V, hv.dh).items())

    ranks = rank_pair(hv.f_frame, hv.V_frame, hv.h)
    out["rank-two"] = float(abs(ranks[0] - 2) + abs(ranks[1] - 2))
    return out


CONVERSE_TOLERANCES = {
    "f-rebuild": 1e-9, "f-squared": 1e-9, "f-of-V": 1e-9, "unit-split": 1e-9,
    "gauss": 1e-5, "codazzi": 1e-5, "f-derivative": 1e-6,
    "V-derivative": 1e-6, "h-gradient": 1e-6, "rank-two": 0.5,
}

# which named check a single-field corruption must break
CORRUPTION_TARGETS = {
    "E-scale": "gauss",
    "h-shift": "unit-split",
    "V-rotate": "f-of-V",
    "f-perturb": "f-rebuild",
}


def converse_check(hv: Harvest, tolerances=None):
    """Verdicts for the abstract-data direction at one point."""
    tol = dict(CONVERSE_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    res = converse_residuals(hv)
    failed = sorted(k for k, v in res.items() if v > tol[k])
    return res, failed


# ---------------------------------------------------------------------------
# umbilic hypersurfaces
# ---------------------------------------------------------------------------

@dataclass
class UmbilicResult:
    umbilic: bool
    deviation: float
    residuals: dict | None


def umbilic_gradient_identity(ev: PointEvaluation,
                              umbilic_tol=1e-8) -> UmbilicResult:
    """At umbilic points (E = H Id), the mean curvature gradient satisfies

        dH(xi) = 0,
        dH(e_i) = (c1 - c2)/4 (V, e_i),
        4 |dH| = |V| |c1 - c2|.

    Non-umbilic points are reported as skipped, not failed.
    """
    H = value(ev.mean_curvature)
    dev = float(np.max(np.abs(ev.E_frame - H * np.eye(3))))
    if dev > umbilic_tol:
        return UmbilicResult(False, dev, None)
    c1, c2 = ev.product.c1, ev.product.c2
    dH_frame = np.array([float(ev.frame[:, i] @ ev.dH) for i in range(3)])
    norm_dH = float(np.linalg.norm(dH_frame))
    normV = float(np.linalg.norm(ev.V_frame))
    res = {
        "dH-xi": abs(dH_frame[2]),
        "dH-tangential": worst_of(
            abs(dH_frame[i] - 0.25 * (c1 - c2) * ev.V_frame[i])
            for i in range(2)),
        "norm-identity": abs(4.0 * norm_dH - normV * abs(c1 - c2)),
    }
    return UmbilicResult(True, dev, res)


def umbilic_scan(chart, product, points):
    """Evaluate the gradient identity over a sample; returns
    (verified count, skipped count, worst residuals dict)."""
    from .hypersurfaces import evaluate
    batch = evaluate(chart, product, np.asarray(points, dtype=float))
    found = [umbilic_gradient_identity(batch.point(i))
             for i in range(len(batch.u))]
    umbilic = [r.residuals for r in found if r.umbilic]
    worst = {k: worst_of(r[k] for r in umbilic)
             for k in ("dH-xi", "dH-tangential", "norm-identity")}
    return len(umbilic), len(found) - len(umbilic), worst

"""Theorem-level compatibility checks.

The two systems of twelve scalar equations are the integrability
conditions of the generalized Killing law nabla_X phi = -+1/2 gamma(EX) phi
of the restricted spinors, derived here from the spinor Ricci identity.
For each frame pair (e_i, e_j) in (e1, e2), (e1, xi), (e2, xi), twice the
component along gamma(e_m) phi of

    -s/2 gamma(dE(e_i, e_j)) phi + 1/4 [gamma(E e_j), gamma(E e_i)] phi
        - 1/4 sum_kl R_ijkl gamma(e_k) gamma(e_l) phi - i/2 Omega_ij phi

is component m of

    S_ij = -s dE[i, j, :] + (E e_j) x (E e_i) - *R_ij + Omega_ij n,

and its phi component vanishes: gamma(e_i) gamma(e_j) = gamma(e_k)
cyclically, so the even part of Cl_3 acts as the quaternions.  In the
adapted frame, s = +1 for structure 1 and -1 for structure 2, E e_i is
row i of E[i,j] = g(E e_i, e_j), dE[i,j,k] = g(dNabla E(e_i, e_j), e_k),
*R_ij = (R_ij23, R_ij31, R_ij12) with R_ijkl = g(R(e_i, e_j) e_k, e_l),
Omega is ``restriction.closed_form_omega`` and n, gamma(n) phi = -i phi,
the Bloch vector of the restricted spinor: (0, 0, 1) for structure 1 (its
normal condition), (V2, -V1, h) for structure 2 (its pairing identities).

The signed table ``EQUATIONS`` names each equation of both systems by the
one or two components it reads, so a failing residual names its equation
and a NaN component reaches only the equations that read it.  Nine
components carry twelve equations, so three are redundant: eq04 = eq07 -
eq10, eq08 = eq09 - eq03 and eq12 = eq05 - eq02.  Up to rounding these are
the systems as the paper writes them, but for the sign of system 2's eq12.

Every residual here takes a :class:`PointEvaluation` of one point or a
batch and returns one value per point.  Controls and the converse read the
same value stages, swapped through ``PointEvaluation.replace``.  The two
structures differ only by s, Omega and n, so ``ricci_components`` builds
both on one axis and one ``reduceat`` reduces both systems.  Like Gauss and
Codazzi, the systems are computed once per evaluation (``_shared``) and
read again by ``system.covanish``, on the batch and on its perturbed copy.
Random perturbations draw one point after another, so a batch sees the
same stream as a loop over its points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypersurfaces import (PointEvaluation, _max_abs, _mv, _shared,
                            codazzi_residual, derivative_identities,
                            gauss_residual, rank_pair)
from .restriction import _PAIR_I, _PAIR_J, frame_omega

# indices broadcast to (pair, component): the frame pair (i, j) of each
# row, and the components m + 1, m + 2 that a cross product or *R pairs at m
_I, _J = _PAIR_I[:, None], _PAIR_J[:, None]
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]

# each equation as the sum of its signed components S^m_(ij), written
# (sign, pair, m) with the pairs (e1, e2), (e1, xi), (e2, xi) and m from 0
EQUATIONS = {
    "eq01": ((1, 0, 2), (-1, 1, 1)),
    "eq02": ((1, 1, 0),),
    "eq03": ((-1, 0, 0),),
    "eq04": ((-1, 0, 1), (-1, 1, 2)),
    "eq05": ((-1, 2, 1),),
    "eq06": ((1, 0, 2), (1, 2, 0)),
    "eq07": ((-1, 0, 1),),
    "eq08": ((1, 0, 0), (-1, 2, 2)),
    "eq09": ((-1, 2, 2),),
    "eq10": ((1, 1, 2),),
    "eq11": ((-1, 1, 1), (1, 2, 0)),
    "eq12": ((-1, 1, 0), (-1, 2, 1)),
}
_TERMS = [term for terms in EQUATIONS.values() for term in terms]
_SIGN = np.array([sign for sign, _, _ in _TERMS], dtype=float)
_INDEX = np.array([3 * pair + m for _, pair, m in _TERMS])
_START = np.cumsum([0] + [len(terms) for terms in EQUATIONS.values()][:-1])
# s of structures 1 and 2, broadcast to (structure, pair, component)
_S = np.array([1.0, -1.0])[:, None, None]


@dataclass
class SystemResiduals:
    """The twelve residuals of one system, each with one value per point."""

    residuals: dict
    vanishing_V: np.ndarray  # per point: eq04 and eq08 degenerate there

    @property
    def max_residual(self):
        """Largest |residual| per point; NaN where any residual is NaN."""
        return np.abs(np.array(list(self.residuals.values()))).max(axis=0)

    @property
    def degenerate(self):
        # eq04 and eq08 are linear in V in both systems: at V = 0 their
        # curvature content degenerates and only the derivative terms remain
        return ["eq04", "eq08"] if np.any(self.vanishing_V) else []


def system_residuals(tag: int, ev: PointEvaluation) -> SystemResiduals:
    """Evaluate one compatibility system at every point of ``ev``; the
    twelve residuals of both systems are computed once per evaluation."""
    eqs = _shared(ev, _system_equations)[..., tag - 1, :]
    return SystemResiduals(dict(zip(EQUATIONS, np.moveaxis(eqs, -1, 0))),
                           np.linalg.norm(ev.V_frame, axis=-1) < 1e-12)


def ricci_components(ev: PointEvaluation):
    """S[..., t, p, m] = S^m_(ij) of structure t + 1, (i, j) the pair p."""
    E, V, h = ev.E_frame[..., None, :, :], ev.V_frame, np.asarray(ev.h_val)
    omega = np.stack([_shared(ev, frame_omega, tag) for tag in (1, 2)],
                     axis=-2)
    n = np.stack(np.broadcast_arrays(
        np.array([0.0, 0.0, 1.0]),
        np.stack([V[..., 1], -V[..., 0], h], axis=-1)), axis=-2)
    return (-_S * ev.dE_frame[..., None, _PAIR_I, _PAIR_J, :]
            + E[..., _J, _NEXT] * E[..., _I, _PREV]
            - E[..., _J, _PREV] * E[..., _I, _NEXT]
            - ev.riemann_frame[..., None, _I, _J, _NEXT, _PREV]
            + omega[..., None] * n[..., None, :])


def _system_equations(ev):
    """The twelve equations of both systems, (..., 2, 12)."""
    S = ricci_components(ev)
    terms = _SIGN * S.reshape(S.shape[:-2] + (9,))[..., _INDEX]
    return np.add.reduceat(terms, _START, axis=-1)


def perturbed_shape(ev: PointEvaluation, rng):
    """E plus a rank-two symmetric perturbation of size 0.2, in frame
    components, at every point of ``ev``; the draws are those of one point
    after another.

    Rank two matters: the Gauss and system quadratics are 2x2 minors, which
    a rank-one bump cannot excite when E = 0 (totally geodesic members).
    There the bump s (v v^T + w w^T) leaves a Gauss residual of s^2 times
    the largest 2x2 minor of a rank-two projector, which is at least
    s^2 / 3: about 0.0133 at s = 0.2, above the controls' tolerance 1e-2
    at every single point.
    """
    a = ev.E_frame
    draws = rng.standard_normal(a.shape[:-2] + (2, 3))
    v, w = draws[..., 0, :], draws[..., 1, :]
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    w = w - np.sum(w * v, axis=-1, keepdims=True) * v
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    return a + 0.2 * (v[..., :, None] * v[..., None, :]
                      + w[..., :, None] * w[..., None, :])


def xi_derivative_residual(ev: PointEvaluation):
    """max_X |nabla_X xi - Chi E X| over the adapted frame, per point."""
    e = ev.frame
    lhs = np.einsum("...ba,...bi->...ai", ev.nabla_xi, e)
    return _max_abs(lhs - ev.chi_mixed @ ev.E_mixed_val @ e, 2)


@dataclass
class CovanishReport:
    """Bookkeeping for the equivalence of the Gauss and Codazzi laws on an
    ensemble: wherever the system holds, the two residuals must be small
    together; perturbed ensembles must break both."""

    confirmed: int
    skipped: int
    counterexamples: list
    # (Gauss, system) residual pairs of the perturbed points, one row each
    perturbed_joint: np.ndarray

    @property
    def verdict(self):
        return len(self.counterexamples) == 0


def gauss_iff_codazzi(tag, ev, bumped) -> CovanishReport:
    """Co-vanishing on the points of ``ev`` (one point or a batch), at the
    system and Gauss/Codazzi tolerance 1e-5.  Points where the system fails
    are skipped; a NaN residual is a counterexample.  ``bumped`` is ``ev``
    with its shape operator perturbed (``perturbed_shape``); both its
    residuals are recorded at the points that were not skipped.  Every
    residual read here is the shared one of its evaluation, so a caller
    that hands the controls' perturbed copy computes nothing twice."""
    sysmax = system_residuals(tag, ev).max_residual
    gres, cres = gauss_residual(ev), codazzi_residual(ev)
    held = ~(sysmax > 1e-5)
    agree = ((gres < 1e-5) == (cres < 1e-5)) & ~np.isnan(sysmax + gres + cres)
    u, gs, cs = ev.u.reshape(-1, 3), np.atleast_1d(gres), np.atleast_1d(cres)
    joint = np.stack(
        [gauss_residual(bumped), system_residuals(tag, bumped).max_residual],
        axis=-1).reshape(-1, 2)
    return CovanishReport(
        confirmed=int(np.sum(held & agree)), skipped=int(np.sum(~held)),
        counterexamples=[{"u": u[i].tolist(), "gauss": float(gs[i]),
                          "codazzi": float(cs[i])}
                         for i in np.flatnonzero(held & ~agree)],
        perturbed_joint=joint[np.ravel(held)])


# ---------------------------------------------------------------------------
# converse direction: abstract data round trip
# ---------------------------------------------------------------------------

def rebuild_f(V_frame, h):
    """The splitting endomorphism forced by (V, h) and the contact frame:
    diagonal (-h, -h, h), no e1-e2 mixing, xi-row (V2, -V1)."""
    v1, v2 = V_frame[..., 0], V_frame[..., 1]
    h = np.asarray(h)
    z = np.zeros_like(v1)
    return np.stack([np.stack([-h, z, v2], axis=-1),
                     np.stack([z, -h, -v1], axis=-1),
                     np.stack([v2, -v1, h], axis=-1)], axis=-2)


def converse_residuals(ev: PointEvaluation):
    """All named residuals of the converse (abstract-data) direction, per
    point."""
    Vf, ff = ev.V_frame, ev.f_frame
    h = np.asarray(ev.h_val)
    out = {
        "f-rebuild": _max_abs(rebuild_f(Vf, h) - ff, 2),
        "f-squared": _max_abs(ff @ ff + Vf[..., :, None] * Vf[..., None, :]
                              - np.eye(3), 2),
        "f-of-V": _max_abs(_mv(ff, Vf) + h[..., None] * Vf, 1),
        "unit-split": np.abs(h ** 2 + np.sum(Vf * Vf, axis=-1) - 1.0),
        "gauss": gauss_residual(ev),
        "codazzi": codazzi_residual(ev),
    }
    out.update(derivative_identities(ev))
    ranks = rank_pair(ev)
    out["rank-two"] = np.abs(ranks[0] - 2) + np.abs(ranks[1] - 2)
    return out


CONVERSE_TOLERANCES = {
    "f-rebuild": 1e-9, "f-squared": 1e-9, "f-of-V": 1e-9, "unit-split": 1e-9,
    "gauss": 1e-5, "codazzi": 1e-5, "f-derivative": 1e-6,
    "V-derivative": 1e-6, "h-gradient": 1e-6, "rank-two": 0.5,
}


# ---------------------------------------------------------------------------
# umbilic hypersurfaces: the contracted Codazzi equation
# ---------------------------------------------------------------------------

def contracted_codazzi_residual(ev: PointEvaluation):
    """max_k |(div E - 3 dH)(e_k) + (c1 - c2)/2 (V, e_k)| per point, with
    div E (X) = sum_i g((nabla_{e_i} E) e_i, X) (Lira, Tojeiro & Vitorio,
    Arch. Math. 95, 2010).

    It holds at every point.  At an umbilic point, E = H Id, it reads
    dH = (c1 - c2)/4 (V, .), so dH(xi) = 0, and dH = 0 where c1 = c2 or
    V = 0: the paper's corollary that such hypersurfaces have constant mean
    curvature.
    """
    lhs = np.einsum("...ccb->...b", ev.nabla_E) - 3 * ev.dH
    c1, c2 = ev.product.c1, ev.product.c2
    return _max_abs(np.einsum("...ai,...a->...i", ev.frame, lhs)
                    + 0.5 * (c1 - c2) * ev.V_frame, 1)

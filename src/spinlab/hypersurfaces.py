"""Parametrized hypersurfaces of a product of two surface space forms.

A chart is a map u = (u1, u2, u3) -> (p1(u), p2(u)) into the two conformal
factor charts.  One :class:`PointEvaluation` runs the whole pipeline in jet
arithmetic and exposes, at its base points:

  * induced metric, unit normal, shape operator E = -nabla nu, mean curvature
  * the almost contact data (Chi, xi, eta) from J and the splitting (f, V, h)
    of the product structure F
  * Christoffel symbols and curvature tensor of the induced metric
  * covariant derivatives of E, f, V, h, xi and the mean curvature gradient
  * the adapted orthonormal frame {e1, e2 = Chi e1, xi}

An evaluation holds one point (``u`` of shape (3,)) or a batch of points
(``u`` of shape (N, 3)).  A batch runs every stage once for all its points.
The chart is seeded at ``order``, 3 by default, which the curvature-level
stages (``riemann``, ``nabla_E``, ``dH`` and what reads them) need; a
scenario whose checks read none of them evaluates at order 2, where
reading those stages raises the jets' order assertion and every other
stage keeps the bits of its values and first derivatives.
Each jet stage is one tensor jet (``g`` a 3x3 jet, ``nu`` a 4-vector jet)
with its tensor axes after the coefficient axis and the point axis last,
computed by whole-tensor contractions, and built only to the highest order
any of its readers extracts: the induced metric to order 2 for the
curvature, the inverse metric, the splitting (f, V, h), xi and the ambient
Christoffel symbols to order 1 for their first derivatives, and the
ambient V to order 0 for its value.  Its inputs are cut to that order
before its products run.  The factor geometry comes from ``surfaces``,
whose formulas the ambient probes check.  Value-level arrays put the point
axis first, so ``g_val`` is (3, 3) at one point and (N, 3, 3) for a batch.
The identity residuals below take either and return one value per point.
Those that several checks read (the splitting algebra of F, which
``structure.involution`` and the converse share, Gauss, Codazzi, the
derivative identities, the trace of F, and the compatibility systems in
``systems``) are computed once per evaluation and handed out read-only
(``_shared``), and so is the part of the spin^c restriction that both
structures read (``restriction``).

The value stages (``g_val``, ``E_mixed_val``, ``V_frame``, ``h_val``, ...)
are the one point record every identity reads; ``replace`` swaps some of
them in a copy, which is how negative controls and the corruptions of the
converse direction feed altered data to the same identities.  The copy
shares nothing computed by ``_shared``, so each identity is computed again
from the altered data.

Conventions: nu is the chart normal scaled by the chart's orientation flag,
E X = -nabla_X nu (a round 3-sphere of radius r with inner normal has
H = 1/r > 0), R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y], and the frame
component R_ijkl means g(R(e_i, e_j) e_k, e_l).  Mixed endomorphism arrays
follow numpy orientation: A[i, j] = (A applied to d_j), component i.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import ORDER, contract, stack, variables
from .product import F_MATRIX, J_MATRIX, ProductModel
from .surfaces import check_domain, christoffel, conformal

_F = np.diag(F_MATRIX)

# Cyclic successors of 0, 1, 2: the cofactor of a 3x3 matrix m at (i, j)
# is m[i+1, j+1] m[i+2, j+2] - m[i+1, j+2] m[i+2, j+1], indices mod 3.
_N1, _N2 = (np.arange(3) + 1) % 3, (np.arange(3) + 2) % 3
# The columns of a 3x4 matrix left without column mu: component mu of the
# 4-vector cross product of its rows is (-1)^(mu+1) times their determinant.
_COLS = np.array([[k for k in range(4) if k != mu] for mu in range(4)])


class RankDeficientError(ValueError):
    pass


@dataclass(frozen=True)
class HypersurfaceChart:
    """Immersion u -> (p1(u), p2(u)) given as a jet-composable map."""

    map_fn: object  # callable (x, y, z jets) -> 4 jet components
    domain: np.ndarray  # (3, 2) parameter box used for sampling
    orientation: int = 1

    def map_jets(self, u, order=ORDER):
        """The four ambient chart components as one (4,) jet, truncated at
        ``order``."""
        return stack(list(self.map_fn(*variables(u, order))))


def _read_only(x):
    """``x``, an array or a dict or tuple of arrays, with every array made
    read-only."""
    parts = (x.values() if isinstance(x, dict)
             else x if isinstance(x, tuple) else (x,))
    for a in parts:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return x


def _shared(ev, body, *args):
    """``body(ev, *args)``, a quantity that several checks read, computed
    once per evaluation and handed out read-only, a dict as a copy; an
    evaluation made by ``replace`` computes its own.  These are identity
    residuals, the compatibility systems (``systems``), the part of the
    spin^c restriction that both structures share and the closed form of
    Omega of each structure (``restriction``)."""
    key = (body, *args)
    if key not in ev._memo:
        ev._memo[key] = _read_only(body(ev, *args))
    out = ev._memo[key]
    return dict(out) if isinstance(out, dict) else out


def _mv(M, v):
    """Matrix-vector product over the leading point axis, if any."""
    return np.einsum("...ij,...j->...i", M, v)


def _stage(fn):
    """A lazily computed pipeline stage."""
    def get(self):
        # chart data that overflows is reported by the stages' checks, not
        # by numpy warnings on the way there
        with np.errstate(all="ignore"):
            return fn(self)
    return cached_property(functools.wraps(fn)(get))


def _value_stage(jet_stage):
    """The values of the jet stage named ``jet_stage``, point axis first."""
    return _stage(lambda self: getattr(self, jet_stage).val)


class PointEvaluation:
    """All induced data of a hypersurface chart at one point or a batch."""

    def __init__(self, chart: HypersurfaceChart, product: ProductModel, u,
                 order=ORDER):
        self.chart = chart
        self.product = product
        self.u = np.asarray(u, dtype=float)
        self.order = order  # of the chart seed
        self._memo = {}  # quantities several checks read, see ``_shared``

    def replace(self, **stages) -> "PointEvaluation":
        """A copy with the named stages set to the given values.  It shares
        every stage computed so far, but nothing computed by ``_shared``."""
        assert all(isinstance(getattr(PointEvaluation, k, None),
                              cached_property) for k in stages), stages
        ev = copy.copy(self)
        ev.__dict__.update(stages)
        ev._memo = {}
        return ev

    def _require(self, ok, error, message):
        """Raise ``error`` naming the first point where ``ok`` is false;
        ``message(i)`` describes the point with index ``i`` (``()`` at one
        point)."""
        ok = np.asarray(ok)
        if not np.all(ok):
            i = np.unravel_index(np.argmin(ok), ok.shape)
            raise error(f"{message(i)} at u={self.u[i]}")

    # --- immersion-level jets ------------------------------------------
    @_stage
    def phi(self):
        return self.chart.map_jets(self.u, self.order)

    @_stage
    def T(self):
        """Coordinate tangent vectors T[alpha, a] = d_alpha Phi^a (jet)."""
        return self.phi.deriv()

    @_stage
    def _lam(self):
        """Conformal factors of the two factors as one (2,) jet, to order 2
        like every reader of the ambient metric (its Christoffel symbols
        take order 1); raises OutsideDomainError at the first point outside
        a factor's chart."""
        check_domain(self.product.curvatures,
                     self.position.reshape(self.u.shape[:-1] + (2, 2)),
                     self.u)
        return conformal(self.product.curvatures,
                         self.phi.truncated(2).reshape((2, 2)))

    @_stage
    def gbar(self):
        """Diagonal of the product metric, (lam1^2, lam1^2, lam2^2, lam2^2)."""
        lam = self._lam
        return (lam * lam)[[0, 0, 1, 1]]

    position = _value_stage("phi")
    T_val = _value_stage("T")  # (3, 4)
    gbar_val = _value_stage("gbar")

    @_stage
    def frame_scale(self):
        """(lam1, lam1, lam2, lam2) per point: chart to orthonormal frame."""
        return np.sqrt(self.gbar_val)

    @cached_property
    def _T_low(self):
        """Lowered tangents gbar_a T[alpha, a]: g(X, T_alpha) = X . T_low."""
        return self.T * self.gbar

    @_stage
    def g(self):
        return contract("am,bm->ab", self._T_low, self.T)

    @_stage
    def g_inv(self):
        """Inverse metric, to first order like every reader; raises
        RankDeficientError at the first point where the determinant is not
        finite or rounds to zero."""
        m = self.g.truncated(1)  # adj[i, j] is the cofactor at (j, i)
        adj = (m[_N1, _N1[:, None]] * m[_N2, _N2[:, None]]
               - m[_N2, _N1[:, None]] * m[_N1, _N2[:, None]])
        det = contract("j,j->", m[0], adj[:, 0])
        self._require(np.isfinite(det.val), RankDeficientError,
                      lambda i: "determinant of the induced metric is not "
                                "finite")
        self._require(det.val != 0.0, RankDeficientError,
                      lambda i: "induced metric is singular")
        return adj / det

    g_val = _value_stage("g")
    g_inv_val = _value_stage("g_inv")

    def check_immersion(self):
        """Smallest singular value of the differential, per point; raises
        RankDeficientError at the first point where the differential is not
        finite or that value is not above 1e-8."""
        # chart data that overflows is reported by the check below, not by
        # numpy warnings on the way there
        with np.errstate(all="ignore"):
            dphi = self.frame_scale[..., :, None] * np.swapaxes(
                self.T_val, -1, -2)
        self._require(np.all(np.isfinite(dphi), axis=(-2, -1)),
                      RankDeficientError,
                      lambda i: "differential of the immersion is not finite")
        sv = np.linalg.svd(dphi, compute_uv=False)[..., -1]
        self._require(sv > 1e-8, RankDeficientError,
                      lambda i: f"immersion rank below 3 (min sv {sv[i]:.2e})")
        return sv

    @_stage
    def nu(self):
        """Unit normal (ambient chart components, a jet); raises
        RankDeficientError at the first point where it is not finite."""
        M = self.T[:, _COLS]  # M[:, mu]: the 3x3 minor without column mu
        cof = M[1][:, _N1] * M[2][:, _N2] - M[1][:, _N2] * M[2][:, _N1]
        w = contract("mj,mj->m", M[0], cof) * np.array([-1.0, 1.0, -1.0, 1.0])
        n = w / self.gbar
        nu = n * (float(self.chart.orientation)
                  / contract("m,m->", n, w).sqrt())
        finite = np.isfinite(nu.c).reshape(-1, *self.u.shape[:-1])
        self._require(finite.all(axis=0), RankDeficientError,
                      lambda i: "unit normal is not finite")
        return nu

    nu_val = _value_stage("nu")

    # --- second fundamental form -----------------------------------------
    @_stage
    def ambient_gamma(self):
        """Christoffel symbols per factor, G[k, a, b, c] = Gamma^a_{bc} in
        the coordinates (2k, 2k + 1) of factor k; none mix the factors.
        To first order: ``shape_ambient`` is a first-order jet."""
        return christoffel(self.product.curvatures,
                           self.phi.truncated(1).reshape((2, 2)), self._lam)

    @_stage
    def shape_ambient(self):
        """E T_alpha = -nabla_{T_alpha} nu as an ambient jet [alpha, a]."""
        G_nu = contract("kabc,kc->kab", self.ambient_gamma,
                        self.nu.reshape((2, 2)))
        conn = contract("kab,lkb->lka", G_nu, self.T.reshape((3, 2, 2)))
        return -(self.nu.deriv() + conn.reshape((3, 4)))

    @_stage
    def second_fundamental(self):
        """II[alpha, beta] = <E T_alpha, T_beta> (jet)."""
        return contract("am,bm->ab", self.shape_ambient, self._T_low)

    @_stage
    def E_mixed(self):
        """Shape operator, E_mixed[i, j] = E^i_j (jet)."""
        return contract("ic,cj->ij", self.g_inv, self.second_fundamental)

    @_stage
    def mean_curvature(self):
        E = self.E_mixed
        return (E[0, 0] + E[1, 1] + E[2, 2]) / 3.0

    E_mixed_val = _value_stage("E_mixed")

    # --- product structure splitting --------------------------------------
    @_stage
    def V_form(self):
        """(V, d_alpha) = <F T_alpha, nu> (jet, to first order)."""
        return contract("am,m->a", self._T_low, self.nu.truncated(1) * _F)

    @_stage
    def h(self):
        nu = self.nu.truncated(1)
        return contract("m,m->", nu * _F * self.gbar, nu)

    @_stage
    def V_ambient(self):
        """V in ambient chart components, to order 0: only its value is
        read."""
        nu = self.nu.truncated(0)
        return nu * _F - self.h * nu

    @_stage
    def V_coord(self):
        return contract("ab,b->a", self.g_inv, self.V_form)

    @_stage
    def f_mixed(self):
        """Tangential part of F, f_mixed[i, j] = f^i_j (jet, to first
        order)."""
        fT = (self.T.truncated(1) * _F
              - contract("j,a->ja", self.V_form, self.nu))
        return contract("ic,jc->ij", self.g_inv,
                        contract("ja,ca->jc", fT, self._T_low))

    h_val = _value_stage("h")
    V_coord_val = _value_stage("V_coord")
    f_mixed_val = _value_stage("f_mixed")

    # --- almost contact data ----------------------------------------------
    @_stage
    def xi_ambient(self):
        """-J nu: J turns each factor's (x, y) a quarter turn (to first
        order)."""
        nu = self.nu.truncated(1)
        return nu[[1, 0, 3, 2]] * np.array([1.0, -1.0, 1.0, -1.0])

    @_stage
    def xi_coord(self):
        return contract("ab,b->a", self.g_inv,
                        contract("m,bm->b", self.xi_ambient, self._T_low))

    xi_ambient_val = _value_stage("xi_ambient")
    xi_coord_val = _value_stage("xi_coord")

    @_stage
    def chi_mixed(self):
        """Chi[i, j] = component i of Chi(d_j), the tangential part of J."""
        T = self.T_val
        JT = np.einsum("ab,...jb->...ja", J_MATRIX, T)
        lowered = np.einsum("...a,...ja,...ca->...cj", self.gbar_val, JT, T)
        return self.g_inv_val @ lowered

    # --- induced Levi-Civita connection and curvature ----------------------
    @_stage
    def gamma_induced(self):
        """Gamma^d_{bc} of the induced metric (jet, to first order)."""
        dg = self.g.deriv()  # dg[a, b, c] = d_a g_bc
        e, b, c = np.indices((3, 3, 3))
        lowered = dg[b, e, c] + dg[c, e, b] - dg  # indices [e, b, c]
        return 0.5 * contract("de,ebc->dbc", self.g_inv, lowered)

    gamma_induced_val = _value_stage("gamma_induced")

    @_stage
    def riemann(self):
        """R[al, be, ga, de] = component de of R(d_al, d_be) d_ga (values)."""
        Gv = self.gamma_induced_val
        # d_al Gamma^de_{be ga}, moved to index order [al, be, ga, de]
        dG = np.einsum("...dbga->...abgd", self.gamma_induced.grad())
        GG = np.einsum("...dae,...ebg->...abgd", Gv, Gv)
        return dG - np.swapaxes(dG, -4, -3) + GG - np.swapaxes(GG, -4, -3)

    # --- covariant derivatives of the induced fields ------------------------
    def _cov_deriv_vector(self, V):
        """(nabla_b V)^a as a (3, 3) value array, indices [b, a]."""
        return np.swapaxes(V.grad(), -1, -2) + np.einsum(
            "...abe,...e->...ba", self.gamma_induced_val, V.val)

    def _cov_deriv_endo(self, A):
        """(nabla_c A)^a_b as a (3, 3, 3) value array, indices [c, a, b]."""
        Gv, Av = self.gamma_induced_val, A.val
        dA = np.einsum("...abc->...cab", A.grad())
        return (dA + np.einsum("...ace,...eb->...cab", Gv, Av)
                - np.einsum("...ae,...ecb->...cab", Av, Gv))

    @_stage
    def nabla_E(self):
        return self._cov_deriv_endo(self.E_mixed)

    @_stage
    def nabla_f(self):
        return self._cov_deriv_endo(self.f_mixed)

    @_stage
    def nabla_V(self):
        return self._cov_deriv_vector(self.V_coord)

    @_stage
    def nabla_xi(self):
        return self._cov_deriv_vector(self.xi_coord)

    @_stage
    def dh(self):
        return self.h.grad()

    @_stage
    def dH(self):
        return self.mean_curvature.grad()

    # --- adapted frame ------------------------------------------------------
    @_stage
    def frame(self):
        """Columns e1, e2 = Chi e1, e3 = xi in chart coordinates (values).

        e1 is the first coordinate direction made orthogonal to xi, or the
        second where the first is too close to xi."""
        xi = self.xi_coord_val
        gv = self.g_val
        gxi = _mv(gv, xi)
        cands = [np.eye(3)[k] - gxi[..., k, None] * xi for k in range(2)]
        n2s = [np.einsum("...i,...ij,...j->...", w, gv, w) for w in cands]
        first = n2s[0] > 1e-12
        w = np.where(first[..., None], cands[0], cands[1])
        n2 = np.where(first, n2s[0], n2s[1])
        self._require(n2 > 1e-12, RankDeficientError,
                      lambda i: "no coordinate direction transverse to xi")
        e1 = w / np.sqrt(n2)[..., None]
        e2 = _mv(self.chi_mixed, e1)
        return np.stack([e1, e2, xi], axis=-1)

    @_stage
    def E_frame(self):
        """a[i, j] = g(E e_i, e_j) in the adapted frame."""
        e = self.frame
        return np.swapaxes(e, -1, -2) @ self.g_val @ self.E_mixed_val @ e

    @_stage
    def f_frame(self):
        e = self.frame
        return np.swapaxes(e, -1, -2) @ self.g_val @ self.f_mixed_val @ e

    @_stage
    def V_frame(self):
        return _mv(np.swapaxes(self.frame, -1, -2) @ self.g_val,
                   self.V_coord_val)

    @_stage
    def riemann_frame(self):
        """R_ijkl = g(R(e_i, e_j) e_k, e_l), one frame index at a time in the
        four matrix products that np.einsum(..., optimize=True) runs."""
        Rl = np.einsum("...abcd,...de->...abce", self.riemann, self.g_val)
        e, lead = self.frame, self.frame.shape[:-2]
        cycle = (*range(len(lead)), -3, -2, -1, -4)  # first index to last
        R = (np.swapaxes(e, -1, -2) @ Rl.reshape(lead + (3, 27))).reshape(
            lead + (3,) * 4).transpose(cycle)  # [i, b, c, d] -> [b, c, d, i]
        for _ in range(3):  # the first index against its frame vector
            R = (R.transpose(cycle).reshape(lead + (27, 3)) @ e).reshape(
                lead + (3,) * 4)
        return R

    @_stage
    def dE_frame(self):
        """dE[i, j, k] = g(dNabla E(e_i, e_j), e_k) in the adapted frame."""
        gv, nE, e = self.g_val, self.nabla_E, self.frame
        lowered = np.einsum("...cab,...ad->...cbd", nE, gv)  # g((nabla_c E) d_b, d_d)
        vec = np.einsum("...ci,...cbd,...bj->...ijd", e, lowered, e)
        return np.einsum("...ijd,...dk->...ijk",
                         vec - np.swapaxes(vec, -3, -2), e)


def evaluate(chart, product, u, order=ORDER) -> PointEvaluation:
    """Evaluate ``chart`` at one point u (shape (3,)) or at a batch of
    points (shape (N, 3)), seeded at ``order``; the immersion check covers
    every point."""
    ev = PointEvaluation(chart, product, u, order)
    ev.check_immersion()
    return ev


# ---------------------------------------------------------------------------
# pointwise identity residuals
# ---------------------------------------------------------------------------

def _vm(v, M):
    """Row vector times matrix over the leading point axis, if any."""
    return np.einsum("...a,...ab->...b", v, M)


def _ip(X, g, Y):
    """g(X, Y) per point."""
    return np.einsum("...i,...ij,...j->...", X, g, Y)


def consistency_residuals(ev: PointEvaluation):
    """Internal consistency of the splitting: normalization, tangency,
    symmetry of the second fundamental form, agreement of the two routes
    to V and xi."""
    gv = ev.g_val
    # eigvalsh of a non-finite metric is garbage or raises; it must fail
    finite = np.all(np.isfinite(gv), axis=(-2, -1))
    low = np.linalg.eigvalsh(np.where(finite[..., None, None], gv,
                                      np.eye(3)))[..., 0]
    II = ev.second_fundamental.val
    return {
        "normal-unit": np.abs(np.sum(ev.gbar_val * ev.nu_val * ev.nu_val,
                                     axis=-1) - 1.0),
        "metric-posdef": np.maximum(0.0, np.where(finite, 1e-12 - low,
                                                  np.nan)),
        "shape-symmetric": _max_abs(II - np.swapaxes(II, -1, -2), 2),
        "product-split": _max_abs(ev.V_ambient.val
                                  - _vm(ev.V_coord_val, ev.T_val), 1),
        "contact-split": _max_abs(ev.xi_ambient_val
                                  - _vm(ev.xi_coord_val, ev.T_val), 1),
    }


def frame_orthonormality_residual(ev: PointEvaluation):
    e = ev.frame
    return _max_abs(np.swapaxes(e, -1, -2) @ ev.g_val @ e - np.eye(3), 2)


def involution_identities(ev: PointEvaluation):
    """The splitting algebra of F in the adapted frame, where the metric is
    the identity: f symmetric, f^2 + V (x) V = Id, f V = -h V and
    h^2 + |V|^2 = 1 (Lira, Tojeiro & Vitorio, Arch. Math. 95, 2010).
    ``structure.involution`` and the converse read it once per
    evaluation."""
    return _shared(ev, _involution_identities)


def _involution_identities(ev):
    # h first: at an overflowing chart its stage names the unit normal,
    # which the frame stages reach only after the inverse metric
    h = np.asarray(ev.h_val)
    Vf, ff = ev.V_frame, ev.f_frame
    return {
        "f-symmetric": _max_abs(ff - np.swapaxes(ff, -1, -2), 2),
        "f-squared": _max_abs(ff @ ff + Vf[..., :, None] * Vf[..., None, :]
                              - np.eye(3), 2),
        "f-of-V": _max_abs(_mv(ff, Vf) + h[..., None] * Vf, 1),
        "unit-split": np.abs(h ** 2 + np.sum(Vf * Vf, axis=-1) - 1.0),
    }


def contact_identities(ev: PointEvaluation):
    """The ten pointwise identities tying (Chi, xi, eta) to (f, V, h)."""
    gv = ev.g_val
    fv = ev.f_mixed_val
    chi = ev.chi_mixed
    xi = ev.xi_coord_val
    Vv = ev.V_coord_val
    h = np.asarray(ev.h_val)
    e1, e2 = ev.frame[..., 0], ev.frame[..., 1]
    T = ev.T_val

    def eta(X):
        return _ip(X, gv, xi)

    def ip(X, Y):
        return _ip(X, gv, Y)

    def f(X):
        return _mv(fv, X)

    def Chi(X):
        return _mv(chi, X)

    def over_frame(defect):  # worst over X in {e1, e2, xi}, NaN kept
        return np.array([defect(X) for X in (e1, e2, xi)]).max(axis=0)

    return {
        "chi-antisymmetric": np.abs(ip(Chi(e1), e2) + ip(e1, Chi(e2))),
        "chi-kills-xi": _max_abs(Chi(xi), 1),
        "mixed-endomorphism": over_frame(
            lambda X: np.abs(ip(Vv, Chi(X)) + eta(X) * h - eta(f(X)))),
        "commutation-split": over_frame(lambda X: _max_abs(
            f(Chi(X)) + eta(X)[..., None] * Vv - Chi(f(X))
            + ip(Vv, X)[..., None] * xi, 1)),
        "V-horizontal": np.abs(eta(Vv)),
        "f-of-xi": _max_abs(f(xi) - h[..., None] * xi + Chi(Vv), 1),
        "f-V-horizontal": np.abs(eta(f(Vv))),
        "f-frame-entries": np.array([np.abs(ip(f(e1), e2)),
                                     np.abs(ip(f(e1), e1) + h),
                                     np.abs(ip(f(e2), e2) + h)]).max(axis=0),
        "J-of-V": _max_abs(_mv(J_MATRIX, _vm(Vv, T)) - _vm(Chi(Vv), T), 1),
        "F-of-xi": _max_abs(_mv(F_MATRIX, _vm(xi, T)) - _vm(f(xi), T), 1),
    }


def projection_formulas(ev: PointEvaluation):
    """Factor projections of V, nu, xi against their closed forms."""
    Vamb = _vm(ev.V_coord_val, ev.T_val)
    nu = ev.nu_val
    xi = ev.xi_ambient_val
    h = np.asarray(ev.h_val)[..., None]
    V2 = np.sum(ev.gbar_val * Vamb * Vamb, axis=-1)[..., None]
    pi1 = np.array([1.0, 1.0, 0.0, 0.0])  # factor projections, as masks
    pi2 = 1.0 - pi1
    out = {
        "pi1-V": pi1 * Vamb - ((1.0 - h) * Vamb + V2 * nu) / 2.0,
        "pi2-V": pi2 * Vamb - ((1.0 + h) * Vamb - V2 * nu) / 2.0,
        "pi1-nu": pi1 * nu - ((h + 1.0) * nu + Vamb) / 2.0,
        "pi2-nu": pi2 * nu - ((1.0 - h) * nu - Vamb) / 2.0,
        "pi1-xi": pi1 * xi + _mv(J_MATRIX, pi1 * nu),
        "pi2-xi": pi2 * xi + _mv(J_MATRIX, pi2 * nu),
    }
    return {k: _max_abs(v, 1) for k, v in out.items()}


def trace_residual(ev: PointEvaluation):
    """|tr F| = |tr f + h| per point, F the product structure in the basis
    {e1, e2, xi, nu}; NaN where the frame data is."""
    return _shared(ev, _trace_residual)


def _trace_residual(ev):
    return np.abs(np.trace(ev.f_frame, axis1=-2, axis2=-1) + ev.h_val)


def _max_abs(x, axes):
    """max |x| over the trailing ``axes`` axes; NaN if any entry is NaN."""
    return np.abs(x).max(axis=tuple(range(-axes, 0)))


def _pair_terms(X):
    """(X[j, k] X[i, l], X[i, k] X[j, l]) as [..., i, j, k, l] arrays."""
    return (X[..., None, :, :, None] * X[..., :, None, None, :],
            X[..., :, None, :, None] * X[..., None, :, None, :])


def gauss_residual(ev: PointEvaluation):
    """max_{ijkl} |R_ijkl - RHS_ijkl| for the product-target Gauss equation,
    per point of a batch; RHS_ijkl is the e_l component of the right side
    for the curvature of (e_i, e_j) acting on e_k."""
    return _shared(ev, _gauss)


def _gauss(ev):
    eye = np.eye(3)
    c1, c2 = ev.product.c1, ev.product.c2
    p_jk, p_ik = _pair_terms(eye + ev.f_frame)
    m_jk, m_ik = _pair_terms(eye - ev.f_frame)
    a_jk, a_ik = _pair_terms(ev.E_frame)
    return _max_abs(ev.riemann_frame - (0.25 * c1 * (p_jk - p_ik)
                    + 0.25 * c2 * (m_jk - m_ik) + a_jk - a_ik), 4)


def codazzi_residual(ev: PointEvaluation):
    """max_{ijk} |g(dNabla E(e_i, e_j), e_k) - RHS(i, j, k)|, per point of a
    batch."""
    return _shared(ev, _codazzi)


def _codazzi(ev):
    g, f, V = np.eye(3), ev.f_frame, ev.V_frame
    c1, c2 = ev.product.c1, ev.product.c2
    V_i, V_j = V[..., :, None, None], V[..., None, :, None]
    f_jk, f_ik = f[..., None, :, :], f[..., :, None, :]
    g_jk, g_ik = g[None, :, :], g[:, None, :]
    t1 = f_jk * V_i - f_ik * V_j + g_jk * V_i - g_ik * V_j
    t2 = g_jk * V_i - f_jk * V_i - g_ik * V_j + f_ik * V_j
    return _max_abs(ev.dE_frame - (0.25 * c1 * t1 - 0.25 * c2 * t2), 3)


def derivative_identities(ev: PointEvaluation):
    """Residuals of the three first-order compatibility equations, per
    point of a batch:
    (nabla_X f)Y = g(Y,V) EX + g(EX,Y) V,  nabla_X V = -f(EX) + h EX,
    and grad h = -2 E V, from coordinate-level data (nabla_f indexed
    [c, a, b], nabla_V [b, a])."""
    return _shared(ev, _derivative_identities)


def _derivative_identities(ev):
    g, E, V = ev.g_val, ev.E_mixed_val, ev.V_coord_val
    Et = np.swapaxes(E, -1, -2)
    gV = _mv(g, V)
    gEt = np.swapaxes(g @ E, -1, -2)
    f_rhs = (gV[..., None, None, :] * Et[..., :, :, None]
             + gEt[..., :, None, :] * V[..., None, :, None])
    V_rhs = (np.swapaxes(-ev.f_mixed_val @ E, -1, -2)
             + np.asarray(ev.h_val)[..., None, None] * Et)
    return {"f-derivative": _max_abs(ev.nabla_f - f_rhs, 3),
            "V-derivative": _max_abs(ev.nabla_V - V_rhs, 2),
            "h-gradient": _max_abs(ev.dh + _mv(2.0 * g @ E, V), 1)}

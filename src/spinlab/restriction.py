"""Restriction of the two ambient spin^c structures to a hypersurface.

The restricted spinor space of each structure is realised concretely as the
chirality eigenspace of the dim-4 Clifford model that contains the parallel
spinor (positive for structure 1, negative for structure 2).  The induced
Clifford multiplication is taken literally from the ambient one:

    gamma(X) phi = sign * (X . nu . psi),   sign = chirality of the structure,

so no independent dim-3 representation choice can drift out of sync.  The
induced covariant derivative follows the hypersurface Gauss formula

    nabla_X phi = (ambient derivative along X) - sign/2 * gamma(E X) phi,

and the ambient derivative of the restricted parallel field vanishes, so
nabla_X phi = -sign/2 gamma(E X) phi, the generalized Killing law (Baer,
Ann. Global Anal. Geom. 16, 1998; Nakad & Roth, ibid. 42, 2012).  The
Killing residual is therefore zero by construction and verifies nothing.
An independent adapted-gauge construction of nabla lives in the test
oracles.

The two structures differ only by their factor signs (s1, s2), so all
they read but those signs, the chirality sign and the parallel spinor is
computed once per evaluation, through ``_shared``, whose memo so holds
arrays only: the Clifford matrix of nu, the unsigned X . nu along e1, e2,
xi, the ambient frame, and the factor record (``factors``) of c_k lam_k^2,
which gives the factor Ricci forms.  The frame scale (lam1, lam1, lam2,
lam2) is the evaluation's stage ``frame_scale``.  Each structure keeps its
frame images gamma(e_k) phi (``frame_images``) for the residuals that
apply a tangent gamma to phi only, gamma(V) phi, gamma(nu -| Omega^N) phi
and gamma(E e_k) phi by linearity; 4x4 stacks are built
only where matrices are read (Clifford relations, volume element, the
curvature restriction law and the Dirac law).  The Clifford-relation
defects do not depend on the sign, so ``relation_defects`` computes those
of both structures in one pass over one draw array, and the volume element
of each is its sign times the unsigned product that both read
(``volume_element``).  The derivative is computed along the adapted frame
only, once per structure (``frame_derivative``), for the Killing check
and the Dirac and energy-momentum laws.  Along any tangent X it follows
by linearity, nabla_X = sum_k g(X, e_k) nabla_{e_k}.  The closed form of
Omega is also read through ``_shared``, once per structure
(``frame_omega``), by the Omega check and the compatibility systems.

A :class:`RestrictedSpinc` follows the shapes rule of the evaluation it is
built on: per-point arrays carry the point axis first, so ``frame_gammas``
is (3, 4, 4) at one point and (N, 3, 4, 4) for a batch, ``frame_images``
(3, 4) and (N, 3, 4).  Tangent vectors come one per point, (..., 3), or k
per point, (..., k, 3).  Every residual below is one array pass returning
one value per point.

Spinor inner products are the standard Hermitian ones.  The parallel
spinor psi is a unit basis vector (``ProductModel.parallel_spinor``), so
|phi| = 1 and a pairing (X, phi) reads one component of X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import build_clifford
from .hypersurfaces import PointEvaluation, _read_only, _shared
from .product import CLIFFORD, SpincStructure, _curvature

# the Clifford model of one surface factor, acting on its spinors
_FACTOR = build_clifford(2)
# the six coordinate planes (a, b), a < b, of the ambient orthonormal frame
# with the Clifford action of their bivectors e_a e_b, and the three pairs
# i < j of the adapted frame
_PLANE_A, _PLANE_B = np.triu_indices(4, 1)
_PLANES = np.stack([CLIFFORD.generators[a] @ CLIFFORD.generators[b]
                    for a, b in zip(_PLANE_A, _PLANE_B)])
_PAIR_I, _PAIR_J = np.triu_indices(3, 1)


def closed_form_omega(tag: int, c1, c2, h, V_frame):
    """The frame-component closed form of the induced auxiliary curvature.

    Returns (Om12, Om13, Om23) = Omega on the frame pairs (e1, e2),
    (e1, xi), (e2, xi), one row per entry of ``h`` (``V_frame`` is
    ``h.shape + (3,)``):
        Om(e1, e2) = s c1 (h-1)/2 - c2 (h+1)/2,
        Om(e_i, xi) = (s c1 - c2)/2 * (e_i, V),
    with s = +1 for structure 1 and -1 for structure 2.
    """
    s = 1.0 if tag == 1 else -1.0
    h, V = np.asarray(h), np.asarray(V_frame)
    return np.stack([0.5 * s * c1 * (h - 1.0) - 0.5 * c2 * (h + 1.0),
                     0.5 * (s * c1 - c2) * V[..., 0],
                     0.5 * (s * c1 - c2) * V[..., 1]], axis=-1)


def frame_omega(ev: PointEvaluation, tag: int):
    """``closed_form_omega`` of structure ``tag`` at every point of ``ev``,
    which both the compatibility systems and the Omega checks read through
    ``_shared``."""
    return closed_form_omega(tag, ev.product.c1, ev.product.c2, ev.h_val,
                             ev.V_frame)


# --- what the restrictions of both structures read --------------------------
# The pieces below are read through ``_shared(ev, piece)``: computed on first
# use and kept in the evaluation's memo.

def per_point(ev: PointEvaluation, a, X):
    """Per-point array ``a`` with a unit axis for each stack axis of the
    tangent vectors ``X``, so that the two broadcast."""
    n = ev.u.ndim - 1
    k = np.ndim(X) - n - 1
    return a.reshape(a.shape[:n] + (1,) * k + a.shape[n:])


def chart(ev: PointEvaluation, X_coord):
    """Ambient chart components of tangent coordinate vectors."""
    return np.einsum("...a,...ab->...b", X_coord,
                     per_point(ev, ev.T_val, X_coord))


def nu_mat(ev: PointEvaluation):
    """Clifford matrix of the unit normal, (..., 4, 4)."""
    return CLIFFORD.vector(ev.nu_val * ev.frame_scale)


def clifford(ev: PointEvaluation, X_coord):
    """X . nu as 4x4 matrices: gamma(X) up to the chirality sign."""
    frame = chart(ev, X_coord) * per_point(ev, ev.frame_scale, X_coord)
    return CLIFFORD.vector(frame) @ per_point(ev, _shared(ev, nu_mat), X_coord)


def frame_gammas(ev: PointEvaluation):
    """e_k . nu along e1, e2, xi, (..., 3, 4, 4)."""
    return clifford(ev, np.swapaxes(ev.frame, -1, -2))


def volume_element(ev: PointEvaluation):
    """The unsigned product (e1 . nu)(e2 . nu)(xi . nu), (..., 4, 4)."""
    g1, g2, g3 = np.moveaxis(_shared(ev, frame_gammas), -3, 0)
    return g1 @ g2 @ g3


def relation_defects(ev: PointEvaluation, rngs):
    """Worst defect of the Clifford relation and of skew-adjointness over
    three random pairs (X, Y) per point, for the draws of each generator of
    ``rngs``: (..., len(rngs)).  Each generator's draws run point by point,
    each pair's X before its Y.  The defects are those of the unsigned
    X . nu, since gamma(X) = sign X . nu with sign = +-1 changes none of
    their bits, so both structures share one pass."""
    n = ev.u.ndim - 1
    XY = np.stack([rng.standard_normal(ev.u.shape[:-1] + (3, 2, 3))
                   for rng in rngs], axis=n)
    X, Y = XY[..., 0, :], XY[..., 1, :]
    gx, gy = clifford(ev, X), clifford(ev, Y)
    ip = np.einsum("...a,...ab,...b->...", X, per_point(ev, ev.g_val, X), Y)
    anti = gx @ gy + gy @ gx + 2.0 * ip[..., None, None] * np.eye(4)
    skew = gx + np.conj(np.swapaxes(gx, -1, -2))
    return np.abs(np.stack([anti, skew], axis=-3)).max(
        axis=(-4, -3, -2, -1))


def factors(ev: PointEvaluation):
    """The coefficients c_k lam_k^2 of the factor Ricci forms
    rho_k = c_k lam_k^2 du ^ dv, (..., 2), one column per factor, read off
    the conformal factors the evaluation holds."""
    return np.array([ev.product.c1, ev.product.c2]) * ev.gbar_val[..., ::2]


def _wedge(coeff, X, Y):
    """coeff_k (X^u Y^v - X^v Y^u) on the chart plane (u, v) of each factor
    k, for X, Y with the coordinate axis first and one axis after the point
    axes: the factor Ricci forms (rho1, rho2) of ``factors``."""
    return tuple(coeff[..., k, None] * (X[2 * k] * Y[2 * k + 1]
                                        - X[2 * k + 1] * Y[2 * k])
                 for k in (0, 1))


def frame_ambient(ev: PointEvaluation):
    """Ambient chart components of the adapted frame, one column each, the
    coordinate axis first: (4, ..., 3)."""
    return np.einsum("...ai,...ab->b...i", ev.frame, ev.T_val)


def frame_ricci(ev: PointEvaluation):
    """(rho1, rho2) on the frame pairs (e1, e2), (e1, xi), (e2, xi), each
    (..., 3)."""
    amb = _shared(ev, frame_ambient)
    return _wedge(_shared(ev, factors), amb[..., _PAIR_I],
                  amb[..., _PAIR_J])


def plane_ricci(ev: PointEvaluation):
    """(rho1, rho2) on the six coordinate planes (eps_a, eps_b), a < b, of
    the ambient orthonormal frame, each (..., 6)."""
    eps = np.eye(4).reshape((4,) + (1,) * (ev.u.ndim - 1) + (4,)) \
        / ev.frame_scale.T[..., None]
    return _wedge(_shared(ev, factors), eps[..., _PLANE_A],
                  eps[..., _PLANE_B])


def normal_ricci(ev: PointEvaluation):
    """(rho1, rho2)(nu, e_k) along e1, e2, xi, each (..., 3)."""
    return _wedge(_shared(ev, factors), ev.nu_val.T[..., None],
                  _shared(ev, frame_ambient))


class RestrictedSpinc:
    """Induced spin^c structure and restricted parallel spinor at one point
    or at every point of a batch."""

    def __init__(self, ev: PointEvaluation, struct: SpincStructure):
        self.ev = ev
        self.struct = struct
        self.sign = float(struct.chirality)
        self.psi = ev.product.parallel_spinor(struct)

    # --- Clifford layer ---------------------------------------------------
    def expectation(self, spinor):
        """(spinor, phi) against the restricted unit field."""
        return np.einsum("a,...a->...", self.psi.conj(), spinor)

    @cached_property
    def frame_gammas(self):
        """gamma(e1), gamma(e2), gamma(xi), (..., 3, 4, 4)."""
        return self.sign * _shared(self.ev, frame_gammas)

    @cached_property
    def frame_images(self):
        """gamma(e1) phi, gamma(e2) phi, gamma(xi) phi, (..., 3, 4) and
        read-only."""
        return _read_only(self.frame_gammas @ self.psi)

    def frame_image(self, x):
        """gamma(X) phi by linearity from the adapted-frame components x of
        X, (..., 3)."""
        return np.einsum("...k,...ka->...a", x, self.frame_images)

    def volume_measurement(self):
        """Scalar m with gamma(e1) gamma(e2) gamma(xi) phi = m phi; the
        product of the three signed gammas is sign^3 = sign times the
        unsigned one that both structures share."""
        return self.sign * self.expectation(
            _shared(self.ev, volume_element) @ self.psi)

    # --- connection layer ---------------------------------------------------
    @cached_property
    def frame_derivative(self):
        """nabla_{e_k} phi and gamma(E e_k) phi along e1, e2, xi, each
        (..., 3, 4) and read-only: the Gauss formula with a parallel ambient
        spinor, nabla_{e_k} phi = -sign/2 gamma(E e_k) phi, its shape term by
        linearity from the frame images.  Computed once for the Killing and
        the Dirac checks."""
        shape_term = self.ev.E_frame @ self.frame_images
        return _read_only((-0.5 * self.sign * shape_term, shape_term))

    # --- pullback curvature ---------------------------------------------------
    @cached_property
    def omega_pullback(self):
        """Omega(e_i, e_j) on the frame pairs (e1, e2), (e1, xi), (e2, xi),
        (..., 3) (pullback)."""
        return _curvature(self.struct, *_shared(self.ev, frame_ricci))

    @cached_property
    def dirac_energy(self) -> "DiracEnergy":
        """The Dirac law and energy-momentum tensor of this structure,
        computed once for every check that reads them."""
        return dirac_and_energy_momentum(self)


# ---------------------------------------------------------------------------
# residual bundles
# ---------------------------------------------------------------------------

# perfbench times restriction as calls of this function (restrict_ms)
def restrict_structure(ev: PointEvaluation, struct: SpincStructure) -> RestrictedSpinc:
    return RestrictedSpinc(ev, struct)


def frame_killing_residual(rs: RestrictedSpinc):
    """|nabla_X phi + sign/2 gamma(EX) phi| (the generalized Killing law)
    along X = e1, e2 and xi, per point and frame vector, read off the frame
    derivative the Dirac law also reads."""
    nabla, shape_term = rs.frame_derivative
    return np.linalg.norm(nabla + 0.5 * rs.sign * shape_term, axis=-1)


def algebraic_conditions(rs: RestrictedSpinc):
    """Pointwise algebraic law satisfied by the restricted spinor.

    Structure 1:  gamma(xi) phi = -i phi.
    Structure 2:  gamma(V) phi = -i gamma(xi) phi + h phi.
    """
    phi = rs.psi
    xi = rs.frame_images[..., 2, :]
    if rs.struct.tag == 1:
        res = xi + 1j * phi
    else:
        h = np.asarray(rs.ev.h_val)[..., None]
        res = rs.frame_image(rs.ev.V_frame) + 1j * xi - h * phi
    return np.linalg.norm(res, axis=-1)


def pairing_identities(rs: RestrictedSpinc):
    """The four spinor-pairing identities of the negative structure:
    (gamma(V)phi, phi) = 0, (V, e1) = -i(gamma(e2)phi, phi),
    (V, e2) = +i(gamma(e1)phi, phi), h = i(gamma(xi)phi, phi)."""
    Vf = rs.ev.V_frame
    h = rs.ev.h_val
    pair = rs.expectation(rs.frame_images)  # (gamma(e_k) phi, phi)
    return {
        "V-pairing-vanishes": np.abs(rs.expectation(rs.frame_image(Vf))),
        "V-e1-pairing": np.abs(Vf[..., 0] + 1j * pair[..., 1]),
        "V-e2-pairing": np.abs(Vf[..., 1] - 1j * pair[..., 0]),
        "h-pairing": np.abs(h - 1j * pair[..., 2]),
    }


def omega_formula_residual(rs: RestrictedSpinc):
    """Pullback of the auxiliary curvature against its closed form."""
    ref = _shared(rs.ev, frame_omega, rs.struct.tag)
    return np.abs(rs.omega_pullback - ref).max(axis=-1)


def curvature_restriction_residual(rs: RestrictedSpinc):
    """Restriction law for the 2-form Clifford action:

        (Omega^N . psi)|_M = gamma(Omega) phi -/+ gamma(nu -| Omega^N) phi,

    with - for the positive-chirality structure and + for the negative one.
    """
    ev = rs.ev
    # ambient 2-form action in the orthonormal frame eps_a, plane by plane
    coeffs = _curvature(rs.struct, *_shared(ev, plane_ricci))
    lhs = coeffs @ (_PLANES @ rs.psi)

    rhs = np.einsum("...k,...kab,...kb->...a", rs.omega_pullback,
                    rs.frame_gammas[..., _PAIR_I, :, :],
                    rs.frame_images[..., _PAIR_J, :])
    # gamma(nu -| Omega^N) phi, from the frame components Omega^N(nu, e_k)
    contraction = _curvature(rs.struct, *_shared(ev, normal_ricci))
    rhs = rhs - rs.sign * rs.frame_image(contraction)
    return np.linalg.norm(lhs - rhs, axis=-1)


def projection_cancellation_residuals(ev: PointEvaluation):
    """Two tensor-level cancellation identities for the factor projections,
    per point.

    With b+ = (1,0), b- = (0,1) the factor spinors and pi_i the factor
    projections of ambient vectors:

      (+):  -pi1(nu).b+ (x) pi2(xi).b+  +  pi1(xi).b+ (x) pi2(nu).b+  = 0
      (-):  pi1(nu).b- (x) (pi2(V)+i pi2(xi)).b+
              - (pi1(V)+i pi1(xi)).b- (x) pi2(nu).b+  = 0
    """
    # orthonormal-frame components of nu, xi, V; the first two are those of
    # factor 1
    Vamb = np.einsum("...a,...ab->...b", ev.V_coord_val, ev.T_val)
    w = np.stack([ev.nu_val, ev.xi_ambient_val, Vamb], axis=-2) \
        * ev.frame_scale[..., None, :]
    # the Clifford matrices of their six factor projections, in one call
    mats = _FACTOR.vector(w.reshape(w.shape[:-1] + (2, 2)))
    (nu1, nu2), (xi1, xi2), (V1, V2) = np.moveaxis(mats, (-4, -3), (0, 1))

    def kron(a, b):
        return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (4,))

    bp = np.array([1.0, 0.0], dtype=complex)
    bm = np.array([0.0, 1.0], dtype=complex)
    plus = -kron(nu1 @ bp, xi2 @ bp) + kron(xi1 @ bp, nu2 @ bp)
    minus = (kron(nu1 @ bm, (V2 + 1j * xi2) @ bp)
             - kron((V1 + 1j * xi1) @ bm, nu2 @ bp))
    return {"positive-structure": np.linalg.norm(plus, axis=-1),
            "negative-structure": np.linalg.norm(minus, axis=-1)}


@dataclass
class DiracEnergy:
    """Per point: Dirac residual and the energy-momentum tensor Q."""

    dirac_residual: np.ndarray
    Q: np.ndarray


def dirac_and_energy_momentum(rs: RestrictedSpinc) -> DiracEnergy:
    """Dirac eigenvalue law and the energy-momentum tensor of the field.

    D phi = sum_k gamma(e_k) nabla_{e_k} phi must equal +-(3/2) H phi
    (+ for structure 1).  Q(X, Y) = Re(gamma(X) nabla_Y phi
    + gamma(Y) nabla_X phi, phi) must equal sign * E: the shape
    operator for structure 1 and its negative for structure 2.
    """
    phi = rs.psi
    H = rs.ev.mean_curvature.val
    G = rs.frame_gammas
    nab = rs.frame_derivative[0]  # nabla_{e_k} phi
    D = np.einsum("...kab,...kb->...a", G, nab)
    target = np.asarray(1.5 * H if rs.struct.tag == 1 else -1.5 * H)
    dres = np.linalg.norm(D - target[..., None] * phi, axis=-1)

    GN = np.einsum("...iab,...kb->...ika", G, nab)  # gamma(e_i) nabla_k phi
    return DiracEnergy(dres, rs.expectation(GN + np.swapaxes(GN, -3, -2)).real)

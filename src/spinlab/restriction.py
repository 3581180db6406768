"""Restriction of the two ambient spin^c structures to a hypersurface.

The restricted spinor space of each structure is realised concretely as the
chirality eigenspace of the dim-4 Clifford model that contains the parallel
spinor (positive for structure 1, negative for structure 2).  The induced
Clifford multiplication is taken literally from the ambient one:

    gamma(X) phi = sign * (X . nu . psi),   sign = chirality of the structure,

so no independent dim-3 representation choice can drift out of sync.  The
induced covariant derivative follows the hypersurface Gauss formula

    nabla_X phi = (ambient derivative along X) - sign/2 * gamma(E X) phi,

where the ambient derivative of the restricted parallel field is the
connection coefficient matrix applied to the constant section (identically
zero; its smallness is itself a verified property of the gauge).  An
independent adapted-gauge construction of nabla lives in the test oracles.

Spinor inner products are the standard Hermitian ones; all reported
quantities are normalized by |phi|^2 so the tolerances are scale free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import ProductSpinorSpace
from .hypersurfaces import PointEvaluation
from .jets import value, worst_of
from .product import SpincStructure


def closed_form_omega(tag: int, c1, c2, h, V_frame):
    """The frame-component closed form of the induced auxiliary curvature.

    Returns the matrix Om[i, j] over the adapted frame {e1, e2, xi}:
        Om(e1, e2) = s c1 (h-1)/2 - c2 (h+1)/2,
        Om(e_i, xi) = (s c1 - c2)/2 * (e_i, V),
    with s = +1 for structure 1 and -1 for structure 2.
    """
    s = 1.0 if tag == 1 else -1.0
    Om = np.zeros((3, 3))
    Om[0, 1] = 0.5 * s * c1 * (h - 1.0) - 0.5 * c2 * (h + 1.0)
    Om[0, 2] = 0.5 * (s * c1 - c2) * V_frame[0]
    Om[1, 2] = 0.5 * (s * c1 - c2) * V_frame[1]
    Om[1, 0], Om[2, 0], Om[2, 1] = -Om[0, 1], -Om[0, 2], -Om[1, 2]
    return Om


class RestrictedSpinc:
    """Induced spin^c structure and restricted parallel spinor at a point."""

    def __init__(self, ev: PointEvaluation, struct: SpincStructure):
        self.ev = ev
        self.struct = struct
        self.sign = float(struct.chirality)
        self.model = ev.product.clifford
        self.psi = ev.product.parallel_spinor(struct)
        self.position = ev.position
        # (lam1, lam1, lam2, lam2): chart to orthonormal-frame components
        self.frame_scale = ev.product.frame_components(ev.position, np.ones(4))
        self.nu_frame = ev.nu_val * self.frame_scale
        self._nu_mat = self.model.vector(self.nu_frame)

    # --- Clifford layer ---------------------------------------------------
    def ambient_frame(self, X_coord):
        """Orthonormal-frame components of a tangent coordinate vector."""
        return (np.asarray(X_coord) @ self.ev.T_val) * self.frame_scale

    def gamma_matrix(self, X_coord):
        """gamma(X) as a 4x4 matrix preserving the chirality eigenspace."""
        return self.sign * self.model.vector(self.ambient_frame(X_coord)) @ self._nu_mat

    def gamma(self, X_coord, spinor):
        return self.gamma_matrix(X_coord) @ spinor

    @cached_property
    def frame_gammas(self):
        return [self.gamma_matrix(self.ev.frame[:, i]) for i in range(3)]

    def anticommutation_residual(self, rng, trials=6):
        res = []
        for _ in range(trials):
            X = rng.standard_normal(3)
            Y = rng.standard_normal(3)
            gx, gy = self.gamma_matrix(X), self.gamma_matrix(Y)
            ip = float(X @ self.ev.g_val @ Y)
            anti = gx @ gy + gy @ gx + 2.0 * ip * np.eye(4)
            res.append(np.max(np.abs(anti)))
            res.append(np.max(np.abs(gx + gx.conj().T)))
        return worst_of(res)

    def volume_measurement(self):
        """Scalar m with gamma(e1) gamma(e2) gamma(xi) phi = m phi."""
        g1, g2, g3 = self.frame_gammas
        out = g1 @ g2 @ g3 @ self.psi
        return complex(np.vdot(self.psi, out) / np.vdot(self.psi, self.psi))

    # --- connection layer ---------------------------------------------------
    def ambient_derivative(self, X_coord):
        """Connection coefficient of the ambient spinor derivative along X."""
        X_amb = np.asarray(X_coord) @ self.ev.T_val
        C = self.ev.product.connection_matrix(self.position, X_amb, self.struct)
        return C @ self.psi

    def covariant_derivative(self, X_coord):
        """Induced derivative of the restricted field via the Gauss formula."""
        EX = self.ev.E_mixed_val @ np.asarray(X_coord)
        return self.ambient_derivative(X_coord) - 0.5 * self.sign * self.gamma(EX, self.psi)

    def killing_residual(self, X_coord):
        """|nabla_X phi + sign/2 gamma(EX) phi| (the generalized Killing law)."""
        EX = self.ev.E_mixed_val @ np.asarray(X_coord)
        res = self.covariant_derivative(X_coord) + 0.5 * self.sign * self.gamma(EX, self.psi)
        return float(np.linalg.norm(res))

    # --- pullback curvature ---------------------------------------------------
    @cached_property
    def omega_pullback(self):
        """Om[i, j] = Omega(e_i, e_j) on the adapted frame (pullback)."""
        amb = self.frame_ambient
        return value(self.ev.product.curvature_form(
            self.position, amb[:, :, None], amb[:, None, :], self.struct))

    @cached_property
    def frame_ambient(self):
        """Ambient chart components of the adapted frame, one column each."""
        return np.stack([self.ev.frame_ambient(i) for i in range(3)], axis=1)

    @cached_property
    def dirac_energy(self) -> "DiracEnergy":
        """The Dirac law and energy-momentum tensor of this structure,
        computed once for every check that reads them."""
        return dirac_and_energy_momentum(self)


# ---------------------------------------------------------------------------
# residual bundles
# ---------------------------------------------------------------------------

def restrict_structure(ev: PointEvaluation, struct: SpincStructure) -> RestrictedSpinc:
    return RestrictedSpinc(ev, struct)


def algebraic_conditions(rs: RestrictedSpinc):
    """Pointwise algebraic law satisfied by the restricted spinor.

    Structure 1:  gamma(xi) phi = -i phi.
    Structure 2:  gamma(V) phi = -i gamma(xi) phi + h phi.
    """
    phi = rs.psi
    xi = rs.ev.xi_coord_val
    if rs.struct.tag == 1:
        res = rs.gamma(xi, phi) + 1j * phi
    else:
        V = rs.ev.V_coord_val
        h = value(rs.ev.h)
        res = rs.gamma(V, phi) + 1j * rs.gamma(xi, phi) - h * phi
    return float(np.linalg.norm(res))


def pairing_identities(rs: RestrictedSpinc):
    """The four spinor-pairing identities of the negative structure:
    (gamma(V)phi, phi) = 0, (V, e1) = -i(gamma(e2)phi, phi),
    (V, e2) = +i(gamma(e1)phi, phi), h = i(gamma(xi)phi, phi)."""
    phi = rs.psi
    norm2 = float(np.vdot(phi, phi).real)
    Vf = rs.ev.V_frame
    h = value(rs.ev.h)
    g1, g2, g3 = rs.frame_gammas

    def pair(mat):
        return complex(np.vdot(phi, mat @ phi)) / norm2

    V = rs.ev.V_coord_val
    out = {
        "V-pairing-vanishes": abs(pair(rs.gamma_matrix(V))),
        "V-e1-pairing": abs(Vf[0] + 1j * pair(g2)),
        "V-e2-pairing": abs(Vf[1] - 1j * pair(g1)),
        "h-pairing": abs(h - 1j * pair(g3)),
    }
    return out


def omega_formula_residual(rs: RestrictedSpinc):
    """Pullback of the auxiliary curvature against its closed form."""
    ev = rs.ev
    Om = rs.omega_pullback
    ref = closed_form_omega(rs.struct.tag, ev.product.c1, ev.product.c2,
                            value(ev.h), ev.V_frame)
    return float(np.max(np.abs(Om - ref)))


def curvature_restriction_residual(rs: RestrictedSpinc):
    """Restriction law for the 2-form Clifford action:

        (Omega^N . psi)|_M = gamma(Omega) phi -/+ gamma(nu -| Omega^N) phi,

    with - for the positive-chirality structure and + for the negative one.
    """
    ev = rs.ev
    model = rs.model
    p = rs.position
    eps = np.diag(1.0 / rs.frame_scale)
    # ambient 2-form action in the orthonormal frame, plane (a, b) by plane
    A, B = np.triu_indices(4, 1)
    coeffs = value(ev.product.curvature_form(p, eps[:, A], eps[:, B],
                                             rs.struct))
    lhs_mat = np.zeros((4, 4), dtype=complex)
    for coeff, a, b in zip(coeffs, A, B):
        lhs_mat += coeff * model.generators[a] @ model.generators[b]
    lhs = lhs_mat @ rs.psi

    Om = rs.omega_pullback
    rhs = np.zeros(4, dtype=complex)
    for i in range(3):
        for j in range(i + 1, 3):
            rhs += Om[i, j] * rs.frame_gammas[i] @ (rs.frame_gammas[j] @ rs.psi)
    contraction = value(ev.product.curvature_form(
        p, ev.nu_val[:, None], rs.frame_ambient, rs.struct))
    W = sum(contraction[i] * ev.frame[:, i] for i in range(3))
    rhs -= rs.sign * rs.gamma(W, rs.psi)
    return float(np.linalg.norm(lhs - rhs))


_SPACE = ProductSpinorSpace.build()


def projection_cancellation_residuals(ev: PointEvaluation):
    """Two tensor-level cancellation identities for the factor projections,
    per point.

    With b+ = (1,0), b- = (0,1) the factor spinors and pi_i the factor
    projections of ambient vectors:

      (+):  -pi1(nu).b+ (x) pi2(xi).b+  +  pi1(xi).b+ (x) pi2(nu).b+  = 0
      (-):  pi1(nu).b- (x) (pi2(V)+i pi2(xi)).b+
              - (pi1(V)+i pi1(xi)).b- (x) pi2(nu).b+  = 0
    """
    vec = _SPACE.factor.vector
    p = ev.position
    lam1 = np.asarray(value(ev.product.factor1.conformal_factor(
        p[..., 0], p[..., 1])))[..., None]
    lam2 = np.asarray(value(ev.product.factor2.conformal_factor(
        p[..., 2], p[..., 3])))[..., None]

    def f1(w):
        return lam1 * w[..., :2]

    def f2(w):
        return lam2 * w[..., 2:]

    def kron(a, b):
        return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (4,))

    nu = ev.nu_val
    xi = ev.xi_ambient_val
    Vamb = np.einsum("...a,...ab->...b", ev.V_coord_val, ev.T_val)
    bp = np.array([1.0, 0.0], dtype=complex)
    bm = np.array([0.0, 1.0], dtype=complex)

    plus = (-kron(vec(f1(nu)) @ bp, vec(f2(xi)) @ bp)
            + kron(vec(f1(xi)) @ bp, vec(f2(nu)) @ bp))

    m2 = vec(f2(Vamb)) + 1j * vec(f2(xi))
    m1 = vec(f1(Vamb)) + 1j * vec(f1(xi))
    minus = (kron(vec(f1(nu)) @ bm, m2 @ bp)
             - kron(m1 @ bm, vec(f2(nu)) @ bp))
    return {"positive-structure": np.linalg.norm(plus, axis=-1),
            "negative-structure": np.linalg.norm(minus, axis=-1)}


@dataclass
class DiracEnergy:
    dirac_residual: float
    Q: np.ndarray
    Q_vs_E: float
    Q_sign: int


def dirac_and_energy_momentum(rs: RestrictedSpinc) -> DiracEnergy:
    """Dirac eigenvalue law and the energy-momentum tensor of the field.

    D phi = sum_k gamma(e_k) nabla_{e_k} phi must equal +-(3/2) H phi
    (+ for structure 1).  Q(X, Y) = Re(gamma(X) nabla_Y phi
    + gamma(Y) nabla_X phi, phi) / |phi|^2, normalized so that the
    structure-1 tensor reproduces the shape operator; the signed relation
    of the structure-2 tensor to E is measured, not asserted.
    """
    ev = rs.ev
    phi = rs.psi
    norm2 = float(np.vdot(phi, phi).real)
    if norm2 < 1e-24:
        raise ValueError("degenerate restricted spinor field")
    H = value(ev.mean_curvature)
    nab = [rs.covariant_derivative(ev.frame[:, k]) for k in range(3)]
    D = sum(rs.frame_gammas[k] @ nab[k] for k in range(3))
    target = (1.5 * H if rs.struct.tag == 1 else -1.5 * H) * phi
    dres = float(np.linalg.norm(D - target))

    Q = np.zeros((3, 3))
    for i in range(3):
        for k in range(3):
            val = np.vdot(phi, rs.frame_gammas[i] @ nab[k]
                          + rs.frame_gammas[k] @ nab[i])
            Q[i, k] = val.real / norm2
    a = ev.E_frame
    dplus = float(np.max(np.abs(Q - a)))
    dminus = float(np.max(np.abs(Q + a)))
    sign = 1 if dplus <= dminus else -1
    return DiracEnergy(dres, Q, min(dplus, dminus), sign)

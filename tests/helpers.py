"""Independent oracles for the test suite.

Everything here recomputes engine quantities through a different route:
finite differences instead of jets, an adapted-gauge construction of the
induced spinor derivative instead of the hypersurface Gauss formula, and
the compatibility systems transcribed from the paper instead of derived
from the spinor Ricci identity.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, logm

from spinlab.clifford import CliffordModel, build_clifford
from spinlab.hypersurfaces import _mv, evaluate
from spinlab.jets import NTERMS, Jet, value, variables, worst_of
from spinlab.product import CLIFFORD, _auxiliary, _curvature, structure
from spinlab.restriction import clifford, per_point
from spinlab.surfaces import ricci_coefficient, rotation_form
from spinlab.systems import CONVERSE_TOLERANCES, converse_residuals


def jet_constant(x):
    """Constant scalar jet of a number or of an (N,) array of values."""
    x = np.asarray(x, dtype=float)
    c = np.zeros((NTERMS,) + x.shape)
    c[0] = x
    return Jet(c)


def fd_second_derivative(f, x, h):
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def fd_gradient(f, u, h=1e-6):
    u = np.asarray(u, dtype=float)
    out = np.empty(3)
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        out[a] = (f(u + e) - f(u - e)) / (2 * h)
    return out


# --- the product rule of the dim-4 Clifford model ----------------------------
# The engine uses the dim-4 generators directly; this is the tensor-product
# rule they realise, written factor by factor.

def conjugate(model: CliffordModel, psi):
    """Spinor conjugation psi^+ - psi^-; defined in even dimensions."""
    if model.chirality is None:
        raise ValueError("conjugation requires an even-dimensional model")
    pp, pm = model.chirality
    return (pp - pm) @ np.asarray(psi, dtype=complex)


@dataclass(frozen=True)
class ProductSpinorSpace:
    """Tensor-product spinor space of two surface factors.

    ``identify`` maps psi1 (x) psi2 to the dim-4 coordinate spinor; by
    construction (Kronecker ordering) the multiplication rule

        (X1 + X2) . (psi1 (x) psi2)
            = (X1.psi1) (x) psi2 + conj(psi1) (x) (X2.psi2)

    is intertwined with the dim-4 generator matrices (checked exhaustively
    on the basis in ``test_clifford``).
    """

    factor: CliffordModel
    product: CliffordModel

    @staticmethod
    def build():
        return ProductSpinorSpace(build_clifford(2), build_clifford(4))

    def identify(self, psi1, psi2):
        return np.kron(np.asarray(psi1, dtype=complex),
                       np.asarray(psi2, dtype=complex))

    def product_clifford(self, x1, x2, psi1, psi2):
        """Product Clifford multiplication via the two-factor rule."""
        psi1 = np.asarray(psi1, dtype=complex)
        psi2 = np.asarray(psi2, dtype=complex)
        if psi1.shape != (2,) or psi2.shape != (2,):
            raise ValueError("factor spinors must be 2-component")
        term1 = self.identify(self.factor.vector(x1) @ psi1, psi2)
        term2 = self.identify(conjugate(self.factor, psi1),
                              self.factor.vector(x2) @ psi2)
        return term1 + term2


# --- Clifford oracles the package does not run -------------------------------
# The engine builds the dim-2 and dim-4 models only; the dim-3 model, the
# Kaehler action and the shape commutator identity are checked here.

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def build_clifford3():
    """The dim-3 model e_j = -i sigma_j (sigma_j the Pauli matrices), with
    volume w = -e1 e2 e3 = Id, equivalently e1 e2 e3 = -Id, so
    e_i e_j = e_k for cyclic (i j k).  It has no chirality projectors."""
    gens = tuple(-1j * s for s in _PAULI)
    return CliffordModel(3, gens, -gens[0] @ gens[1] @ gens[2], None)


def kahler_action(model: CliffordModel, J) -> np.ndarray:
    """Clifford action of the 2-form <J., .> for an orthogonal complex structure J.

    The spectrum consists of the values i(m/2 - 2r), r = 0..m/2, with binomial
    multiplicities.
    """
    if model.dim % 2 != 0:
        raise ValueError("Kaehler action requires even dimension")
    J = np.asarray(J, dtype=float)
    eye = np.eye(model.dim)
    if J.shape != (model.dim, model.dim) or \
            np.max(np.abs(J @ J + eye)) > 1e-12 or \
            np.max(np.abs(J.T @ J - eye)) > 1e-12:
        raise ValueError("J must be an orthogonal complex structure")
    n = model.spinor_dim
    out = np.zeros((n, n), dtype=complex)
    for a in range(model.dim):
        out += 0.5 * model.generators[a] @ model.vector(J[:, a])
    return out


def shape_commutator_residual(E, model: CliffordModel | None = None) -> float:
    """Residual of the commutator identity for a symmetric endomorphism E.

    For gamma built from a dim-3 model with e1 e2 e3 = -Id and a = E in an
    orthonormal frame:

        gamma(E e_i) gamma(E e_j) - gamma(E e_j) gamma(E e_i)
          = 2 (a_j3 a_i2 - a_j2 a_i3) e1
          + 2 (a_i3 a_j1 - a_i1 a_j3) e2
          + 2 (a_i1 a_j2 - a_i2 a_j1) e3

    Returns the maximum matrix norm of LHS - RHS over all index pairs.
    """
    E = np.asarray(E, dtype=float)
    if E.shape != (3, 3) or np.max(np.abs(E - E.T)) > 1e-12:
        raise ValueError("E must be a symmetric 3x3 matrix")
    if model is None:
        model = build_clifford3()
    a = E

    def defect(i, j):
        gi = model.vector(a[i])
        gj = model.vector(a[j])
        lhs = gi @ gj - gj @ gi
        coeff = 2.0 * np.array([
            a[j, 2] * a[i, 1] - a[j, 1] * a[i, 2],
            a[i, 2] * a[j, 0] - a[i, 0] * a[j, 2],
            a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0],
        ])
        return np.max(np.abs(lhs - model.vector(coeff)))
    return worst_of(defect(i, j) for i in range(3) for j in range(3))


# --- scalar references for the ambient metric and its Christoffel symbols ---
# The engine builds both as tensor jets from one conformal-factor pass
# (``PointEvaluation.gbar``, ``ambient_gamma``); these are the closed forms
# factor by factor, on floats or scalar jets.

def metric_diagonal(product, p):
    """Diagonal of the product metric in chart coordinates."""
    l1 = product.factor1.conformal_factor(p[0], p[1])
    l2 = product.factor2.conformal_factor(p[2], p[3])
    return [l1 * l1, l1 * l1, l2 * l2, l2 * l2]


def christoffels(surf, x, y):
    """Christoffel symbols G[a][b][c] = Gamma^a_{bc} of lam^2(du^2+dv^2),
    from (d_u log lam, d_v log lam) = -c/2 (u, v) lam."""
    lam = surf.conformal_factor(x, y)
    c2 = 0.5 * surf.curvature
    lx, ly = -c2 * x * lam, -c2 * y * lam
    return [
        [[lx, ly], [ly, -1.0 * lx]],
        [[-1.0 * ly, lx], [lx, ly]],
    ]


def dense_christoffels(product, p):
    """Gamma[a][b][c] of the product metric over the four ambient chart
    coordinates at ``p``: the two factors' ``christoffels`` blocks in one
    4x4x4 nested list, 0.0 where indices mix the factors."""
    blocks = (christoffels(product.factor1, p[0], p[1]),
              christoffels(product.factor2, p[2], p[3]))
    G = [[[0.0] * 4 for _ in range(4)] for _ in range(4)]
    for k, block in zip((0, 2), blocks):
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    G[a + k][b + k][c + k] = block[a][b][c]
    return G


def fd_weingarten(chart, product, u, h=1e-6):
    """Shape operator from central differences of the unit normal field."""
    u = np.asarray(u, dtype=float)
    ev0 = evaluate(chart, product, u)
    G = dense_christoffels(product, ev0.phi)
    E_amb = np.empty((3, 4))
    for al in range(3):
        e = np.zeros(3)
        e[al] = h
        nup = evaluate(chart, product, u + e).nu_val
        num = evaluate(chart, product, u - e).nu_val
        dnu = (nup - num) / (2 * h)
        for a in range(4):
            s = dnu[a]
            for b in range(4):
                for c in range(4):
                    Gv = value(G[a][b][c]) if not isinstance(G[a][b][c], float) \
                        else G[a][b][c]
                    s += Gv * value(ev0.T[al][b]) * ev0.nu_val[c]
            E_amb[al, a] = -s
    # convert to mixed coordinate components
    E = np.empty((3, 3))
    for al in range(3):
        for i in range(3):
            E[i, al] = sum(
                ev0.g_inv_val[i, c] * float(
                    ev0.gbar_val @ (E_amb[al] * ev0.T_val[c]))
                for c in range(3))
    return E


def _gram_schmidt_frame(ev, flip_second):
    """Adapted ambient orthonormal frame (t1, t2, t3, nu), frame components,
    plus the chart-coordinate components of the tangent part."""
    gbar = ev.gbar_val
    rows = []
    coeffs = []
    for al in range(3):
        v = ev.T_val[al].copy()
        c = np.zeros(3)
        c[al] = 1.0
        for t, tc in zip(rows, coeffs):
            proj = float(gbar @ (v * t)) / float(gbar @ (t * t))
            v -= proj * t
            c -= proj * tc
        rows.append(v)
        coeffs.append(c)
    frame_cols = []
    coord_cols = []
    for k, (v, c) in enumerate(zip(rows, coeffs)):
        n = np.sqrt(float(gbar @ (v * v)))
        sign = -1.0 if (flip_second and k == 1) else 1.0
        frame_cols.append(
            sign * frame_components(ev.product, ev.position, v) / n)
        coord_cols.append(sign * c / n)
    frame_cols.append(frame_components(ev.product, ev.position, ev.nu_val))
    O = np.column_stack(frame_cols)
    return O, np.column_stack(coord_cols)


def adapted_gauge_derivative(chart, product, struct, u, X_coord, h=1e-5):
    """Induced spinor derivative built without the Gauss formula.

    The restricted bundle is trivialized by the adapted frame
    (Gram-Schmidt tangents, normal last); the change of frame is lifted to
    the spin group through the matrix logarithm, and the covariant
    derivative in that gauge uses only the induced Levi-Civita rotation
    coefficients and the restricted auxiliary 1-form.  Returns ambient
    trivialization components, comparable with the production derivative.
    """
    u = np.asarray(u, dtype=float)
    X_coord = np.asarray(X_coord, dtype=float)
    ev0 = evaluate(chart, product, u)
    flip = np.linalg.det(_gram_schmidt_frame(ev0, False)[0]) < 0
    gens = CLIFFORD.generators

    def lift(t):
        ev = evaluate(chart, product, u + t * X_coord)
        O, coords = _gram_schmidt_frame(ev, flip)
        Theta = logm(O).real
        # with the e.e = -1 convention, conjugation by exp(+1/4 Theta e e)
        # rotates vectors by exp(-Theta); hence the minus sign
        M = np.zeros((4, 4), dtype=complex)
        for a in range(4):
            for b in range(4):
                M -= 0.25 * Theta[a, b] * gens[a] @ gens[b]
        return expm(M), coords, ev

    L0, coords0, _ = lift(0.0)
    Lp, coords_p, _ = lift(h)
    Lm, coords_m, _ = lift(-h)
    psi = product.parallel_spinor(struct)
    phi_t = lambda L: L.conj().T @ psi
    dphi = (phi_t(Lp) - phi_t(Lm)) / (2 * h)

    # induced rotation coefficients w_ij(X) = g(nabla_X t_i, t_j)
    Gv = ev0.gamma_induced_val
    gv = ev0.g_val
    dcoords = (coords_p - coords_m) / (2 * h)
    w = np.zeros((3, 3))
    for i in range(3):
        nabla_ti = dcoords[:, i] + np.einsum(
            "abc,b,c->a", Gv, X_coord, coords0[:, i])
        for j in range(3):
            w[i, j] = float(nabla_ti @ gv @ coords0[:, j])

    X_amb = X_coord @ ev0.T_val
    aux = value(auxiliary_form(product, ev0.position, X_amb, struct))
    conn = 0.5j * aux * np.eye(4, dtype=complex)
    for i in range(3):
        for j in range(i + 1, 3):
            conn += 0.5 * w[i, j] * gens[i] @ gens[j]
    return L0 @ (dphi + conn @ phi_t(L0))


def loop_gauss_residual(R_frame, c1, c2, f_frame, a_frame):
    """Reference Gauss residual: the per-(i, j, k) loop the array form in
    ``spinlab.hypersurfaces`` replaced, with the same elementwise
    arithmetic, so both must agree exactly."""
    eye = np.eye(3)
    fp = eye + f_frame
    fm = eye - f_frame
    worst = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                rhs = (0.25 * c1 * (fp[j, k] * fp[i, :] - fp[i, k] * fp[j, :])
                       + 0.25 * c2 * (fm[j, k] * fm[i, :] - fm[i, k] * fm[j, :])
                       + a_frame[j, k] * a_frame[i, :]
                       - a_frame[i, k] * a_frame[j, :])
                worst = max(worst, float(np.max(np.abs(R_frame[i, j, k, :]
                                                       - rhs))))
    return worst


def loop_codazzi_residual(dE_frame, c1, c2, f_frame, V_frame):
    """Reference Codazzi residual, the per-(i, j, k) loop form."""
    g = np.eye(3)
    f = f_frame
    V = V_frame
    worst = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                t1 = (f[j, k] * V[i] - f[i, k] * V[j]
                      + g[j, k] * V[i] - g[i, k] * V[j])
                t2 = (g[j, k] * V[i] - f[j, k] * V[i]
                      - g[i, k] * V[j] + f[i, k] * V[j])
                rhs = 0.25 * c1 * t1 - 0.25 * c2 * t2
                worst = max(worst, abs(dE_frame[i, j, k] - rhs))
    return worst


_GL_T = 0.5 + np.array([-0.4305681557970263, -0.1699905217924282,
                        0.1699905217924282, 0.4305681557970263])
_GL_W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                        0.6521451548625461, 0.3478548451374538])


def frame_rotation_form(surf, x, y):
    """Chart components (w_u, w_v) of the rotation form w12 of the space
    form ``surf``."""
    return rotation_form(surf.curvature, x, y, surf.conformal_factor(x, y))


def ricci_form_coefficient(surf, x, y):
    """rho = coeff du ^ dv with coeff = c lam^2, the Ricci 2-form of the
    space form ``surf``."""
    return ricci_coefficient(surf.curvature, surf.conformal_factor(x, y))


def gamma_matrix(rs, X_coord):
    """gamma(X) of the restricted structure ``rs`` as 4x4 matrices
    preserving its chirality eigenspace."""
    return rs.sign * clifford(rs.ev, X_coord)


def frame_components(product, p, w):
    """Orthonormal-frame components of a chart tangent 4-vector ``w`` at
    ``p``, the coordinate axis first."""
    l1 = product.factor1.conformal_factor(p[0], p[1])
    l2 = product.factor2.conformal_factor(p[2], p[3])
    return np.array([value(l1 * w[0]), value(l1 * w[1]),
                     value(l2 * w[2]), value(l2 * w[3])])


def ricci_form(product, p, X, Y, factor: int):
    """rho_i(pi_i X, pi_i Y) for chart tangent vectors X, Y at p, each
    factor's Ricci form evaluated from its conformal factor at p."""
    if factor == 1:
        coeff = ricci_form_coefficient(product.factor1, p[0], p[1])
        return coeff * (X[0] * Y[1] - X[1] * Y[0])
    coeff = ricci_form_coefficient(product.factor2, p[2], p[3])
    return coeff * (X[2] * Y[3] - X[3] * Y[2])


def rotation_forms(product, p, X):
    """(w1(X1), w2(X2)) for a chart tangent vector X at p, each factor's
    rotation form evaluated from its conformal factor at p."""
    a1 = frame_rotation_form(product.factor1, p[0], p[1])
    a2 = frame_rotation_form(product.factor2, p[2], p[3])
    return (a1[0] * X[0] + a1[1] * X[1], a2[0] * X[2] + a2[1] * X[3])


def gamma(rs, X_coord, spinor):
    """gamma(X) applied to ``spinor`` through the 4x4 matrices of the
    restricted structure ``rs``, the route the frame images replace."""
    return np.einsum("...ab,...b->...a", gamma_matrix(rs, X_coord), spinor)


def connection_matrix(product, p, X, struct):
    """Coefficient matrix C(X) of the spinor connection of ``struct`` at
    p: ``p`` and ``X`` are ``(..., 4)``, the result is ``(..., 4, 4)``,

        C(X) = 1/2 w1(X1) E1 E2 + 1/2 w2(X2) E3 E4
             + (i/2) (s1 w1(X1) + s2 w2(X2)) Id,

    from the factor rotation forms w1, w2."""
    w1, w2 = (np.asarray(value(w))[..., None, None] for w in rotation_forms(
        product, np.moveaxis(np.asarray(p), -1, 0),
        np.moveaxis(np.asarray(X), -1, 0)))
    E = CLIFFORD.generators
    spin = 0.5 * w1 * (E[0] @ E[1]) + 0.5 * w2 * (E[2] @ E[3])
    return spin + 0.5j * (struct.signs[0] * w1 + struct.signs[1] * w2) \
        * np.eye(4)


def curvature_form(product, p, X, Y, struct):
    """Auxiliary curvature 2-form Omega of ``struct`` on chart vectors X, Y
    at ``p``, from the factor Ricci forms."""
    return _curvature(struct, ricci_form(product, p, X, Y, 1),
                      ricci_form(product, p, X, Y, 2))


def auxiliary_form(product, p, X, struct):
    """Local connection 1-form a(X) = s1 w1(X1) + s2 w2(X2) of the
    auxiliary line bundle of ``struct``, from the factor rotation forms."""
    w1, w2 = rotation_forms(product, p, X)
    return struct.signs[0] * w1 + struct.signs[1] * w2


def loop_integral(product, p, a, b, h, struct):
    """Line integral of the auxiliary form around the (a, b) square of side
    h centred at p, one Gauss node at a time."""
    ea = np.zeros(4)
    ea[a] = 1.0
    eb = np.zeros(4)
    eb[b] = 1.0
    p = np.asarray(p, dtype=float)
    base = p - 0.5 * h * (ea + eb)
    corners = [base, base + h * ea, base + h * ea + h * eb, base + h * eb]
    total = 0.0
    for k in range(4):
        start, stop = corners[k], corners[(k + 1) % 4]
        seg = stop - start
        for t, w in zip(_GL_T, _GL_W):
            q = start + t * seg
            total += w * value(auxiliary_form(product, q, seg, struct))
    return total


def loop_auxiliary_curvature_residual(product, p, struct, h=0.02):
    """Reference holonomy probe: plane by plane and loop size by loop size,
    Richardson-extrapolated circulation against the closed-form curvature."""
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            d1 = loop_integral(product, p, a, b, h, struct) / h**2
            d2 = loop_integral(product, p, a, b, h / 2, struct) / (h / 2) ** 2
            approx = (4.0 * d2 - d1) / 3.0
            ea = np.zeros(4)
            ea[a] = 1.0
            eb = np.zeros(4)
            eb[b] = 1.0
            exact = value(curvature_form(product, p, ea, eb, struct))
            worst = max(worst, abs(approx - exact))
    return worst


# --- the compatibility systems as the paper writes them ----------------------
# The 24 scalar equations transcribed term by term, the reference for the
# systems that ``spinlab.systems`` derives from the spinor Ricci identity.
# Inputs carry the point axis last, so ``R[0, 1, 1, 0]`` holds every point.

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


def transcribed_system(ev, tag):
    """The transcribed equations of system ``tag`` at every point of
    ``ev``."""
    def points_last(x, k):
        return np.moveaxis(x, list(range(x.ndim - k)),
                           list(range(k, x.ndim)))

    fn = system_one if tag == 1 else system_two
    return fn(points_last(ev.riemann_frame, 4), points_last(ev.E_frame, 2),
              points_last(ev.dE_frame, 3), points_last(ev.V_frame, 1),
              ev.h_val, ev.product.c1, ev.product.c2)


# --- one-point references of the batched identities --------------------------
# The loops these array functions replaced, kept as they were: one point,
# plain matrix products and running maxima.

def point_consistency_residuals(ev):
    out = {}
    out["normal-unit"] = abs(float(ev.gbar_val @ (ev.nu_val * ev.nu_val)) - 1.0)
    out["metric-posdef"] = max(0.0, 1e-12 - np.linalg.eigvalsh(ev.g_val)[0])
    II = value(ev.second_fundamental)
    out["shape-symmetric"] = float(np.max(np.abs(II - II.T)))
    Vamb = np.array([value(v) for v in ev.V_ambient])
    out["product-split"] = float(np.max(np.abs(Vamb - ev.V_coord_val @ ev.T_val)))
    xitan = ev.xi_coord_val @ ev.T_val
    out["contact-split"] = float(np.max(np.abs(ev.xi_ambient_val - xitan)))
    return out


def point_involution_identities(ev):
    gv, fv, Vv = ev.g_val, ev.f_mixed_val, ev.V_coord_val
    Vflat = gv @ Vv
    h = value(ev.h)
    return {
        "f-symmetric": float(np.max(np.abs(gv @ fv - (gv @ fv).T))),
        "f-squared": float(np.max(np.abs(fv @ fv + np.outer(Vv, Vflat)
                                         - np.eye(3)))),
        "f-of-V": float(np.max(np.abs(fv @ Vv + h * Vv))),
        "unit-split": abs(h * h + Vv @ Vflat - 1.0),
    }


def point_contact_identities(ev):
    from spinlab.product import F_MATRIX, J_MATRIX
    gv, fv, chi = ev.g_val, ev.f_mixed_val, ev.chi_mixed
    xi, Vv, h = ev.xi_coord_val, ev.V_coord_val, value(ev.h)
    e1, e2 = ev.frame[:, 0], ev.frame[:, 1]

    def eta(X):
        return float(X @ gv @ xi)

    def ip(X, Y):
        return float(X @ gv @ Y)

    out = {}
    out["chi-antisymmetric"] = abs(ip(chi @ e1, e2) + ip(e1, chi @ e2))
    out["chi-kills-xi"] = float(np.max(np.abs(chi @ xi)))
    out["JF-commute"] = float(np.max(np.abs(J_MATRIX @ F_MATRIX
                                            - F_MATRIX @ J_MATRIX)))
    out["mixed-endomorphism"] = max(
        abs(ip(Vv, chi @ X) + eta(X) * h - eta(fv @ X)) for X in (e1, e2, xi))
    out["commutation-split"] = max(
        np.max(np.abs(fv @ (chi @ X) + eta(X) * Vv - chi @ (fv @ X)
                      + ip(Vv, X) * xi)) for X in (e1, e2, xi))
    out["V-horizontal"] = abs(eta(Vv))
    out["f-of-xi"] = float(np.max(np.abs(fv @ xi - h * xi + chi @ Vv)))
    out["f-V-horizontal"] = abs(eta(fv @ Vv))
    out["f-frame-entries"] = max(abs(ip(fv @ e1, e2)),
                                 abs(ip(fv @ e1, e1) + h),
                                 abs(ip(fv @ e2, e2) + h))
    out["J-of-V"] = float(np.max(np.abs(J_MATRIX @ (Vv @ ev.T_val)
                                        - (chi @ Vv) @ ev.T_val)))
    out["F-of-xi"] = float(np.max(np.abs(F_MATRIX @ (xi @ ev.T_val)
                                         - (fv @ xi) @ ev.T_val)))
    return out


def point_projection_formulas(ev):
    from spinlab.product import J_MATRIX
    Vamb = ev.V_coord_val @ ev.T_val
    nu, xi, h = ev.nu_val, ev.xi_ambient_val, value(ev.h)
    V2 = float(ev.gbar_val @ (Vamb * Vamb))

    def pi1(w):
        return np.array([w[0], w[1], 0.0, 0.0])

    def pi2(w):
        return np.array([0.0, 0.0, w[2], w[3]])

    out = {
        "pi1-V": pi1(Vamb) - ((1.0 - h) * Vamb + V2 * nu) / 2.0,
        "pi2-V": pi2(Vamb) - ((1.0 + h) * Vamb - V2 * nu) / 2.0,
        "pi1-nu": pi1(nu) - ((h + 1.0) * nu + Vamb) / 2.0,
        "pi2-nu": pi2(nu) - ((1.0 - h) * nu - Vamb) / 2.0,
        "pi1-xi": pi1(xi) + J_MATRIX @ pi1(nu),
        "pi2-xi": pi2(xi) + J_MATRIX @ pi2(nu),
    }
    return {k: float(np.max(np.abs(v))) for k, v in out.items()}


def point_projection_cancellation(ev):
    fac = build_clifford(2)
    p = ev.position
    lam1 = value(ev.product.factor1.conformal_factor(p[0], p[1]))
    lam2 = value(ev.product.factor2.conformal_factor(p[2], p[3]))

    def f1(w):
        return np.array([lam1 * w[0], lam1 * w[1]])

    def f2(w):
        return np.array([lam2 * w[2], lam2 * w[3]])

    nu, xi = ev.nu_val, ev.xi_ambient_val
    Vamb = ev.V_coord_val @ ev.T_val
    bp = np.array([1.0, 0.0], dtype=complex)
    bm = np.array([0.0, 1.0], dtype=complex)
    plus = (-np.kron(fac.vector(f1(nu)) @ bp, fac.vector(f2(xi)) @ bp)
            + np.kron(fac.vector(f1(xi)) @ bp, fac.vector(f2(nu)) @ bp))
    m2 = fac.vector(f2(Vamb)) + 1j * fac.vector(f2(xi))
    m1 = fac.vector(f1(Vamb)) + 1j * fac.vector(f1(xi))
    minus = (np.kron(fac.vector(f1(nu)) @ bm, m2 @ bp)
             - np.kron(m1 @ bm, fac.vector(f2(nu)) @ bp))
    return {"positive-structure": float(np.linalg.norm(plus)),
            "negative-structure": float(np.linalg.norm(minus))}


def point_xi_derivative_residual(ev):
    def defect(X):
        lhs = np.einsum("ba,b->a", ev.nabla_xi, X)
        return np.max(np.abs(lhs - ev.chi_mixed @ ev.E_mixed_val @ X))
    return max(defect(ev.frame[:, i]) for i in range(3))


def point_perturbed_shape(ev, rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    w = rng.standard_normal(3)
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    return ev.E_frame + 0.2 * (np.outer(v, v) + np.outer(w, w))


def point_contracted_codazzi_residual(ev):
    """max_k |(div E)(e_k) - 3 dH(e_k) + (c1 - c2)/2 (V, e_k)| at a one-point
    evaluation, with (div E)(e_k) = sum_i g((nabla_{e_i} E) e_i, e_k)."""
    c1, c2 = ev.product.c1, ev.product.c2
    e = [ev.frame[:, i] for i in range(3)]
    res = []
    for k in range(3):
        div_E = 0.0
        for i in range(3):
            nabla_ei_E = sum(e[i][c] * ev.nabla_E[c] for c in range(3))
            div_E += float((nabla_ei_E @ e[i]) @ ev.g_val @ e[k])
        res.append(div_E - 3.0 * float(ev.dH @ e[k])
                   + 0.5 * (c1 - c2) * float(ev.V_frame[k]))
    return float(np.max(np.abs(res)))


def point_converse_residuals(ev):
    """The converse battery at a one-point evaluation, ``evaluate(chart,
    product, u)``: Gauss and Codazzi by the loop references, the derivative
    identities and the rank pair computed on that point alone."""
    from spinlab.hypersurfaces import derivative_identities, rank_pair
    c1, c2 = ev.product.c1, ev.product.c2
    v1, v2, h = ev.V_frame[0], ev.V_frame[1], ev.h_val
    fr = np.array([[-h, 0.0, v2], [0.0, -h, -v1], [v2, -v1, h]])
    Vf, ff = ev.V_frame, ev.f_frame
    out = {
        "f-rebuild": float(np.max(np.abs(fr - ff))),
        "f-squared": float(np.max(np.abs(
            ff @ ff + np.outer(Vf, Vf) - np.eye(3)))),
        "f-of-V": float(np.max(np.abs(ff @ Vf + h * Vf))),
        "unit-split": abs(h ** 2 + float(Vf @ Vf) - 1.0),
        "gauss": loop_gauss_residual(ev.riemann_frame, c1, c2, ff,
                                     ev.E_frame),
        "codazzi": float(loop_codazzi_residual(ev.dE_frame, c1, c2, ff, Vf)),
    }
    out.update((k, float(v)) for k, v in derivative_identities(ev).items())
    ranks = rank_pair(ev)
    out["rank-two"] = float(abs(ranks[0] - 2) + abs(ranks[1] - 2))
    return out


# --- single-field corruptions of the converse ---------------------------------

def corrupt(ev, mode: str, rng):
    """Single-field corruptions used as negative controls, at every point:
    a copy of ``ev`` with the field's value stages swapped."""
    if mode == "E-scale":
        return ev.replace(E_mixed_val=2.0 * ev.E_mixed_val,
                          E_frame=2.0 * ev.E_frame)
    if mode == "h-shift":
        return ev.replace(h_val=ev.h_val + 0.1)
    if mode == "V-rotate":
        c, s = np.cos(0.9), np.sin(0.9)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        V_frame = _mv(rot, ev.V_frame)
        # frame columns are coordinates
        return ev.replace(V_frame=V_frame, V_coord_val=_mv(ev.frame, V_frame))
    if mode == "f-perturb":
        noise = rng.standard_normal(np.shape(ev.f_frame))
        noise = 0.1 * (noise + np.swapaxes(noise, -1, -2))
        return ev.replace(f_frame=ev.f_frame + noise)
    raise ValueError(f"unknown corruption mode {mode!r}")


# which named check a single-field corruption must break
CORRUPTION_TARGETS = {
    "E-scale": "gauss",
    "h-shift": "unit-split",
    "V-rotate": "f-of-V",
    "f-perturb": "f-rebuild",
}


def converse_check(ev):
    """Residuals of the abstract-data direction and the sorted names of the
    checks above tolerance (or NaN) at some point."""
    res = converse_residuals(ev)
    failed = sorted(k for k, v in res.items()
                    if not np.all(v <= CONVERSE_TOLERANCES[k]))
    return res, failed


def killing_residual(rs, X_coord):
    """|nabla_X phi + sign/2 gamma(EX) phi| (the generalized Killing law)
    of the restricted structure ``rs`` along tangent coordinate vectors X,
    by linearity in X from the frame derivative: X = sum_k x_k e_k with
    x_k = g(X, e_k)."""
    ev = rs.ev
    x = np.einsum("...a,...ab,...bk->...k", X_coord,
                  per_point(ev, ev.g_val, X_coord),
                  per_point(ev, ev.frame, X_coord))
    nabla, shape_term = (
        np.einsum("...k,...ka->...a", x, per_point(ev, a, X_coord))
        for a in rs.frame_derivative)
    return np.linalg.norm(nabla + 0.5 * rs.sign * shape_term, axis=-1)


# --- one-point references of the restricted spin^c layer ---------------------
# The per-(point, structure) implementation the batched ``RestrictedSpinc``
# replaced, kept as it was: 4x4 matrices one at a time, running sums.

def point_closed_form_omega(tag, c1, c2, h, V_frame):
    s = 1.0 if tag == 1 else -1.0
    Om = np.zeros((3, 3))
    Om[0, 1] = 0.5 * s * c1 * (h - 1.0) - 0.5 * c2 * (h + 1.0)
    Om[0, 2] = 0.5 * (s * c1 - c2) * V_frame[0]
    Om[1, 2] = 0.5 * (s * c1 - c2) * V_frame[1]
    Om[1, 0], Om[2, 0], Om[2, 1] = -Om[0, 1], -Om[0, 2], -Om[1, 2]
    return Om


class PointSpinc:
    """A structure restricted at one point, one frame vector at a time."""

    def __init__(self, ev, struct):
        self.ev = ev
        self.struct = struct
        self.sign = float(struct.chirality)
        self.model = CLIFFORD
        self.psi = ev.product.parallel_spinor(struct)
        self.position = ev.position
        self.frame_scale = frame_components(ev.product, ev.position,
                                            np.ones(4))
        self._nu_mat = self.model.vector(ev.nu_val * self.frame_scale)

    def gamma_matrix(self, X_coord):
        amb = (np.asarray(X_coord) @ self.ev.T_val) * self.frame_scale
        return self.sign * self.model.vector(amb) @ self._nu_mat

    def gamma(self, X_coord, spinor):
        return self.gamma_matrix(X_coord) @ spinor

    @property
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
        g1, g2, g3 = self.frame_gammas
        out = g1 @ g2 @ g3 @ self.psi
        return complex(np.vdot(self.psi, out) / np.vdot(self.psi, self.psi))

    def covariant_derivative(self, X_coord):
        X_amb = np.asarray(X_coord) @ self.ev.T_val
        C = connection_matrix(self.ev.product, self.position, X_amb,
                              self.struct)
        EX = self.ev.E_mixed_val @ np.asarray(X_coord)
        return C @ self.psi - 0.5 * self.sign * self.gamma(EX, self.psi)

    def killing_residual(self, X_coord):
        EX = self.ev.E_mixed_val @ np.asarray(X_coord)
        res = (self.covariant_derivative(X_coord)
               + 0.5 * self.sign * self.gamma(EX, self.psi))
        return float(np.linalg.norm(res))

    @property
    def frame_ambient(self):
        return np.stack([self.ev.frame[:, i] @ self.ev.T_val
                         for i in range(3)], axis=1)

    @property
    def omega_pullback(self):
        amb = self.frame_ambient
        return value(curvature_form(self.ev.product, self.position,
                                    amb[:, :, None], amb[:, None, :],
                                    self.struct))


def point_algebraic_conditions(rs):
    phi = rs.psi
    xi = rs.ev.xi_coord_val
    if rs.struct.tag == 1:
        res = rs.gamma(xi, phi) + 1j * phi
    else:
        res = (rs.gamma(rs.ev.V_coord_val, phi) + 1j * rs.gamma(xi, phi)
               - value(rs.ev.h) * phi)
    return float(np.linalg.norm(res))


def point_pairing_identities(rs):
    phi = rs.psi
    norm2 = float(np.vdot(phi, phi).real)
    Vf = rs.ev.V_frame
    h = value(rs.ev.h)
    g1, g2, g3 = rs.frame_gammas

    def pair(mat):
        return complex(np.vdot(phi, mat @ phi)) / norm2

    return {
        "V-pairing-vanishes": abs(pair(rs.gamma_matrix(rs.ev.V_coord_val))),
        "V-e1-pairing": abs(Vf[0] + 1j * pair(g2)),
        "V-e2-pairing": abs(Vf[1] - 1j * pair(g1)),
        "h-pairing": abs(h - 1j * pair(g3)),
    }


def point_omega_formula_residual(rs):
    ev = rs.ev
    ref = point_closed_form_omega(rs.struct.tag, ev.product.c1,
                                  ev.product.c2, value(ev.h), ev.V_frame)
    return float(np.max(np.abs(rs.omega_pullback - ref)))


def point_curvature_restriction_residual(rs):
    ev = rs.ev
    model = rs.model
    p = rs.position
    eps = np.diag(1.0 / rs.frame_scale)
    A, B = np.triu_indices(4, 1)
    coeffs = value(curvature_form(ev.product, p, eps[:, A], eps[:, B],
                                  rs.struct))
    lhs_mat = np.zeros((4, 4), dtype=complex)
    for coeff, a, b in zip(coeffs, A, B):
        lhs_mat += coeff * model.generators[a] @ model.generators[b]
    lhs = lhs_mat @ rs.psi

    Om = rs.omega_pullback
    G = rs.frame_gammas
    rhs = np.zeros(4, dtype=complex)
    for i in range(3):
        for j in range(i + 1, 3):
            rhs += Om[i, j] * G[i] @ (G[j] @ rs.psi)
    contraction = value(curvature_form(
        ev.product, p, ev.nu_val[:, None], rs.frame_ambient, rs.struct))
    W = sum(contraction[i] * ev.frame[:, i] for i in range(3))
    rhs -= rs.sign * rs.gamma(W, rs.psi)
    return float(np.linalg.norm(lhs - rhs))


def point_dirac_and_energy_momentum(rs):
    """(dirac residual, Q) at one point."""
    ev = rs.ev
    phi = rs.psi
    norm2 = float(np.vdot(phi, phi).real)
    H = value(ev.mean_curvature)
    G = rs.frame_gammas
    nab = [rs.covariant_derivative(ev.frame[:, k]) for k in range(3)]
    D = sum(G[k] @ nab[k] for k in range(3))
    target = (1.5 * H if rs.struct.tag == 1 else -1.5 * H) * phi
    dres = float(np.linalg.norm(D - target))
    Q = np.zeros((3, 3))
    for i in range(3):
        for k in range(3):
            val = np.vdot(phi, G[i] @ nab[k] + G[k] @ nab[i])
            Q[i, k] = val.real / norm2
    return dres, Q


def point_relations_check(ctx, tag, normal_scale=1.0):
    """Residuals and notes of the ``spinc.relations_s<tag>`` check, one
    point after another, each point evaluated alone with its normal scaled
    by ``normal_scale``."""
    rng = ctx.rng_for(f"spinc.relations_s{tag}")
    anti, volume = [], []
    measured = set()
    for u in ctx.points:
        ev = evaluate(ctx.chart, ctx.product, u)
        rs = PointSpinc(ev.replace(nu_val=normal_scale * ev.nu_val),
                        structure(tag, ctx.scenario.structure_pairing))
        anti.append(rs.anticommutation_residual(rng, trials=3))
        m = rs.volume_measurement()
        volume.append(min(abs(m - 1.0), abs(m + 1.0)))
        measured.add(int(np.sign(m.real)))
    return [anti, volume], {"volume_element_sign": sorted(measured)}


# --- the per-factor and per-structure loops of the pair axes ------------------
# Reference oracles with the arithmetic of the loops that the pair axes of
# ``ProductModel.factor_jets`` and ``restriction.relation_defects`` replaced:
# the ambient probes ran one jet pass per factor through its SurfaceModel,
# each relations check its own Clifford pass on the signed gamma matrices.

def loop_factor_jets(product, p):
    """One tuple (x, y, area, rho) per factor: its chart coordinates of the
    positions ``p`` seeded as order-2 jets, its area density lam^2 and its
    Ricci form rho(eps1, eps2)."""
    p = np.asarray(p, dtype=float)
    out = []
    for k, surf in ((0, product.factor1), (2, product.factor2)):
        x, y, _ = variables(p[..., [k, k + 1, k]])
        area = value(surf.conformal_factor(x.val, y.val)) ** 2
        rho = ricci_form_coefficient(surf, x.val, y.val) / area
        out.append((x.truncated(2), y.truncated(2), area, rho))
    return tuple(out)


def loop_liouville_residual(product, jets):
    """|rho(eps1, eps2) - K| of each factor, one factor after the other."""
    out = []
    for surf, (x, y, area, rho) in zip((product.factor1, product.factor2),
                                       jets):
        lam = surf.conformal_factor(x, y)
        d = lam.deriv()
        hess = d.grad()
        lap = hess[..., 0, 0] + hess[..., 1, 1]
        sq = d.val[..., 0] ** 2 + d.val[..., 1] ** 2
        out.append(np.abs(rho + (lam.val * lap - sq) / area ** 2))
    return np.stack(out)


def loop_auxiliary_curvature(product, jets, structs):
    """Cartan's structure equation on the two factor planes, each factor's
    rotation forms from its own order-1 conformal factor."""
    curl, rho = [], []
    for surf, (x, y, area, rho_i) in zip((product.factor1, product.factor2),
                                         jets):
        w_u, w_v = frame_rotation_form(surf, x.truncated(1),
                                       y.truncated(1))
        curl.append((w_v.grad()[..., 0] - w_u.grad()[..., 1]) / area)
        rho.append(rho_i)
    return np.stack([np.maximum(
        np.abs(_auxiliary(st, curl[0], 0.0) - _curvature(st, rho[0], 0.0)),
        np.abs(_auxiliary(st, 0.0, curl[1]) - _curvature(st, 0.0, rho[1])))
        for st in structs])


def loop_relations(rs, rng):
    """The Clifford-relation defects of one structure from its own draws of
    ``rng`` on its signed gamma matrices, and its volume measurement."""
    XY = rng.standard_normal(rs.ev.u.shape[:-1] + (3, 2, 3))
    X, Y = XY[..., 0, :], XY[..., 1, :]
    gx, gy = gamma_matrix(rs, X), gamma_matrix(rs, Y)
    ip = np.einsum("...a,...ab,...b->...", X, per_point(rs.ev, rs.ev.g_val, X),
                   Y)
    anti = gx @ gy + gy @ gx + 2.0 * ip[..., None, None] * np.eye(4)
    skew = gx + np.conj(np.swapaxes(gx, -1, -2))
    g1, g2, g3 = np.moveaxis(rs.frame_gammas, -3, 0)
    return (np.abs(np.stack([anti, skew], axis=-3)).max(axis=(-4, -3, -2, -1)),
            rs.expectation(g1 @ g2 @ g3 @ rs.psi))


def loop_relations_check(ctx, tag):
    """Residuals and notes of ``spinc.relations_s<tag>`` from
    ``loop_relations`` on the batch."""
    anti, m = loop_relations(ctx.spinc(tag),
                             ctx.rng_for(f"spinc.relations_s{tag}"))
    signs = np.sign(m.real[np.isfinite(m.real)])
    return ([anti, np.minimum(np.abs(m - 1.0), np.abs(m + 1.0))],
            {"volume_element_sign": sorted({int(s) for s in signs})})


# --- the scalar-jet pipeline of the tensor-jet stages ---------------------------
# The jet stages of ``PointEvaluation`` as they were computed before they
# became whole-tensor passes, kept as they were: one scalar jet per tensor
# entry, nested lists, Python loops, the adjugate inverse and the cofactor
# cross product written out, and the dense 4x4x4 product Christoffels.

def _inv3(m):
    """Inverse of a 3x3 matrix of jets via the adjugate."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    A = e * i - f * h
    B = f * g - d * i
    C = d * h - e * g
    det = a * A + b * B + c * C
    adj = [
        [A, c * h - b * i, b * f - c * e],
        [B, a * i - c * g, c * d - a * f],
        [C, b * g - a * h, a * e - b * d],
    ]
    return [[adj[r][s] / det for s in range(3)] for r in range(3)]


def _cross4(t0, t1, t2):
    """w_mu = eps_{abc mu} t0^a t1^b t2^c by cofactors."""
    m = {(c, d): t1[c] * t2[d] - t1[d] * t2[c]
         for c in range(4) for d in range(c + 1, 4)}
    w = []
    for mu in range(4):
        a, b, c = (k for k in range(4) if k != mu)
        det = t0[a] * m[b, c] - t0[b] * m[a, c] + t0[c] * m[a, b]
        w.append(det if mu % 2 else -det)
    return w


def _tensor(nested):
    """One tensor jet from a nested list of scalar jets, cut to the
    shortest one's length."""
    from spinlab.jets import Jet
    arr = np.asarray(nested, dtype=object)
    flat = list(arr.flat)
    nt = min(len(x.c) for x in flat)
    c = np.stack([x.c[:nt] for x in flat], axis=1)
    return Jet(c.reshape(c.shape[:1] + arr.shape + c.shape[2:]), arr.shape)


def scalar_jet_evaluation(chart, product, u):
    """A ``PointEvaluation`` whose jet stages run the scalar-jet pipeline;
    its value stages are inherited and read those jets."""
    from functools import cached_property

    from spinlab.hypersurfaces import PointEvaluation
    from spinlab.jets import variables
    from spinlab.product import F_MATRIX, J_MATRIX

    def stage(fn):
        return cached_property(lambda self: _tensor(fn(self)))

    class ScalarJetEvaluation(PointEvaluation):
        @cached_property
        def _phi(self):
            return list(self.chart.map_fn(*variables(self.u)))

        @cached_property
        def _T(self):
            return [[self._phi[a].deriv()[al] for a in range(4)]
                    for al in range(3)]

        @cached_property
        def _gbar(self):
            return metric_diagonal(self.product, self._phi)

        def _bar_dot(self, X, Y):
            return sum(self._gbar[a] * X[a] * Y[a] for a in range(4))

        @cached_property
        def _g(self):
            return [[self._bar_dot(self._T[a], self._T[b]) for b in range(3)]
                    for a in range(3)]

        @cached_property
        def _g_inv(self):
            return _inv3(self._g)

        @cached_property
        def _nu(self):
            w = _cross4(*self._T)
            n = [w[mu] / self._gbar[mu] for mu in range(4)]
            norm = self._bar_dot(n, n).sqrt()
            return [float(self.chart.orientation) * n[mu] / norm
                    for mu in range(4)]

        @cached_property
        def _gamma4(self):
            return dense_christoffels(self.product, self._phi)

        def _ambient_derivative(self, alpha, W):
            G = self._gamma4
            out = []
            for a in range(4):
                s = W[a].deriv()[alpha]
                for b in range(4):
                    for c in range(4):
                        if not isinstance(G[a][b][c], float):
                            s = s + G[a][b][c] * self._T[alpha][b] * W[c]
                out.append(s)
            return out

        @cached_property
        def _shape_ambient(self):
            return [[-1.0 * w for w in self._ambient_derivative(al, self._nu)]
                    for al in range(3)]

        @cached_property
        def _II(self):
            return [[self._bar_dot(self._shape_ambient[a], self._T[b])
                     for b in range(3)] for a in range(3)]

        @cached_property
        def _E(self):
            return [[sum(self._g_inv[i][c] * self._II[c][j] for c in range(3))
                     for j in range(3)] for i in range(3)]

        @cached_property
        def _V_form(self):
            return [self._bar_dot([F_MATRIX[a, a] * self._T[al][a]
                                   for a in range(4)], self._nu)
                    for al in range(3)]

        @cached_property
        def _h(self):
            Fnu = [F_MATRIX[a, a] * self._nu[a] for a in range(4)]
            return self._bar_dot(Fnu, self._nu)

        @cached_property
        def _xi_ambient(self):
            return [-sum(J_MATRIX[a, b] * self._nu[b] for b in range(4)
                         if J_MATRIX[a, b] != 0.0) for a in range(4)]

        phi = stage(lambda self: self._phi)
        T = stage(lambda self: self._T)
        gbar = stage(lambda self: self._gbar)
        g = stage(lambda self: self._g)
        g_inv = stage(lambda self: self._g_inv)
        nu = stage(lambda self: self._nu)
        ambient_gamma = stage(lambda self: [
            [[[self._gamma4[a + k][b + k][c + k] for c in range(2)]
              for b in range(2)] for a in range(2)] for k in (0, 2)])
        shape_ambient = stage(lambda self: self._shape_ambient)
        second_fundamental = stage(lambda self: self._II)
        E_mixed = stage(lambda self: self._E)
        mean_curvature = stage(
            lambda self: sum(self._E[a][a] for a in range(3)) / 3.0)
        V_form = stage(lambda self: self._V_form)
        h = stage(lambda self: self._h)
        V_ambient = stage(lambda self: [
            F_MATRIX[a, a] * self._nu[a] - self._h * self._nu[a]
            for a in range(4)])
        V_coord = stage(lambda self: [
            sum(self._g_inv[a][b] * self._V_form[b] for b in range(3))
            for a in range(3)])

        @stage
        def f_mixed(self):
            cols = []
            for j in range(3):
                fT = [F_MATRIX[a, a] * self._T[j][a]
                      - self._V_form[j] * self._nu[a] for a in range(4)]
                cols.append([sum(self._g_inv[i][c] * self._bar_dot(
                    fT, self._T[c]) for c in range(3)) for i in range(3)])
            return [[cols[j][i] for j in range(3)] for i in range(3)]

        xi_ambient = stage(lambda self: self._xi_ambient)
        xi_coord = stage(lambda self: [
            sum(self._g_inv[a][b] * self._bar_dot(self._xi_ambient,
                                                  self._T[b])
                for b in range(3)) for a in range(3)])
        eta = cached_property(lambda self: _tensor([
            self._bar_dot(self._xi_ambient, self._T[a])
            for a in range(3)]).val)

        @stage
        def gamma_induced(self):
            dg = [[[self._g[b][c].deriv()[a] for c in range(3)]
                   for b in range(3)] for a in range(3)]
            G = [[[None] * 3 for _ in range(3)] for _ in range(3)]
            for d in range(3):
                for b in range(3):
                    for c in range(3):
                        s = 0.0
                        for e in range(3):
                            s = s + self._g_inv[d][e] * (
                                dg[b][e][c] + dg[c][e][b] - dg[e][b][c])
                        G[d][b][c] = 0.5 * s
            return G

    ev = ScalarJetEvaluation(chart, product, u)
    ev.check_immersion()
    return ev

"""The Riemannian product of two surface space forms and its spin^c data.

Chart coordinates are (x1, y1, x2, y2), the two conformal charts side by
side.  The product structure F and the complex structure J = J1 + J2 are
constant matrices in these coordinates:

    F = diag(1, 1, -1, -1),        J = blockdiag([[0,-1],[1,0]], [[0,-1],[1,0]]).

Two spin^c structures carry a parallel spinor.  Each is described by a sign
per factor (+1 canonical, -1 anti-canonical); the auxiliary connection is
gauged so that the distinguished spinor is the constant section

    psi0 = b(s1) (x) b(s2),   b(+1) = (1,0),  b(-1) = (0,1),

in the trivialization of the spinor bundle by the J-adapted frames
(eps1, eps2 = J eps1) of the factors.  The full connection matrix along a
tangent vector X = (X1, X2) is

    C(X) = 1/2 w1(X1) E1 E2 + 1/2 w2(X2) E3 E4
         + (i/2) (s1 w1(X1) + s2 w2(X2)) Id,

with w_i the factor frame rotation forms.  C(X) psi0 = 0 identically, by
this choice of gauge, and the curvature of the auxiliary part reproduces
the 2-form

    Omega(X, Y) = -s1 rho1(pi1 X, pi1 Y) - s2 rho2(pi2 X, pi2 Y),

which the loop-holonomy probe verifies numerically rather than assumes.

The tensor and form evaluators read a point's chart coordinates from axis 0
(``p[0]`` is x1), so arrays of shape ``(4, ...)`` evaluate a whole stack of
points in one call.  ``connection_matrix`` and the holonomy probe take the
coordinate axis last, ``(..., 4)``, like the sample positions of a batch,
and evaluate every point, node and plane in one array pass.  The probe
takes a list of structures and returns one row per structure: the nodes,
rotation forms and Ricci forms are built once, and only their signed sums
differ between the structures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import build_clifford
from .jets import value
from .surfaces import SurfaceModel

# 4-point Gauss-Legendre nodes/weights on [0, 1]
_GL_T = 0.5 + np.array([-0.4305681557970263, -0.1699905217924282,
                        0.1699905217924282, 0.4305681557970263])
_GL_W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                        0.6521451548625461, 0.3478548451374538])

# the six coordinate planes (a, b), a < b, as rows of unit vectors e_a, e_b,
# and the corners of the unit square they span, counter-clockwise from 0
_PLANE_A, _PLANE_B = np.triu_indices(4, 1)
_EA = np.eye(4)[_PLANE_A]
_EB = np.eye(4)[_PLANE_B]
_CORNERS = np.stack([0.0 * _EA, _EA, _EA + _EB, _EB], axis=1)

J_MATRIX = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])
F_MATRIX = np.diag([1.0, 1.0, -1.0, -1.0])

# The dim-4 Clifford model and its bivectors E1 E2 and E3 E4 are the same
# for every product, so they are built and validated once.
CLIFFORD = build_clifford(4)
E1E2 = CLIFFORD.generators[0] @ CLIFFORD.generators[1]
E3E4 = CLIFFORD.generators[2] @ CLIFFORD.generators[3]


@dataclass(frozen=True)
class SpincStructure:
    """One of the two product spin^c structures, as a sign per factor."""

    tag: int
    signs: tuple

    @property
    def chirality(self):
        """Chirality of the parallel spinor: product of the factor signs."""
        return self.signs[0] * self.signs[1]


def structure(tag: int, pairing: str = "standard") -> SpincStructure:
    """Structure 1 is canonical x canonical; structure 2 carries one
    anti-canonical factor (the first, unless pairing='flipped')."""
    if tag == 1:
        return SpincStructure(1, (1, 1))
    if tag == 2:
        return SpincStructure(2, (-1, 1) if pairing == "standard" else (1, -1))
    raise ValueError("structure tag must be 1 or 2")


class ProductModel:
    """Product of two space forms with its spin^c machinery."""

    clifford = CLIFFORD

    def __init__(self, c1: float, c2: float):
        self.factor1 = SurfaceModel(c1)
        self.factor2 = SurfaceModel(c2)
        self.c1 = float(c1)
        self.c2 = float(c2)

    # basic tensors -----------------------------------------------------
    def frame_components(self, p, w):
        """Orthonormal-frame components of a chart tangent 4-vector."""
        l1 = self.factor1.conformal_factor(p[0], p[1])
        l2 = self.factor2.conformal_factor(p[2], p[3])
        return np.array([value(l1 * w[0]), value(l1 * w[1]),
                         value(l2 * w[2]), value(l2 * w[3])])

    # curvature data ------------------------------------------------------
    def ricci_form(self, p, X, Y, factor: int):
        """rho_i(pi_i X, pi_i Y) for chart tangent vectors X, Y at p."""
        if factor == 1:
            coeff = self.factor1.ricci_form_coefficient(p[0], p[1])
            return coeff * (X[0] * Y[1] - X[1] * Y[0])
        coeff = self.factor2.ricci_form_coefficient(p[2], p[3])
        return coeff * (X[2] * Y[3] - X[3] * Y[2])

    def curvature_form(self, p, X, Y, struct: SpincStructure):
        """Auxiliary curvature 2-form Omega evaluated on chart vectors."""
        return _curvature(struct, self.ricci_form(p, X, Y, 1),
                          self.ricci_form(p, X, Y, 2))

    # spin^c connection ----------------------------------------------------
    def rotation_forms(self, p, X):
        """(w1(X1), w2(X2)) for a chart tangent vector X at p."""
        a1 = self.factor1.frame_rotation_form(p[0], p[1])
        a2 = self.factor2.frame_rotation_form(p[2], p[3])
        return (a1[0] * X[0] + a1[1] * X[1], a2[0] * X[2] + a2[1] * X[3])

    def connection_matrix(self, p, X, struct: SpincStructure):
        """Coefficient matrix C(X) of the spinor connection at p: ``p`` and
        ``X`` are ``(..., 4)``, the result is ``(..., 4, 4)``."""
        w1, w2 = self.rotation_forms(np.moveaxis(np.asarray(p), -1, 0),
                                     np.moveaxis(np.asarray(X), -1, 0))
        w1, w2 = (np.asarray(value(w))[..., None, None] for w in (w1, w2))
        spin = 0.5 * w1 * E1E2 + 0.5 * w2 * E3E4
        return spin + 0.5j * _auxiliary(struct, w1, w2) * np.eye(4)

    def parallel_spinor(self, struct: SpincStructure):
        """The constant section spanning the parallel line of the structure."""
        b = {1: np.array([1.0, 0.0], dtype=complex),
             -1: np.array([0.0, 1.0], dtype=complex)}
        return np.kron(b[struct.signs[0]], b[struct.signs[1]])

    # verification probe -----------------------------------------------------
    def _loop_integrals(self, p, hs, structs):
        """Line integrals of the auxiliary form of each structure around
        the squares of side ``hs`` centred at ``p`` in every coordinate
        plane, shape ``(len(structs),) + p.shape[:-1] + (len(hs), 6)``;
        each edge by 4-point Gauss-Legendre.  The rotation forms at the
        nodes are built once for every structure.

        Centred squares make the circulation estimate d(a) at p itself to
        second order, which Richardson extrapolation removes.
        """
        hs = hs[:, None, None, None]
        # corners (size, plane, corner, coordinate), counter-clockwise
        base = p[..., None, None, None, :] - 0.5 * hs * (_EA + _EB)[:, None]
        corners = base + hs * _CORNERS
        seg = np.roll(corners, -1, axis=-2) - corners
        q = corners[..., None, :] + _GL_T[:, None] * seg[..., None, :]
        w1, w2 = self.rotation_forms(np.moveaxis(q, -1, 0),
                                     np.moveaxis(seg, -1, 0)[..., None])
        forms = np.stack([_auxiliary(st, w1, w2) for st in structs])
        # add the 16 weighted node values edge by edge, node by node: a
        # reduction over the leading axis of a contiguous array accumulates
        # in that order, so each integral is rounded like a running sum
        terms = (forms * _GL_W).reshape(forms.shape[:-2] + (16,))
        return np.add.reduce(np.ascontiguousarray(np.moveaxis(terms, -1, 0)))

    def auxiliary_curvature_residual(self, p, structs):
        """Compare loop-holonomy curvature of the gauge with the closed form.

        Richardson-extrapolated curvature d(a) from loops of side 0.02 and
        0.01 against curvature_form on every coordinate plane, for each
        structure of ``structs``; returns the worst deviation at ``p`` of
        shape ``(4,)`` (shape ``(len(structs),)``) or at each row of an
        ``(N, 4)`` array (shape ``(len(structs), N)``).
        """
        p = np.asarray(p, dtype=float)
        hs = np.array([0.02, 0.01])
        d1, d2 = np.moveaxis(self._loop_integrals(p, hs, structs)
                             / hs[:, None] ** 2, -2, 0)
        approx = (4.0 * d2 - d1) / 3.0
        rho = [self.ricci_form(np.moveaxis(p, -1, 0)[..., None], _EA.T, _EB.T,
                               factor) for factor in (1, 2)]
        exact = np.stack([_curvature(st, *rho) for st in structs])
        return np.max(np.abs(approx - exact), axis=-1)


# The two structures differ only by the signs (s1, s2) of their factors,
# so their forms are signed sums of the same factor forms.
def _auxiliary(struct: SpincStructure, w1, w2):
    """The auxiliary 1-form s1 w1 + s2 w2 from the rotation forms."""
    return struct.signs[0] * w1 + struct.signs[1] * w2


def _curvature(struct: SpincStructure, rho1, rho2):
    """The auxiliary curvature -s1 rho1 - s2 rho2 from the Ricci forms."""
    return -struct.signs[0] * rho1 - struct.signs[1] * rho2

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
this choice of gauge (E1 E2 psi0 = -i s1 psi0, E3 E4 psi0 = -i s2 psi0), so
the restriction never builds C(X) and the parallel spinor is the constant
section itself.  The curvature of the auxiliary part reproduces the 2-form

    Omega(X, Y) = -s1 rho1(pi1 X, pi1 Y) - s2 rho2(pi2 X, pi2 Y),

which the ambient probes verify rather than assume.  Both read one record
(``factor_jets``) with the two factors on one (2,) axis: their coordinates
seeded once as exact order-2 Taylor jets at the sample positions, their
conformal factors as one order-2 jet, and the area densities and Ricci
forms read off its value.  They compare 2-forms on each factor's
orthonormal frame (eps1, eps2): a chart coefficient of du ^ dv divided by
lam^2, of the size of c even where the coefficient grows like lam^2, near
the rim of a hyperbolic disk.  ``liouville_residual`` checks rho against
the Gauss curvature from the conformal factors by Liouville's formula,
K = -(lam Lap(lam) - |grad lam|^2) / lam^4.  ``auxiliary_curvature_residual``
reads the record cut to order 1 and checks Cartan's structure equation
d(w12) = -rho with the order-1 rotation forms w12 = (c/2) lam (y, -x),
through the auxiliary form and curvature of each structure, on each factor
plane.  On a mixed plane both sides vanish identically, since each rotation
and Ricci form reads only its own factor, so neither probe computes them.

The tensor and form evaluators read a point's chart coordinates from axis 0
(``p[0]`` is x1), so arrays of shape ``(4, ...)`` evaluate a whole stack of
points in one call.  ``factor_jets`` takes the coordinate axis last,
``(..., 4)``, like the sample positions of a batch, and evaluates every
point of both factors in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import build_clifford
from .jets import Jet
from .surfaces import SurfaceModel, conformal, ricci_coefficient, rotation_form

J_MATRIX = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])
F_MATRIX = np.diag([1.0, 1.0, -1.0, -1.0])

# The dim-4 Clifford model is the same for every product, so it is built
# and validated once.
CLIFFORD = build_clifford(4)

# (plane, factor) entries where a factor form is read on its own plane
_OWN_PLANE = np.eye(2, dtype=bool)


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

    def __init__(self, c1: float, c2: float):
        self.factor1 = SurfaceModel(c1)
        self.factor2 = SurfaceModel(c2)
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.curvatures = np.array([c1, c2], dtype=float)

    # spin^c connection ----------------------------------------------------
    def parallel_spinor(self, struct: SpincStructure):
        """The constant section spanning the parallel line of the structure."""
        s1, s2 = struct.signs
        psi = np.zeros(4, dtype=complex)
        psi[2 * (s1 < 0) + (s2 < 0)] = 1.0  # the index of b(s1) (x) b(s2)
        return psi

    # verification probes ---------------------------------------------------
    def factor_jets(self, p):
        """The record both probes read, (x, y, lam, area, rho), each with
        the factor axis (2,): the chart coordinates of both factors at the
        positions ``p``, ``(4,)`` or ``(N, 4)``, seeded as order-2 jets in
        the first two jet variables (the third is a dummy), their conformal
        factors as one order-2 jet, and at every position ``(..., 2)`` the
        area densities lam^2 and the Ricci forms rho(eps1, eps2).  Raises
        OutsideDomainError at the first position outside a factor's chart,
        factor 1's first."""
        p = np.asarray(p, dtype=float)
        # (x1, y1, x2, y2) -> x0 = (x1, x2), y0 = (y1, y2), each (2, ...)
        x0, y0 = np.moveaxis(p.reshape(p.shape[:-1] + (2, 2)), (-1, -2),
                             (0, 1))
        for surf, xk, yk in zip((self.factor1, self.factor2), x0, y0):
            surf.check_point(xk, yk)
        x, y = (Jet(Jet.variable(i, v, 2).c, (2,))
                for i, v in enumerate((x0, y0)))
        lam = conformal(self.curvatures, x, y)
        area = lam.val ** 2
        return x, y, lam, area, ricci_coefficient(self.curvatures,
                                                  lam.val) / area

    def liouville_residual(self, jets):
        """|rho(eps1, eps2) - K| of each factor on the record ``jets`` of
        ``factor_jets``, shape ``(2,)`` at one position and ``(2, N)`` at
        ``N``."""
        _, _, lam, area, rho = jets
        d = lam.deriv()  # order-1 jet of the gradient, (3, 2)
        hess = d.grad()
        lap = hess[..., 0, :, 0] + hess[..., 1, :, 1]
        sq = d.val[..., 0, :] ** 2 + d.val[..., 1, :] ** 2
        return np.moveaxis(np.abs(rho + (lam.val * lap - sq) / area ** 2),
                           -1, 0)

    def auxiliary_curvature_residual(self, jets, structs):
        """Worst deviation of d(auxiliary form) from the curvature form
        over the two factor planes, for each structure of ``structs``, on
        the record ``jets`` of ``factor_jets`` cut to order 1: at one
        position (shape ``(len(structs),)``) or at ``N`` (shape
        ``(len(structs), N)``).  On the plane of factor ``i`` they read
        ``s_i d(w_i)`` and ``-s_i rho_i``, with d(w12) = d_x w_v - d_y w_u."""
        x, y, lam, area, rho = jets
        w_u, w_v = rotation_form(self.curvatures, x.truncated(1),
                                 y.truncated(1), lam.truncated(1))
        curl = (w_v.grad()[..., 0] - w_u.grad()[..., 1]) / area
        # each factor form on the two planes, (factor, ..., plane): its own
        # value on its own plane, 0 on the other
        curl, rho = (np.moveaxis(np.where(_OWN_PLANE, f[..., None, :], 0.0),
                                 -1, 0) for f in (curl, rho))
        return np.stack([np.abs(_auxiliary(st, *curl)
                                - _curvature(st, *rho)).max(axis=-1)
                         for st in structs])


# The two structures differ only by the signs (s1, s2) of their factors,
# so their forms are signed sums of the same factor forms.
def _auxiliary(struct: SpincStructure, w1, w2):
    """The auxiliary 1-form s1 w1 + s2 w2 from the rotation forms."""
    return struct.signs[0] * w1 + struct.signs[1] * w2


def _curvature(struct: SpincStructure, rho1, rho2):
    """The auxiliary curvature -s1 rho1 - s2 rho2 from the Ricci forms."""
    return -struct.signs[0] * rho1 - struct.signs[1] * rho2

"""Two-dimensional space forms in a single conformal chart, the one home of
a factor's chart geometry.

The surface of constant curvature c is modelled on the plane (c >= 0) or the
disk of radius 2/sqrt(-c) (c < 0) with metric lam^2 (du^2 + dv^2), where

    lam(u, v) = 1 / (1 + (c/4)(u^2 + v^2)).

For c > 0 the chart misses one point of the sphere; all sampling happens at
desk scale well inside the domain.  The connection is read off the
log-gradient l = d log lam = -(c/2) lam (u, v).  The orthonormal frame is
fixed once and for all as eps1 = lam^-1 d_u, eps2 = lam^-1 d_v = J eps1,
which pins the frame rotation form w12(X) = <nabla_X eps1, eps2>, the
quarter turn of l:

    w12 = (c/2) lam (v du - u dv),      d(w12) = -c vol.

Each function takes both factors of a product: the curvatures ``c``, (2,),
and the chart coordinates on the axes [factor, coordinate], a (2, 2) jet
or array.  The pipeline (``PointEvaluation._lam``, ``ambient_gamma``) and
the ambient probes (``ProductModel.factor_jets``) read the same functions.
"""

from __future__ import annotations

import numpy as np


class OutsideDomainError(ValueError):
    pass


# Christoffel symbols of a conformal metric lam^2 (dx^2 + dy^2) from
# l = d log lam: Gamma^a_{bc} = _GAMMA_SIGN[a, b, c] l[_GAMMA_INDEX[a, b, c]].
_GAMMA_INDEX = np.array([[[0, 1], [1, 0]], [[1, 0], [0, 1]]])
_GAMMA_SIGN = np.array([[[1.0, 1.0], [1.0, -1.0]], [[-1.0, 1.0], [1.0, 1.0]]])


def check_domain(c, xy, u):
    """Raise OutsideDomainError at the first of the positions ``xy``, (2, 2)
    or (N, 2, 2), outside a factor's chart, factor 1's first, naming its
    chart parameters ``u[i]`` unless ``u`` is None.  The chart is
    -c/4 (x^2 + y^2) < 1, written without the radius 2/sqrt(-c), whose
    square overflows for a subnormal c."""
    with np.errstate(all="ignore"):
        inside = (c >= 0) | (-0.25 * c * (xy[..., 0] ** 2 + xy[..., 1] ** 2)
                             < 1.0)
    for k in (0, 1):
        ok = inside[..., k]
        if not ok.all():
            i = np.unravel_index(np.argmin(ok), ok.shape)
            x, y = xy[i][k]
            at = "" if u is None else f" at u={u[i]}"
            raise OutsideDomainError(
                f"point ({x:.4g}, {y:.4g}) outside chart of curvature "
                f"{float(c[k])}{at}")


def conformal(c, xy):
    """lam = 1 / (1 + (c/4)(x^2 + y^2)) of both factors, unchecked."""
    sq = xy * xy
    return 1.0 / (1.0 + 0.25 * c * (sq[:, 0] + sq[:, 1]))


def log_gradient(c, xy, lam):
    """l = d log lam = -(c/2) lam (x, y) of both factors, [factor,
    coordinate], from their conformal factors ``lam``."""
    return xy * (-0.5 * c)[:, None] * lam.reshape((2, 1))


def christoffel(c, xy, lam):
    """Christoffel symbols G[k, a, b, c] = Gamma^a_{bc} of factor k in its
    own chart coordinates, from its log-gradient."""
    return log_gradient(c, xy, lam)[:, _GAMMA_INDEX] * _GAMMA_SIGN


def rotation_form(c, xy, lam):
    """Chart components (w_u, w_v) = (c/2) lam (y, -x) of w12 of both
    factors, the quarter turn (-l_v, l_u) of the log-gradient l."""
    dlog = log_gradient(c, xy, lam)
    return -dlog[:, 1], dlog[:, 0]


def ricci_coefficient(c, lam):
    """The coefficient c lam^2 of the Ricci form rho = c lam^2 du ^ dv from
    the conformal factor lam."""
    return c * lam * lam

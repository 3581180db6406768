"""Two-dimensional space forms in a single conformal chart.

The surface of constant curvature c is modelled on the plane (c >= 0) or the
disk of radius 2/sqrt(-c) (c < 0) with metric lam^2 (du^2 + dv^2), where

    lam(u, v) = 1 / (1 + (c/4)(u^2 + v^2)).

For c > 0 the chart misses one point of the sphere; all sampling happens at
desk scale well inside the domain.  The orthonormal frame is fixed once and
for all as eps1 = lam^-1 d_u, eps2 = lam^-1 d_v = J eps1, which pins the
frame rotation form w12(X) = <nabla_X eps1, eps2>:

    w12 = (c/2) lam (v du - u dv),      d(w12) = -c vol.

All evaluators accept floats or jets, of one point or of a batch.  The
module-level formulas take the curvature as an argument, so an array of
curvatures evaluates several space forms at once on a matching axis: the
two factors of a product on the (2,) axis of ``ProductModel.factor_jets``.
``SurfaceModel.conformal_factor`` checks the chart domain first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import value


class OutsideDomainError(ValueError):
    pass


def conformal(c, x, y):
    """lam = 1 / (1 + (c/4)(x^2 + y^2)), unchecked."""
    return 1.0 / (1.0 + 0.25 * c * (x * x + y * y))


def rotation_form(c, x, y, lam):
    """Chart components (w_u, w_v) = (c/2) lam (y, -x) of w12 from the
    conformal factor lam at (x, y)."""
    half = 0.5 * c
    return (half * y * lam, -half * x * lam)


def ricci_coefficient(c, lam):
    """The coefficient c lam^2 of the Ricci form rho = c lam^2 du ^ dv from
    the conformal factor lam."""
    return c * lam * lam


@dataclass(frozen=True)
class SurfaceModel:
    curvature: float

    def contains(self, x, y):
        """Whether (x, y) lies in the chart: -c/4 (x^2 + y^2) < 1, the disk
        of radius 2/sqrt(-c) for c < 0, written without the radius, whose
        square overflows for a subnormal c."""
        c = self.curvature
        if c >= 0:
            return True
        return -0.25 * c * (value(x) ** 2 + value(y) ** 2) < 1.0

    def check_point(self, x, y):
        inside = self.contains(x, y)
        if isinstance(inside, np.ndarray):  # a batch: name its first bad point
            if inside.all():
                return
            i = np.unravel_index(np.argmin(inside), inside.shape)
            x, y = (np.broadcast_to(value(v), inside.shape)[i] for v in (x, y))
        elif inside:
            return
        raise OutsideDomainError(
            f"point ({value(x):.3f}, {value(y):.3f}) outside chart of curvature "
            f"{self.curvature}")

    def conformal_factor(self, x, y):
        self.check_point(x, y)
        return conformal(self.curvature, x, y)

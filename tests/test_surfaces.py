"""Space-form charts: curvature, Christoffel symbols, rotation form."""

import warnings

import numpy as np
import pytest

from helpers import christoffels, fd_second_derivative, frame_rotation_form
from spinlab.jets import value
from spinlab.surfaces import OutsideDomainError, SurfaceModel


@pytest.mark.parametrize("c", [0.0, 1.0, 4.0, -0.5, -2.0])
def test_gauss_curvature_matches_fd(c, rng):
    """K = -lam^-2 Laplace(log lam) = c; the stencil runs the model's own
    conformal factor at extended precision so the difference quotient is
    not limited by double-precision cancellation."""
    surf = SurfaceModel(c)

    def lam(x, y):
        return surf.conformal_factor(np.longdouble(x), np.longdouble(y))

    h = np.longdouble(1e-3)
    for _ in range(15):
        x, y = rng.uniform(-0.5, 0.5, 2)
        lap = (fd_second_derivative(lambda t: np.log(lam(x + t, y)), 0.0, h)
               + fd_second_derivative(lambda t: np.log(lam(x, y + t)), 0.0, h))
        K = float(-lap / lam(x, y) ** 2)
        assert K == pytest.approx(c, abs=1e-9)


@pytest.mark.parametrize("c", [1.0, -0.5, 2.5])
def test_christoffels_metric_compatibility(c, rng):
    """Finite-difference nabla g = 0 in chart coordinates."""
    surf = SurfaceModel(c)

    def metric(x, y):
        lam = value(surf.conformal_factor(x, y))
        return lam * lam * np.eye(2)

    h = 1e-6
    for _ in range(10):
        p = rng.uniform(-0.5, 0.5, 2)
        G = np.array(
            [[[value(christoffels(surf, *p)[a][b][cc]) for cc in range(2)]
              for b in range(2)] for a in range(2)])
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            dg = (metric(*(p + e)) - metric(*(p - e))) / (2 * h)
            g0 = metric(*p)
            # nabla_a g_bc = d_a g_bc - G^d_ab g_dc - G^d_ac g_bd
            for b in range(2):
                for cc in range(2):
                    resid = dg[b, cc]
                    for d in range(2):
                        resid -= G[d][a][b] * g0[d, cc]
                        resid -= G[d][a][cc] * g0[b, d]
                    assert abs(resid) < 1e-7


def test_christoffels_vanish_where_expected():
    flat = SurfaceModel(0.0)
    G = christoffels(flat, 0.3, -0.8)
    assert max(abs(value(G[a][b][c])) for a in range(2)
               for b in range(2) for c in range(2)) == 0.0
    curved = SurfaceModel(3.0)
    G0 = christoffels(curved, 0.0, 0.0)
    assert max(abs(value(G0[a][b][c])) for a in range(2)
               for b in range(2) for c in range(2)) == 0.0


@pytest.mark.parametrize("c", [1.0, -0.7])
def test_rotation_form_curvature(c, rng):
    """d(w12) = -c * lam^2 dx ^ dy by central differences."""
    surf = SurfaceModel(c)
    h = 1e-5
    for _ in range(10):
        x, y = rng.uniform(-0.4, 0.4, 2)
        wu = lambda a, b: value(frame_rotation_form(surf, a, b)[0])
        wv = lambda a, b: value(frame_rotation_form(surf, a, b)[1])
        d = ((wv(x + h, y) - wv(x - h, y)) / (2 * h)
             - (wu(x, y + h) - wu(x, y - h)) / (2 * h))
        lam = value(surf.conformal_factor(x, y))
        assert d == pytest.approx(-c * lam * lam, abs=1e-8)


def test_domain_boundary():
    """For c = -1 the chart is the open disk of radius 2."""
    surf = SurfaceModel(-1.0)
    assert surf.contains(1.0, 1.0)
    assert surf.contains(0.0, 1.999)
    assert not surf.contains(2.0, 0.0)
    assert not surf.contains(2.0, 0.1)
    assert not surf.contains(-1.5, -1.5)
    assert list(surf.contains(np.array([1.999, 2.0]), 0.0)) == [True, False]
    with pytest.raises(OutsideDomainError):
        surf.conformal_factor(2.5, 0.0)
    assert SurfaceModel(1.0).contains(100.0, 100.0)


@pytest.mark.parametrize("c", [-1e-320, -1e-310, -1e-300])
def test_tiny_negative_curvature_raises_no_warning(c):
    """The disk of radius 2/sqrt(-c) has a square radius -4/c that
    overflows for c = -1e-320 and -1e-310; the domain test never forms it."""
    surf = SurfaceModel(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = surf.contains(np.array([1e150, 1e151]), 0.0)
    assert list(inside) == [True, c != -1e-300]

"""Space-form charts: curvature, Christoffel symbols, rotation form, chart
domain.  Each formula of ``surfaces`` takes both factors of a product at
once, here the curvatures (c, c/2) at one position, and is checked against
closed forms and difference quotients of a single factor."""

import warnings

import numpy as np
import pytest

from helpers import conformal_factor, fd_second_derivative
from spinlab.surfaces import (OutsideDomainError, check_domain, christoffel,
                              conformal, rotation_form)


def _pair(c):
    return np.array([c, 0.5 * c])


def _at(x, y):
    """One position of both factors, [factor, coordinate]."""
    return np.array([[x, y], [x, y]])


@pytest.mark.parametrize("c", [0.0, 1.0, 4.0, -0.5, -2.0])
def test_gauss_curvature_matches_fd(c, rng):
    """K = -lam^-2 Laplace(log lam) = c; the stencil runs the engine's
    conformal factor at extended precision so the difference quotient is
    not limited by double-precision cancellation."""
    def lam(x, y):
        return conformal(_pair(c), _at(x, y).astype(np.longdouble))

    h = np.longdouble(1e-3)
    for _ in range(15):
        x, y = rng.uniform(-0.5, 0.5, 2)
        lap = (fd_second_derivative(lambda t: np.log(lam(x + t, y)), 0.0, h)
               + fd_second_derivative(lambda t: np.log(lam(x, y + t)), 0.0, h))
        K = (-lap / lam(x, y) ** 2).astype(float)
        assert K == pytest.approx(_pair(c), abs=1e-9)


def _christoffel(c, x, y):
    """G[k, a, b, c] of both factors at (x, y) from the engine."""
    xy = _at(x, y)
    return christoffel(_pair(c), xy, conformal(_pair(c), xy))


@pytest.mark.parametrize("c", [1.0, -0.5, 2.5])
def test_christoffels_metric_compatibility(c, rng):
    """Finite-difference nabla g = 0 in chart coordinates, the engine's
    Christoffel symbols against the closed-form metric of each factor."""
    def metric(k, x, y):
        lam = conformal_factor(_pair(c)[k], x, y)
        return lam * lam * np.eye(2)

    h = 1e-6
    for _ in range(10):
        p = rng.uniform(-0.5, 0.5, 2)
        for k, G in enumerate(_christoffel(c, *p)):
            for a in range(2):
                e = np.zeros(2)
                e[a] = h
                dg = (metric(k, *(p + e)) - metric(k, *(p - e))) / (2 * h)
                g0 = metric(k, *p)
                # nabla_a g_bc = d_a g_bc - G^d_ab g_dc - G^d_ac g_bd
                resid = (dg - np.einsum("db,dc->bc", G[:, a], g0)
                         - np.einsum("dc,bd->bc", G[:, a], g0))
                assert np.abs(resid).max() < 1e-7


def test_christoffels_vanish_where_expected():
    assert np.abs(_christoffel(0.0, 0.3, -0.8)).max() == 0.0
    assert np.abs(_christoffel(3.0, 0.0, 0.0)).max() == 0.0


@pytest.mark.parametrize("c", [1.0, -0.7])
def test_rotation_form_curvature(c, rng):
    """d(w12) = -c * lam^2 dx ^ dy by central differences, the engine's
    rotation form of both factors against each factor's closed-form lam."""
    def w(x, y):
        xy = _at(x, y)
        return rotation_form(_pair(c), xy, conformal(_pair(c), xy))

    h = 1e-5
    for _ in range(10):
        x, y = rng.uniform(-0.4, 0.4, 2)
        d = ((w(x + h, y)[1] - w(x - h, y)[1]) / (2 * h)
             - (w(x, y + h)[0] - w(x, y - h)[0]) / (2 * h))
        lam = conformal_factor(_pair(c), x, y)
        assert d == pytest.approx(-_pair(c) * lam * lam, abs=1e-8)


def _inside(c1, x, y, c2=0.0):
    try:
        check_domain(np.array([c1, c2]), _at(x, y), None)
    except OutsideDomainError:
        return False
    return True


def test_domain_boundary():
    """For c = -1 the chart is the open disk of radius 2; a batch names its
    first bad position, factor 1's first, and the chart parameters of that
    position where they are given."""
    assert _inside(-1.0, 1.0, 1.0)
    assert _inside(-1.0, 0.0, 1.999)
    assert not _inside(-1.0, 2.0, 0.0)
    assert not _inside(-1.0, 2.0, 0.1)
    assert not _inside(-1.0, -1.5, -1.5)
    assert not _inside(0.0, 2.5, 0.0, c2=-1.0)
    assert _inside(1.0, 100.0, 100.0)
    c = np.array([0.0, -1.0])
    batch = np.array([_at(1.999, 0.0), _at(2.0, 0.0), _at(3.0, 0.0)])
    u = np.arange(9.0).reshape(3, 3)
    with pytest.raises(OutsideDomainError,
                       match=r"^point \(2, 0\) outside chart of "
                             r"curvature -1\.0$"):
        check_domain(c, batch, None)
    with pytest.raises(OutsideDomainError,
                       match=r"curvature -1\.0 at u=\[3\. 4\. 5\.\]$"):
        check_domain(c, batch, u)
    check_domain(c, batch[:1], u[:1])


@pytest.mark.parametrize("c", [-1e-320, -1e-310, -1e-300])
def test_tiny_negative_curvature_raises_no_warning(c):
    """The disk of radius 2/sqrt(-c) has a square radius -4/c that
    overflows for c = -1e-320 and -1e-310; the domain test never forms it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = [_inside(c, x, 0.0, c2=c) for x in (1e150, 1e151)]
    assert inside == [True, c != -1e-300]

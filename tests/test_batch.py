"""Batch evaluation: one jet pass over many sample points.

A batch of N points must agree with N single-point evaluations on every
stage, and a bad point inside a batch must be reported by its chart
parameter u.
"""

from functools import cached_property

import numpy as np
import pytest

from conftest import sample
from spinlab import build_chart, build_product, evaluate
from spinlab.hypersurfaces import PointEvaluation, RankDeficientError
from spinlab.jets import Jet
from spinlab.surfaces import OutsideDomainError

# float64 carries ~16 digits; batching reorders a few sums per jet product,
# which may cost a few ulps per stage of a ~30-stage pipeline.  The error is
# measured against the largest entry of the stage (normwise), since Taylor
# coefficients cancel.
REL_TOL = 1e-12

STAGES = [name for name, attr in vars(PointEvaluation).items()
          if isinstance(attr, cached_property) and name != "data"]


def _numbers(x):
    """Every float of a stage value: arrays, jets and nested lists."""
    if isinstance(x, Jet):
        return x.c.ravel()
    if isinstance(x, list):
        return np.concatenate([_numbers(y) for y in x])
    return np.ravel(np.asarray(x, dtype=float))


@pytest.mark.parametrize("order", [1, 3])
def test_batch_matches_single_points(members, rng, order):
    for name, prod, chart in members:
        pts = sample(chart, rng, 6)
        batch = evaluate(chart, prod, pts, order=order)
        for i, u in enumerate(pts):
            single = evaluate(chart, prod, u, order=order)
            view = batch.point(i)
            for stage in STAGES:
                try:
                    want = getattr(single, stage)
                except AssertionError:  # beyond the jets' valid order
                    continue
                got = getattr(view, stage)
                assert type(got) is type(want), (name, stage)
                assert np.shape(got) == np.shape(want), (name, stage)
                a, b = _numbers(want), _numbers(got)
                scale = max(1.0, float(np.max(np.abs(a))))
                assert np.max(np.abs(a - b)) <= REL_TOL * scale, (name, stage)


def test_batch_stages_have_a_leading_point_axis(members, rng):
    name, prod, chart = members[4]
    batch = evaluate(chart, prod, sample(chart, rng, 5))
    assert batch.g_val.shape == (5, 3, 3)
    assert batch.riemann_frame.shape == (5, 3, 3, 3, 3)
    assert batch.dE_frame.shape == (5, 3, 3, 3)
    assert batch.h.c.shape == (20, 5)
    assert batch.dH.shape == (5, 3)
    assert batch.check_immersion().shape == (5,)


def test_point_view_shares_the_batch():
    chart = build_chart("graph")
    batch = evaluate(chart, build_product(1.0, 0.0),
                     [[0.1, 0.2, 0.3], [0.3, -0.2, 0.4]])
    view = batch.point(1)
    assert view.u.tolist() == [0.3, -0.2, 0.4]
    assert np.shares_memory(view.g_val, batch.g_val)
    assert view.data.g.shape == (3, 3)


def test_out_of_domain_point_is_named():
    prod = build_product(0.0, -1.0)  # factor-2 chart radius 2
    chart = build_chart("flat-hyperplane")
    pts = np.array([[0.0, 0.0, 0.5], [0.1, 0.2, 0.3],
                    [0.125, -0.375, 2.5], [0.2, 0.1, 0.0]])
    with pytest.raises(OutsideDomainError) as exc:
        evaluate(chart, prod, pts)
    assert f"u={pts[2]}" in str(exc.value)


def test_rank_deficient_point_is_named():
    chart = build_chart("round-sphere", {"r": 1.0})
    pts = np.array([[0.5, 1.0, 2.0], [0.7, 0.4, 1.1],
                    [0.9, 2.0, 0.3], [0.0, 1.0, 2.0]])  # alpha = 0: a pole
    with pytest.raises(RankDeficientError) as exc:
        evaluate(chart, build_product(0.0, 0.0), pts)
    assert f"u={pts[3]}" in str(exc.value)

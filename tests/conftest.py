import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spinlab import build_chart, build_product  # noqa: E402


def catalog_members():
    """(label, product, chart) for every built-in scenario geometry."""
    from spinlab.catalog import BUILTIN_SCENARIOS
    out = []
    for sc in BUILTIN_SCENARIOS:
        prod = build_product(sc["c1"], sc["c2"])
        chart = build_chart(sc["hypersurface"]["kind"],
                            sc["hypersurface"].get("params", {}))
        out.append((sc["name"], prod, chart))
    return out


@pytest.fixture(scope="session")
def members():
    return catalog_members()


def sample(chart, rng, n):
    return rng.uniform(chart.domain[:, 0], chart.domain[:, 1], size=(n, 3))


def run_checks(kind, c1, c2, samples, checks, params=None, seed=1234):
    """The check records of one scenario, its points drawn by the
    scenario runner (``catalog.sample_points``)."""
    from spinlab.checks import run_scenario
    from spinlab.reports import Scenario
    return run_scenario(Scenario.from_dict({
        "name": kind, "c1": c1, "c2": c2,
        "hypersurface": {"kind": kind, "params": params or {}},
        "samples": samples, "seed": seed, "checks": checks})).checks


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

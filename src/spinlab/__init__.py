"""spinlab: numerical verification of spin^c hypersurface geometry in
products of two-dimensional space forms."""

from .clifford import CliffordModel, build_clifford
from .product import ProductModel, SpincStructure, structure
from .surfaces import OutsideDomainError
from .hypersurfaces import (HypersurfaceChart, PointEvaluation,
                            RankDeficientError, evaluate)
from .catalog import CATALOG, build_chart, build_product, sample_points
from .restriction import RestrictedSpinc, restrict_structure
from .systems import SystemResiduals, system_residuals
from .reports import ResidualReport, Scenario
from .checks import list_checks, run_catalog, run_scenario

__version__ = "0.1.0"

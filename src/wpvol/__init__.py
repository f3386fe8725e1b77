"""Exact Weil-Petersson volume polynomials via Mirzakhani's recursion,
tautological intersection numbers extracted from their coefficients, and
verification suites for the string, dilaton, Virasoro (DVV) and
boundary-removal identities.

The numpy quadrature oracle is not imported here; use ``wpvol.oracle``.
"""

__version__ = "0.1.0"

from .exact import PiPoly
from .lpoly import LPoly
from .recursion import VolumeTable
from .intersect import (
    compact_volume,
    intersection_number,
    psi_correlator,
    run_relation_suite,
)

__all__ = [
    "__version__",
    "PiPoly",
    "LPoly",
    "VolumeTable",
    "compact_volume",
    "intersection_number",
    "psi_correlator",
    "run_relation_suite",
]

"""Exact Weil-Petersson volume polynomials via Mirzakhani's recursion,
tautological intersection numbers extracted from their coefficients, and
verification suites for the string, dilaton, Virasoro (DVV) and
boundary-removal identities.

The numpy quadrature oracle is not imported here; use ``wpvol.oracle``.
"""

__version__ = "0.1.0"

from .exact import PiPoly, Rat, bernoulli, zeta_even
from .lpoly import LPoly, MultiIndex, mul_disjoint
from .kernels import (
    h_double_moment,
    h_moment,
    kernel_d,
    kernel_h,
    kernel_r,
    shift_symmetrize,
)
from .recursion import (
    InvariantViolation,
    VolumeTable,
    a_con_term,
    a_dcon_term,
    b_term,
    base_volume,
    is_stable,
    iter_signatures,
    moduli_dim,
    stable_splittings,
    validate_volume,
)
from .intersect import (
    CheckRecord,
    IntersectionValue,
    check_dilaton,
    check_do_dilaton,
    check_do_string,
    check_dvv,
    check_string,
    compact_volume,
    genus0_correlator,
    intersection_number,
    psi_correlator,
    run_relation_suite,
    volume_coefficient,
    zograf_ratio,
)

__all__ = [
    "__version__",
    "Rat",
    "PiPoly",
    "bernoulli",
    "zeta_even",
    "LPoly",
    "MultiIndex",
    "mul_disjoint",
    "kernel_h",
    "kernel_d",
    "kernel_r",
    "h_moment",
    "h_double_moment",
    "shift_symmetrize",
    "VolumeTable",
    "InvariantViolation",
    "base_volume",
    "stable_splittings",
    "a_con_term",
    "a_dcon_term",
    "b_term",
    "is_stable",
    "moduli_dim",
    "iter_signatures",
    "validate_volume",
    "IntersectionValue",
    "CheckRecord",
    "volume_coefficient",
    "intersection_number",
    "psi_correlator",
    "genus0_correlator",
    "check_string",
    "check_dilaton",
    "check_dvv",
    "check_do_string",
    "check_do_dilaton",
    "compact_volume",
    "zograf_ratio",
    "run_relation_suite",
]

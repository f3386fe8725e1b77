"""Exact Weil-Petersson volume polynomials via Mirzakhani's recursion,
tautological intersection numbers extracted from their coefficients, and
verification suites for the string, dilaton, Virasoro (DVV) and
boundary-removal identities.

The package binds only ``__version__``, so importing one module loads only
what that module imports; names are imported from the submodules, e.g.
``from wpvol.recursion import VolumeTable``.
"""

__version__ = "0.1.0"

"""Exact symbolic verification of etale local models of quadric surface
bundles: normal forms and their degeneration strata, the double-cover
coordinate maps realizing them, quaternion/Albert-form arithmetic over Q,
and the biform-module intersection and non-flatness computations.
"""

from .rings import (
    DivisionError,
    ExponentError,
    LaurentPolynomial,
    NonUnitError,
    ParseError,
    RingError,
    RingHomomorphism,
    TableMismatchError,
    VariableTable,
    parse,
)
from .linalg import SingularMatrixError, determinant

__all__ = [
    "DivisionError",
    "ExponentError",
    "LaurentPolynomial",
    "NonUnitError",
    "ParseError",
    "RingError",
    "RingHomomorphism",
    "SingularMatrixError",
    "TableMismatchError",
    "VariableTable",
    "determinant",
    "parse",
]

__version__ = "0.1.0"

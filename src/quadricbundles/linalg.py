"""Exact linear algebra: fraction-free elimination over polynomial rings and
integer-preserving row reduction of rational matrices.

The Bareiss determinant works over any
:class:`~quadricbundles.rings.VariableTable`; exactness of the interior
divisions is the classical fraction-free elimination guarantee for integral
domains.  The rational routines take rows of ints or ``Fraction``s, reduce
them over the integers and return ``Fraction`` rows; they serve the
constant-coefficient change-of-basis and subspace computations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rings import LaurentPolynomial, RingError


class SingularMatrixError(RingError):
    pass


# -- polynomial matrices -----------------------------------------------------

def determinant(rows):
    """Exact determinant of a square matrix of Laurent polynomials (Bareiss)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    table = rows[0][0].table
    m = [list(row) for row in rows]
    sign = 1
    prev = LaurentPolynomial.one(table)
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if not m[r][k].is_zero()), None)
        if pivot_row is None:
            return LaurentPolynomial.zero(table)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = LaurentPolynomial.zero(table)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


# -- rational matrices -------------------------------------------------------

def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _integer_row(row):
    """An integer multiple of a row of ints or Fractions, made primitive."""
    scale = math.lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (scale // x.denominator) for x in row])


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Gauss-Jordan elimination over the integers: each row is cleared of
    denominators, each updated row is divided by the gcd of its entries, and
    the pivot rows are scaled to a leading 1 as ``Fraction`` rows only at the
    end.  The result is the canonical reduced form over Q, zero rows last.
    """
    m = [_integer_row(row) for row in rows]
    if not m:
        return [], []
    cols = len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([p * a - f * b for a, b in zip(m[i], top)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    reduced = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    reduced.extend([Fraction(0)] * cols for _ in range(len(m) - r))
    return reduced, pivots


def row_space(rows):
    """Canonical basis (nonzero RREF rows) of the span of the given rows."""
    reduced, pivots = rref(rows)
    return [tuple(row) for row in reduced[: len(pivots)]]


def rational_rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, cols):
    """Basis of the right kernel ``{x in Q^cols : rows @ x = 0}``, canonical
    order; no rows give the full standard basis."""
    if any(len(row) != cols for row in rows):
        raise ValueError("rows must have %d entries" % cols)
    reduced, pivots = rref(rows)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def invert_matrix(rows):
    """Exact inverse of a square rational matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = rref(augmented)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    return [row[n:] for row in reduced[:n]]

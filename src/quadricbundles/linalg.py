"""Exact linear algebra over Q by integer-preserving elimination.

Every routine takes rows of ints or ``Fraction``s and clears each row's
denominators first: ``determinant`` is Bareiss's fraction-free elimination,
and one Gauss-Jordan ``rref`` serves ranks, kernels, row spaces and
inverses.  There are no polynomial matrices: ``biforms`` splits its
generator matrix into monomials times one rational matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rings import RingError


class SingularMatrixError(RingError):
    pass


def _cleared(row):
    """``(d, d * row)`` for the least ``d`` making a row of ints or Fractions
    integral."""
    scale = math.lcm(*(x.denominator for x in row))
    return scale, [x.numerator * (scale // x.denominator) for x in row]


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def determinant(rows):
    """Exact determinant of a square matrix of ints or Fractions.

    Row i is scaled to integers by ``d_i``, which scales the determinant by
    the product of the ``d_i``; Bareiss's elimination then keeps every entry
    an integer, each division by the previous pivot being exact.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    cleared = [_cleared(row) for row in rows]
    m = [row for _, row in cleared]
    prev = 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            # a swap with one row negated keeps the determinant
            m[k], m[pivot] = m[pivot], [-x for x in m[k]]
        top = m[k]
        p = top[k]
        for row in m[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * a - f * b) // prev for a, b in zip(row[k + 1:], top[k + 1:])]
        prev = p
    return Fraction(m[n - 1][n - 1], math.prod(d for d, _ in cleared))


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Gauss-Jordan elimination over the integers: each row is cleared of
    denominators, each updated row is divided by the gcd of its entries, and
    the pivot rows are scaled to a leading 1 as ``Fraction`` rows only at the
    end.  The result is the canonical reduced form over Q, zero rows last.
    """
    m = [_primitive(_cleared(row)[1]) for row in rows]
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

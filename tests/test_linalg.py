import random
from fractions import Fraction

import pytest

from quadricbundles.linalg import (
    SingularMatrixError,
    determinant,
    intersect_row_spaces,
    invert_matrix,
    nullspace,
    rational_rank,
    row_space,
    rref,
)
from quadricbundles.rings import LaurentPolynomial, VariableTable, parse

ST = VariableTable(("s", "t"))


def naive_determinant(rows):
    """Cofactor expansion; independent of the fraction-free elimination."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = LaurentPolynomial.zero(rows[0][0].table)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * naive_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def random_poly(rng, table, nterms=2, max_exp=2):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_exp) for _ in table.names)
        terms[exps] = Fraction(rng.randint(-5, 5))
    return LaurentPolynomial(table, terms)


class TestDeterminant:
    def test_matches_cofactor_expansion(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            for _ in range(10):
                rows = [[random_poly(rng, ST) for _ in range(n)] for _ in range(n)]
                assert determinant(rows) == naive_determinant(rows)

    def test_singular_matrix_gives_zero(self):
        row = [parse("s", ST), parse("t", ST)]
        assert determinant([row, row]).is_zero()


class TestRationalMatrices:
    def test_rref_and_rank(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        reduced, pivots = rref(rows)
        assert pivots == [0, 1]
        assert rational_rank(rows) == 2

    def test_nullspace_orthogonality(self):
        rows = [[1, 2, 3], [0, 1, 1]]
        for vec in nullspace(rows, 3):
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)

    def test_nullspace_of_no_rows_is_everything(self):
        e = lambda *xs: tuple(Fraction(x) for x in xs)
        assert nullspace([], 3) == [e(1, 0, 0), e(0, 1, 0), e(0, 0, 1)]
        with pytest.raises(ValueError):
            nullspace([[1, 2]], 3)

    def test_invert_matrix(self):
        m = [[2, 1], [1, 1]]
        inv = invert_matrix(m)
        assert [sum(a * b for a, b in zip(row, [1, 0])) for row in inv] == [1, -1]
        with pytest.raises(SingularMatrixError):
            invert_matrix([[1, 1], [1, 1]])

    def test_intersection_of_spans(self):
        e = lambda *xs: tuple(Fraction(x) for x in xs)
        a = [e(1, 0, 0), e(0, 1, 0)]
        b = [e(0, 1, 0), e(0, 0, 1)]
        assert intersect_row_spaces([a, b], 3) == [e(0, 1, 0)]
        assert intersect_row_spaces([a, []], 3) == []
        full = intersect_row_spaces([row_space(a + b), row_space(a + b)], 3)
        assert len(full) == 3
        assert intersect_row_spaces([], 3) == [e(1, 0, 0), e(0, 1, 0), e(0, 0, 1)]

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from quadricbundles import linalg
from quadricbundles.linalg import (
    SingularMatrixError,
    determinant,
    invert_matrix,
    nullspace,
    rational_rank,
    row_space,
    rref,
)


def naive_determinant(rows):
    """Cofactor expansion along the first row, skipping zero entries; works
    for ints, Fractions and polynomials and is independent of elimination."""
    if not rows:
        return 1
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * naive_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def fraction_rref(rows):
    """Gauss-Jordan elimination on ``Fraction`` rows: the oracle for the
    integer elimination of ``linalg.rref``."""
    m = [[Fraction(x) for x in row] for row in rows]
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
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def with_oracle(fn, *args):
    """``fn(*args)`` with every elimination done by :func:`fraction_rref`."""
    with mock.patch.object(linalg, "rref", fraction_rref):
        return fn(*args)


def intersect_row_spaces(spaces, dimension):
    """Canonical basis of the intersection of row spaces inside Q^dimension.

    Each subspace is replaced by its constraint set (a basis of its
    orthogonal complement); the intersection is the common kernel.
    """
    constraints = [vec for rows in spaces for vec in nullspace(rows, dimension)]
    return row_space(nullspace(constraints, dimension))


def random_rational_matrix(rng, n):
    """Small entries, a third of them zero; a fifth of the matrices get a
    last row that combines two others, so singular ones occur."""

    def entry():
        return Fraction(rng.choice((0, 1, 1)) * rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        a, b = rng.sample(rows, 2)
        c, d = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[-1] = [c * x + d * y for x, y in zip(a, b)]
    return rows


class TestDeterminant:
    def test_matches_cofactor_expansion(self):
        rng = random.Random(17)
        singular = 0
        for n in (1, 2, 3, 4, 5):
            for _ in range(40):
                rows = random_rational_matrix(rng, n)
                det = determinant(rows)
                assert type(det) is Fraction
                assert det == naive_determinant(rows)
                singular += det == 0
        assert 20 <= singular <= 100

    def test_singular_matrix_gives_zero(self):
        row = [Fraction(1, 2), 3]
        assert determinant([row, row]) == 0
        assert determinant([[0, 1], [0, 2]]) == 0

    def test_integer_rows(self):
        assert determinant([[2, 1], [1, 1]]) == 1
        assert determinant([[0, 1], [1, 0]]) == -1
        with pytest.raises(ValueError):
            determinant([[1, 2]])
        with pytest.raises(ValueError):
            determinant([])


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


#: Fractions with up to 25-digit denominators.
LARGE_ENTRIES = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**25))


@st.composite
def rational_matrices(draw, square=False):
    """Matrices of width 1..12 with small entries (zero and negative pivots
    among them) and up to three large ones; then up to three rows are
    replaced by a zero row, a negated row or a combination of two rows, so
    that every rank occurs."""
    cols = draw(st.integers(1, 12))
    count = cols if square else draw(st.integers(0, 12))
    size = cols * count
    nums = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    dens = draw(st.lists(st.sampled_from((1, 1, 2, 3, 7)), min_size=size, max_size=size))
    rows = [
        [Fraction(n, d) for n, d in zip(nums[k:k + cols], dens[k:k + cols])]
        for k in range(0, size, cols)
    ]
    if not rows:
        return rows
    cells = st.tuples(st.integers(0, count - 1), st.integers(0, cols - 1))
    for i, j in draw(st.lists(cells, max_size=3)):
        rows[i][j] = draw(LARGE_ENTRIES)
    for i in draw(st.lists(st.integers(0, count - 1), max_size=3)):
        kind = draw(st.sampled_from(("zero", "negated", "combination")))
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        if kind == "zero":
            rows[i] = [0] * cols
        elif kind == "negated":
            rows[i] = [-x for x in a]
        else:
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows[i] = [c * x + d * y for x, y in zip(a, b)]
    return rows


ORACLE_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestIntegerEliminationOracle:
    @ORACLE_SETTINGS
    @given(rational_matrices())
    def test_rref_rank_and_kernel_match_fraction_elimination(self, rows):
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == fraction_rref(rows)
        assert all(type(x) is Fraction for row in reduced for x in row)
        assert rational_rank(rows) == len(pivots)
        if rows:
            cols = len(rows[0])
            assert nullspace(rows, cols) == with_oracle(nullspace, rows, cols)

    @ORACLE_SETTINGS
    @given(rational_matrices(square=True))
    def test_inverse_matches_fraction_elimination(self, rows):
        try:
            expected = with_oracle(invert_matrix, rows)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                invert_matrix(rows)
        else:
            assert invert_matrix(rows) == expected


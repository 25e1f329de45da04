"""Diagonal quadric surface bundles over affine space.

The eight etale local normal forms are diagonal quadrics in projective
coordinates K, L, M, N over ``k[t_1, ..., t_n]``, each Gram coefficient a
signed monomial in the base variables.  This module constructs them and
computes their flatness certificates, discriminants, and the Gram rank on
coordinate strata.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rings import LaurentPolynomial, VariableTable, retabulate

#: Gram diagonal of each normal form: per coefficient a sign and the indices
#: of the base variables dividing it.
NORMAL_FORMS = {
    1: ((1, ()), (-1, ()), (1, ()), (-1, ())),
    2: ((1, (1,)), (-1, ()), (1, ()), (-1, ())),
    3: ((1, (1,)), (-1, (1,)), (1, ()), (-1, ())),
    4: ((1, (1, 2)), (-1, (2,)), (1, ()), (-1, ())),
    5: ((1, (1,)), (-1, ()), (1, (2,)), (-1, (2,))),
    6: ((1, (1, 2)), (-1, (1,)), (1, ()), (-1, (2,))),
    7: ((1, (1, 2, 3)), (-1, (2,)), (1, ()), (-1, (3,))),
    8: ((1, (1, 2)), (-1, (2, 3)), (1, (3,)), (-1, ())),
}

#: Smallest base dimension for which each normal form is defined.
MIN_DIMENSION = {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3}

#: Largest base dimension the command line accepts; every construction here
#: is linear in the dimension.
MAX_DIMENSION = 10**4

PROJECTIVE_NAMES = ("K", "L", "M", "N")


class NoUnitCoefficientError(Exception):
    """No Gram coefficient is a nonzero constant."""


@lru_cache(maxsize=None)
def base_table(n):
    return VariableTable(tuple("t%d" % i for i in range(1, n + 1)))


@lru_cache(maxsize=None)
def equation_table(n):
    return VariableTable(
        tuple("t%d" % i for i in range(1, n + 1)) + PROJECTIVE_NAMES
    )


@dataclass(frozen=True)
class DiagonalQuadricBundle:
    """A quadric surface bundle with diagonal Gram matrix over ``k[t_1..t_n]``."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 4:
            raise ValueError("a quadric surface needs four Gram coefficients")
        table = base_table(self.n)
        for c in self.coeffs:
            if c.table != table:
                raise ValueError("coefficients must live over k[t_1..t_%d]" % self.n)
            if c.is_zero():
                raise ValueError("Gram coefficients must be nonzero")

    def equation(self):
        """Defining biform ``sum_j coeff_j * letter_j^2`` over the extended table."""
        table = equation_table(self.n)
        total = LaurentPolynomial.zero(table)
        for coeff, letter in zip(self.coeffs, PROJECTIVE_NAMES):
            square = LaurentPolynomial.variable(table, letter) ** 2
            total = total + retabulate(coeff, table) * square
        return total


@dataclass(frozen=True)
class FlatnessCertificate:
    """Witness that the defining biform is nonzero on every fiber: a Gram
    coefficient that is a nonzero rational constant."""

    kind: str
    index: int
    value: object


def check_dimension(entry, n):
    """Raise ``ValueError`` when ``n`` is below the minimum of ``entry``."""
    minimum = MIN_DIMENSION[entry]
    if n < minimum:
        raise ValueError("entry %d needs base dimension >= %d, got %d" % (entry, minimum, n))


def normal_form(entry, n=None):
    """The ``entry``-th normal form over a base of dimension ``n``.

    ``n`` defaults to the smallest admissible dimension and must not fall
    below it.
    """
    if entry not in NORMAL_FORMS:
        raise ValueError("entry must be in 1..8, got %r" % (entry,))
    if n is None:
        n = MIN_DIMENSION[entry]
    check_dimension(entry, n)
    table = base_table(n)
    coeffs = []
    for sign, indices in NORMAL_FORMS[entry]:
        exps = {"t%d" % i: 1 for i in indices}
        coeffs.append(LaurentPolynomial.monomial(table, exps, sign))
    return DiagonalQuadricBundle(n=n, coeffs=tuple(coeffs))


def discriminant(bundle, square_class=False):
    """Product of the Gram diagonal.

    With ``square_class=True`` even exponents are dropped and the sign
    reduced, leaving the square-class representative.
    """
    product = LaurentPolynomial.one(base_table(bundle.n))
    for coeff in bundle.coeffs:
        product = product * coeff
    if not square_class:
        return product
    if not product.is_monomial():
        raise ValueError("square-class reduction needs a monomial discriminant")
    (exps, coeff), = product.terms.items()
    reduced = tuple(e % 2 for e in exps)
    sign = 1 if coeff > 0 else -1
    return LaurentPolynomial(base_table(bundle.n), {reduced: sign})


def flatness_certificate(bundle):
    """Index of a constant (hence unit) Gram coefficient.

    For a hypersurface bundle cut by a single biform, a unit diagonal
    coefficient witnesses that no fiber is all of P^3, hence flatness.
    """
    for i, coeff in enumerate(bundle.coeffs):
        if coeff.is_constant() and not coeff.is_zero():
            return FlatnessCertificate(
                kind="unit-coefficient", index=i, value=coeff.constant_value()
            )
    raise NoUnitCoefficientError(
        "no Gram coefficient is a nonzero constant: %s"
        % ", ".join(str(c) for c in bundle.coeffs)
    )


def gram_rank_on_stratum(bundle, zeroset):
    """Rank of the Gram diagonal at a generic point of ``{t_i = 0 : i in zeroset}``.

    A coefficient survives iff it does not vanish identically after setting
    the chosen base variables to zero, that is iff one of its terms has
    exponent 0 on every variable of the zeroset.
    """
    zeroset = set(zeroset)
    if not all(i in range(1, bundle.n + 1) for i in zeroset):
        raise ValueError("zeroset must be a subset of {1..%d}" % bundle.n)
    positions = [i - 1 for i in zeroset]
    return sum(
        1
        for coeff in bundle.coeffs
        if any(all(exps[p] == 0 for p in positions) for exps in coeff.terms)
    )

"""Diagonal quadric surface bundles over affine space.

The eight etale local normal forms are diagonal quadrics in projective
coordinates K, L, M, N over ``k[t_1, ..., t_m]``, m = ``MIN_DIMENSION[entry]``,
each Gram coefficient a signed monomial in the base variables; over A^n with
n > m a form is its base change (``reports.normal_form_item``).  This module
constructs them and computes their flatness certificates, discriminants, and
the Gram rank on coordinate strata.
"""

from __future__ import annotations

from collections import namedtuple
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

#: Smallest base dimension of each normal form: the largest index it uses.
MIN_DIMENSION = {
    entry: max((i for _, indices in gram for i in indices), default=0)
    for entry, gram in NORMAL_FORMS.items()
}

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


class DiagonalQuadricBundle:
    """A quadric surface bundle with diagonal Gram matrix over ``k[t_1..t_n]``,
    equal to another with the same ``n`` and ``coeffs``."""

    def __init__(self, n, coeffs):
        if len(coeffs) != 4:
            raise ValueError("a quadric surface needs four Gram coefficients")
        table = base_table(n)
        for c in coeffs:
            if c.table != table:
                raise ValueError("coefficients must live over k[t_1..t_%d]" % n)
            if c.is_zero():
                raise ValueError("Gram coefficients must be nonzero")
        self.n = n
        self.coeffs = coeffs

    def __eq__(self, other):
        if type(other) is not DiagonalQuadricBundle:
            return NotImplemented
        return (self.n, self.coeffs) == (other.n, other.coeffs)

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def equation(self):
        """Defining biform ``sum_j coeff_j * letter_j^2`` over the extended table."""
        table = equation_table(self.n)
        total = LaurentPolynomial.zero(table)
        for coeff, letter in zip(self.coeffs, PROJECTIVE_NAMES):
            square = LaurentPolynomial.variable(table, letter) ** 2
            total = total + retabulate(coeff, table) * square
        return total


#: Witness that the defining biform is nonzero on every fiber: the Gram
#: coefficient at ``index`` is the nonzero rational constant ``value``.
FlatnessCertificate = namedtuple("FlatnessCertificate", "kind index value")


def normal_form(entry):
    """The ``entry``-th normal form over its minimal base A^m,
    m = ``MIN_DIMENSION[entry]``."""
    if entry not in NORMAL_FORMS:
        raise ValueError("entry must be in 1..8, got %r" % (entry,))
    n = MIN_DIMENSION[entry]
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

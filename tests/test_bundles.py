import itertools
from fractions import Fraction

import pytest

from quadricbundles import reports
from quadricbundles.bundles import (
    MIN_DIMENSION,
    NoUnitCoefficientError,
    DiagonalQuadricBundle,
    base_table,
    NORMAL_FORMS,
    discriminant,
    equation_table,
    flatness_certificate,
    gram_rank_on_stratum,
    normal_form,
)
from quadricbundles.rings import LaurentPolynomial, RingHomomorphism, parse

# recomputed with the product oracle below before freezing
EXPECTED_DISCRIMINANTS = {
    1: "1",
    2: "t1",
    3: "t1^2",
    4: "t1*t2^2",
    5: "t1*t2^2",
    6: "t1^2*t2^2",
    7: "t1*t2^2*t3^2",
    8: "t1*t2^2*t3^2",
}

EXPECTED_SQUARE_CLASSES = {
    1: "1",
    2: "t1",
    3: "1",
    4: "t1",
    5: "t1",
    6: "1",
    7: "t1",
    8: "t1",
}


def wide_normal_form(entry, n):
    """The ``entry``-th normal form built over all of ``k[t_1..t_n]``: the
    reference for the base-change lemma of ``reports.normal_form_item``."""
    table = base_table(n)
    coeffs = tuple(
        LaurentPolynomial.monomial(table, {"t%d" % i: 1 for i in indices}, sign)
        for sign, indices in NORMAL_FORMS[entry]
    )
    return DiagonalQuadricBundle(n=n, coeffs=coeffs)


def wide_item(entry, n):
    """The report item read off the bundle over ``k[t_1..t_n]``."""
    bundle = wide_normal_form(entry, n)
    certificate = flatness_certificate(bundle)
    present = sorted({int(name[1:]) for c in bundle.coeffs for name in c.variables()})
    return {
        "entry": entry,
        "dim": bundle.n,
        "equation": str(bundle.equation()),
        "coefficients": [str(c) for c in bundle.coeffs],
        "discriminant": str(discriminant(bundle)),
        "discriminant_square_class": str(discriminant(bundle, square_class=True)),
        "certificate": {
            "kind": certificate.kind,
            "index": certificate.index,
            "value": str(certificate.value),
        },
        "strata": [
            {"zeroset": list(zeroset), "rank": gram_rank_on_stratum(bundle, set(zeroset))}
            for size in range(len(present) + 1)
            for zeroset in itertools.combinations(present, size)
        ],
    }


def product_oracle(bundle):
    out = LaurentPolynomial.one(base_table(bundle.n))
    for c in bundle.coeffs:
        out = out * c
    return out


def collapse_rank_oracle(bundle, zeroset):
    """Gram rank by substituting 0 for the zeroset variables."""
    table = base_table(bundle.n)
    images = {
        name: LaurentPolynomial.zero(table)
        if int(name[1:]) in zeroset
        else LaurentPolynomial.variable(table, name)
        for name in table.names
    }
    collapse = RingHomomorphism(table, table, images)
    return sum(1 for coeff in bundle.coeffs if not collapse(coeff).is_zero())


def embed_equation_oracle(bundle):
    """Defining biform, with the coefficients moved by an embedding."""
    table = equation_table(bundle.n)
    source = base_table(bundle.n)
    embed = RingHomomorphism(
        source,
        table,
        {name: LaurentPolynomial.variable(table, name) for name in source.names},
    )
    total = LaurentPolynomial.zero(table)
    for coeff, letter in zip(bundle.coeffs, ("K", "L", "M", "N")):
        total = total + embed(coeff) * LaurentPolynomial.variable(table, letter) ** 2
    return total


def entry_dimensions():
    return [
        (entry, n)
        for entry in sorted(NORMAL_FORMS)
        for n in range(MIN_DIMENSION[entry], MIN_DIMENSION[entry] + 4)
    ]


class TestAgainstHomomorphismOracles:
    @pytest.mark.parametrize("entry,n", entry_dimensions())
    def test_equation(self, entry, n):
        bundle = wide_normal_form(entry, n)
        assert bundle.equation() == embed_equation_oracle(bundle)

    @pytest.mark.parametrize("entry,n", entry_dimensions())
    def test_rank_on_every_stratum(self, entry, n):
        bundle = wide_normal_form(entry, n)
        indices = range(1, n + 1)
        for size in range(n + 1):
            for zeroset in itertools.combinations(indices, size):
                assert gram_rank_on_stratum(bundle, set(zeroset)) == (
                    collapse_rank_oracle(bundle, set(zeroset))
                )


class TestConstruction:
    def test_entry_1(self):
        b = normal_form(1)
        assert [c.constant_value() for c in b.coeffs] == [1, -1, 1, -1]

    def test_entry_7(self):
        b = normal_form(7)
        t = base_table(3)
        assert b.coeffs == (
            parse("t1*t2*t3", t),
            parse("-t2", t),
            parse("1", t),
            parse("-t3", t),
        )

    def test_entry_2_equation(self):
        eq = normal_form(2).equation()
        expected = parse("t1*K^2 - L^2 + M^2 - N^2", eq.table)
        assert eq == expected

    @pytest.mark.parametrize("entry", range(1, 9))
    def test_minimal_dimension_enforced(self, entry):
        minimum = MIN_DIMENSION[entry]
        assert normal_form(entry).n == minimum
        assert reports.normal_form_item(entry)["dim"] == minimum
        if minimum > 0:
            # t_m is no variable of k[t_1..t_{m-1}]
            with pytest.raises(KeyError):
                wide_normal_form(entry, minimum - 1)

    def test_entry_4_needs_two_variables(self):
        with pytest.raises(KeyError):
            wide_normal_form(4, 1)
        assert normal_form(4).coeffs[0] == parse("t1*t2", base_table(2))

    def test_larger_base_allowed(self):
        b = wide_normal_form(2, 5)
        assert b.n == 5
        assert b.coeffs[0] == parse("t1", base_table(5))

    def test_equal_bundles_hash_equal(self):
        for entry in range(1, 9):
            built, wide = normal_form(entry), wide_normal_form(entry, MIN_DIMENSION[entry])
            assert built is not wide and built == wide and hash(built) == hash(wide)
            assert {built: True}[wide]
        assert normal_form(2) != normal_form(3)
        assert wide_normal_form(2, 1) != wide_normal_form(2, 2)
        assert normal_form(1) != normal_form(1).coeffs

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            normal_form(0)
        with pytest.raises(ValueError):
            normal_form(9)


class TestBaseChange:
    """``normal_form_item`` builds the form at its minimal dimension m; the
    report over A^n, n >= m, is that item with ``dim`` n, so every other field
    must be what the bundle over ``k[t_1..t_n]`` gives."""

    @pytest.mark.parametrize("entry", sorted(NORMAL_FORMS))
    def test_minimal_dimension_is_the_largest_index(self, entry):
        # the premise of the lemma: the form built at m uses t_m and no
        # variable past it
        bundle = normal_form(entry)
        used = {int(name[1:]) for c in bundle.coeffs for name in c.variables()}
        assert bundle.n == MIN_DIMENSION[entry] == max(used, default=0)

    @pytest.mark.parametrize("entry", sorted(NORMAL_FORMS))
    def test_item_equals_the_wide_bundle(self, entry):
        m = MIN_DIMENSION[entry]
        item = reports.normal_form_item(entry)
        for n in [*range(m, m + 4), 100, 1000]:
            assert {**item, "dim": n} == wide_item(entry, n)

    def test_item_at_ten_thousand_variables(self):
        assert {**reports.normal_form_item(8), "dim": 10**4} == wide_item(8, 10**4)


class TestDiscriminant:
    @pytest.mark.parametrize("entry", range(1, 9))
    def test_matches_product_oracle(self, entry):
        b = normal_form(entry)
        d = discriminant(b)
        assert d == product_oracle(b)
        assert d == parse(EXPECTED_DISCRIMINANTS[entry], base_table(b.n))

    @pytest.mark.parametrize("entry", range(1, 9))
    def test_square_class(self, entry):
        b = normal_form(entry)
        assert discriminant(b, square_class=True) == parse(
            EXPECTED_SQUARE_CLASSES[entry], base_table(b.n)
        )

    @pytest.mark.parametrize("entry", range(1, 9))
    def test_is_signed_monomial_supported_on_entry_variables(self, entry):
        b = normal_form(entry)
        d = discriminant(b)
        assert d.is_monomial()
        assert d.leading_term()[1] in (Fraction(1), Fraction(-1))
        support = set()
        for c in b.coeffs:
            support |= c.variables()
        assert d.variables() == support


class TestFlatness:
    @pytest.mark.parametrize("entry", range(1, 9))
    def test_every_entry_has_unit_coefficient(self, entry):
        cert = flatness_certificate(normal_form(entry))
        assert cert.kind == "unit-coefficient"
        assert abs(cert.value) == 1

    def test_entry_1_index(self):
        assert flatness_certificate(normal_form(1)).index == 0

    def test_entry_7_index(self):
        assert flatness_certificate(normal_form(7)).index == 2

    def test_degenerate_bundle_rejected(self):
        t = base_table(1)
        t1 = parse("t1", t)
        bad = DiagonalQuadricBundle(n=1, coeffs=(t1, t1, t1, t1))
        with pytest.raises(NoUnitCoefficientError):
            flatness_certificate(bad)


class TestGramRank:
    def test_examples(self):
        assert gram_rank_on_stratum(normal_form(2), {1}) == 3
        assert gram_rank_on_stratum(normal_form(4), {2}) == 2
        for entry in range(1, 9):
            assert gram_rank_on_stratum(normal_form(entry), set()) == 4

    @pytest.mark.parametrize("entry", range(1, 9))
    def test_monotone_in_zeroset(self, entry):
        b = normal_form(entry)
        variables = sorted(range(1, b.n + 1))
        for size in range(len(variables) + 1):
            for zeroset in itertools.combinations(variables, size):
                rank = gram_rank_on_stratum(b, set(zeroset))
                for extra in variables:
                    if extra not in zeroset:
                        bigger = set(zeroset) | {extra}
                        assert gram_rank_on_stratum(b, bigger) <= rank

    @pytest.mark.parametrize("entry", range(2, 9))
    def test_singleton_ranks(self, entry):
        b = normal_form(entry)
        present = set()
        for c in b.coeffs:
            present |= c.variables()
        for name in present:
            index = int(name[1:])
            assert gram_rank_on_stratum(b, {index}) in (2, 3)

    def test_zeroset_validation(self):
        with pytest.raises(ValueError):
            gram_rank_on_stratum(normal_form(2), {5})

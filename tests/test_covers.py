import random
from fractions import Fraction
from itertools import product

import pytest

from quadricbundles import covers, reports
from quadricbundles.bundles import normal_form
from quadricbundles.covers import (
    LETTERS,
    CoverMap,
    FactorizationError,
    GeneratorSigns,
    base_quadric,
    cover_map,
    cover_table,
    generic_fiber_inverse,
    infer_sign_action,
    inverse_table,
    pullback_factorization,
    _generator_substitution,
    verify_projective_equivariance,
)
from quadricbundles.rings import (
    LaurentPolynomial,
    RingHomomorphism,
    TableMismatchError,
    parse,
)


def trivial_cover():
    """The trivial cover (entry 1): no doubled coordinates, letters fixed."""
    table = cover_table(0)
    return CoverMap(
        entry=1,
        m=0,
        base_images=(),
        proj_images=tuple(
            LaurentPolynomial.variable(table, x) for x in ("A", "B", "C", "D")
        ),
    )


def substitution_oracle(cover, gen, letter_signs):
    """Reference sign action: a substitution with an image for every variable."""
    table = cover.table
    images = {name: LaurentPolynomial.variable(table, name) for name in table.names}
    images["s%d" % gen] = -LaurentPolynomial.variable(table, "s%d" % gen)
    for letter, sign in zip(LETTERS, letter_signs):
        images[letter] = sign * LaurentPolynomial.variable(table, letter)
    return RingHomomorphism(table, table, images)


def random_poly(rng, table, nterms=6, max_exp=3):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_exp) for _ in table.names)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return LaurentPolynomial(table, terms)


# monomial factors recomputed by the substitution + exact-division oracle
EXPECTED_FACTORS = {
    2: "s1^2",
    3: "s1^2",
    4: "s1^2*s2^2",
    5: "s1^2*s2^2",
    6: "s1^2*s2^2",
    7: "s1^2*s2^2*s3^2",
    8: "s1^2*s2^2*s3^2",
}

# solved by hand from the sign system for each generator
EXPECTED_SIGNS = {
    2: {1: (-1, 1, 1, 1)},
    3: {1: (1, 1, -1, -1)},
    4: {1: (-1, 1, 1, 1), 2: (1, 1, -1, -1)},
    5: {1: (-1, 1, 1, 1), 2: (1, 1, -1, -1)},
    6: {1: (1, 1, -1, -1), 2: (1, -1, -1, 1)},
    7: {1: (-1, 1, 1, 1), 2: (1, 1, -1, -1), 3: (1, -1, -1, 1)},
    8: {1: (-1, 1, 1, 1), 2: (1, 1, -1, -1), 3: (1, -1, -1, 1)},
}


class TestConstruction:
    def test_entry_2_images(self):
        cm = cover_map(2)
        t = cm.table
        assert cm.proj_images == (
            parse("A", t),
            parse("s1*B", t),
            parse("s1*C", t),
            parse("s1*D", t),
        )
        assert cm.base_images == (parse("s1^2", t),)

    def test_entry_6_images(self):
        cm = cover_map(6)
        t = cm.table
        assert cm.proj_images == (
            parse("A", t),
            parse("s2*B", t),
            parse("s1*s2*C", t),
            parse("s1*D", t),
        )

    def test_entry_8_images(self):
        cm = cover_map(8)
        t = cm.table
        assert cm.proj_images == (
            parse("s3*A", t),
            parse("s1*B", t),
            parse("s1*s2*C", t),
            parse("s1*s2*s3*D", t),
        )

    def test_entry_1_has_no_cover(self):
        with pytest.raises(ValueError):
            cover_map(1)

    @pytest.mark.parametrize(
        "entry,m", [(2, 1), (3, 1), (4, 2), (5, 2), (6, 2), (7, 3), (8, 3)]
    )
    def test_number_of_doubled_coordinates(self, entry, m):
        assert cover_map(entry).m == m

    @pytest.mark.parametrize("entry", range(2, 9))
    def test_generator_count_matches_entry_variables(self, entry):
        cm = cover_map(entry)
        b = normal_form(entry)
        present = set()
        for c in b.coeffs:
            present |= c.variables()
        assert cm.m == len(present)


class TestPullback:
    @pytest.mark.parametrize("entry", range(2, 9))
    def test_factorization(self, entry):
        cm = cover_map(entry)
        monomial, residual = pullback_factorization(cm)
        assert monomial == parse(EXPECTED_FACTORS[entry], cm.table)
        assert residual == base_quadric(cm.table)

    def test_base_quadric_is_built_once_per_table(self):
        table = cover_map(4).table
        assert base_quadric(table) is base_quadric(table)
        assert base_quadric(table) == parse("A^2 - B^2 + C^2 - D^2", table)

    def test_mismatched_bundle_fails(self):
        # the map of entry 2 read as a map onto the bundle of entry 3
        with pytest.raises(FactorizationError):
            pullback_factorization(cover_map(2)._replace(entry=3))

    def test_corrupted_map_fails(self):
        good = cover_map(2)
        t = good.table
        bad = CoverMap(
            entry=2,
            m=1,
            base_images=good.base_images,
            proj_images=(parse("A", t), parse("s1*B", t), parse("C", t), parse("s1*D", t)),
        )
        with pytest.raises(FactorizationError):
            pullback_factorization(bad)


class TestSignAction:
    @pytest.mark.parametrize("entry", range(2, 9))
    def test_inferred_signs(self, entry):
        got = {g.s_index: g.letter_signs for g in infer_sign_action(cover_map(entry))}
        assert got == EXPECTED_SIGNS[entry]

    def test_entry_2_flips_only_a(self):
        (gen,) = infer_sign_action(cover_map(2))
        assert gen.letter_signs == (-1, 1, 1, 1)
        assert gen.rescale == -1

    def test_entry_3_fixes_a_and_b(self):
        (gen,) = infer_sign_action(cover_map(3))
        assert gen.letter_signs == (1, 1, -1, -1)
        assert gen.rescale == 1

    def test_identity_map_gives_trivial_character(self):
        assert infer_sign_action(trivial_cover()) == ()

    @pytest.mark.parametrize("entry", range(2, 9))
    def test_signs_solve_the_rescaling_system(self, entry):
        cm = cover_map(entry)
        for gen in infer_sign_action(cm):
            idx = cm.table.index("s%d" % gen.s_index)
            for sign, img in zip(gen.letter_signs, cm.proj_images):
                (exps, _), = img.terms.items()
                parity = -1 if exps[idx] % 2 else 1
                assert sign * parity == gen.rescale


class TestEquivariance:
    @pytest.mark.parametrize("entry", range(2, 9))
    def test_all_generators_pass(self, entry):
        cm = cover_map(entry)
        report = verify_projective_equivariance(cm, infer_sign_action(cm))
        assert report.passed
        assert len(report.generator_factors) == cm.m
        for factor in report.generator_factors:
            assert factor is not None and factor.is_constant()
            assert abs(factor.constant_value()) == 1

    def test_entry_2_factor(self):
        cm = cover_map(2)
        report = verify_projective_equivariance(cm, infer_sign_action(cm))
        assert report.generator_factors[0] == parse("-1", cm.table)

    def test_corrupted_character_fails(self):
        cm = cover_map(4)
        first, *rest = infer_sign_action(cm)
        bad_first = GeneratorSigns(
            s_index=1,
            letter_signs=(1,) + first.letter_signs[1:],
            rescale=first.rescale,
        )
        bad = (bad_first, *rest)
        report = verify_projective_equivariance(cm, bad)
        assert not report.passed
        assert report.failures


class TestGeneratorSubstitution:
    @pytest.mark.parametrize("entry", range(2, 9))
    def test_term_signs_match_substitution_oracle(self, entry):
        rng = random.Random(entry)
        cm = cover_map(entry)
        for gen in range(1, cm.m + 1):
            for signs in product((1, -1), repeat=4):
                act = _generator_substitution(cm, gen, signs)
                oracle = substitution_oracle(cm, gen, signs)
                for _ in range(4):
                    poly = random_poly(rng, cm.table)
                    assert act(poly) == oracle(poly)

    def test_rejects_other_tables_and_signs(self):
        cm = cover_map(4)
        act = _generator_substitution(cm, 1, (1, 1, -1, -1))
        with pytest.raises(TableMismatchError):
            act(parse("s1", cover_table(3)))
        with pytest.raises(ValueError):
            _generator_substitution(cm, 1, (1, 2, 1, 1))


class TestInverse:
    def test_entry_2_inverse(self):
        inv = generic_fiber_inverse(cover_map(2))
        t = inverse_table(1)
        assert inv.images == (
            parse("K", t),
            parse("s1^-1*L", t),
            parse("s1^-1*M", t),
            parse("s1^-1*N", t),
        )
        assert inv.verified

    def test_entry_8_inverse(self):
        inv = generic_fiber_inverse(cover_map(8))
        t = inverse_table(3)
        assert inv.images == (
            parse("s3^-1*K", t),
            parse("s1^-1*L", t),
            parse("s1^-1*s2^-1*M", t),
            parse("s1^-1*s2^-1*s3^-1*N", t),
        )
        assert inv.verified

    def test_identity_inverse(self):
        inv = generic_fiber_inverse(trivial_cover())
        t = inverse_table(0)
        assert inv.images == (parse("K", t), parse("L", t), parse("M", t), parse("N", t))
        assert inv.verified

    @pytest.mark.parametrize("entry", range(2, 9))
    def test_composition_is_projective_identity(self, entry):
        cm = cover_map(entry)
        inv = generic_fiber_inverse(cm)
        assert inv.verified
        localized = cover_table(cm.m, localized=True)
        assert inv.composition == tuple(
            parse(x, localized) for x in ("A", "B", "C", "D")
        )


class TestSuiteStatus:
    """A section5 item whose equivariance or inverse check fails fails the
    suite, though the item is still reported in full."""

    @pytest.mark.parametrize(
        "check,field",
        [("verify_projective_equivariance", "passed"), ("generic_fiber_inverse", "verified")],
    )
    def test_a_failed_check_fails_the_suite(self, check, field, monkeypatch):
        real = getattr(covers, check)
        monkeypatch.setattr(covers, check, lambda *args: real(*args)._replace(**{field: False}))
        report = reports.run_section5(entry=4)
        assert report["status"] == "fail"
        assert "error" not in report["items"][0]

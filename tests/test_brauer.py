import json
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadricbundles import brauer, reports
from quadricbundles.brauer import (
    MILLER_RABIN_LIMIT,
    REAL,
    SEARCH_PRIME_LIMIT,
    TRIAL_DIVISION_LIMIT,
    DescentReport,
    FactorizationBoundError,
    Place,
    QuaternionClass,
    RationalQuadraticForm,
    _factor,
    _is_prime,
    _solubility_search,
    _trial_divisors,
    albert_form,
    corestriction_projection,
    form_invariants,
    forms_equivalent,
    forms_similar,
    hasse_invariant,
    hilbert_symbol,
    hilbert_symbol_search,
    is_isotropic,
    is_local_square,
    prime_support,
    quaternion_is_split,
    relevant_places,
    res_cor_doubling_check,
    splits_over_quadratic,
    squarefree_part,
    verify_quaternion_descent_instance,
)

ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)


def random_rational(rng, bound=40, max_den=8):
    num = rng.randint(-bound, bound)
    while num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, max_den))


def pairwise_hasse(form, place):
    """Hasse invariant as the product of one Hilbert symbol per pair i < j."""
    result = 1
    diag = form.diag
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            result *= hilbert_symbol(diag[i], diag[j], place)
    return result


def isometric_by_pairwise(f, g):
    """Isometry over Q from dimension, discriminant, signature and the
    pairwise Hasse invariants at every place where either can be -1."""
    return (f.dim, f.disc, f.signature) == (g.dim, g.disc, g.signature) and all(
        pairwise_hasse(f, v) == pairwise_hasse(g, v) for v in relevant_places(f.diag + g.diag)
    )


def locally_isotropic(inv, place, epsilon):
    """Isotropy at ``place`` of a form of dimension 3 or 4 with invariants
    ``inv`` and Hasse invariant ``epsilon`` there."""
    if place.is_real:
        pos, neg = inv.signature
        return pos > 0 and neg > 0
    if inv.dim == 3:
        return hilbert_symbol(-1, -inv.disc, place) == epsilon
    return not is_local_square(inv.disc, place) or epsilon == hilbert_symbol(-1, -1, place)


def isotropic(form):
    """Isotropy over Q in every dimension: ``is_isotropic`` from dimension 5
    on, and below it the local-global principle, checked at the real place and
    the primes dividing the entries (elsewhere the local conditions hold)."""
    n = form.dim
    if n >= 5:
        return is_isotropic(form)
    if n == 1:
        return False
    if n == 2:
        return form.disc == -1
    inv = form_invariants(form)
    return all(locally_isotropic(inv, place, epsilon) for place, epsilon in inv.hasse)


def previous_locally_isotropic(form, place):
    """Local isotropy as first written: every invariant recomputed at each
    place, with branches for every dimension."""
    inv = form_invariants(form)
    n = form.dim
    if place.is_real:
        pos, neg = inv.signature
        return pos > 0 and neg > 0
    if n >= 5:
        return True
    epsilon = pairwise_hasse(form, place)
    d = inv.disc
    if n == 3:
        return hilbert_symbol(-1, -d, place) == epsilon
    if n == 4:
        if not is_local_square(d, place):
            return True
        return epsilon == hilbert_symbol(-1, -1, place)
    if n == 2:
        return is_local_square(-d, place)
    return False


def previous_is_isotropic(form):
    """Oracle for ``isotropic``: the version built on
    ``previous_locally_isotropic``."""
    n = form.dim
    if n == 1:
        return False
    inv = form_invariants(form)
    pos, neg = inv.signature
    if n >= 5:
        return pos > 0 and neg > 0
    if n == 2:
        return inv.disc == -1
    return all(previous_locally_isotropic(form, v) for v in relevant_places(form.diag))


class TestSquareClasses:
    def test_squarefree_part(self):
        assert squarefree_part(12) == 3
        assert squarefree_part(-18) == -2
        assert squarefree_part(Fraction(4, 9)) == 1
        assert squarefree_part(Fraction(2, 3)) == 6

    def test_local_squares(self):
        assert is_local_square(17, Place.prime(2))       # 17 = 1 mod 8
        assert not is_local_square(-1, Place.prime(2))   # -1 = 7 mod 8
        assert not is_local_square(-1, REAL)
        assert is_local_square(2, Place.prime(7))        # 2 = 3^2 mod 7
        assert not is_local_square(3, Place.prime(3))


class TestHilbertSymbol:
    def test_pinned_values(self):
        assert hilbert_symbol(-1, -1, Place.prime(2)) == -1
        assert hilbert_symbol(-1, -1, REAL) == -1
        assert hilbert_symbol(2, 3, Place.prime(3)) == -1
        assert hilbert_symbol(1, 5, Place.prime(5)) == 1

    def test_oracle_agrees_on_pinned_values(self):
        assert hilbert_symbol_search(-1, -1, Place.prime(2)) == -1
        assert hilbert_symbol_search(-1, -1, REAL) == -1
        assert hilbert_symbol_search(2, 3, Place.prime(3)) == -1
        assert hilbert_symbol_search(2, -1, Place.prime(2)) == 1

    def test_formula_matches_search_oracle(self):
        rng = random.Random(41)
        for _ in range(150):
            a = random_rational(rng)
            b = random_rational(rng)
            place = rng.choice((REAL,) + tuple(Place.prime(p) for p in ORACLE_PRIMES))
            assert hilbert_symbol(a, b, place) == hilbert_symbol_search(a, b, place), (
                a,
                b,
                str(place),
            )

    def test_symmetry_and_square_class_invariance(self):
        rng = random.Random(42)
        for _ in range(100):
            a = random_rational(rng)
            b = random_rational(rng)
            place = rng.choice([REAL] + [Place.prime(p) for p in (2, 3, 5, 7)])
            assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
            assert hilbert_symbol(a * 4, b * Fraction(1, 9), place) == hilbert_symbol(
                a, b, place
            )

    def test_bimultiplicativity(self):
        rng = random.Random(43)
        for _ in range(100):
            a1 = random_rational(rng)
            a2 = random_rational(rng)
            b = random_rational(rng)
            place = rng.choice([REAL] + [Place.prime(p) for p in (2, 3, 5, 7, 11)])
            assert hilbert_symbol(a1 * a2, b, place) == hilbert_symbol(
                a1, b, place
            ) * hilbert_symbol(a2, b, place)

    def test_global_product_formula(self):
        rng = random.Random(44)
        for _ in range(100):
            a = random_rational(rng)
            b = random_rational(rng)
            product = 1
            for place in relevant_places([a, b]):
                product *= hilbert_symbol(a, b, place)
            assert product == 1

    def test_trivial_outside_relevant_places(self):
        assert hilbert_symbol(3, 5, Place.prime(7)) == 1
        assert hilbert_symbol(-7, 11, Place.prime(13)) == 1

    def test_zero_arguments_rejected(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 3, REAL)


class TestQuaternions:
    def test_split_when_first_slot_square(self):
        split, ramified = quaternion_is_split(QuaternionClass(1, 7))
        assert split and ramified == []

    def test_hamilton_quaternions(self):
        split, ramified = quaternion_is_split(QuaternionClass(-1, -1))
        assert not split
        assert ramified == [REAL, Place.prime(2)]

    def test_ramification_has_even_size(self):
        rng = random.Random(45)
        for _ in range(60):
            q = QuaternionClass(random_rational(rng), random_rational(rng))
            _, ramified = quaternion_is_split(q)
            assert len(ramified) % 2 == 0

    def test_split_iff_norm_form_isotropic(self):
        rng = random.Random(46)
        for _ in range(60):
            a = random_rational(rng)
            b = random_rational(rng)
            split, _ = quaternion_is_split(QuaternionClass(a, b))
            form = RationalQuadraticForm((a, b, Fraction(-1)))
            assert split == isotropic(form)

    def test_splits_over_quadratic(self):
        assert splits_over_quadratic(QuaternionClass(1, 5), 2)
        assert splits_over_quadratic(QuaternionClass(-1, -1), -1)
        assert not splits_over_quadratic(QuaternionClass(-1, -1), 17)

    def test_restriction_criterion_matches_direct_symbols(self):
        # restriction keeps the local invariant exactly where the local degree
        # is 1, i.e. where sqrt(d) already lives in the completion
        rng = random.Random(47)
        ds = [-1, 2, 3, 5, -2, -5, 17, 6]
        for _ in range(40):
            q = QuaternionClass(random_rational(rng), random_rational(rng))
            d = rng.choice(ds)
            expected = all(
                hilbert_symbol(q.a, q.b, v) == 1
                for v in relevant_places([q.a, q.b, d])
                if is_local_square(d, v)
            )
            assert splits_over_quadratic(q, d) == expected

    def test_corestriction_examples(self):
        assert corestriction_projection(-1, (0, 1), 2) == QuaternionClass(-1, -2)
        assert corestriction_projection(3, (1, 1), 2) == QuaternionClass(3, -1)
        split, _ = quaternion_is_split(corestriction_projection(5, (1, 0), 3))
        assert split

    def test_corestriction_rejects_zero(self):
        with pytest.raises(ValueError):
            corestriction_projection(3, (0, 0), 2)

    def test_res_cor_doubling(self):
        assert res_cor_doubling_check(QuaternionClass(-1, -1), 5)
        assert res_cor_doubling_check(QuaternionClass(2, 3), -1)
        assert res_cor_doubling_check(QuaternionClass(1, 7), 2)
        rng = random.Random(48)
        for _ in range(50):
            beta = QuaternionClass(random_rational(rng), random_rational(rng))
            d = squarefree_part(random_rational(rng))
            if d == 1:
                continue
            assert res_cor_doubling_check(beta, d)


class TestForms:
    def test_invariants_of_descent_form(self):
        p, q, r, d = 3, 5, 7, 2
        form = RationalQuadraticForm(
            (1, -d, -p, q, r, squarefree_part(-d * p * q * r))
        )
        inv = form_invariants(form)
        assert inv.dim == 6
        assert inv.disc == -1

    def test_trivial_invariants(self):
        inv = form_invariants(RationalQuadraticForm((1, 1)))
        assert inv.disc == 1
        assert inv.signature == (2, 0)
        assert all(h == 1 for _, h in inv.hasse)

    def test_disc_is_the_square_class_of_the_entry_product(self):
        rng = random.Random(65)
        for _ in range(300):
            diag = tuple(random_rational(rng) for _ in range(rng.randint(1, 6)))
            assert RationalQuadraticForm(diag).disc == squarefree_part(math.prod(diag))

    def test_hyperbolic_plane(self):
        form = RationalQuadraticForm((1, -1))
        assert form_invariants(form).disc == -1
        assert isotropic(form)

    def test_isotropy_examples(self):
        assert isotropic(RationalQuadraticForm((1, 1, -2)))       # (1,1,1)
        assert not isotropic(RationalQuadraticForm((1, 1, 1)))
        assert is_isotropic(RationalQuadraticForm((1, 1, 1, 1, -7)))
        assert not is_isotropic(RationalQuadraticForm((1, 1, 1, 1, 7)))
        assert not isotropic(RationalQuadraticForm((1,)))
        assert not isotropic(RationalQuadraticForm((2, 3)))
        assert isotropic(RationalQuadraticForm((2, -8)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_isotropy_below_dimension_five_is_refused(self, dim):
        with pytest.raises(ValueError, match="dimension >= 5"):
            is_isotropic(RationalQuadraticForm((1, -1, 1, -1)[:dim]))

    def test_isotropy_against_small_witness_search(self):
        rng = random.Random(49)
        box = range(-6, 7)
        for _ in range(60):
            dim = rng.choice((2, 3))
            form = RationalQuadraticForm(
                tuple(rng.choice([x for x in range(-9, 10) if x]) for _ in range(dim))
            )
            witness = None
            if dim == 2:
                candidates = ((x, y) for x in box for y in box)
            else:
                candidates = ((x, y, z) for x in box for y in box for z in box)
            for vec in candidates:
                if any(vec) and sum(c * v * v for c, v in zip(form.diag, vec)) == 0:
                    witness = vec
                    break
            if witness is not None:
                assert isotropic(form), (form, witness)

    def test_isotropy_matches_the_previous_version(self):
        rng = random.Random(52)
        outcomes = {dim: set() for dim in range(1, 7)}
        for _ in range(3000):
            dim = rng.randint(1, 6)
            form = RationalQuadraticForm(tuple(random_rational(rng) for _ in range(dim)))
            verdict = isotropic(form)
            assert verdict == previous_is_isotropic(form), form
            outcomes[dim].add(verdict)
        # both answers occur in every dimension that admits both
        assert outcomes[1] == {False}
        assert all(outcomes[dim] == {False, True} for dim in range(2, 7))

    def test_anisotropic_four_dimensional(self):
        # the norm form of the Hamilton quaternions
        assert not isotropic(RationalQuadraticForm((1, 1, 1, 1)))
        assert isotropic(RationalQuadraticForm((1, 1, 1, -1)))

    def test_similarity_reflexive(self):
        form = RationalQuadraticForm((1, -2, 3))
        similar, c = forms_similar(form, form)
        assert similar and c == 1

    def test_scaled_hyperbolic(self):
        similar, c = forms_similar(
            RationalQuadraticForm((1, -1)), RationalQuadraticForm((2, -2))
        )
        assert similar and c in (1, 2, -1, -2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forms_similar(RationalQuadraticForm((1,)), RationalQuadraticForm((1, 2)))

    def test_similarity_is_equivalence_relation(self):
        rng = random.Random(50)
        pool = [1, -1, 2, -2, 3, -3, 5, 6, -6]
        forms = [
            RationalQuadraticForm(tuple(rng.choice(pool) for _ in range(3)))
            for _ in range(8)
        ]
        for f in forms:
            assert forms_similar(f, f)[0]
        for f in forms:
            for g in forms:
                fg = forms_similar(f, g)[0]
                assert fg == forms_similar(g, f)[0]
                if fg:
                    for h in forms:
                        if forms_similar(g, h)[0]:
                            assert forms_similar(f, h)[0]

    def test_similar_forms_share_even_dim_discriminant(self):
        rng = random.Random(51)
        pool = [1, -1, 2, -2, 3, 5]
        for _ in range(25):
            f = RationalQuadraticForm(tuple(rng.choice(pool) for _ in range(4)))
            g = RationalQuadraticForm(tuple(rng.choice(pool) for _ in range(4)))
            if forms_similar(f, g)[0]:
                assert form_invariants(f).disc == form_invariants(g).disc


#: Real, 2, a prime 1 mod 4, a prime 3 mod 4, and one past 10.
HASSE_PLACES = (REAL,) + tuple(Place.prime(p) for p in (2, 5, 7, 11))


def local_entry(rng, ell):
    """A signed fraction whose ell-adic valuation is -3..3, both parts of
    its unit drawn from 1..40 prime to ell."""
    units = [x for x in range(1, 41) if x % ell]
    power = ell ** rng.randint(0, 3)
    num, den = rng.choice((1, -1)) * rng.choice(units), rng.choice(units)
    return Fraction(num * power, den) if rng.random() < 0.5 else Fraction(num, den * power)


class TestHasseClosedForm:
    def test_matches_pairwise_product(self):
        rng = random.Random(70)
        seen = {(v, dim): set() for v in HASSE_PLACES for dim in range(2, 8)}
        for _ in range(2500):
            place = rng.choice(HASSE_PLACES)
            ell = rng.choice((2, 5, 7, 11)) if place.is_real else place.p
            dim = rng.randint(1, 7)
            form = RationalQuadraticForm(tuple(local_entry(rng, ell) for _ in range(dim)))
            expected = pairwise_hasse(form, place)
            assert hasse_invariant(form, place) == expected, (str(form), str(place))
            if dim > 1:
                seen[place, dim].add(expected)
        assert hasse_invariant(RationalQuadraticForm((-3,)), REAL) == 1
        # every place and dimension >= 2 meets both values
        assert all(values == {1, -1} for values in seen.values())

    @pytest.mark.parametrize(
        "diag, place, expected",
        [
            # odd p: C(A, 2) = 1 pair of odd valuations, eps(3) = 1
            ((3, 3), Place.prime(3), -1),
            # odd p: u_i meets the A - a_i other entries of odd valuation, not A
            ((10, 3), Place.prime(5), -1),
            ((10, 5), Place.prime(5), -1),
            # p = 2: C(E, 2) from units 3 mod 4, omega(u_i) met A - a_i times
            ((3, 7), Place.prime(2), -1),
            ((-1, -1, -1), Place.prime(2), -1),
            ((6, 5), Place.prime(2), -1),
            ((-1, -1, -1), REAL, -1),
            ((-1, -1), REAL, -1),
        ],
    )
    def test_each_term_of_the_closed_form(self, diag, place, expected):
        form = RationalQuadraticForm(diag)
        assert pairwise_hasse(form, place) == expected
        assert hasse_invariant(form, place) == expected

    def test_forms_equivalent_matches_pairwise_isometry(self):
        rng = random.Random(71)
        pool = [1, 2, 3, 5, 6, 7, 10, Fraction(1, 3)]
        equivalent = 0
        for _ in range(400):
            dim = rng.randint(1, 5)
            f = RationalQuadraticForm(
                tuple(rng.choice((1, -1)) * rng.choice(pool) for _ in range(dim))
            )
            if rng.random() < 0.5:
                # a square multiple of f with two entries re-split: <a, b> = <a+b, ab(a+b)>
                entries = [x * rng.choice((1, 4, Fraction(1, 9))) for x in f.diag]
                if dim > 1 and entries[0] + entries[1]:
                    a, b = entries[:2]
                    entries[:2] = [a + b, a * b * (a + b)]
                rng.shuffle(entries)
            else:
                entries = [rng.choice((1, -1)) * rng.choice(pool) for _ in range(dim)]
            g = RationalQuadraticForm(tuple(entries))
            expected = isometric_by_pairwise(f, g)
            assert forms_equivalent(f, g) == expected, (str(f), str(g))
            equivalent += expected
        assert 150 < equivalent < 350


class TestAlbertForms:
    def test_descent_pair_example(self):
        form = albert_form(QuaternionClass(3, 2), QuaternionClass(30, 42))
        assert form.diag == tuple(
            Fraction(x) for x in (3, 2, -6, -30, -42, 35)
        )

    def test_split_pair(self):
        form = albert_form(QuaternionClass(1, 1), QuaternionClass(1, 1))
        assert form.diag == tuple(Fraction(x) for x in (1, 1, -1, -1, -1, 1))
        assert is_isotropic(form)

    def test_equal_classes_give_isotropic_form(self):
        rng = random.Random(52)
        for _ in range(40):
            q = QuaternionClass(random_rational(rng), random_rational(rng))
            assert is_isotropic(albert_form(q, q))

    def test_clifford_consistency(self):
        # the Albert form is isotropic iff the two classes agree locally
        # everywhere except possibly on an even set where both ramify jointly;
        # cheap sanity: split pair of distinct split classes stays isotropic
        form = albert_form(QuaternionClass(1, 3), QuaternionClass(4, 5))
        assert is_isotropic(form)


class TestDescentInstances:
    def test_worked_example(self):
        report = verify_quaternion_descent_instance(3, 5, 7, 2)
        assert isinstance(report, DescentReport)
        assert report.splits_over_extension
        assert report.residual_class == QuaternionClass(30, 42)
        assert report.isotropy_form.diag == tuple(
            Fraction(x) for x in (1, -2, -3, 5, 7, -210)
        )
        # over Q no biquaternion class is division (its Albert form is never
        # definite), so the division-split hypothesis cannot hold
        assert not report.hypothesis_division_split
        assert report.consistent

    def test_degenerate_split_case(self):
        report = verify_quaternion_descent_instance(1, 1, 1, 2)
        assert report.similar
        assert report.scale == 1
        assert report.consistent

    def test_negative_discriminant_instance(self):
        report = verify_quaternion_descent_instance(2, 3, 5, -1)
        assert report.splits_over_extension
        assert report.consistent

    @pytest.mark.parametrize("d", [2, -1])
    def test_invariants_only_for_similarity(self, d, monkeypatch):
        # isotropy of the six-dimensional Albert form reads its signature, so
        # only the two forms compared by forms_similar get Hasse invariants:
        # one per form and per place, the real place, 2 and the entries' primes
        calls = []
        hasse = brauer.hasse_invariant
        monkeypatch.setattr(
            brauer,
            "hasse_invariant",
            lambda form, place: calls.append((form, place)) or hasse(form, place),
        )
        report = verify_quaternion_descent_instance(3, 5, 7, d)
        forms = (report.isotropy_form, report.albert_pair_form)
        primes = {2}.union(*(prime_support(x) for form in forms for x in form.diag))
        places = [REAL] + [Place.prime(p) for p in sorted(primes)]
        assert Counter(calls) == Counter((form, v) for form in forms for v in places)

    def test_random_instances_consistent(self):
        rng = random.Random(53)
        count = 0
        while count < 12:
            p, q, r = (rng.choice([1, -1, 2, 3, -3, 5, 7, -7, 10]) for _ in range(3))
            d = rng.choice([-1, 2, 3, 5, -2, 6, -5, 17])
            report = verify_quaternion_descent_instance(p, q, r, d)
            assert report.splits_over_extension
            assert report.consistent
            count += 1

    def test_anisotropic_albert_form_is_inconsistent(self, monkeypatch):
        # similarity alone does not make an instance consistent
        monkeypatch.setattr(brauer, "is_isotropic", lambda form: False)
        report = verify_quaternion_descent_instance(3, 5, 7, 2)
        assert report.similar
        assert report.hypothesis_division_split
        assert not report.consistent

    def test_non_similar_forms_fail_the_cli(self, monkeypatch, tmp_path, capsys):
        from quadricbundles.cli import main

        monkeypatch.setattr(brauer, "forms_similar", lambda f, g: (False, None))
        path = tmp_path / "brauer.json"
        assert main(["run", "brauer", "--seed", "7", "--json", str(path)]) == 1
        assert "brauer: fail" in capsys.readouterr().out
        items = {item["check"]: item for item in json.loads(path.read_text())["items"]}
        assert items["quaternion-descent-instances"]["inconsistent"] == reports.DESCENT_SAMPLES
        assert not items["worked-descent-example"]["consistent"]

    def test_definite_albert_forms_fail_the_suite(self, monkeypatch):
        albert = brauer.albert_form
        monkeypatch.setattr(
            brauer,
            "albert_form",
            lambda q1, q2: RationalQuadraticForm(tuple(abs(x) for x in albert(q1, q2).diag)),
        )
        payload = reports.run_brauer(7)
        assert payload["status"] == "fail"
        items = {item["check"]: item for item in payload["items"]}
        descents = items["quaternion-descent-instances"]
        assert descents["inconsistent"] == reports.DESCENT_SAMPLES
        assert all(detail["hypothesis_division_split"] for detail in descents["details"])
        assert not items["worked-descent-example"]["consistent"]

    def test_d_must_be_squarefree_nonsquare(self):
        with pytest.raises(ValueError):
            verify_quaternion_descent_instance(3, 5, 7, 4)
        with pytest.raises(ValueError):
            verify_quaternion_descent_instance(3, 5, 7, 1)


# -- the dehomogenized search oracle -----------------------------------------

def naive_primitive_search(a, b, p):
    """Scan every (x, y), one of them a unit, for z^2 = a x^2 + b y^2."""
    modulus = 64 if p == 2 else p ** 3
    squares = {z * z % modulus for z in range(modulus)}
    for x in range(modulus):
        for y in range(modulus):
            if (x % p or y % p) and (a * x * x + b * y * y) % modulus in squares:
                return 1
    return -1


def local_class_residues(p):
    """``p^v * u`` modulo the search modulus, for v in {0, 1} and every unit u."""
    modulus = 64 if p == 2 else p ** 3
    units = [u for u in range(modulus) if u % p]
    return [p ** v * u % modulus for v in (0, 1) for u in units]


class TestSearchOracle:
    def test_every_class_at_3_matches_naive_search(self):
        residues = local_class_residues(3)
        for a in residues:
            for b in residues:
                assert _solubility_search(a, b, 3) == naive_primitive_search(a, b, 3), (a, b)

    @pytest.mark.parametrize("p, samples", [(2, 150), (5, 30)])
    def test_sampled_classes_match_naive_search(self, p, samples):
        rng = random.Random(60 + p)
        residues = local_class_residues(p)
        for _ in range(samples):
            a, b = rng.choice(residues), rng.choice(residues)
            assert _solubility_search(a, b, p) == naive_primitive_search(a, b, p), (a, b)

    def test_formula_matches_oracle_up_to_the_limit(self):
        rng = random.Random(61)
        primes = [p for p in range(17, SEARCH_PRIME_LIMIT + 1) if all(p % d for d in range(2, p))]
        for p in primes:
            for _ in range(10):
                a, b = random_rational(rng, 10**6, 50), random_rational(rng, 10**6, 50)
                place = Place.prime(p)
                assert hilbert_symbol(a, b, place) == hilbert_symbol_search(a, b, place)

    def test_search_enters_no_formula_code(self):
        # the oracle shares the local-class reader with the formula, and
        # nothing else: no new helper may make the two agree by construction
        allowed = {
            "hilbert_symbol_search", "Place.is_real", "_as_nonzero_fraction", "_local_class",
            "_split_valuation", "_search_modulus", "_squares_mod", "_squares_mod.<locals>.<genexpr>",
            "_solubility_search",
        }
        places = [REAL] + [Place.prime(p) for p in ORACLE_PRIMES]
        rng = random.Random(66)
        pairs = [
            (random_rational(rng, 10**4, 30), random_rational(rng, 10**4, 30)) for _ in range(50)
        ]
        entered = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == brauer.__file__:
                entered.add(frame.f_code.co_qualname)

        sys.setprofile(profile)
        try:
            for place in places:
                for a, b in pairs:
                    hilbert_symbol_search(a, b, place)
        finally:
            sys.setprofile(None)
        assert "hilbert_symbol_search" in entered
        assert entered <= allowed, entered - allowed

    def test_oracle_refuses_primes_past_the_limit(self):
        with pytest.raises(ValueError, match="up to %d" % SEARCH_PRIME_LIMIT):
            hilbert_symbol_search(2, 3, Place.prime(59))
        assert hilbert_symbol(2, 3, Place.prime(1009)) == 1


# -- the bounded factorizer ---------------------------------------------------

#: A 20-digit prime, and the two 25-digit primes of the semiprime
#: 3000000000000000000000028000000000000000000000049.
PRIME_20 = 10000000000000000051
PRIME_25 = (10**24 + 7, 3 * 10**24 + 7)
SEMIPRIME = PRIME_25[0] * PRIME_25[1]


def eratosthenes(limit):
    """The primes below ``limit``, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [n for n in range(limit) if sieve[n]]


class TestFactorizer:
    def test_is_prime_matches_the_sieve(self):
        assert [n for n in range(10**4) if _is_prime(n)] == eratosthenes(10**4)

    def test_wheel_holds_every_prime_below_the_limit(self):
        wheel = list(_trial_divisors())
        assert wheel == sorted(set(wheel))
        assert wheel[-1] < TRIAL_DIVISION_LIMIT
        assert set(eratosthenes(TRIAL_DIVISION_LIMIT)) <= set(wheel)

    def test_exact_at_the_top_of_the_wheel(self):
        # the two largest primes below the trial division bound and the next
        # prime past it; a wheel that stops before the top prime gets each wrong
        below, top, above = 99989, 99991, 100003
        assert eratosthenes(TRIAL_DIVISION_LIMIT)[-2:] == [below, top]
        assert eratosthenes(above + 1)[-1] == above
        assert _factor(top**2) == ((top, 2),)
        assert _factor(top * below) == ((below, 1), (top, 1))
        assert _factor(top * above) == ((top, 1), (above, 1))
        # smallest prime factor the top prime, then a cofactor past the bound
        assert _factor(top**3) == ((top, 3),)
        assert _factor(top * PRIME_20) == ((top, 1), (PRIME_20, 1))
        assert not _is_prime(top**2) and not _is_prime(top * above)

    def test_round_trip(self):
        rng = random.Random(62)
        values = [1, 2, 97, 2**40, 99991 * 99989, PRIME_20, 12 * PRIME_25[1]]
        for _ in range(200):
            # at most one prime factor past the trial division bound
            n = rng.randint(1, 10**9)
            if rng.random() < 0.3:
                n = rng.choice((1, 6, 2**5 * 3**3 * 99991)) * PRIME_20
            values.append(n)
        for n in values:
            factors = _factor(n)
            product = 1
            for p, e in factors:
                assert e >= 1
                product *= p ** e
            assert product == n
            primes = [p for p, _ in factors]
            assert primes == sorted(set(primes))
            assert all(Place.prime(p).p == p for p in primes)

    def test_small_factors_against_trial_division(self):
        for n in range(2, 3000):
            expected, m, d = [], n, 2
            while m > 1:
                e = 0
                while m % d == 0:
                    m //= d
                    e += 1
                if e:
                    expected.append((d, e))
                d += 1
            assert list(_factor(n)) == expected

    def test_twenty_digit_prime_place(self):
        assert Place.prime(PRIME_20).p == PRIME_20
        assert str(Place.prime(PRIME_20)) == str(PRIME_20)
        with pytest.raises(ValueError):
            Place.prime(PRIME_20 * 3)
        with pytest.raises(ValueError):
            Place.prime(99991 * 99989)
        assert squarefree_part(-4 * PRIME_20) == -PRIME_20
        assert prime_support(Fraction(PRIME_20, 9)) == (PRIME_20,)

    def test_bound_error_names_the_integer(self):
        assert SEMIPRIME >= MILLER_RABIN_LIMIT
        with pytest.raises(FactorizationBoundError, match=str(SEMIPRIME)):
            squarefree_part(SEMIPRIME)
        with pytest.raises(FactorizationBoundError, match=str(SEMIPRIME)):
            relevant_places([3, Fraction(1, SEMIPRIME)])
        with pytest.raises(FactorizationBoundError):
            Place.prime(SEMIPRIME)
        # a prime past the exact Miller-Rabin range cannot be certified
        with pytest.raises(FactorizationBoundError):
            Place.prime(10**25 + 13)
        # below the range the same semiprime's factors are exact
        assert _factor(SEMIPRIME // PRIME_25[0]) == ((PRIME_25[1], 1),)
        assert issubclass(FactorizationBoundError, ValueError)

    def test_prime_places_are_interned(self):
        for p in (2, 3, 53, 99991, PRIME_20):
            assert Place.prime(p) is Place.prime(p)
            assert Place.prime(p) == Place(p)
            assert hash(Place.prime(p)) == hash(Place(p))

    def test_a_failed_prime_place_is_not_cached(self):
        cached = brauer._prime_place.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError, match="not prime"):
                Place.prime(6)
            with pytest.raises(FactorizationBoundError):
                Place.prime(SEMIPRIME)
        assert brauer._prime_place.cache_info().currsize == cached

    def test_local_paths_never_factor(self):
        place = Place.prime(5)
        assert hilbert_symbol(SEMIPRIME, 3, place) == hilbert_symbol_search(SEMIPRIME, 3, place)
        assert is_local_square(SEMIPRIME * 4, REAL)
        assert hilbert_symbol(SEMIPRIME, -1, REAL) == 1


# -- similarity as one F2 solve ------------------------------------------------

def similar_by_enumeration(f, g):
    """Try every square class +-prod(p) on 2 and the primes of the entries,
    +1 before -1 and prime subsets as binary numbers with 2 lowest."""
    primes = {2}
    for x in f.diag + g.diag:
        primes.update(prime_support(x))
    primes = sorted(primes)
    for sign in (1, -1):
        for mask in range(1 << len(primes)):
            c = sign
            for i, p in enumerate(primes):
                if mask >> i & 1:
                    c *= p
            if isometric_by_pairwise(RationalQuadraticForm(tuple(c * x for x in f.diag)), g):
                return True, c
    return False, None


class TestSimilaritySolve:
    def test_matches_enumeration_oracle(self):
        rng = random.Random(63)
        pool = [1, 2, 3, 5, 6, 10, 15, 4, Fraction(1, 2), Fraction(3, 5)]
        similar = 0
        for _ in range(2000):
            dim = rng.randint(1, 6)
            f = RationalQuadraticForm(
                tuple(rng.choice((1, -1)) * rng.choice(pool) for _ in range(dim))
            )
            if rng.random() < 0.5:
                c = rng.choice((1, -1)) * rng.choice(pool)
                entries = [c * x * rng.choice((1, 4, 9, Fraction(1, 4))) for x in f.diag]
                rng.shuffle(entries)
            else:
                entries = [rng.choice((1, -1)) * rng.choice(pool) for _ in range(dim)]
            g = RationalQuadraticForm(tuple(entries))
            expected = similar_by_enumeration(f, g)
            assert forms_similar(f, g) == expected, (str(f), str(g))
            similar += expected[0]
        assert 600 < similar < 1800

    def test_makes_no_hilbert_symbol_calls(self, monkeypatch):
        # the rows and the Hasse invariants come from local classes alone
        rng = random.Random(64)
        pool = [1, 2, 3, 5, 7, 6, 10, Fraction(1, 2), Fraction(3, 5)]
        pairs = [
            (report.isotropy_form, report.albert_pair_form)
            for report in (
                verify_quaternion_descent_instance(p, q, r, d)
                for p, q, r, d in ((3, 5, 7, 2), (2, 3, 5, -1), (-7, 10, 3, 17))
            )
        ]
        for _ in range(200):
            dim = rng.randint(1, 6)
            f, g = (
                RationalQuadraticForm(
                    tuple(rng.choice((1, -1)) * rng.choice(pool) for _ in range(dim))
                )
                for _ in range(2)
            )
            pairs.append((f, g))
        expected = [similar_by_enumeration(f, g) for f, g in pairs]

        def refuse(*args):
            raise AssertionError("forms_similar called hilbert_symbol")

        monkeypatch.setattr(brauer, "hilbert_symbol", refuse)
        assert [forms_similar(f, g) for f, g in pairs] == expected
        assert sum(similar for similar, _ in expected) > 20

    def test_thirteen_prime_non_similar_pair_is_fast(self):
        f = RationalQuadraticForm((3 * 5, 7 * 11, -13 * 17, 19 * 23, -29 * 31, 2 * 37 * 41))
        g = RationalQuadraticForm((187, 299, 38, 259, -205, -2697))
        inv_f, inv_g = form_invariants(f), form_invariants(g)
        assert (inv_f.disc, inv_f.signature) == (inv_g.disc, inv_g.signature)
        started = time.perf_counter()
        assert forms_similar(f, g) == (False, None)
        assert time.perf_counter() - started < 1.0


# -- large integers ------------------------------------------------------------

BIG = st.integers(min_value=10**29, max_value=10**60).flatmap(
    lambda n: st.sampled_from((n, -n))
)
PLACES = st.sampled_from(
    (REAL,) + tuple(Place.prime(p) for p in (2, 3, 5, 7, 11, 13)) + (Place.prime(PRIME_20),)
)
#: Factors whose products relevant_places can factor: primes below the trial
#: division bound and at most one larger prime.
SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 54323, 70051, 77783, 99013)
LARGE_PRIMES = (1000000012367, 1000000000012421, 1000000000000012439, PRIME_20)


@st.composite
def factorable_big(draw):
    n = draw(st.sampled_from((1, -1))) * draw(st.sampled_from(LARGE_PRIMES))
    for p in draw(st.lists(st.sampled_from(SMOOTH_PRIMES), min_size=1, max_size=12)):
        n *= p
    return n


LARGE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestLargeIntegers:
    @LARGE_SETTINGS
    @given(BIG, BIG, BIG, PLACES)
    def test_square_class_invariance(self, a, b, c, place):
        assert hilbert_symbol(a * c * c, b, place) == hilbert_symbol(a, b, place)
        assert hilbert_symbol(Fraction(a, c * c), b, place) == hilbert_symbol(a, b, place)

    @LARGE_SETTINGS
    @given(BIG, BIG, BIG, PLACES)
    def test_bimultiplicativity(self, a1, a2, b, place):
        assert hilbert_symbol(a1 * a2, b, place) == hilbert_symbol(
            a1, b, place
        ) * hilbert_symbol(a2, b, place)

    @LARGE_SETTINGS
    @given(BIG, BIG, st.sampled_from((2, 3, 5, 7, 11, 13)))
    def test_formula_matches_oracle(self, a, b, p):
        place = Place.prime(p)
        assert hilbert_symbol(a, b, place) == hilbert_symbol_search(a, b, place)

    @LARGE_SETTINGS
    @given(factorable_big(), factorable_big())
    def test_product_formula(self, a, b):
        product = 1
        for place in relevant_places([a, Fraction(1, b)]):
            product *= hilbert_symbol(a, Fraction(1, b), place)
        assert product == 1

import fractions
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
    _integer_root,
    _solubility_search,
    _trial_divisors,
    albert_form,
    corestriction_projection,
    forms_equivalent,
    forms_similar,
    hilbert_symbol,
    hilbert_symbol_search,
    is_isotropic,
    is_local_square,
    quaternion_is_split,
    relevant_places,
    res_cor_doubling_check,
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


def locally_isotropic(form, place, epsilon):
    """Isotropy at ``place`` of a form of dimension 3 or 4 with Hasse
    invariant ``epsilon`` there."""
    if place.p is None:
        pos, neg = form.signature
        return pos > 0 and neg > 0
    if form.dim == 3:
        return hilbert_symbol(-1, -form.disc, place) == epsilon
    return not is_local_square(form.disc, place) or epsilon == hilbert_symbol(-1, -1, place)


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
    return all(locally_isotropic(form, place, epsilon) for place, epsilon in form.hasse.items())


def previous_locally_isotropic(form, place):
    """Local isotropy as first written: every invariant recomputed at each
    place, with branches for every dimension."""
    n = form.dim
    if place.p is None:
        pos, neg = form.signature
        return pos > 0 and neg > 0
    if n >= 5:
        return True
    epsilon = pairwise_hasse(form, place)
    d = form.disc
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
    pos, neg = form.signature
    if n >= 5:
        return pos > 0 and neg > 0
    if n == 2:
        return form.disc == -1
    return all(previous_locally_isotropic(form, v) for v in relevant_places(form.diag))


def splits_over_quadratic(q, d):
    """Does ``q`` split after restriction to Q(sqrt(d))?  The restriction is
    trivial iff no ramified place of ``q`` has sqrt(d) in its completion; the
    descent asks this of ``(p, d)`` after validating ``d`` itself."""
    d = brauer._validate_quadratic_d(d)
    return all(not is_local_square(d, v) for v in quaternion_is_split(q)[1])


def trivial_discriminant_form(rng, dim, pool):
    """A form of even dimension ``dim`` whose discriminant is
    ``(-1)^(dim(dim-1)/2)``: entries drawn from ``pool`` and a last entry
    that makes their product that sign times a square."""
    entries = [rng.choice(pool) for _ in range(dim - 1)]
    sign = (-1) ** (dim * (dim - 1) // 2)
    entries.append(sign * math.prod(entries) * rng.choice((1, 4, Fraction(1, 9))))
    rng.shuffle(entries)
    return RationalQuadraticForm(tuple(entries))


#: The values ``reports.run_brauer`` draws p, q and r from.
DESCENT_POOL = (1, -1, 2, 3, -3, 5, 7, -7, 10, 11)


def reference_invariants(diag):
    """``(str, signature, disc, hasse items)`` of the form on ``diag``: the
    discriminant from the product of the entries, the Hasse invariants from
    pairwise symbols."""
    form = RationalQuadraticForm(diag)
    pos = sum(1 for x in diag if x > 0)
    hasse = [(str(v), pairwise_hasse(form, v)) for v in relevant_places(diag)]
    return str(form), (pos, len(diag) - pos), squarefree_part(math.prod(diag)), hasse


def reference_descent(p, q, r, d):
    """Every ``DescentReport`` field of one instance, each Fraction entry and
    product reduced by ``squarefree_part`` on its own.  Similarity is
    ``forms_similar`` on the forms of those entries; ``TestSimilaritySolve``
    checks the solve itself against enumeration."""
    p, q, r = map(Fraction, (p, q, r))
    a, b = d * p * q, d * p * r
    isotropy = tuple(Fraction(squarefree_part(x)) for x in (1, -d, -p, q, r, -d * p * q * r))
    pair = tuple(Fraction(squarefree_part(x)) for x in (p, d, -p * d, -a, -b, a * b))
    similar, scale = forms_similar(RationalQuadraticForm(isotropy), RationalQuadraticForm(pair))
    ramified = [v for v in relevant_places([p, d]) if hilbert_symbol(p, d, v) == -1]
    isotropic = min(reference_invariants(pair)[1]) > 0
    return {
        "isotropy_form": reference_invariants(isotropy),
        "albert_pair_form": reference_invariants(pair),
        "similar": similar,
        "scale": scale,
        "splits_over_extension": all(not is_local_square(d, v) for v in ramified),
        "residual_class": (QuaternionClass(a, b), str(a), str(b)),
        "hypothesis_division_split": not isotropic,
        "consistent": similar and isotropic,
    }


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


def square_class_representatives(p):
    """One value of each square class of Q_p, or of R for ``p = None``:
    ``u * p^e`` with e in {0, 1} and u over the unit square classes, at odd
    p 1 and the least quadratic non-residue."""
    if p is None:
        return (1, -1)
    if p == 2:
        units = (1, 3, 5, 7)
    else:
        units = (1, next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1))
    return tuple(u * p**e for e in (0, 1) for u in units)


def serre_symbol(alpha, u, beta, w, p):
    """``(p^alpha u, p^beta w)_p`` for units u and w, by Serre's binary
    formula (*A Course in Arithmetic*, Ch. III, Thm. 1): the test reference
    for the closed form."""

    def eps(x):
        return (x - 1) // 2 % 2

    def omega(x):
        return (x * x - 1) // 8 % 2

    def legendre(x):
        return 1 if pow(x, (p - 1) // 2, p) == 1 else -1

    if p == 2:
        return (-1) ** (eps(u) * eps(w) + alpha * omega(w) + beta * omega(u))
    return (-1) ** (alpha * beta * eps(p)) * legendre(u) ** beta * legendre(w) ** alpha


def local_class(x, p):
    """``(v, u)`` with ``x = p^v u`` for a nonzero integer ``x``."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


#: Primes where the closed form is compared with Serre's formula: 2, three the
#: oracle covers, and three past ``SEARCH_PRIME_LIMIT``.
SERRE_PRIMES = (2, 3, 5, 7, 59, 10007, 10000000019)


class TestHilbertSymbol:
    def test_matches_serre_on_every_square_class_pair(self):
        # 8 square classes at 2 and 4 at each odd prime, each value passed as
        # an int and as a Fraction times a square
        checked = 0
        for p in SERRE_PRIMES:
            place = Place.prime(p)
            classes = square_class_representatives(p)
            square = Fraction(6 * p, 35) ** 2
            seen = set()
            for x in classes:
                for y in classes:
                    expected = serre_symbol(*local_class(x, p), *local_class(y, p), p)
                    for a in (x, Fraction(x) * square):
                        for b in (y, y * square):
                            assert hilbert_symbol(a, b, place) == expected, (a, b, p)
                    seen.add(expected)
                    checked += 1
            assert seen == {1, -1}, p
        assert checked == 8 * 8 + 6 * 4 * 4

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

    def test_formula_matches_oracle_on_every_square_class_pair(self):
        # every pair of square classes at each place the oracle covers, each
        # value passed as an int, a Fraction, and times a square prime to p
        checked = 0
        for p in (None,) + ORACLE_PRIMES:
            place = REAL if p is None else Place.prime(p)
            c = 3 if p == 2 else 2
            classes = square_class_representatives(p)
            for x in classes:
                for y in classes:
                    values = {
                        (hilbert_symbol(a, b, place), hilbert_symbol_search(a, b, place))
                        for a in (x, Fraction(x), x * c * c, Fraction(x, c * c))
                        for b in (y, Fraction(y), y * c * c, Fraction(y, c * c))
                    }
                    assert len(values) == 1, (x, y, str(place), values)
                    (formula, search), = values
                    assert formula == search, (x, y, str(place))
                    checked += 1
        assert checked == 148

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
        assert form.dim == 6
        assert form.disc == -1

    def test_trivial_invariants(self):
        form = RationalQuadraticForm((1, 1))
        assert form.disc == 1
        assert form.signature == (2, 0)
        assert all(h == 1 for h in form.hasse.values())

    def test_disc_is_the_square_class_of_the_entry_product(self):
        rng = random.Random(65)
        for _ in range(300):
            diag = tuple(random_rational(rng) for _ in range(rng.randint(1, 6)))
            assert RationalQuadraticForm(diag).disc == squarefree_part(math.prod(diag))

    def test_hyperbolic_plane(self):
        form = RationalQuadraticForm((1, -1))
        assert form.disc == -1
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
        # dimensions 2, 4 and 6 with discriminant (-1)^(n(n-1)/2); the
        # balanced signatures are their own flip, and c = 1 comes first
        for diag in ((2, -2), (1, 2, 3, 6), (1, -2, 3, -6), (3, 1, -1, 5, -5, -3)):
            form = RationalQuadraticForm(diag)
            assert forms_similar(form, form) == (True, 1), diag

    def test_scaled_hyperbolic(self):
        similar, c = forms_similar(
            RationalQuadraticForm((1, -1)), RationalQuadraticForm((2, -2))
        )
        assert similar and c in (1, 2, -1, -2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forms_similar(RationalQuadraticForm((1,)), RationalQuadraticForm((1, 2)))

    def test_similarity_outside_its_domain_is_refused(self):
        for f, g in (
            # odd dimension, whatever the discriminants
            ((1,), (1,)),
            ((1, -2, 3), (1, -2, 3)),
            ((1, 1, 1, 1, 1), (-1, -1, -1, -1, -1)),
            # even dimension, neither discriminant (-1)^(n(n-1)/2)
            ((1, 1), (1, 2)),
            ((1, 1, 1, 2), (1, 1, 1, 2)),
            ((1, -2, 3, 5, 7, 11), (1, -1, 1, -1, 1, 1)),
        ):
            with pytest.raises(ValueError, match="even dimension"):
                forms_similar(RationalQuadraticForm(f), RationalQuadraticForm(g))

    def test_similarity_is_equivalence_relation(self):
        rng = random.Random(50)
        pool = [1, -1, 2, -2, 3, -3, 5, 6, -6]
        forms = [trivial_discriminant_form(rng, 4, pool) for _ in range(10)]
        outcomes = set()
        for f in forms:
            assert forms_similar(f, f)[0]
        for f in forms:
            for g in forms:
                fg = forms_similar(f, g)[0]
                outcomes.add(fg)
                assert fg == forms_similar(g, f)[0]
                if fg:
                    for h in forms:
                        if forms_similar(g, h)[0]:
                            assert forms_similar(f, h)[0]
        assert outcomes == {False, True}

    def test_similar_forms_share_even_dim_discriminant(self):
        # with one discriminant trivial, another discriminant is never
        # similar, here with the signature and every Hasse invariant equal
        f, g = RationalQuadraticForm((1, 1, 1, 1)), RationalQuadraticForm((1, 1, 1, 2))
        assert (f.signature, f.hasse) == (g.signature, g.hasse) and f.disc != g.disc
        assert forms_similar(f, g) == forms_similar(g, f) == (False, None)
        rng = random.Random(51)
        pool = [1, -1, 2, -2, 3, 5]
        differ = 0
        for _ in range(40):
            f = trivial_discriminant_form(rng, 4, pool)
            g = RationalQuadraticForm(tuple(rng.choice(pool) for _ in range(4)))
            assert forms_similar(f, g)[0] == forms_similar(g, f)[0]
            if f.disc != g.disc:
                differ += 1
                assert forms_similar(f, g) == (False, None)
        assert 10 < differ < 40


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
            ell = rng.choice((2, 5, 7, 11)) if place.p is None else place.p
            dim = rng.randint(1, 7)
            form = RationalQuadraticForm(tuple(local_entry(rng, ell) for _ in range(dim)))
            expected = pairwise_hasse(form, place)
            assert form.hasse.get(place, 1) == expected, (str(form), str(place))
            if dim > 1:
                seen[place, dim].add(expected)
        assert RationalQuadraticForm((-3,)).hasse[REAL] == 1
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
        assert form.hasse[place] == expected

    def test_hasse_map_matches_the_closed_form(self):
        # the map's keys are the relevant places; at an odd prime that divides
        # no entry's square class, its default +1 is the value; the pairwise
        # product is the reference
        rng = random.Random(72)
        for _ in range(300):
            dim = rng.randint(1, 6)
            form = RationalQuadraticForm(tuple(random_rational(rng) for _ in range(dim)))
            assert list(form.hasse) == relevant_places(form.diag)
            support = {v.p for v in form.hasse if v.p is not None}
            outside = [Place.prime(p) for p in (3, 5, 7, 11, 13, 41, 43) if p not in support]
            assert outside
            for v in list(form.hasse) + outside:
                assert form.hasse.get(v, 1) == pairwise_hasse(form, v), (str(form), str(v))

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
        form = albert_form(QuaternionClass(3, 2).classes, QuaternionClass(30, 42).classes)
        assert form.diag == tuple(
            Fraction(x) for x in (3, 2, -6, -30, -42, 35)
        )

    def test_split_pair(self):
        form = albert_form((1, 1), (1, 1))
        assert form.diag == tuple(Fraction(x) for x in (1, 1, -1, -1, -1, 1))
        assert is_isotropic(form)

    def test_equal_classes_give_isotropic_form(self):
        rng = random.Random(52)
        for _ in range(40):
            q = QuaternionClass(random_rational(rng), random_rational(rng))
            assert is_isotropic(albert_form(q.classes, q.classes))

    def test_clifford_consistency(self):
        # the Albert form is isotropic iff the two classes agree locally
        # everywhere except possibly on an even set where both ramify jointly;
        # cheap sanity: split pair of distinct split classes stays isotropic
        form = albert_form(QuaternionClass(1, 3).classes, QuaternionClass(4, 5).classes)
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
    def test_invariants_only_for_similarity(self, d, local_symbol_calls):
        # isotropy of the six-dimensional Albert form reads its signature, so
        # only the two forms compared by forms_similar get Hasse invariants:
        # one closed-form call per form and per finite place of its own map,
        # 2 and the primes of its entries' square classes (the real place is
        # read off the signature); the other calls are the splitting check's
        # Hilbert symbols
        report = verify_quaternion_descent_instance(3, 5, 7, d)
        forms = (report.isotropy_form, report.albert_pair_form)
        assert Counter(call for call in local_symbol_calls if call[0] is not None) == Counter(
            (form, v.p) for form in forms for v in relevant_places(form.diag) if v.p
        )

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
        # under --json the summary goes to stderr
        assert "brauer: fail" in capsys.readouterr().err
        items = {item["check"]: item for item in json.loads(path.read_text())["items"]}
        assert items["quaternion-descent-instances"]["inconsistent"] == reports.DESCENT_SAMPLES
        assert not items["worked-descent-example"]["consistent"]

    def test_definite_albert_forms_fail_the_suite(self, monkeypatch):
        albert = brauer.albert_form
        monkeypatch.setattr(
            brauer,
            "albert_form",
            lambda first, second: RationalQuadraticForm(
                tuple(abs(x) for x in albert(first, second).diag)
            ),
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

    def test_integer_path_matches_fraction_reference(self):
        # the report is built from the square classes of p, q, r and d; the
        # reference reduces each Fraction entry and product on its own
        rng = random.Random(67)
        pool = DESCENT_POOL + (4, 12, -18)
        instances = [(1, 1, 2, 2), (4, 12, -18, -1), (3, 5, 7, 2)]
        while len(instances) < 2000:
            p, q, r = (rng.choice(pool) for _ in range(3))
            instances.append((p, q, r, rng.choice(reports.SQUAREFREE_POOL)))
        for p, q, r, d in instances:
            if rng.random() < 0.5:
                p, q, r = map(Fraction, (p, q, r))
            report = verify_quaternion_descent_instance(p, q, r, d)
            expected = reference_descent(p, q, r, d)
            actual = report._asdict()
            for name in ("isotropy_form", "albert_pair_form"):
                form = actual[name]
                actual[name] = (
                    str(form), form.signature, form.disc,
                    [(str(v), h) for v, h in form.hasse.items()],
                )
            residual = actual["residual_class"]
            actual["residual_class"] = (residual, str(residual.a), str(residual.b))
            assert actual == expected, (p, q, r, d)

    def test_square_class_reductions_are_budgeted(self, monkeypatch):
        # d is validated once and p, q and r are reduced once each; the forms
        # are built on these classes and their products, reducing nothing
        calls = []
        squarefree = brauer._squarefree_int
        monkeypatch.setattr(
            brauer, "_squarefree_int", lambda n: calls.append(n) or squarefree(n)
        )
        verify_quaternion_descent_instance(3, 5, 7, 2)
        assert calls == [2, 3, 5, 7]

    def test_class_products_are_budgeted(self, monkeypatch):
        # d*p, d*p*q, d*p*r and d*p*q*r for the forms and the residual class,
        # and the Albert form's a1*b1 and a2*b2; discriminants multiply the
        # classes they hold without recording a factorization
        calls = []
        product = brauer._class_product
        monkeypatch.setattr(
            brauer, "_class_product", lambda s, t: calls.append(s * t) or product(s, t)
        )
        verify_quaternion_descent_instance(3, 5, 7, 2)
        assert len(calls) == 6


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


_CUBE_SQUARES = {}


def cube_search(a, b, p):
    """The one-variable scan modulo ``p^3`` (``2^6`` at 2) that the oracle ran
    before ``p^2`` was shown to suffice: is ``a + b*s`` or ``a*s + b`` a
    square for some square ``s``?"""
    modulus = 64 if p == 2 else p ** 3
    squares = _CUBE_SQUARES.get(modulus)
    if squares is None:
        squares = _CUBE_SQUARES[modulus] = frozenset(
            x * x % modulus for x in range(modulus // 2 + 1)
        )
    for s in squares:
        if (a + b * s) % modulus in squares or (a * s + b) % modulus in squares:
            return 1
    return -1


def seeded_class(rng, p):
    """``p^alpha * u`` modulo ``p^3`` for a random alpha and unit u."""
    modulus = p ** 3
    u = rng.randrange(1, modulus)
    while u % p == 0:
        u = rng.randrange(1, modulus)
    return p ** rng.randint(0, 1) * u % modulus


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

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_square_modulus_matches_the_cube_scan_on_every_class(self, p):
        # each class p^alpha u with u a unit mod p, and seeded lifts mod p^3
        rng = random.Random(80 + p)
        units = list(range(1, p)) + [rng.randrange(p ** 3) for _ in range(2 * p)]
        units = [u for u in units if u % p]
        classes = [p ** alpha * u % p ** 3 for alpha in (0, 1) for u in units]
        verdicts = set()
        for a in classes:
            for b in classes:
                verdict = _solubility_search(a, b, p)
                assert verdict == cube_search(a, b, p), (a, b)
                verdicts.add(verdict)
        assert verdicts == {1, -1}

    def test_square_modulus_matches_the_cube_scan_up_to_the_limit(self):
        rng = random.Random(81)
        primes = [p for p in range(17, SEARCH_PRIME_LIMIT + 1) if all(p % d for d in range(2, p))]
        verdicts = set()
        for p in primes:
            for _ in range(6):
                a, b = seeded_class(rng, p), seeded_class(rng, p)
                verdict = _solubility_search(a, b, p)
                assert verdict == cube_search(a, b, p), (p, a, b)
                verdicts.add(verdict)
        assert verdicts == {1, -1}

    def test_square_table_size(self):
        # x^2 mod p^2 takes p(p-1)/2 unit values and 0
        for p in range(3, SEARCH_PRIME_LIMIT + 1):
            if all(p % d for d in range(2, p)):
                assert len(brauer._squares_mod(brauer._search_modulus(p))) == p * (p - 1) // 2 + 1

    def test_formula_matches_oracle_up_to_the_limit(self):
        rng = random.Random(61)
        primes = [p for p in range(17, SEARCH_PRIME_LIMIT + 1) if all(p % d for d in range(2, p))]
        for p in primes:
            for _ in range(10):
                a, b = random_rational(rng, 10**6, 50), random_rational(rng, 10**6, 50)
                place = Place.prime(p)
                assert hilbert_symbol(a, b, place) == hilbert_symbol_search(a, b, place)

    def test_search_enters_no_formula_code(self):
        # the oracle shares the integer reader with the formula, and nothing
        # else: no new helper may make the two agree by construction
        allowed = {
            "hilbert_symbol_search", "_class_int", "_search_modulus", "_squares_mod",
            "_squares_mod.<locals>.<genexpr>", "_solubility_search",
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


def is_prime_place(n):
    """Whether ``Place(n)`` is built, rather than refused as not prime."""
    try:
        Place(n)
    except FactorizationBoundError:
        raise
    except ValueError:
        return False
    return True


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
        assert [n for n in range(10**4) if is_prime_place(n)] == eratosthenes(10**4)

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
        assert not is_prime_place(top**2) and not is_prime_place(top * above)

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
        assert relevant_places([Fraction(PRIME_20, 9)]) == [REAL, Place.prime(2), Place(PRIME_20)]

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

    def test_prime_power_cofactors_are_certified(self):
        # past trial division and not prime, a cofactor r^k with r prime below
        # the Miller-Rabin bound factors; k = 6 meets the composite roots
        # r^3 and r^2 first
        top = 100003
        assert _factor(PRIME_20**2) == ((PRIME_20, 2),)
        assert _factor(28 * 10000000019**3) == ((2, 2), (7, 1), (10000000019, 3))
        assert _factor(top**6) == ((top, 6),)
        assert _factor(3 * top**7) == ((3, 1), (top, 7))
        # 10^24 + 7 is below MILLER_RABIN_LIMIT, so its square is certified
        assert _factor(PRIME_25[0] ** 2) == ((PRIME_25[0], 2),)
        # a root past the bound, a composite root, and no power at all
        for n in ((10**25 + 13) ** 2, (top * 100019) ** 2, top**2 * 100019, SEMIPRIME):
            with pytest.raises(FactorizationBoundError, match=str(n)):
                _factor(n)

    def test_class_product_records_its_factorization(self):
        # p*q is below MILLER_RABIN_LIMIT and no root splits it, so trial
        # division refuses 3*p*q; as the product of the classes 3p and -q,
        # its primes are known
        p, q = 10000000019, 10000000033
        with pytest.raises(FactorizationBoundError, match=str(3 * p * q)):
            _factor(3 * p * q)
        assert brauer._class_product(3 * p, -q) == -3 * p * q
        assert _factor(3 * p * q) == ((3, 1), (p, 1), (q, 1))
        # primes in both classes cancel
        assert brauer._class_product(6 * q, 3 * p * q) == 2 * p
        assert _factor(2 * p) == ((2, 1), (p, 1))

    def test_integer_root_is_exact_past_float_range(self):
        rng = random.Random(73)
        for _ in range(300):
            k = rng.randint(2, 40)
            m = rng.getrandbits(rng.choice((20, 200, 3400))) + 1
            r = _integer_root(m, k)
            assert r**k <= m < (r + 1) ** k, (m, k)
        # at an exact power the float start may sit on either side of the root
        for r in (2, 3, 99991, PRIME_20, 2**200 - 1, 2**200):
            for k in range(2, 12):
                assert _integer_root(r**k, k) == r
                assert _integer_root(r**k - 1, k) == r - 1
                assert _integer_root(r**k + 1, k) == r

    def test_disc_of_entries_whose_product_is_past_the_bound(self):
        # PRIME_20^2 is past MILLER_RABIN_LIMIT, each entry is not
        assert RationalQuadraticForm((PRIME_20, PRIME_20)).disc == 1
        form = RationalQuadraticForm((PRIME_20, -3 * PRIME_20, Fraction(5, PRIME_20)))
        assert form.disc == -15 * PRIME_20

    def test_prime_places_are_interned(self):
        for p in (2, 3, 53, 99991, PRIME_20):
            assert Place.prime(p) is Place.prime(p)

    @pytest.mark.parametrize(
        "equal,unequal",
        [
            pytest.param(
                [(Place.prime(p), Place(p)) for p in (2, 3, 53, 99991, PRIME_20)]
                + [(REAL, Place()), (Place(7), Place(Fraction(7)))],
                [(REAL, Place(2)), (Place(2), Place(3)), (Place(2), 2)],
                id="Place",
            ),
            pytest.param(
                [
                    (QuaternionClass(2, 3), QuaternionClass(Fraction(2), 3)),
                    (QuaternionClass(Fraction(1, 2), -5), QuaternionClass(Fraction(2, 4), -5)),
                ],
                # (8, 3) has the Brauer class of (2, 3), but other entries
                [
                    (QuaternionClass(2, 3), QuaternionClass(3, 2)),
                    (QuaternionClass(2, 3), QuaternionClass(8, 3)),
                    (QuaternionClass(2, 3), (2, 3)),
                ],
                id="QuaternionClass",
            ),
            pytest.param(
                [
                    (RationalQuadraticForm((1, -2, 3)), RationalQuadraticForm((Fraction(1), -2, 3))),
                    (albert_form((2, 3), (5, 7)), RationalQuadraticForm((2, 3, -6, -5, -7, 35))),
                ],
                [
                    (RationalQuadraticForm((1, 2)), RationalQuadraticForm((2, 1))),
                    (RationalQuadraticForm((1,)), RationalQuadraticForm((4,))),
                    (RationalQuadraticForm((1,)), (1,)),
                ],
                id="RationalQuadraticForm",
            ),
        ],
    )
    def test_equal_values_hash_equal(self, equal, unequal):
        # the places of a Hasse map and the keys of interned lookups rely on it
        for a, b in equal:
            assert a == b and b == a and hash(a) == hash(b)
            assert {a: True}[b]
        for a, b in unequal:
            assert a != b and b != a

    def test_prime_power_past_miller_rabin_is_not_prime(self):
        # a certified prime power is composite wherever it lies; only a cofactor
        # with no certificate, such as the semiprime, is past the bound
        for n in (PRIME_20**2, 10000000019**3, PRIME_25[0] ** 2):
            assert n >= MILLER_RABIN_LIMIT
            with pytest.raises(ValueError, match="not prime") as raised:
                Place.prime(n)
            assert type(raised.value) is ValueError
        # a small factor does not decide primality: the cofactor is factored too
        for n in (SEMIPRIME, 3 * SEMIPRIME):
            with pytest.raises(FactorizationBoundError, match=str(n)):
                Place(n)

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


# -- similarity from the classification invariants ---------------------------

def similar_by_enumeration(f, g):
    """Try every square class +-prod(p) on 2 and the primes of the entries,
    +1 before -1 and prime subsets as binary numbers with 2 lowest."""
    primes = [v.p for v in relevant_places(f.diag + g.diag) if v.p is not None]
    for sign in (1, -1):
        for mask in range(1 << len(primes)):
            c = sign
            for i, p in enumerate(primes):
                if mask >> i & 1:
                    c *= p
            if isometric_by_pairwise(RationalQuadraticForm(tuple(c * x for x in f.diag)), g):
                return True, c
    return False, None


def descent_pairs(rng, count):
    """``(isotropy form, Albert form)`` of ``count`` instances drawn from the
    ``run brauer`` pool, each form also paired with the next instance's
    Albert form; all forms are new, so none has built its Hasse map."""
    reports_ = [
        verify_quaternion_descent_instance(
            *(rng.choice(DESCENT_POOL) for _ in range(3)), rng.choice(reports.SQUAREFREE_POOL)
        )
        for _ in range(count)
    ]
    forms = [
        tuple(RationalQuadraticForm(form.diag) for form in (r.isotropy_form, r.albert_pair_form))
        for r in reports_
    ]
    return [
        pair
        for (isotropy, albert), (_, following) in zip(forms, forms[1:] + forms[:1])
        for pair in ((isotropy, albert), (isotropy, following), (following, albert))
    ]


class TestSimilaritySolve:
    def test_matches_enumeration_oracle(self):
        rng = random.Random(63)
        pool = [1, 2, 3, 5, 6, 10, 15, 4, Fraction(1, 2), Fraction(3, 5)]
        signed = [sign * x for x in pool for sign in (1, -1)]
        # a balanced (3, 3) pair is similar for c = 1 and for c = -1
        balanced = RationalQuadraticForm((3, 1, -1, 5, -5, -3))
        pairs = [(balanced, RationalQuadraticForm((-6, -2, 2, 10, -10, 6)))]
        pairs += descent_pairs(rng, 30)
        for _ in range(600):
            f = trivial_discriminant_form(rng, rng.choice((2, 4, 6)), signed)
            kind = rng.randrange(3)
            if kind == 0:
                c = rng.choice(signed)
                entries = [c * x * rng.choice((1, 4, 9, Fraction(1, 4))) for x in f.diag]
                rng.shuffle(entries)
                g = RationalQuadraticForm(tuple(entries))
            elif kind == 1:
                g = trivial_discriminant_form(rng, f.dim, signed)
            else:
                g = RationalQuadraticForm(tuple(rng.choice(signed) for _ in range(f.dim)))
            pairs.append((f, g) if rng.random() < 0.5 else (g, f))
        outcomes = Counter()
        for f, g in pairs:
            expected = similar_by_enumeration(f, g)
            assert forms_similar(f, g) == expected, (str(f), str(g))
            outcomes[f.dim, expected[1], f.signature == f.signature[::-1]] += 1
        assert forms_similar(*pairs[0]) == (True, 1)
        # c = 1 is found on balanced signatures in dimensions 2, 4 and 6, and
        # c = -1 in 4 and 6; in dimension 2 discriminant -1 forces (1, 1)
        for dim in (2, 4, 6):
            expected = {1, None} if dim == 2 else {1, -1, None}
            assert {c for d, c, _ in outcomes if d == dim} == expected
            assert outcomes[dim, 1, True] > 0

    def test_makes_no_hilbert_symbol_calls(self):
        # the forms are new, so forms_similar builds both Hasse maps under the
        # profile, and the closed form's cache is empty, so the maps enter it;
        # no Hilbert symbol is taken
        rng = random.Random(64)
        pool = [1, -1, 2, 3, 5, 7, 6, 10, Fraction(1, 2), Fraction(3, 5)]
        pairs = descent_pairs(rng, 4) + [
            (trivial_discriminant_form(rng, 4, pool), trivial_discriminant_form(rng, 4, pool))
            for _ in range(40)
        ]
        entered = set()

        def profile(frame, event, arg):
            if event == "call":
                entered.add(frame.f_code)

        brauer._local_symbol.cache_clear()
        sys.setprofile(profile)
        try:
            answers = [forms_similar(f, g) for f, g in pairs]
        finally:
            sys.setprofile(None)
        assert {
            forms_similar.__code__,
            brauer._hasse_map.__code__,
            brauer._local_symbol.__wrapped__.__code__,
        } <= entered
        assert brauer.hilbert_symbol.__code__ not in entered
        assert answers == [similar_by_enumeration(f, g) for f, g in pairs]
        assert {similar for similar, _ in answers} == {False, True}

    def test_thirteen_prime_non_similar_pair_is_fast(self):
        # discriminant -1, a balanced signature and thirteen primes; the Hasse
        # maps differ at 2, 7, 11 and 37
        primes = (2, 3, 5, 7, 11, 37, 13, 17, 41, 19, 23, 29, 31)
        last = -math.prod(primes)
        f = RationalQuadraticForm((30, 7 * 11 * 37, -13 * 17 * 41, 19 * 23, -29 * 31, last))
        g = RationalQuadraticForm((2 * 37 * 41, 3 * 11 * 23, -5 * 19 * 29, 91, -17 * 31, last))
        assert (f.disc, f.signature) == (g.disc, g.signature) == (-1, (3, 3))
        differ = [p for p in primes if pairwise_hasse(f, Place(p)) != pairwise_hasse(g, Place(p))]
        assert differ == [2, 7, 11, 37]
        started = time.perf_counter()
        assert forms_similar(f, g) == (False, None)
        scaled = RationalQuadraticForm(tuple(last * x for x in f.diag))
        assert forms_similar(f, scaled) == (True, 1)
        assert time.perf_counter() - started < 1.0

    def test_hasse_maps_compared_over_both_places(self):
        # g's map has -1 at 3 and 5, places f's map does not list
        f, g = RationalQuadraticForm((1, 1, 1, 1)), RationalQuadraticForm((2, 6, 5, 60))
        assert set(f.hasse) < set(g.hasse)
        assert all(f.hasse[v] == g.hasse[v] for v in f.hasse)
        assert forms_similar(f, g) == forms_similar(g, f) == (False, None)


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


# -- the integer reader against the Fraction path -----------------------------

def fraction_nonzero(x, label="value"):
    """The local paths' reader before the integer reader: a nonzero
    ``Fraction`` or ``int``, anything else through ``Fraction``."""
    if type(x) is not Fraction and type(x) is not int:
        x = Fraction(x)
    if not x:
        raise ValueError("%s must be nonzero" % label)
    return x


def fraction_local_class(x, p, modulus):
    """``(v mod 2, u mod modulus)`` for ``x = p^v * u`` up to unit squares,
    read off ``numerator * denominator``."""
    v, n = 0, x.numerator * x.denominator
    while n % p == 0:
        n //= p
        v += 1
    return v % 2, n % modulus


def fraction_hilbert_symbol(a, b, place):
    a = fraction_nonzero(a, "a")
    b = fraction_nonzero(b, "b")
    if place.p is None:
        return -1 if a < 0 and b < 0 else 1
    p = place.p
    modulus = 8 if p == 2 else p
    return serre_symbol(
        *fraction_local_class(a, p, modulus), *fraction_local_class(b, p, modulus), p
    )


def fraction_hilbert_symbol_search(a, b, place):
    a = fraction_nonzero(a, "a")
    b = fraction_nonzero(b, "b")
    if place.p is None:
        return 1 if a > 0 or b > 0 else -1
    p = place.p
    if p > SEARCH_PRIME_LIMIT:
        raise ValueError(
            "the search oracle covers primes up to %d, got %d" % (SEARCH_PRIME_LIMIT, p)
        )
    modulus = 64 if p == 2 else p**3
    alpha, u = fraction_local_class(a, p, modulus)
    beta, w = fraction_local_class(b, p, modulus)
    return _solubility_search(p**alpha * u % modulus, p**beta * w % modulus, p)


def fraction_is_local_square(x, place):
    x = fraction_nonzero(x)
    if place.p is None:
        return x > 0
    p = place.p
    v, u = fraction_local_class(x, p, 8 if p == 2 else p)
    if v:
        return False
    return u == 1 if p == 2 else pow(u, (p - 1) // 2, p) == 1


def fraction_relevant_places(values):
    primes = set()
    for value in values:
        x = fraction_nonzero(value)
        primes.update(
            p for p, e in _factor(abs(x.numerator * x.denominator)) if e % 2 and p != 2
        )
    return [REAL, Place.prime(2)] + [Place.prime(p) for p in sorted(primes)]


def outcome(function, *args):
    """The value of a call, or the type and message of what it raised."""
    try:
        return function(*args)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def reader_input(rng, p):
    """An int, a Fraction or a string: small, ``p^5`` times a unit (or over
    it), or of 20 digits, with either sign."""
    sign = rng.choice((1, -1))
    kind = rng.randrange(6)
    if kind == 0:
        num, den = rng.randint(1, 10**4), rng.randint(1, 300)
    elif kind == 1:
        unit = rng.randint(1, 10**3)
        num, den = (p**5 * unit, rng.randint(1, 50)) if rng.random() < 0.5 else (unit, p**5)
    elif kind == 2:
        num, den = rng.randrange(10**19, 10**20), rng.choice((1, rng.randrange(10**19, 10**20)))
    else:
        num, den = rng.randint(1, 200), rng.randint(1, 12)
    num *= sign
    form = rng.randrange(3)
    if form == 0:
        return num * den
    if form == 1:
        return Fraction(num, den)
    return "%d/%d" % (num, den) if den != 1 or rng.random() < 0.5 else str(num)


def smooth_input(rng):
    """A value ``relevant_places`` can factor, as an int, Fraction or string;
    a few carry the 20-digit prime, which trial division alone cannot split
    off (each such value costs a full pass of the wheel)."""
    num, den = rng.choice((1, -1)) * (PRIME_20 if rng.random() < 0.03 else 1), 1
    for _ in range(rng.randint(0, 5)):
        q = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
        if rng.random() < 0.7:
            num *= q ** rng.randint(1, 5)
        else:
            den *= q ** rng.randint(1, 3)
    return rng.choice((Fraction(num, den), "%d/%d" % (num, den), num * den))


class TestIntegerReader:
    PLACES = (REAL,) + tuple(Place.prime(p) for p in ORACLE_PRIMES)

    def test_local_paths_match_the_fraction_path(self):
        rng = random.Random(80)
        kinds = Counter()
        for _ in range(3000):
            place = rng.choice(self.PLACES)
            p = place.p or rng.choice(ORACLE_PRIMES)
            a, b = reader_input(rng, p), reader_input(rng, p)
            kinds.update(type(x).__name__ for x in (a, b))
            assert outcome(hilbert_symbol, a, b, place) == outcome(
                fraction_hilbert_symbol, a, b, place
            ), (a, b, str(place))
            assert outcome(hilbert_symbol_search, a, b, place) == outcome(
                fraction_hilbert_symbol_search, a, b, place
            ), (a, b, str(place))
            assert outcome(is_local_square, a, place) == outcome(
                fraction_is_local_square, a, place
            ), (a, str(place))
        assert min(kinds[name] for name in ("int", "Fraction", "str")) > 500

    def test_relevant_places_match_the_fraction_path(self):
        rng = random.Random(81)
        for _ in range(1500):
            values = [smooth_input(rng) for _ in range(2)]
            assert relevant_places(values) == fraction_relevant_places(values), values

    @pytest.mark.parametrize(
        "bad", [0, Fraction(0), "0", "-0/7", 0.0, "abc", "1/0", "", None, [], 1j], ids=repr
    )
    def test_zero_and_non_numbers_raise_as_before(self, bad):
        place = Place.prime(3)
        pairs = (
            (hilbert_symbol, fraction_hilbert_symbol, (bad, 5, place)),
            (hilbert_symbol, fraction_hilbert_symbol, (5, bad, REAL)),
            (hilbert_symbol_search, fraction_hilbert_symbol_search, (bad, 5, REAL)),
            (hilbert_symbol_search, fraction_hilbert_symbol_search, (5, bad, place)),
            (is_local_square, fraction_is_local_square, (bad, place)),
            (relevant_places, fraction_relevant_places, ([3, bad],)),
        )
        for function, reference, args in pairs:
            expected = outcome(reference, *args)
            assert expected[0] in (ValueError, TypeError, ZeroDivisionError)
            assert outcome(function, *args) == expected, (function.__name__, bad)

    def test_local_paths_enter_no_fraction_code(self):
        # on Fraction inputs the symbol, the oracle and the sign tests read
        # integers only: a Fraction comparison or property is a Python call
        rng = random.Random(82)
        pairs = [(Fraction(-3, 7), Fraction(-5, 11)), (Fraction(2, 9), Fraction(-1, 4))]
        pairs += [
            (random_rational(rng, 10**6, 50), random_rational(rng, 10**6, 50)) for _ in range(40)
        ]
        entered = set()

        def profile(frame, event, arg):
            if event == "call":
                entered.add((frame.f_code.co_filename, frame.f_code.co_name))

        sys.setprofile(profile)
        try:
            for place in self.PLACES:
                for a, b in pairs:
                    hilbert_symbol(a, b, place)
                    hilbert_symbol_search(a, b, place)
        finally:
            sys.setprofile(None)
        assert (brauer.__file__, "hilbert_symbol") in entered
        assert {name for filename, name in entered if filename == fractions.__file__} == set()

    def test_relevant_places_factors_each_value_once(self, monkeypatch):
        rng = random.Random(83)
        calls = []
        factor = brauer._factor
        monkeypatch.setattr(brauer, "_factor", lambda n: calls.append(n) or factor(n))
        for _ in range(50):
            values = [random_rational(rng, 10**6, 50) for _ in range(2)]
            calls.clear()
            places_before = brauer._prime_place.cache_info().currsize
            relevant_places(values)
            # one call per value, plus one primality check per place first built
            new_places = brauer._prime_place.cache_info().currsize - places_before
            assert len(calls) == 2 + new_places
            assert [abs(brauer._class_int(v)) for v in values] == calls[:2]

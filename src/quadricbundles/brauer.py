"""Two-torsion Brauer classes over Q and Q(sqrt(d)) at desk scale.

Only the standard library is used, and every path does bounded work.

*Local paths.*  At a prime p a nonzero rational is ``p^v * u`` with ``u`` a
p-adic unit, and its square class is fixed by ``v mod 2`` and the residue of
``u`` mod p (mod 8 at p = 2); see Serre, *A Course in Arithmetic*, Ch. II-III.
``hilbert_symbol`` and ``is_local_square`` read ``v`` and ``u`` off
``numerator * denominator`` by repeated division, never factor, and cache the
symbol formula on the reduced classes.  The real place is settled by signs.

*Search oracle.*  ``hilbert_symbol_search`` is an independent check of the
formula: it reduces ``a`` and ``b`` to ``p^(v mod 2) * u`` modulo ``p^3``
(``2^6`` at p = 2) and searches for a primitive solution of
``z^2 = a x^2 + b y^2``, which for such coefficients lifts p-adically by
Hensel's lemma.  A primitive solution has x or y a unit, and dividing by the
square of that unit sets it to 1, so the search runs over one variable: is
``a + b*y^2`` or ``a*y^2 + b`` a square?  That is O(p^3) work per pair.  The
oracle refuses primes above ``SEARCH_PRIME_LIMIT``.

*Global paths.*  The prime support of a value (relevant places,
square-class representatives, the check on ``d``, primality of a ``Place``)
comes from trial division by 2, 3 and each ``6k +- 1`` below
``TRIAL_DIVISION_LIMIT``, a wheel with no table (Crandall and Pomerance,
*Prime Numbers*, 3.1), and a deterministic Miller-Rabin test, exact below
``MILLER_RABIN_LIMIT``.  An integer these cannot factor raises
``FactorizationBoundError``.

*Forms.*  On top of the symbols: quaternion splitting and ramification,
restriction to a quadratic extension, corestriction via the projection
formula, the classification invariants of rational quadratic forms, isotropy
in dimension >= 5 by the local-global principle, and Albert forms of
quaternion pairs.  By bilinearity, the Hasse invariant
``prod_(i<j) (d_i, d_j)_v`` reads each entry ``p^(a_i) u_i`` once: with
``A = sum a_i`` it is ``(-1)^(eps(p) C(A,2)) prod (u_i/p)^(A - a_i)`` at odd
p, ``(-1)^(C(E,2) + sum omega(u_i) (A - a_i))`` with ``E = sum eps(u_i)``
at 2, and ``(-1)^C(neg,2)`` at the real place.
Similarity is one linear system over F2 in the exponents of the scaling
square class, built from ``s_v(c*f) = s_v(f) * (c, (-1)^(n(n-1)/2) d(f)^(n-1))_v``
from one local class of the second slot per place (Lam, *Introduction to
Quadratic Forms over Fields*, Ch. V).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import prod

#: Trial division uses 2, 3 and each 6k +- 1, so every prime, below this bound.
TRIAL_DIVISION_LIMIT = 10**5
#: Miller-Rabin with the first 13 prime bases is exact below this integer.
MILLER_RABIN_LIMIT = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: Largest prime the search oracle accepts: it scans p^3 residues.
SEARCH_PRIME_LIMIT = 53


class FactorizationBoundError(ValueError):
    """An integer past what trial division and Miller-Rabin decide exactly."""

    def __init__(self, n):
        super().__init__(
            "%d is past the factorization bound: after trial division below %d "
            "a cofactor is composite or not below %d, where Miller-Rabin is exact"
            % (n, TRIAL_DIVISION_LIMIT, MILLER_RABIN_LIMIT)
        )


def _trial_divisors():
    """2, 3 and every ``6k +- 1`` below ``TRIAL_DIVISION_LIMIT``, ascending."""
    yield from (2, 3)
    for k in range(5, TRIAL_DIVISION_LIMIT, 6):
        yield k
        if k + 2 < TRIAL_DIVISION_LIMIT:
            yield k + 2


def _miller_rabin(n):
    """Strong-probable-prime test of an odd ``n`` above the bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _is_prime(n):
    """Exact primality of an integer; raises past ``MILLER_RABIN_LIMIT``."""
    if n < 2:
        return False
    for p in _trial_divisors():
        if p * p > n:
            return True
        if n % p == 0:
            return False
    if n < MILLER_RABIN_LIMIT:
        return _miller_rabin(n)
    raise FactorizationBoundError(n)


@lru_cache(maxsize=None)
def _factor(n):
    """Prime factorization ``((p, e), ...)`` of an integer ``n >= 1``, ascending."""
    factors = []
    m = n
    for p in _trial_divisors():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    else:
        # no prime factor below the limit is left in m
        if m >= TRIAL_DIVISION_LIMIT ** 2 and not (
            m < MILLER_RABIN_LIMIT and _miller_rabin(m)
        ):
            raise FactorizationBoundError(n)
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@lru_cache(maxsize=None)
def _prime_place(p):
    # a ValueError is not cached, so a p that is not prime raises on every call
    return Place(p)


@dataclass(frozen=True)
class Place:
    """A place of Q: the real place (``p is None``) or a finite prime."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            p = int(self.p)
            if p != self.p or not _is_prime(p):
                raise ValueError("%r is not prime" % (self.p,))
            object.__setattr__(self, "p", p)

    #: ``Place.prime(p)``: the one shared place of the prime ``p``.
    prime = staticmethod(_prime_place)

    @property
    def is_real(self):
        return self.p is None

    def __str__(self):
        return "real" if self.is_real else str(self.p)


REAL = Place()


def _as_nonzero_fraction(x, label="value"):
    if type(x) is not Fraction:
        x = Fraction(x)
    if not x:
        raise ValueError("%s must be nonzero" % label)
    return x


def _squarefree_int(n):
    result = -1 if n < 0 else 1
    for prime, exponent in _factor(abs(n)):
        if exponent % 2:
            result *= prime
    return result


def squarefree_part(x):
    """Signed squarefree integer representing the square class of ``x``."""
    x = _as_nonzero_fraction(x)
    return _squarefree_int(x.numerator * x.denominator)


def prime_support(x):
    """Odd primes in the squarefree part of ``x``."""
    x = _as_nonzero_fraction(x)
    return tuple(
        p for p, e in _factor(abs(x.numerator * x.denominator)) if e % 2 and p != 2
    )


def relevant_places(values):
    """Real, 2, and every odd prime dividing a square class of ``values``.

    Hilbert symbols of the values are +1 everywhere else.
    """
    primes = set()
    for value in values:
        primes.update(prime_support(value))
    return [REAL, Place.prime(2)] + [Place.prime(p) for p in sorted(primes)]


def _legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _epsilon(u):
    return ((u - 1) // 2) % 2


def _omega(u):
    return ((u * u - 1) // 8) % 2


def _split_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _local_class(x, p, modulus):
    """``(v mod 2, u mod modulus)`` for a nonzero Fraction ``x = p^v * u`` up
    to unit squares.

    Read off ``numerator * denominator``, which is ``x`` times a square.
    """
    v, u = _split_valuation(x.numerator * x.denominator, p)
    return v % 2, u % modulus


@lru_cache(maxsize=None)
def _hilbert_formula(alpha, u, beta, w, p):
    """``(p^alpha u, p^beta w)_p`` for units u, w reduced mod p (mod 8 at 2)."""
    if p == 2:
        e = _epsilon(u) * _epsilon(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if e % 2 else 1
    result = 1
    if alpha and beta and (p - 1) // 2 % 2:
        result = -result
    if beta:
        result *= _legendre(u, p)
    if alpha:
        result *= _legendre(w, p)
    return result


def hilbert_symbol(a, b, place):
    """Local Hilbert symbol ``(a, b)`` at a place of Q, by formula."""
    a = _as_nonzero_fraction(a, "a")
    b = _as_nonzero_fraction(b, "b")
    if place.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = place.p
    modulus = 8 if p == 2 else p
    return _hilbert_formula(*_local_class(a, p, modulus), *_local_class(b, p, modulus), p)


def _search_modulus(p):
    return 64 if p == 2 else p ** 3


@lru_cache(maxsize=None)
def _squares_mod(modulus):
    return frozenset(x * x % modulus for x in range(modulus))


@lru_cache(maxsize=None)
def _solubility_search(a, b, p):
    """1 if ``z^2 = a x^2 + b y^2`` has a solution modulo ``p^3`` (``2^6``)
    with x or y a unit, else -1.

    Dividing such a solution by the square of its unit coordinate sets that
    coordinate to 1, so it suffices that ``a + b*s`` or ``a*s + b`` is a
    square for some square ``s`` (the square of the other coordinate).
    """
    modulus = _search_modulus(p)
    squares = _squares_mod(modulus)
    for s in squares:
        if (a + b * s) % modulus in squares or (a * s + b) % modulus in squares:
            return 1
    return -1


def hilbert_symbol_search(a, b, place):
    """Brute-force oracle for the Hilbert symbol.

    Finite places: exhaustive search for a primitive solution of
    ``z^2 = a x^2 + b y^2`` modulo ``p^3`` (odd ``p``) or ``2^6``, with ``a``
    and ``b`` reduced to ``p^(v mod 2)`` times a unit; for such coefficients
    any solution lifts p-adically and any p-adic solution reduces to one.
    Primes above ``SEARCH_PRIME_LIMIT`` are refused.  The real place is
    settled by signs alone.
    """
    a = _as_nonzero_fraction(a, "a")
    b = _as_nonzero_fraction(b, "b")
    if place.is_real:
        return 1 if a > 0 or b > 0 else -1
    p = place.p
    if p > SEARCH_PRIME_LIMIT:
        raise ValueError(
            "the search oracle covers primes up to %d, got %d" % (SEARCH_PRIME_LIMIT, p)
        )
    modulus = _search_modulus(p)
    alpha, u = _local_class(a, p, modulus)
    beta, w = _local_class(b, p, modulus)
    return _solubility_search(p ** alpha * u % modulus, p ** beta * w % modulus, p)


def is_local_square(x, place):
    """Is ``x`` a square in the completion of Q at ``place``?"""
    x = _as_nonzero_fraction(x)
    if place.is_real:
        return x > 0
    p = place.p
    v, u = _local_class(x, p, 8 if p == 2 else p)
    if v:
        return False
    return u == 1 if p == 2 else _legendre(u, p) == 1


# -- quaternion classes ------------------------------------------------------

def _validate_quadratic_d(d):
    as_fraction = Fraction(d)
    if as_fraction.denominator != 1 or as_fraction == 0:
        raise ValueError("d must be a squarefree nonsquare integer, got %r" % (d,))
    d = int(as_fraction)
    if d == 1 or _squarefree_int(d) != d:
        raise ValueError("d must be a squarefree nonsquare integer, got %r" % (d,))
    return d


@dataclass(frozen=True)
class QuaternionClass:
    """Brauer class over Q of the quaternion algebra ``(a, b)``."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _as_nonzero_fraction(self.a, "a"))
        object.__setattr__(self, "b", _as_nonzero_fraction(self.b, "b"))


def quaternion_is_split(q):
    """Splitting over Q, with the (even-sized) list of ramified places."""
    ramified = [
        v for v in relevant_places([q.a, q.b]) if hilbert_symbol(q.a, q.b, v) == -1
    ]
    return (not ramified, ramified)


def splits_over_quadratic(q, d):
    """Does ``q`` (over Q) split after restriction to Q(sqrt(d))?

    Standard criterion: the restriction is trivial iff at every ramified
    place of ``q`` the completion does not contain sqrt(d).
    """
    d = _validate_quadratic_d(d)
    split, ramified = quaternion_is_split(q)
    if split:
        return True
    return all(not is_local_square(d, v) for v in ramified)


def corestriction_projection(a, b_pair, d):
    """Corestrict ``(a, x + y*sqrt(d))`` from Q(sqrt(d)) to Q.

    Projection formula for a in Q: the result is ``(a, Norm(x + y*sqrt(d)))``
    with ``Norm = x^2 - d*y^2``.
    """
    a = _as_nonzero_fraction(a, "a")
    d = _validate_quadratic_d(d)
    x, y = (Fraction(component) for component in b_pair)
    norm = x * x - d * y * y
    if norm == 0:
        raise ValueError("b must be nonzero in Q(sqrt(%d))" % d)
    return QuaternionClass(a, norm)


def res_cor_doubling_check(beta, d):
    """Restriction to Q(sqrt(d)) followed by corestriction kills 2-torsion.

    ``beta = (a, b)`` over Q restricts to the same symbol over the extension;
    the projection formula corestricts it to ``(a, b^2)``, which must split.
    """
    cor = corestriction_projection(beta.a, (beta.b, 0), d)
    split, _ = quaternion_is_split(cor)
    return split


# -- rational quadratic forms ------------------------------------------------

@dataclass(frozen=True)
class RationalQuadraticForm:
    """Nondegenerate diagonal quadratic form over Q."""

    diag: tuple

    def __post_init__(self):
        entries = tuple(_as_nonzero_fraction(x, "diagonal entry") for x in self.diag)
        if not entries:
            raise ValueError("a form needs at least one diagonal entry")
        object.__setattr__(self, "diag", entries)

    @property
    def dim(self):
        return len(self.diag)

    @cached_property
    def signature(self):
        """Counts ``(positive, negative)`` of the diagonal entries."""
        pos = sum(1 for x in self.diag if x > 0)
        return pos, self.dim - pos

    @cached_property
    def disc(self):
        """Signed squarefree integer of the discriminant's square class."""
        return _squarefree_int(prod(x.numerator * x.denominator for x in self.diag))

    def __str__(self):
        return "<%s>" % ", ".join(str(x) for x in self.diag)


@dataclass(frozen=True)
class FormInvariants:
    """Classifying invariants: dimension, discriminant square class,
    real signature, and Hasse invariants at the relevant places."""

    dim: int
    disc: int
    signature: tuple
    hasse: tuple  # ((Place, +-1), ...) at relevant places, in place order


def hasse_invariant(form, place):
    """Product of ``(d_i, d_j)`` over ``i < j`` at the given place.

    By bilinearity each entry ``d_i = p^(a_i) u_i`` enters through its local
    class alone: with ``A = sum a_i``, the pairs give ``sum_(i<j) a_i a_j =
    C(A, 2)`` and ``u_i`` meets the ``A - a_i`` other entries of odd valuation.
    So the invariant is ``(-1)^(eps(p) C(A, 2)) prod (u_i/p)^(A - a_i)`` at odd
    p, ``(-1)^(C(E, 2) + sum omega(u_i) (A - a_i))`` with ``E = sum eps(u_i)``
    at 2, and ``(-1)^C(neg, 2)`` at the real place: O(n) work, not C(n, 2).
    """
    if place.is_real:
        neg = form.signature[1]
        return -1 if neg * (neg - 1) // 2 % 2 else 1
    p = place.p
    classes = [_local_class(x, p, 8 if p == 2 else p) for x in form.diag]
    total = sum(a for a, _ in classes)
    if p == 2:
        units = sum(_epsilon(u) for _, u in classes)
        e = units * (units - 1) // 2 + sum(_omega(u) * (total - a) for a, u in classes)
        return -1 if e % 2 else 1
    sign = -1 if total * (total - 1) // 2 * _epsilon(p) % 2 else 1
    return sign * _legendre(prod(u for a, u in classes if (total - a) % 2), p)


def form_invariants(form):
    places = relevant_places(form.diag)
    hasse = tuple((v, hasse_invariant(form, v)) for v in places)
    return FormInvariants(
        dim=form.dim, disc=form.disc, signature=form.signature, hasse=hasse
    )


def forms_equivalent(f, g):
    """Isometry over Q, decided by the classification invariants."""
    inv_f, inv_g = form_invariants(f), form_invariants(g)
    hasse_f, hasse_g = dict(inv_f.hasse), dict(inv_g.hasse)
    return (inv_f.dim, inv_f.disc, inv_f.signature) == (
        inv_g.dim, inv_g.disc, inv_g.signature
    ) and all(hasse_f.get(v, 1) == hasse_g.get(v, 1) for v in hasse_f.keys() | hasse_g.keys())


def is_isotropic(form):
    """Does a form of dimension >= 5 represent zero nontrivially over Q?

    Such a form is isotropic at every finite place, so by the local-global
    principle it is isotropic iff it is indefinite.  The descent asks this of
    six-dimensional Albert forms only; smaller dimensions raise ``ValueError``.
    """
    if form.dim < 5:
        raise ValueError("isotropy is decided for dimension >= 5, got %d" % form.dim)
    pos, neg = form.signature
    return pos > 0 and neg > 0


def _least_solution(rows):
    """Least ``x`` with ``popcount(mask & x) % 2 == rhs`` for every
    ``(mask, rhs)`` row over F2, or None when the rows are inconsistent.

    Each pivot sits at the lowest bit of its row, so a pivot depends only on
    higher bits; setting every free bit to 0 from the top down then gives the
    least solution.
    """
    pivots = {}
    for mask, rhs in rows:
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = (mask, rhs)
                break
            pivot_mask, pivot_rhs = pivots[low]
            mask ^= pivot_mask
            rhs ^= pivot_rhs
        else:
            if rhs:
                return None
    x = 0
    for low in sorted(pivots, reverse=True):
        mask, rhs = pivots[low]
        if ((mask & x).bit_count() + rhs) % 2:
            x |= low
    return x


def forms_similar(f, g):
    """Is there ``c`` with ``c*f`` isometric to ``g``?  Returns (bool, c).

    ``c`` ranges over the square classes ``(-1)^s * prod p^(x_p)`` for ``p`` in
    2 and the primes of the entries: any valid scaling can be moved into this
    set because the Hasse invariants of both forms are trivial at every
    other place.  Isometry of ``c*f`` and ``g`` is then linear over F2 in
    ``(s, x_p)``: the signature fixes ``s`` unless it is balanced; in odd
    dimension ``d(c*f) = c*d(f)`` must be ``d(g)``, in even dimension
    ``d(f) = d(g)``; at the real place, 2 and each odd prime,
    ``s_v(c*f) = s_v(f) * (c, e)_v`` with ``e = (-1)^(n(n-1)/2) d(f)^(n-1)``
    must be ``s_v(g)``.  The ``c`` returned is the first hit of the order
    that puts +1 before -1 and then counts through the subsets of primes as
    binary numbers with 2 as the lowest bit.
    """
    if f.dim != g.dim:
        raise ValueError("forms of different dimension cannot be similar")
    n = f.dim
    primes = {2}
    for x in f.diag + g.diag:
        primes.update(prime_support(x))
    primes = sorted(primes)
    sign_bit = 1 << len(primes)

    flipped = f.signature[::-1]
    if g.signature not in (f.signature, flipped):
        return False, None
    rows = []
    if flipped != f.signature:
        rows.append((sign_bit, int(g.signature == flipped)))
    if n % 2:
        rows.append((sign_bit, int((f.disc < 0) != (g.disc < 0))))
        rows.extend(
            (1 << i, int((f.disc % p == 0) != (g.disc % p == 0))) for i, p in enumerate(primes)
        )
    elif f.disc != g.disc:
        return False, None

    # (c, e)_v for c = -1 and each p: only signs matter at the real place; at
    # a prime l, -1 has class (0, m - 1) and p has (1, 1) if p = l, else (0, p).
    e = (-1) ** (n * (n - 1) // 2) * (f.disc if n % 2 == 0 else 1)
    places = [REAL] + [Place.prime(p) for p in primes]
    flips = [int(hasse_invariant(f, v) != hasse_invariant(g, v)) for v in places]
    rows.append((sign_bit if e < 0 else 0, flips[0]))
    for ell, flip in zip(primes, flips[1:]):
        m = 8 if ell == 2 else ell
        beta, w = _local_class(e, ell, m)
        mask = sign_bit if _hilbert_formula(0, m - 1, beta, w, ell) == -1 else 0
        for i, p in enumerate(primes):
            if _hilbert_formula(*((1, 1) if p == ell else (0, p % m)), beta, w, ell) == -1:
                mask |= 1 << i
        rows.append((mask, flip))

    x = _least_solution(rows)
    if x is None:
        return False, None
    c = -1 if x & sign_bit else 1
    for i, p in enumerate(primes):
        if x >> i & 1:
            c *= p
    return True, c


def albert_form(q1, q2):
    """Six-dimensional form attached to a pair of quaternion classes over Q:
    ``<a1, b1, -a1*b1, -a2, -b2, a2*b2>`` with square-class-reduced entries."""
    entries = (
        q1.a,
        q1.b,
        -q1.a * q1.b,
        -q2.a,
        -q2.b,
        q2.a * q2.b,
    )
    return RationalQuadraticForm(tuple(Fraction(squarefree_part(x)) for x in entries))


@dataclass(frozen=True)
class DescentReport:
    """Outcome of one quaternion-descent instance (p, q, r, d)."""

    p: Fraction
    q: Fraction
    r: Fraction
    d: int
    isotropy_form: RationalQuadraticForm   # <1, -d, -p, q, r, -d*p*q*r>
    albert_pair_form: RationalQuadraticForm
    similar: bool
    scale: int | None
    splits_over_extension: bool
    residual_class: QuaternionClass        # (d*p*q, d*p*r), the descended candidate
    hypothesis_division_split: bool
    consistent: bool


def verify_quaternion_descent_instance(p, q, r, d):
    """Check one instance of the quaternion descent argument.

    (i) the six-dimensional form ``<1, -d, -p, q, r, -d*p*q*r>`` is compared
    for similarity with the Albert form of the pair ``(p, d), (d*p*q, d*p*r)``;
    (ii) ``(p, d)`` must split over Q(sqrt(d)); (iii) the residual class
    ``(d*p*q, d*p*r)`` is reported.  The instance is consistent when the two
    forms are similar and the Albert form is isotropic; its anisotropy, which
    ``hypothesis_division_split`` reports, would make the pair a biquaternion
    division algebra (Albert).  Over Q that never happens: a six-dimensional
    form is isotropic iff indefinite (Hasse-Minkowski).
    """
    p, q, r = (Fraction(x) for x in (p, q, r))
    d = _validate_quadratic_d(d)
    for label, x in (("p", p), ("q", q), ("r", r)):
        _as_nonzero_fraction(x, label)
    entries = (Fraction(1), Fraction(-d), -p, q, r, -d * p * q * r)
    isotropy_form = RationalQuadraticForm(tuple(Fraction(squarefree_part(x)) for x in entries))
    first = QuaternionClass(p, Fraction(d))
    second = QuaternionClass(d * p * q, d * p * r)
    pair_form = albert_form(first, second)
    similar, scale = forms_similar(isotropy_form, pair_form)
    splits = splits_over_quadratic(first, d)
    isotropic = is_isotropic(pair_form)
    return DescentReport(
        p=p,
        q=q,
        r=r,
        d=d,
        isotropy_form=isotropy_form,
        albert_pair_form=pair_form,
        similar=similar,
        scale=scale,
        splits_over_extension=splits,
        residual_class=second,
        hypothesis_division_split=not isotropic,
        consistent=similar and isotropic,
    )

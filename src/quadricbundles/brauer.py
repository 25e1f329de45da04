"""Two-torsion Brauer classes over Q and Q(sqrt(d)) at desk scale.

Only the standard library is used, and every path does bounded work.

*Local paths.*  At a prime p a nonzero rational is ``p^v * u`` with ``u`` a
p-adic unit, and its square class is fixed by ``v mod 2`` and the residue of
``u`` mod p (mod 8 at p = 2); see Serre, *A Course in Arithmetic*, Ch. II-III.
``hilbert_symbol``, ``hilbert_symbol_search`` and ``is_local_square`` read
each value once, with ``_class_int``, as an integer of the same sign and
square class: an ``int`` is itself, a ``Fraction`` is
``numerator * denominator``.  The real place is settled by the sign of that
integer; at a prime one division loop reads ``v mod 2`` and ``u``, never
factoring.  The Hilbert symbol is then ``_local_symbol``, the one closed form
that also gives every Hasse invariant, cached on a key of small integers.
No local path does ``Fraction`` arithmetic.

*Search oracle.*  ``hilbert_symbol_search`` is an independent check of the
formula: it reduces ``a`` and ``b`` to ``p^(v mod 2) * u`` modulo ``p^2``
(``2^6`` at p = 2) and searches for a primitive solution of
``z^2 = a x^2 + b y^2``.  At odd p a solution modulo ``p^2`` with x or y a
unit lifts p-adically by Hensel's lemma (``_solubility_search`` gives the
case analysis), while modulo p every pair with ``a = b = 0 (mod p)`` would
pass.  A primitive solution has x or y a unit, and dividing by the square of
that unit sets it to 1, so the search runs over one variable: is
``a + b*y^2`` or ``a*y^2 + b`` a square?  The table of squares modulo ``m``
is built from ``x <= m/2`` alone, since ``x`` and ``m - x`` have the same
square; modulo ``p^2`` it has ``p(p-1)/2 + 1`` entries, so the search is
O(p^2) work per pair.  The oracle refuses primes above
``SEARCH_PRIME_LIMIT``.

*Global paths.*  The prime support of a value (relevant places,
square-class representatives, the check on ``d``, primality of a ``Place``)
comes from trial division by 2, 3 and each ``6k +- 1`` below
``TRIAL_DIVISION_LIMIT``, a wheel with no table (Crandall and Pomerance,
*Prime Numbers*, 3.1), and a deterministic Miller-Rabin test, exact below
``MILLER_RABIN_LIMIT``.  A cofactor that is not prime is certified when it
is ``r^k`` with ``r`` a prime below that bound, read off an integer k-th
root.  An integer these cannot factor raises ``FactorizationBoundError``.

*Forms.*  On top of the symbols: quaternion splitting and ramification,
restriction to a quadratic extension, corestriction via the projection
formula, the classification invariants of rational quadratic forms, isotropy
in dimension >= 5 by the local-global principle, and Albert forms of
quaternion pairs.  Quaternion classes and forms reduce each entry once to its
square class, a signed squarefree integer, and read every invariant off those:
classes ``s`` and ``t`` multiply to ``s*t / gcd(s, t)^2``, and the places of
the Hasse map are the primes of the classes; a product of classes records
its primes for ``_factor``.  The quaternion descent reduces d, p, q and r
once, builds both of its forms on the classes it holds, and fills their
Hasse maps over one shared list of places.  Similarity is decided in even
dimension ``n`` with discriminant ``(-1)^(n(n-1)/2)``, where
``s_v(c*f) = s_v(f) * (c, (-1)^(n(n-1)/2) d(f)^(n-1))_v`` (Lam,
*Introduction to Quadratic Forms over Fields*, Ch. V) moves no Hasse
invariant: only the sign of ``c`` acts.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, log2, prod

#: Trial division uses 2, 3 and each 6k +- 1, so every prime, below this bound.
TRIAL_DIVISION_LIMIT = 10**5
#: Miller-Rabin with the first 13 prime bases is exact below this integer.
MILLER_RABIN_LIMIT = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: Largest prime the search oracle accepts: it scans the p(p-1)/2 + 1 squares
#: modulo p^2 (the bound of 53 dates from the p^3 scan and is kept).
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


def _integer_root(m, k):
    """Largest ``r`` with ``r^k <= m``: ``isqrt``, or for ``k > 2`` Newton's
    method in integers.  Its start is ``2^(log2(m) / k)`` read off the top 64
    bits of ``m``, since ``m`` overflows a float past 1e308; one step from
    any start is at least the root (AM-GM), and the steps then descend to it.
    """
    if k == 2:
        return isqrt(m)
    shift = max(m.bit_length() - 64, 0)
    whole, part = divmod((shift + log2(m >> shift)) / k, 1)

    def step(r):
        return ((k - 1) * r + m // r ** (k - 1)) // k

    r = step(int(2 ** (part + 60)) << int(whole) >> 60)
    while (s := step(r)) < r:
        r = s
    return r


def _prime_power(m):
    """``(r, k)`` with ``m = r^k``, ``k >= 2`` and ``r`` a prime below
    ``MILLER_RABIN_LIMIT``, for an ``m`` with no prime factor below
    ``TRIAL_DIVISION_LIMIT``; else None.

    Such an ``r`` exceeds ``2^16``, so ``k`` is at most ``bit_length // 16``.
    """
    for k in range(2, m.bit_length() // 16 + 1):
        r = _integer_root(m, k)
        if r ** k == m and r < MILLER_RABIN_LIMIT and _miller_rabin(r):
            return r, k
    return None


#: ``n -> _factor(n)``, including the classes ``_class_product`` builds.
_factorizations = {}


def _factor(n):
    """Prime factorization ``((p, e), ...)`` of an integer ``n >= 1``, ascending."""
    factors = _factorizations.get(n)
    if factors is not None:
        return factors
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
            power = _prime_power(m)
            if power is None:
                raise FactorizationBoundError(n)
            factors.append(power)
            m = 1
    if m > 1:
        factors.append((m, 1))
    factors = _factorizations[n] = tuple(factors)
    return factors


@lru_cache(maxsize=None)
def _prime_place(p):
    # a ValueError is not cached, so a p that is not prime raises on every call
    return Place(p)


class Place:
    """A place of Q: the real place (``p is None``) or a finite prime."""

    def __init__(self, p=None):
        if p is not None:
            prime = int(p)
            if prime != p or prime < 2 or _factor(prime) != ((prime, 1),):
                raise ValueError("%r is not prime" % (p,))
            p = prime
        self.p = p

    #: ``Place.prime(p)``: the one shared place of the prime ``p``.
    prime = staticmethod(_prime_place)

    def __eq__(self, other):
        if type(other) is not Place:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __str__(self):
        return "real" if self.p is None else str(self.p)


REAL = Place()


def _as_nonzero_rational(x, label="value"):
    if type(x) is not Fraction and type(x) is not int:
        x = Fraction(x)
    if not x:
        raise ValueError("%s must be nonzero" % label)
    return x


def _class_int(x, label="value"):
    """A nonzero integer with the sign and square class of ``x``: an ``int``
    itself, a ``Fraction`` its numerator times its denominator, anything else
    read by ``Fraction`` first.

    The slots are read directly: the ``numerator`` and ``denominator``
    properties each cost a Python-level call.
    """
    if type(x) is not int:
        if type(x) is not Fraction:
            x = Fraction(x)
        x = x._numerator * x._denominator
    if not x:
        raise ValueError("%s must be nonzero" % label)
    return x


def _squarefree_int(n):
    result = -1 if n < 0 else 1
    for prime, exponent in _factor(abs(n)):
        if exponent % 2:
            result *= prime
    return result


def _class_product(s, t):
    """Square class of ``s*t`` for signed squarefree integers ``s`` and ``t``;
    its factors ``(p, 1)``, those of exactly one of them, are recorded for
    ``_factor``, so a class built from factored classes is never trial-divided."""
    u = s * t // gcd(s, t) ** 2
    if abs(u) not in _factorizations:
        factors = set(_factor(abs(s))).symmetric_difference(_factor(abs(t)))
        _factorizations[abs(u)] = tuple(sorted(factors))
    return u


def squarefree_part(x):
    """Signed squarefree integer representing the square class of ``x``."""
    return _squarefree_int(_class_int(x))


def relevant_places(values):
    """Real, 2, and every odd prime dividing a square class of ``values``.

    Hilbert symbols of the values are +1 everywhere else.
    """
    primes = set()
    for value in values:
        for p, e in _factor(abs(_class_int(value))):
            if e % 2:
                primes.add(p)
    primes.discard(2)
    return [REAL, Place.prime(2), *map(Place.prime, sorted(primes))]


@lru_cache(maxsize=None)
def _local_symbol(p, total, odd, threes):
    """Hasse invariant ``prod_{i<j} (d_i, d_j)_p`` of a diagonal form at the
    prime p: the one local formula, which for two entries is the Hilbert
    symbol ``(d_1, d_2)_p``.

    Write ``d_i = p^(a_i) u_i`` with ``a_i`` 0 or 1 and ``u_i`` a unit.  By
    bilinearity, with ``A = sum a_i`` (``total``), the pairs of odd valuation
    give ``C(A, 2)`` and ``u_i`` meets the ``A - a_i`` other entries of odd
    valuation.  The Legendre symbol and ``(-1)^omega`` are multiplicative, so
    each is read once, off ``odd``, the product of the units with ``A - a_i``
    odd, reduced mod p (mod 8 at 2).  So the invariant is
    ``(-1)^(eps(p) C(A, 2)) (odd/p)`` at odd p and
    ``(-1)^(C(E, 2) + omega(odd))`` at 2, where ``E`` (``threes``, 0 at odd
    p) counts the units = 3 (mod 4), those with ``eps(u) = 1``.  With two
    entries this is Serre's formula (*A Course in Arithmetic*, Ch. III).
    """
    if p == 2:
        return -1 if (threes * (threes - 1) // 2 + (odd * odd - 1) // 8) % 2 else 1
    sign = -1 if total * (total - 1) // 2 % 2 and p % 4 == 3 else 1
    # Euler's criterion
    return sign if pow(odd, (p - 1) // 2, p) == 1 else -sign


def hilbert_symbol(a, b, place):
    """Local Hilbert symbol ``(a, b)`` at a place of Q, by formula."""
    a = _class_int(a, "a")
    b = _class_int(b, "b")
    p = place.p
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    alpha = beta = 0
    while a % p == 0:
        a //= p
        alpha ^= 1
    while b % p == 0:
        b //= p
        beta ^= 1
    # a's unit meets beta entries of odd valuation, b's unit alpha of them
    odd = (a if beta else 1) * (b if alpha else 1)
    threes = (a % 4 == 3) + (b % 4 == 3) if p == 2 else 0
    return _local_symbol(p, alpha + beta, odd % (8 if p == 2 else p), threes)


def _search_modulus(p):
    return 64 if p == 2 else p * p


@lru_cache(maxsize=None)
def _squares_mod(modulus):
    # x and modulus - x have the same square
    return frozenset(x * x % modulus for x in range(modulus // 2 + 1))


@lru_cache(maxsize=None)
def _solubility_search(a, b, p):
    """1 if ``z^2 = a x^2 + b y^2`` has a solution modulo ``p^2`` (``2^6`` at
    p = 2) with x or y a unit, else -1.

    Dividing such a solution by the square of its unit coordinate sets that
    coordinate to 1, so it suffices that ``a + b*s`` or ``a*s + b`` is a
    square for some square ``s`` (the square of the other coordinate).

    At odd p, ``p^2`` suffices.  Let ``a = p^alpha u`` and ``b = p^beta w``
    with alpha, beta in {0, 1} and u, w units.  A p-adic solution with x, y, z
    not all divisible by p has x or y a unit (else p divides z), so it
    reduces to one the search finds.  Conversely a solution modulo ``p^2``
    with x or y a unit lifts by Hensel's lemma (Serre, Ch. II):

    - if z is a unit, lift in z;
    - if p | z and the unit coordinate's coefficient is a unit, lift in that
      coordinate;
    - if alpha = beta = 1, put z = p z'; the solution gives
      ``u x^2 + w y^2 = 0 (mod p)``, so lift ``u x^2 + w y^2 = p z'^2`` in
      the unit coordinate;
    - if alpha = 1, beta = 0, p | z, x is a unit and p | y, then
      ``p u x^2 = 0 (mod p^2)``, which is impossible, so the search never
      finds such a solution (likewise with the roles of a and b swapped).
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
    ``z^2 = a x^2 + b y^2`` modulo ``p^2`` (odd ``p``) or ``2^6``, with ``a``
    and ``b`` reduced to ``p^(v mod 2)`` times a unit; for such coefficients
    any solution with x or y a unit lifts p-adically (``_solubility_search``
    gives the argument) and any p-adic solution reduces to one.
    Primes above ``SEARCH_PRIME_LIMIT`` are refused.  The real place is
    settled by signs alone.
    """
    a = _class_int(a, "a")
    b = _class_int(b, "b")
    p = place.p
    if p is None:
        return 1 if a > 0 or b > 0 else -1
    if p > SEARCH_PRIME_LIMIT:
        raise ValueError(
            "the search oracle covers primes up to %d, got %d" % (SEARCH_PRIME_LIMIT, p)
        )
    alpha = beta = 0
    while a % p == 0:
        a //= p
        alpha ^= 1
    while b % p == 0:
        b //= p
        beta ^= 1
    modulus = _search_modulus(p)
    return _solubility_search(p ** alpha * a % modulus, p ** beta * b % modulus, p)


def is_local_square(x, place):
    """Is ``x`` a square in the completion of Q at ``place``?"""
    x = _class_int(x)
    p = place.p
    if p is None:
        return x > 0
    v = 0
    while x % p == 0:
        x //= p
        v ^= 1
    if v:
        return False
    # Euler's criterion at odd p
    return x % 8 == 1 if p == 2 else pow(x % p, (p - 1) // 2, p) == 1


# -- quaternion classes ------------------------------------------------------

def _validate_quadratic_d(d):
    if type(d) is not int:
        as_fraction = Fraction(d)
        if as_fraction.denominator != 1 or as_fraction == 0:
            raise ValueError("d must be a squarefree nonsquare integer, got %r" % (d,))
        d = int(as_fraction)
    if d == 0 or d == 1 or _squarefree_int(d) != d:
        raise ValueError("d must be a squarefree nonsquare integer, got %r" % (d,))
    return d


class QuaternionClass:
    """Brauer class over Q of the quaternion algebra ``(a, b)``, equal to
    another when ``a`` and ``b`` are."""

    def __init__(self, a, b):
        self.a = _as_nonzero_rational(a, "a")
        self.b = _as_nonzero_rational(b, "b")

    def __eq__(self, other):
        if type(other) is not QuaternionClass:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    @cached_property
    def classes(self):
        """Signed squarefree integers of the square classes of ``a`` and ``b``."""
        return squarefree_part(self.a), squarefree_part(self.b)


def quaternion_is_split(q):
    """Splitting over Q, with the (even-sized) list of ramified places."""
    ramified = [v for v in relevant_places(q.classes) if hilbert_symbol(*q.classes, v) == -1]
    return (not ramified, ramified)


def corestriction_projection(a, b_pair, d):
    """Corestrict ``(a, x + y*sqrt(d))`` from Q(sqrt(d)) to Q.

    Projection formula for a in Q: the result is ``(a, Norm(x + y*sqrt(d)))``
    with ``Norm = x^2 - d*y^2``.
    """
    a = _as_nonzero_rational(a, "a")
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
    So each call tests only ``(s, 1)_v = 1``, ``s`` the square class of ``a``.
    """
    cor = corestriction_projection(beta.a, (beta.b, 0), d)
    split, _ = quaternion_is_split(cor)
    return split


# -- rational quadratic forms ------------------------------------------------

class _SquareClasses(tuple):
    """A nonempty diagonal of signed squarefree integers, each its own square
    class: the forms the descent builds from classes it holds."""


class RationalQuadraticForm:
    """Nondegenerate diagonal quadratic form over Q.

    Construction reads each entry once: ``classes`` holds the entries' square
    classes, signed squarefree integers, ``dim`` their number, ``signature``
    the counts of positive and negative entries, and ``disc`` the
    discriminant's class, the product of the classes.  The Hasse map
    ``hasse`` is built on first use.  Raw entries are validated and reduced;
    a diagonal given as ``_SquareClasses`` is taken as its own classes, with
    nothing reduced again.  Forms are equal when their diagonals are.
    """

    def __init__(self, diag):
        if type(diag) is _SquareClasses:
            classes = entries = tuple(diag)
        else:
            entries = tuple(_as_nonzero_rational(x, "diagonal entry") for x in diag)
            if not entries:
                raise ValueError("a form needs at least one diagonal entry")
            classes = tuple([squarefree_part(x) for x in entries])
        pos, disc = 0, 1
        for s in classes:
            pos += s > 0
            # classes s and t multiply to s*t / gcd(s, t)^2
            disc = disc * s // gcd(disc, s) ** 2
        self.diag = entries
        self.classes = classes
        self.signature = (pos, len(entries) - pos)
        self.disc = disc
        self.dim = len(entries)

    def __eq__(self, other):
        if type(other) is not RationalQuadraticForm:
            return NotImplemented
        return self.diag == other.diag

    def __hash__(self):
        return hash(self.diag)

    @cached_property
    def hasse(self):
        """Hasse invariant at ``relevant_places(classes)``; +1 at every other
        place, where each entry is a unit times a square."""
        return _hasse_map(self, relevant_places(self.classes))

    def __str__(self):
        return "<%s>" % ", ".join(str(x) for x in self.diag)


def _hasse_map(form, places):
    """``{place: Hasse invariant}`` of ``form`` over ``places``, which are
    ``relevant_places`` of its classes.  The real place is ``(-1)^C(neg, 2)``
    for ``neg`` negative entries, read off the signature; at each prime one
    pass over the classes splits off the units and gives ``_local_symbol``
    its key."""
    neg = form.signature[1]
    hasse = {REAL: -1 if neg * (neg - 1) // 2 % 2 else 1}
    classes = form.classes
    for v in places[1:]:
        p = v.p
        divided, kept = [], []
        for s in classes:
            if s % p:
                kept.append(s)
            else:
                divided.append(s // p)
        total = len(divided)
        odd = prod(kept if total % 2 else divided)
        threes = len([u for u in divided + kept if u % 4 == 3]) if p == 2 else 0
        hasse[v] = _local_symbol(p, total, odd % (8 if p == 2 else p), threes)
    return hasse


def _same_hasse(f, g):
    """Do the Hasse maps agree, +1 off each map's places?  Maps on the same
    places compare as dicts, which hashes no place again."""
    return f.hasse == g.hasse or all(
        f.hasse.get(v, 1) == g.hasse.get(v, 1) for v in f.hasse.keys() | g.hasse.keys()
    )


def forms_equivalent(f, g):
    """Isometry over Q, decided by the classification invariants."""
    return (f.dim, f.disc, f.signature) == (g.dim, g.disc, g.signature) and _same_hasse(f, g)


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


def forms_similar(f, g):
    """Is there ``c`` with ``c*f`` isometric to ``g``?  Returns (bool, c).

    Decided in even dimension ``n`` when one form has discriminant (class of
    the entries' product) ``(-1)^(n(n-1)/2)``; other pairs raise ``ValueError``.
    Scaling gives ``d(c*f) = c^n d(f) = d(f)`` and ``s_v(c*f) = s_v(f) (c, e)_v``
    with ``e = (-1)^(n(n-1)/2) d(f)^(n-1)`` (Lam, *Introduction to Quadratic
    Forms over Fields*, Ch. V), a square here as ``n - 1`` is odd.  So only the
    sign of ``c`` acts: ``f`` and ``g`` are similar iff their discriminants and
    Hasse maps (+1 off each map's places) agree and ``g`` has the signature of
    ``f``, for ``c = 1`` (tried first), or its flip, for ``c = -1``.  The
    descent's forms ``<1, -d, -p, q, r, -dpqr>`` and Albert forms
    ``<a1, b1, -a1*b1, -a2, -b2, a2*b2>`` qualify: their entries multiply to
    minus a square, and ``(-1)^(6*5/2) = -1``.
    """
    n = f.dim
    if n != g.dim:
        raise ValueError("forms of different dimension cannot be similar")
    if n % 2 or (-1) ** (n * (n - 1) // 2) not in (f.disc, g.disc):
        raise ValueError(
            "similarity needs even dimension n and a discriminant (-1)^(n(n-1)/2)"
        )
    if f.disc == g.disc and _same_hasse(f, g):
        if g.signature == f.signature:
            return True, 1
        if g.signature == f.signature[::-1]:
            return True, -1
    return False, None


def albert_form(first, second):
    """Six-dimensional form attached to a pair of quaternion classes over Q,
    given as their square classes ``first = (s, t)`` and ``second = (u, w)``,
    signed squarefree integers (a ``QuaternionClass``'s ``classes``):
    ``<s, t, -s*t, -u, -w, u*w>`` with the products reduced."""
    (s, t), (u, w) = first, second
    return RationalQuadraticForm(
        _SquareClasses((s, t, -_class_product(s, t), -u, -w, _class_product(u, w)))
    )


#: Outcome of one quaternion-descent instance (p, q, r, d): the forms
#: ``<1, -d, -p, q, r, -d*p*q*r>`` and the Albert form of the pair, the
#: verdicts, and the descended candidate ``(d*p*q, d*p*r)``.
DescentReport = namedtuple(
    "DescentReport",
    "isotropy_form albert_pair_form similar scale splits_over_extension"
    " residual_class hypothesis_division_split consistent",
)


def verify_quaternion_descent_instance(p, q, r, d):
    """Check one instance of the quaternion descent argument.

    (i) the six-dimensional form ``<1, -d, -p, q, r, -d*p*q*r>`` is compared
    for similarity with the Albert form of the pair ``(p, d), (d*p*q, d*p*r)``;
    (ii) ``(p, d)`` must split over Q(sqrt(d)); (iii) the residual class
    ``(d*p*q, d*p*r)`` is reported.  The instance is consistent when the two
    forms are similar and the Albert form is isotropic; its anisotropy, which
    ``hypothesis_division_split`` reports, would make the pair a biquaternion
    division algebra (Albert).  The field is always false: ``<s, t, -st>``
    has a negative entry and ``<-u, -w, uw>`` a positive one, so every Albert
    form is indefinite, hence isotropic (Hasse-Minkowski).  And (ii) only
    checks that ``hilbert_symbol`` and ``is_local_square`` agree, since
    ``(x, d)_v = 1`` wherever ``d`` is a local square.
    """
    d = _validate_quadratic_d(d)
    p = _as_nonzero_rational(p, "p")
    q = _as_nonzero_rational(q, "q")
    r = _as_nonzero_rational(r, "r")
    sp, sq, sr = map(squarefree_part, (p, q, r))
    sdp = _class_product(d, sp)
    sdpq, sdpr = _class_product(sdp, sq), _class_product(sdp, sr)
    isotropy = RationalQuadraticForm(
        _SquareClasses((1, -d, -sp, sq, sr, -_class_product(sdpq, sr)))
    )
    pair_form = albert_form((sp, d), (sdpq, sdpr))
    # the classes of either form have the primes of d, p, q and r, so both
    # Hasse maps have the isotropy form's places
    places = list(isotropy.hasse)
    pair_form.hasse = _hasse_map(pair_form, places)
    similar, scale = forms_similar(isotropy, pair_form)
    # (p, d) splits over Q(sqrt(d)) iff it splits at each completion that
    # contains sqrt(d); it can ramify only at the real place, 2 and the primes
    # of sp and d, and d is a square at none of the latter
    splits = all(
        hilbert_symbol(sp, d, v) == 1
        for v in places[:2] + [v for v in places[2:] if not sp % v.p and d % v.p]
        if is_local_square(d, v)
    )
    isotropic = is_isotropic(pair_form)
    return DescentReport(
        isotropy_form=isotropy,
        albert_pair_form=pair_form,
        similar=similar,
        scale=scale,
        splits_over_extension=splits,
        residual_class=QuaternionClass(d * p * q, d * p * r),
        hypothesis_division_split=not isotropic,
        consistent=similar and isotropic,
    )

"""Double-cover coordinate maps realizing the quadric bundle normal forms.

Each map goes from the cover ``A^n`` (coordinates ``s_1..s_m, t_{m+1}..t_n``,
with ``s_i^2 = t_i``) times the quadric ``A^2 - B^2 + C^2 - D^2 = 0`` down to
the bundle in coordinates ``K:L:M:N`` over ``k[t_1..t_n]``.  The projective
components are monomials in the ``s_i`` times one of A, B, C, D.  Verified
here: the pullback of the bundle equation factors as a square monomial times
the base quadric, a sign action of the 2-torus on the cover making the map
equivariant exists, and the map is invertible over the locus where all
``s_i`` are nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bundles import MIN_DIMENSION, PROJECTIVE_NAMES, check_dimension, equation_table, normal_form
from .rings import (
    DivisionError,
    LaurentPolynomial,
    RingHomomorphism,
    TableMismatchError,
    VariableTable,
    retabulate,
)

LETTERS = ("A", "B", "C", "D")

#: s-monomial carried by each of A, B, C, D in the projective components.
COVER_SPECS = {
    2: ((), (1,), (1,), (1,)),
    3: ((), (), (1,), (1,)),
    4: ((), (1,), (1, 2), (1, 2)),
    5: ((2,), (1, 2), (1,), (1,)),
    6: ((), (2,), (1, 2), (1,)),
    7: ((), (1, 3), (1, 2, 3), (1, 2)),
    8: ((3,), (1,), (1, 2), (1, 2, 3)),
}


class CoverMapError(Exception):
    pass


class FactorizationError(CoverMapError):
    """The pullback is not a monomial multiple of the base quadric."""


class EquivarianceError(CoverMapError):
    pass


@lru_cache(maxsize=None)
def cover_table(m, n, localized=False):
    names = tuple("s%d" % i for i in range(1, m + 1))
    names += tuple("t%d" % i for i in range(m + 1, n + 1))
    names += LETTERS
    invertible = names[:m] if localized else ()
    return VariableTable(names, invertible)


@lru_cache(maxsize=None)
def inverse_table(m):
    names = tuple("s%d" % i for i in range(1, m + 1)) + PROJECTIVE_NAMES
    return VariableTable(names, names[:m])


@dataclass(frozen=True)
class CoverMap:
    """Coordinate map from the cover to the bundle.

    ``base_images`` are the images of ``t_1..t_n`` and ``proj_images`` the
    images of ``K:L:M:N``, all over the cover table.
    """

    entry: int
    m: int
    n: int
    base_images: tuple
    proj_images: tuple

    @property
    def table(self):
        return cover_table(self.m, self.n)

    def homomorphism(self):
        images = {}
        for i, img in enumerate(self.base_images, start=1):
            images["t%d" % i] = img
        for letter, img in zip(PROJECTIVE_NAMES, self.proj_images):
            images[letter] = img
        return RingHomomorphism(equation_table(self.n), self.table, images)


def cover_map(entry, n=None):
    """The cover map for normal form ``entry`` (2..8) over dimension ``n``."""
    if entry not in COVER_SPECS:
        raise ValueError(
            "no cover map for entry %r: entries 2..8 have one, entry 1 is the"
            " identity model" % (entry,)
        )
    if n is None:
        n = MIN_DIMENSION[entry]
    check_dimension(entry, n)
    spec = COVER_SPECS[entry]
    m = max(i for mono in spec for i in mono)
    table = cover_table(m, n)
    base_images = []
    for i in range(1, n + 1):
        if i <= m:
            base_images.append(LaurentPolynomial.variable(table, "s%d" % i) ** 2)
        else:
            base_images.append(LaurentPolynomial.variable(table, "t%d" % i))
    proj_images = []
    for letter, mono in zip(LETTERS, spec):
        exps = {"s%d" % i: 1 for i in mono}
        exps[letter] = 1
        proj_images.append(LaurentPolynomial.monomial(table, exps))
    return CoverMap(
        entry=entry,
        m=m,
        n=n,
        base_images=tuple(base_images),
        proj_images=tuple(proj_images),
    )


def base_quadric(table):
    signs = (1, -1, 1, -1)
    total = LaurentPolynomial.zero(table)
    for sign, letter in zip(signs, LETTERS):
        total = total + sign * LaurentPolynomial.variable(table, letter) ** 2
    return total


def pullback_factorization(cover):
    """Factor the pulled-back equation of normal form ``cover.entry`` over
    dimension ``cover.n`` as ``monomial * residual``.

    The residual must be exactly ``A^2 - B^2 + C^2 - D^2`` and the monomial a
    square monomial in the ``s_i`` with coefficient 1; anything else raises
    :class:`FactorizationError`.
    """
    bundle = normal_form(cover.entry, cover.n)
    pulled = cover.homomorphism()(bundle.equation())
    table = cover.table
    a_index = table.index("A")
    monomial = None
    for exps, coeff in pulled.terms.items():
        if exps[a_index] == 2:
            mono_exps = list(exps)
            mono_exps[a_index] = 0
            monomial = LaurentPolynomial(table, {tuple(mono_exps): coeff})
            break
    if monomial is None:
        raise FactorizationError("pullback has no A^2 term: %s" % pulled)
    try:
        residual = pulled.exact_div(monomial)
    except DivisionError as exc:
        raise FactorizationError("pullback is not a monomial multiple: %s" % exc) from exc
    if residual != base_quadric(table):
        raise FactorizationError("residual %s is not the base quadric" % residual)
    (exps, coeff), = monomial.terms.items()
    for name, e in zip(table.names, exps):
        if e and (not name.startswith("s") or e % 2 != 0 or e < 0):
            raise FactorizationError("factor %s is not a square s-monomial" % monomial)
    if coeff != 1:
        raise FactorizationError("factor %s is not a square s-monomial" % monomial)
    return monomial, residual


@dataclass(frozen=True)
class GeneratorSigns:
    """Action of one involution generator: it flips ``s_index`` and rescales
    the letters A..D by ``letter_signs``; the map rescales by ``rescale``."""

    s_index: int
    letter_signs: tuple
    rescale: int


def infer_sign_action(cover):
    """Signs on A..D making each generator rescale the map by a common factor,
    as one ``GeneratorSigns`` per generator ``s_1..s_m``.

    For generator i (``s_i -> -s_i``) the condition ``sign_X * (-1)^(s_i-degree
    of X's monomial) = common factor`` determines the sign vector up to a
    global flip; of the two solutions the one flipping fewer letters is
    returned, preferring a positive sign on A when both flip two.
    """
    generators = []
    for i in range(1, cover.m + 1):
        idx = cover.table.index("s%d" % i)
        parity = []
        for img in cover.proj_images:
            if not img.is_monomial():
                raise EquivarianceError("projective component %s is not a monomial" % img)
            (exps, _), = img.terms.items()
            parity.append(-1 if exps[idx] % 2 else 1)
        plus = tuple(parity)          # rescale +1
        minus = tuple(-p for p in parity)  # rescale -1
        flips_plus = plus.count(-1)
        flips_minus = minus.count(-1)
        if flips_plus < flips_minus or (flips_plus == flips_minus and plus[0] == 1):
            chosen, rescale = plus, 1
        else:
            chosen, rescale = minus, -1
        generators.append(
            GeneratorSigns(s_index=i, letter_signs=chosen, rescale=rescale)
        )
    return tuple(generators)


def _generator_substitution(cover, gen, letter_signs):
    """Sign action flipping ``s_{gen}`` and scaling letters by the signs.

    Every variable goes to plus or minus itself, so the action multiplies a
    term with exponents ``e`` by ``prod(sign_v ** e_v)``: it negates exactly
    the terms of odd total degree in the flipped variables.  Returns the
    action as a function on polynomials over the cover table.
    """
    table = cover.table
    flipped = [table.index("s%d" % gen)]
    for letter, sign in zip(LETTERS, letter_signs):
        if sign not in (1, -1):
            raise ValueError("letter signs must be +1 or -1, got %r" % (sign,))
        if sign == -1:
            flipped.append(table.index(letter))

    def act(poly):
        if poly.table != table:
            raise TableMismatchError("polynomial is not over the cover table")
        return LaurentPolynomial(
            table,
            {
                exps: -coeff if sum(exps[i] for i in flipped) % 2 else coeff
                for exps, coeff in poly.terms.items()
            },
        )

    return act


@dataclass(frozen=True)
class EquivarianceReport:
    entry: int
    passed: bool
    generator_factors: tuple
    failures: tuple


def verify_projective_equivariance(cover, generators):
    """Check that the inferred action (the ``GeneratorSigns`` of
    ``infer_sign_action``) really makes the map descend.

    For each generator: the four projective components must rescale by one
    common factor in {+1, -1} times an s-monomial, the base components must
    be fixed, and the letter signs must preserve the base quadric exactly.
    """
    failures = []
    factors = []
    for gen in generators:
        sub = _generator_substitution(cover, gen.s_index, gen.letter_signs)
        transformed = [sub(img) for img in cover.proj_images]
        factor = None
        for before, after in zip(cover.proj_images, transformed):
            try:
                ratio = after.exact_div(before)
            except DivisionError:
                failures.append(
                    "generator %d: %s is not proportional to %s"
                    % (gen.s_index, after, before)
                )
                ratio = None
                break
            if factor is None:
                factor = ratio
            elif ratio != factor:
                failures.append(
                    "generator %d: inconsistent rescaling %s vs %s"
                    % (gen.s_index, ratio, factor)
                )
                break
        if factor is not None and not (
            factor.is_monomial() and abs(factor.leading_term()[1]) == 1
        ):
            failures.append("generator %d: factor %s is not a signed monomial" % (gen.s_index, factor))
        factors.append(factor)
        for img in cover.base_images:
            if sub(img) != img:
                failures.append(
                    "generator %d moves base image %s" % (gen.s_index, img)
                )
        quadric = base_quadric(cover.table)
        if sub(quadric) != quadric:
            failures.append(
                "generator %d does not preserve the base quadric" % gen.s_index
            )
    return EquivarianceReport(
        entry=cover.entry,
        passed=not failures,
        generator_factors=tuple(factors),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class GenericFiberInverse:
    """Projective inverse over the locus where every ``s_i`` is invertible."""

    entry: int
    images: tuple        # A, B, C, D as s-monomial multiples of K, L, M, N
    composition: tuple   # inverse applied after the map, one entry per letter
    verified: bool


def generic_fiber_inverse(cover):
    """Invert the projective part over the localized cover.

    Each letter is recovered as ``monomial^-1 * target letter``; composing
    with the map must fix (A:B:C:D) up to a common unit monomial factor.
    """
    table = inverse_table(cover.m)
    localized = cover_table(cover.m, cover.n, localized=True)
    inverse_images = []
    for target, img in zip(PROJECTIVE_NAMES, cover.proj_images):
        (exps, coeff), = img.terms.items()
        mono = {}
        for name, e in zip(cover.table.names, exps):
            if name.startswith("s") and e:
                mono[name] = -e
        mono[target] = 1
        inverse_images.append(LaurentPolynomial.monomial(table, mono, 1 / coeff))
    # compose: push K:L:M:N -> proj images (in the localized cover table)
    images = {}
    for i in range(1, cover.m + 1):
        images["s%d" % i] = LaurentPolynomial.variable(localized, "s%d" % i)
    for target, img in zip(PROJECTIVE_NAMES, cover.proj_images):
        images[target] = retabulate(img, localized)
    compose = RingHomomorphism(table, localized, images)
    composition = tuple(compose(img) for img in inverse_images)
    expected = tuple(
        LaurentPolynomial.variable(localized, letter) for letter in LETTERS
    )
    # projective identity: all cross products of (composition, letters) vanish
    verified = all(
        composition[i] * expected[j] == composition[j] * expected[i]
        for i in range(4)
        for j in range(i + 1, 4)
    ) and any(not c.is_zero() for c in composition)
    return GenericFiberInverse(
        entry=cover.entry,
        images=tuple(inverse_images),
        composition=composition,
        verified=verified,
    )

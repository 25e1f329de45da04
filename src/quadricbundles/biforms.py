"""Localized modules of (2,2)-biforms and the non-flatness witness.

A biform of bidegree (2,2) in (u:v) x (u':v') lives in the nine-dimensional
space with monomial basis

    u^2u'^2, u^2u'v', u^2v'^2, uvu'^2, uvu'v', uvv'^2, v^2u'^2, v^2u'v', v^2v'^2.

Three modules over partial Laurent localizations of k[r, s, t] are generated
by Laurent monomials times constant biforms; their intersection is certified
to be the free module spanned by nine such generators over k[r, s, t], and a
curve through the resulting projective embedding witnesses that the fiber of
the closure over the origin is too large.  Every check reads that shape: a
membership certificate is one rational change of basis plus the graded rule,
and the witness evaluates only the four printed coordinates.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import product

from .linalg import (
    SingularMatrixError,
    determinant,
    invert_matrix,
    nullspace,
    row_space,
)
from .rings import (
    LaurentPolynomial,
    RingHomomorphism,
    VariableTable,
    parse,
    reduce_mod_square,
)

#: Universal Laurent carrier for all scalar coordinates; each module declares
#: which variables its own coefficient ring actually inverts.
RST = VariableTable(("r", "s", "t"), invertible=("r", "s", "t"))

#: Homogeneous coordinates on the two projective lines.
BIFORM_TABLE = VariableTable(("u", "v", "u'", "v'"))

#: Exponent vectors of the standard monomial basis, in the fixed order.
BIFORM_BASIS = (
    (2, 0, 2, 0),
    (2, 0, 1, 1),
    (2, 0, 0, 2),
    (1, 1, 2, 0),
    (1, 1, 1, 1),
    (1, 1, 0, 2),
    (0, 2, 2, 0),
    (0, 2, 1, 1),
    (0, 2, 0, 2),
)

_BASIS_INDEX = {exps: i for i, exps in enumerate(BIFORM_BASIS)}


def biform_coordinates(poly):
    """Coordinates of a constant-coefficient (2,2)-biform in the standard basis."""
    coords = [Fraction(0)] * 9
    for exps, coeff in poly.terms.items():
        index = _BASIS_INDEX.get(exps)
        if index is None:
            raise ValueError("%s is not homogeneous of bidegree (2, 2)" % poly)
        coords[index] = coeff
    return tuple(coords)


def _form(*factors):
    """Constant biform: the product of the parsed factors."""
    one = LaurentPolynomial.one(BIFORM_TABLE)
    return biform_coordinates(math.prod((parse(f, BIFORM_TABLE) for f in factors), start=one))


def _exponents(monomial):
    """Exponent vector of a generator monomial, a single term with
    coefficient 1."""
    (exps, coeff), = monomial.terms.items()
    if coeff != 1:
        raise ValueError("generator monomial %s is not monic" % monomial)
    return exps


class MonomialScaledModule:
    """Module generated by Laurent monomials times constant biforms.

    ``ring`` declares which of r, s, t the coefficient ring inverts; the nine
    constant forms are a basis of the biform space, so membership of a
    monomial times a form is one rational change of basis plus the graded
    rule.  The change of basis is inverted on construction
    (``basis_inverse``, the inverse of the column matrix of the forms), which
    is also the basis check.  A module equals only itself: it keys the
    ``_span`` cache, which then hashes no polynomial.
    """

    def __init__(self, name, ring, gens):
        if len(gens) != 9:
            raise ValueError("expected nine generators")
        columns = [[gens[j][1][i] for j in range(9)] for i in range(9)]
        try:
            self.basis_inverse = invert_matrix(columns)
        except SingularMatrixError:
            raise ValueError("constant forms of %s are not a basis" % name) from None
        self.name = name
        self.ring = ring
        self.gens = gens  # ((monic monomial, constant 9-vector), ...)


def _module(name, inverted, gens):
    ring = VariableTable(("r", "s", "t"), invertible=inverted)
    return MonomialScaledModule(
        name=name,
        ring=ring,
        gens=tuple((parse(mono, RST), form) for mono, form in gens),
    )


@cache
def local_module(index):
    """The three local models: biform modules over k[r,s,t] with two of the
    variables inverted (1: r,s; 2: r,t; 3: s,t).

    Built on first use and shared by every later caller in the process.
    """
    if index == 1:
        gens = (
            ("t^2", _form("u^2*u'^2")),
            ("t", _form("u^2*u'*v'")),
            ("t^2", _form("u^2*v'^2")),
            ("t", _form("u*v*u'^2")),
            ("1", _form("u*v*u'*v'")),
            ("t", _form("u*v*v'^2")),
            ("t^2", _form("v^2*u'^2")),
            ("t", _form("v^2*u'*v'")),
            ("t^2", _form("v^2*v'^2")),
        )
        return _module("M1", ("r", "s"), gens)
    if index == 2:
        gens = (
            ("s^2", _form("u^2+v^2", "u'^2+v'^2")),
            ("s", _form("u^2+v^2", "u'^2-v'^2")),
            ("s^2", _form("u^2+v^2", "u'*v'")),
            ("s", _form("u^2-v^2", "u'^2+v'^2")),
            ("1", _form("u^2-v^2", "u'^2-v'^2")),
            ("s", _form("u^2-v^2", "u'*v'")),
            ("s^2", _form("u*v", "u'^2+v'^2")),
            ("s", _form("u*v", "u'^2-v'^2")),
            ("s^2", _form("u*v", "u'*v'")),
        )
        return _module("M2", ("r", "t"), gens)
    if index == 3:
        gens = (
            ("r^2", _form("u^2*u'^2")),
            ("r^2", _form("u*v'+v*u'", "u*v'+v*u'")),
            ("1", _form("u*v'-v*u'", "u*v'-v*u'")),
            ("r^2", _form("v^2*v'^2")),
            ("r", _form("u*u'", "u*v'-v*u'")),
            ("r", _form("v*v'", "u*v'-v*u'")),
            ("r", _form("u*v'+v*u'", "u*v'-v*u'")),
            ("r^2", _form("u*u'", "u*v'+v*u'")),
            ("r^2", _form("v*v'", "u*v'+v*u'")),
        )
        return _module("M3", ("s", "t"), gens)
    raise ValueError("local module index must be 1, 2 or 3")


@cache
def intersection_module():
    """The free module over k[r, s, t] that the three local modules cut out.

    Built on first use and shared by every later caller in the process.
    """
    gens = (
        ("r^2*s^2", _form("u*v*u'*v'")),
        ("r^2*t^2", _form("u^2-v^2", "u'^2-v'^2")),
        ("s^2*t^2", _form("u*v'-v*u'", "u*v'-v*u'")),
        ("r*s*t", _form("u*u'+v*v'", "u*v'-v*u'")),
        ("r^2*s*t", _form("u*u'-v*v'", "u*v'+v*u'")),
        ("r*s^2*t", _form("u*u'-v*v'", "u*v'-v*u'")),
        ("r*s*t^2", _form("u*v'+v*u'", "u*v'-v*u'")),
        ("r^2*s^2*t", _form("u*u'+v*v'", "u*v'+v*u'")),
        ("r^2*s*t^2", _form("u*u'-v*v'", "u*u'+v*v'")),
    )
    return _module("N", (), gens)


#: ``coefficients`` holds one Laurent polynomial per generator, ``offending``
#: the indices of the generators whose coefficient leaves the ring.
MembershipCertificate = namedtuple("MembershipCertificate", "member coefficients offending")


def membership(generator, module):
    """Certificate for the generator ``mono * form`` in ``module``.

    Over the fraction field, ``mono * form = sum_j coeff_j * mono_j * form_j``
    with ``coeff_j = c_j * mono / mono_j`` and ``c = basis_inverse * form``;
    membership holds iff every j with ``c_j`` nonzero is allowed at ``mono``.
    """
    monomial, form = generator
    exponents = _exponents(monomial)
    allowed = _allowed_generators(module, exponents)
    coefficients = []
    offending = []
    for j, (row, (mono_j, _)) in enumerate(zip(module.basis_inverse, module.gens)):
        c = sum(a * b for a, b in zip(row, form) if a and b)
        quotient = tuple(e - me for e, me in zip(exponents, _exponents(mono_j)))
        coefficients.append(LaurentPolynomial(RST, {quotient: c}))
        if c and j not in allowed:
            offending.append(j)
    return MembershipCertificate(
        member=not offending,
        coefficients=tuple(coefficients),
        offending=tuple(offending),
    )


def _reassembles(certificate, module, generator):
    """Is ``sum_j coeff_j * mono_j * form_j`` the generator ``mono * form``?
    Each term of ``coeff_j`` times ``mono_j`` must be ``mono``, and ``sum_j
    c_j * form_j`` must be ``form``: read from the forms, not the inverse."""
    monomial, form = generator
    exponents = _exponents(monomial)
    total = [0] * 9
    for coefficient, (mono_j, form_j) in zip(certificate.coefficients, module.gens):
        for exps, c in coefficient.terms.items():
            if tuple(a + b for a, b in zip(exps, _exponents(mono_j))) != exponents:
                return False
            total = [t + c * x if x else t for t, x in zip(total, form_j)]
    return total == list(form)


#: ``certificates`` holds (generator index, module name, MembershipCertificate).
ContainmentReport = namedtuple("ContainmentReport", "passed certificates")


def verify_containment():
    """Every generator of the intersection module lies in all three local
    modules, with every certificate re-checked by back-substitution."""
    target = intersection_module()
    modules = [local_module(i) for i in (1, 2, 3)]
    certificates = []
    for g, generator in enumerate(target.gens):
        for module in modules:
            certificate = membership(generator, module)
            if not _reassembles(certificate, module, generator):
                raise AssertionError(
                    "certificate for generator %d in %s fails back-substitution"
                    % (g, module.name)
                )
            certificates.append((g, module.name, certificate))
    passed = all(certificate.member for _, _, certificate in certificates)
    return ContainmentReport(passed=passed, certificates=tuple(certificates))


FreenessReport = namedtuple("FreenessReport", "passed det")


def freeness_certificate():
    """Nonzero 9x9 determinant of the generators in the standard basis.

    Row j of the generator matrix is ``mono_j`` times the constant form
    ``form_j``, so by multilinearity in the rows the determinant is
    ``prod(mono_j) * det(form_j)``: one rational determinant.  The generators
    are fraction-field independent, so the module they span over k[r, s, t]
    is free of rank nine with them as basis.
    """
    gens = intersection_module().gens
    forms = determinant([form for _, form in gens])
    det = math.prod((monomial for monomial, _ in gens), start=forms)
    return FreenessReport(passed=not det.is_zero(), det=det)


def _allowed_generators(module, exponents):
    """Indices j of the generators ``mono_j * form_j`` for which ``m /
    mono_j`` lies in the coefficient ring, ``m = r^a s^b t^c``."""
    allowed = []
    for j, (monomial, _) in enumerate(module.gens):
        quotient = tuple(e - me for e, me in zip(exponents, _exponents(monomial)))
        if module.ring.allows(quotient):
            allowed.append(j)
    return tuple(allowed)


@cache
def _span(module, allowed):
    """Canonical basis of the span of the constant forms with index in
    ``allowed``; built once per module and subset."""
    return tuple(row_space([module.gens[j][1] for j in allowed]))


def graded_subspace(module, exponents):
    """Subspace of constant biforms w with ``m * w`` in the module, for the
    monomial ``m = r^a s^b t^c``.

    ``m * w = sum c_j mono_j form_j`` forces ``c_j = (m / mono_j) * <w in
    module basis>_j``, so coordinate j may be nonzero exactly when
    ``m / mono_j`` lies in the coefficient ring.
    """
    return list(_span(module, _allowed_generators(module, exponents)))


def intersection_subspace(exponents):
    """Canonical basis of the intersection of the three local graded pieces.

    Row j of a module's ``basis_inverse`` takes coordinate j in the basis of
    constant forms, so the rows outside the allowed subset cut out exactly
    the span of the allowed forms; the intersection is their common kernel.
    """
    constraints = []
    for i in (1, 2, 3):
        module = local_module(i)
        allowed = _allowed_generators(module, exponents)
        constraints.extend(
            row for j, row in enumerate(module.basis_inverse) if j not in allowed
        )
    return row_space(nullspace(constraints, 9))


#: Smallest window the graded check accepts, and its default: exponents 0..4
#: of each of r, s and t.
MIN_WINDOW = 4


GradedEqualityReport = namedtuple("GradedEqualityReport", "passed checked mismatches saturated")


def _clamp_bound(modules):
    """Per-variable maximum of the generator monomial exponents (at least 0).

    Whether ``m / mono_j`` lies in a coefficient ring depends on each
    exponent ``e`` of ``m`` only through ``e >= mono_j``, so every graded
    piece of every module in ``modules`` is unchanged when ``e`` is replaced
    by ``min(e, bound)`` variable by variable.
    """
    bound = [0, 0, 0]
    for module in modules:
        for monomial, _ in module.gens:
            bound = [max(b, e) for b, e in zip(bound, _exponents(monomial))]
    return tuple(bound)


def verify_graded_intersection(window=MIN_WINDOW):
    """Monomial-by-monomial equality of the intersection with the free module.

    Both sides split as direct sums over (r, s, t)-monomials of subspaces of
    the nine-dimensional biform space.  By the clamp lemma (see
    :func:`_clamp_bound`) each graded piece at ``r^a s^b t^c`` depends only on
    ``(min(a, B_r), min(b, B_s), min(c, B_t))``, where the bound ``B`` is
    derived from the generator monomials of the three local modules and the
    free module; it is (2, 2, 2) for the shipped data.  So equality on the
    27 clamp classes ``0..B_r x 0..B_s x 0..B_t`` is equality at every
    monomial, which certifies the module identity.

    ``checked`` counts the ``(window + 1)^3`` monomials of the window, all
    decided by their classes; ``saturated`` says that the window reaches the
    bound in every variable, so every class is represented in it.  A failing
    class is reported at each window monomial that falls into it, in
    lexicographic (a, b, c) order.
    """
    if window < MIN_WINDOW:
        raise ValueError("window must cover exponents 0..%d, got %d" % (MIN_WINDOW, window))
    target = intersection_module()
    bound = _clamp_bound([local_module(i) for i in (1, 2, 3)] + [target])
    failing = {}
    for exponents in product(*(range(min(b, window) + 1) for b in bound)):
        lhs = intersection_subspace(exponents)
        rhs = graded_subspace(target, exponents)
        if lhs != rhs:
            failing[exponents] = (lhs, rhs)
    mismatches = []
    if failing:
        for exponents in product(range(window + 1), repeat=3):
            clamped = tuple(min(e, b) for e, b in zip(exponents, bound))
            if clamped in failing:
                mismatches.append((exponents, *failing[clamped]))
    saturated = all(window >= b for b in bound)
    return GradedEqualityReport(
        passed=not mismatches and saturated,
        checked=(window + 1) ** 3,
        mismatches=tuple(mismatches),
        saturated=saturated,
    )


# -- the non-flatness witness -------------------------------------------------

#: Function field of the curve: gamma is inverted because the curve data has
#: gamma in denominators.
CURVE_TABLE = VariableTable(("s", "t", "alpha", "beta", "gamma"), invertible=("gamma",))


#: Powers of gamma the last modulus term may carry: the printed -1 and the
#: hand-derived -2.
GAMMA_EXPONENTS = (-1, -2)


#: Substitution data for the witness curve: ``r = s``, ``v = v' = 4t``, and
#: ``t^2 = modulus`` in the function field k(alpha, beta, gamma)[s, t];
#: ``gamma_exponent`` records which power of gamma appears in the last
#: modulus term.
CurveSpec = namedtuple("CurveSpec", "gamma_exponent r u v u_prime v_prime modulus")


def witness_curve(gamma_exponent):
    """The witness curve with the chosen gamma exponent in the modulus."""
    if gamma_exponent not in GAMMA_EXPONENTS:
        raise ValueError("gamma exponent must be in %s, got %r" % (GAMMA_EXPONENTS, gamma_exponent))
    terms = [
        "-1/16*s^4*alpha^2",
        "-1/16*s^2*beta^2",
        "1/16*s^2*gamma^2",
        "1/16*s^4*alpha^2*beta^2*gamma^%d" % gamma_exponent,
    ]
    modulus = LaurentPolynomial.zero(CURVE_TABLE)
    for text in terms:
        modulus = modulus + parse(text, CURVE_TABLE)
    return CurveSpec(
        gamma_exponent=gamma_exponent,
        r=parse("s", CURVE_TABLE),
        u=parse("s^2*alpha*beta*gamma^-1 + s^2*alpha + s*beta + s*gamma", CURVE_TABLE),
        v=parse("4*t", CURVE_TABLE),
        u_prime=parse("s^2*alpha*beta*gamma^-1 - s^2*alpha + s*beta - s*gamma", CURVE_TABLE),
        v_prime=parse("4*t", CURVE_TABLE),
        modulus=modulus,
    )


#: The generators the witness reads, in the printed order (x0, x3, x4, x5).
PRINTED_ORDER = (0, 3, 4, 5)


def curve_coordinates(spec):
    """Images of the printed generators, keyed by index, reduced mod t^2 - f.

    Generator ``mono(r, s, t) * form(u, v, u', v')`` is evaluated with
    ``r = spec.r`` and the biform letters replaced by the curve data, then
    reduced to an ``(even, odd)`` pair modulo ``t^2 - modulus``.
    """
    letters = RingHomomorphism(
        BIFORM_TABLE,
        CURVE_TABLE,
        {"u": spec.u, "v": spec.v, "u'": spec.u_prime, "v'": spec.v_prime},
    )
    gens = intersection_module().gens
    images = {}
    for index in PRINTED_ORDER:
        monomial, form = gens[index]
        r_power, s_power, t_power = _exponents(monomial)
        scalar = spec.r ** r_power * LaurentPolynomial.monomial(
            CURVE_TABLE, {"s": s_power, "t": t_power}
        )
        form_poly = LaurentPolynomial(BIFORM_TABLE, dict(zip(BIFORM_BASIS, form)))
        value = scalar * letters(form_poly)
        images[index] = reduce_mod_square(value, spec.modulus, "t")
    return images


#: ``coordinate_order`` holds the indices (x0, x3, x4, x5) used for the
#: identities, ``residuals`` the even/odd parts of x3 - alpha*x0 etc. as text.
WitnessReport = namedtuple(
    "WitnessReport",
    "gamma_exponent coordinate_order identities_hold x0_nonzero residuals passed",
)


def nonflatness_witness(spec):
    """Check the projective identities forced along the witness curve.

    In printed generator order the coordinates must satisfy
    ``x3 = alpha*x0``, ``x4 = beta*x0``, ``x5 = gamma*x0`` identically with
    ``x0`` nonzero.  Only this printed order ``(x0, x3, x4, x5) = (0, 3, 4, 5)``
    is tested: any other assignment would be an identity the paper does not
    state.
    """
    images = curve_coordinates(spec)
    base_even, base_odd = images[PRINTED_ORDER[0]]
    residuals = []
    for index, name in zip(PRINTED_ORDER[1:], ("alpha", "beta", "gamma")):
        even, odd = images[index]
        multiplier = parse(name, CURVE_TABLE)
        residuals.append((even - multiplier * base_even, odd - multiplier * base_odd))
    holds = all(part.is_zero() for residual in residuals for part in residual)
    x0_nonzero = not (base_even.is_zero() and base_odd.is_zero())
    return WitnessReport(
        gamma_exponent=spec.gamma_exponent,
        coordinate_order=PRINTED_ORDER,
        identities_hold=holds,
        x0_nonzero=x0_nonzero,
        residuals=tuple((str(even), str(odd)) for even, odd in residuals),
        passed=holds and x0_nonzero,
    )

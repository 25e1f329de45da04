"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A ring is described by a :class:`VariableTable`: an ordered tuple of variable
names, each flagged invertible or not.  Exponents of invertible variables may
be negative; all other exponents must stay nonnegative.  Polynomials are
stored as a map from exponent vectors to nonzero ``Fraction`` coefficients,
so every computation is exact.  Values are immutable after construction and
all operations are pure functions.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction


class RingError(Exception):
    """Base class for errors raised by this module."""


class ParseError(RingError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class TableMismatchError(RingError):
    pass


class ExponentError(RingError):
    """Negative exponent on a variable that is not invertible."""


class NonUnitError(RingError):
    """A unit (single invertible term) was required."""


class DivisionError(RingError):
    """Exact division failed.  ``remainder`` holds a witness when available."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class VariableTable:
    """Ordered variable names with per-variable invertibility flags."""

    __slots__ = ("names", "invertible", "_index")

    def __init__(self, names, invertible=()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique: %r" % (names,))
        inv = set(invertible)
        unknown = inv - set(names)
        if unknown:
            raise ValueError("invertible names not in table: %r" % sorted(unknown))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "invertible", tuple(n in inv for n in names))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("VariableTable is immutable")

    def __len__(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown variable %r" % name) from None

    def allows(self, exponents):
        """Is the exponent vector a monomial of this ring?"""
        for e, inv in zip(exponents, self.invertible):
            if e < 0 and not inv:
                return False
        return True

    def check_exponents(self, exponents):
        if not self.allows(exponents):
            raise ExponentError(
                "exponents %r leave the ring %r" % (tuple(exponents), self)
            )

    def __eq__(self, other):
        return (
            isinstance(other, VariableTable)
            and self.names == other.names
            and self.invertible == other.invertible
        )

    def __hash__(self):
        return hash((self.names, self.invertible))

    def __repr__(self):
        inv = [n for n, f in zip(self.names, self.invertible) if f]
        return "VariableTable(%r, invertible=%r)" % (self.names, tuple(inv))


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an int or Fraction, got %r" % (value,))


class LaurentPolynomial:
    """Immutable sparse polynomial over a :class:`VariableTable`.

    ``terms`` maps exponent tuples to nonzero coefficients; zero is the empty
    map.  The canonical term order (used by ``__str__`` and
    ``leading_term``) is descending lexicographic on exponent vectors.
    """

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table, terms):
        clean = {}
        width = len(table)
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if not coeff:
                continue
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError("exponent vector %r has wrong width" % (exps,))
            table.check_exponents(exps)
            clean[exps] = coeff
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table):
        return cls(table, {})

    @classmethod
    def constant(cls, table, value):
        return cls(table, {(0,) * len(table): _as_fraction(value)})

    @classmethod
    def one(cls, table):
        return cls.constant(table, 1)

    @classmethod
    def variable(cls, table, name):
        exps = [0] * len(table)
        exps[table.index(name)] = 1
        return cls(table, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, table, exponents, coeff=1):
        """Single term from a ``{name: exponent}`` mapping."""
        exps = [0] * len(table)
        for name, e in exponents.items():
            exps[table.index(name)] = e
        return cls(table, {tuple(exps): _as_fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def is_unit(self):
        """True for a single term supported on invertible variables only."""
        if len(self.terms) != 1:
            return False
        (exps,) = self.terms
        return all(e == 0 or inv for e, inv in zip(exps, self.table.invertible))

    def constant_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial %s is not constant" % self)
        return next(iter(self.terms.values()))

    def variables(self):
        """Names of variables occurring with nonzero exponent."""
        seen = set()
        for exps in self.terms:
            for name, e in zip(self.table.names, exps):
                if e:
                    seen.add(name)
        return seen

    def degree(self, name):
        """Largest exponent of ``name``; None for the zero polynomial."""
        if not self.terms:
            return None
        i = self.table.index(name)
        return max(exps[i] for exps in self.terms)

    def leading_term(self):
        """(exponents, coefficient) for the descending-lex leading term."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            if other.table != self.table:
                raise TableMismatchError(
                    "polynomials over different variable tables"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial.constant(self.table, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return LaurentPolynomial(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(
            self.table, {exps: -coeff for exps, coeff in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial(
                self.table, {exps: coeff * other for exps, coeff in self.terms.items()}
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(exps, 0) + c1 * c2
                if acc:
                    terms[exps] = acc
                else:
                    del terms[exps]
        return LaurentPolynomial(self.table, terms)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse of a unit monomial."""
        if not self.is_unit():
            raise NonUnitError("%s is not a unit" % self)
        (exps, coeff), = self.terms.items()
        return LaurentPolynomial(
            self.table, {tuple(-e for e in exps): Fraction(1) / coeff}
        )

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("polynomial powers must be integers")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = LaurentPolynomial.one(self.table)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.table, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        # constants compare equal to their int/Fraction value, so they must
        # hash like it; zero has no terms and hashes like 0
        h = self._hash
        if h is None:
            if self.is_constant():
                h = hash(self.constant_value())
            else:
                h = hash((self.table, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- exact division ----------------------------------------------------

    def exact_div(self, den):
        """Exact quotient ``q`` with ``q * den == self`` by a monomial ``den``.

        Raises :class:`DivisionError` when no exact quotient exists in the
        ring; the error carries the terms the monomial does not divide as a
        remainder witness.  A divisor with more than one term is refused with
        ``ValueError``: every divisor in the package is a monomial.
        """
        den = self._coerce(den)
        if den is NotImplemented:
            raise TypeError("cannot divide by %r" % (den,))
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if not den.is_monomial():
            raise ValueError("exact division is by monomials only, got %s" % den)
        (dexps, dcoeff), = den.terms.items()
        good, bad = {}, {}
        for exps, coeff in self.terms.items():
            shifted = tuple(a - b for a, b in zip(exps, dexps))
            if self.table.allows(shifted):
                good[shifted] = coeff / dcoeff
            else:
                bad[exps] = coeff
        if bad:
            raise DivisionError(
                "inexact division by monomial %s" % den,
                remainder=LaurentPolynomial(self.table, bad),
            )
        return LaurentPolynomial(self.table, good)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.table.names, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append("%s^%d" % (name, e))
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append("-" + body if coeff < 0 else body)
            else:
                parts.append((" - " if coeff < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return "<LaurentPolynomial %s>" % self


# -- parsing ---------------------------------------------------------------

#: One factor after optional whitespace, empty where none starts.  The slash
#: and caret are groups of their own, so a missing int after them is caught.
_FACTOR = re.compile(
    r"\s*(?:(\d+)(?:\s*(/)\s*(\d+)?)?"
    r"|([A-Za-z_][A-Za-z0-9_']*)(?:\s*(\^)\s*(-)?\s*(\d+)?)?)?"
)
_OPERATOR = re.compile(r"\s*([-+*]?)")
#: A character no number, name or operator starts with, or a quote that does
#: not continue a name (at the start of a word or right after its digits).
_UNEXPECTED = re.compile(r"[^-+*/^\s\dA-Za-z_']|(?<![A-Za-z0-9_'])[0-9]*'")


def _error(text, message, pos):
    """``ParseError(message, pos)``, unless the text holds an unexpected
    character: that is reported first, at the end of the token before it."""
    bad = _UNEXPECTED.search(text)
    if bad:
        i = bad.end() - 1
        return ParseError("unexpected character %r" % text[i], len(text[:i].rstrip()))
    return ParseError(message, pos)


def _int(text, match, group):
    """``int(match[group])``, or a parse error at the digit run when it is
    longer than ``sys.get_int_max_str_digits()`` allows."""
    digits, limit = match[group], sys.get_int_max_str_digits()
    if 0 < limit < len(digits):
        message = "integer of %d digits exceeds the limit of %d" % (len(digits), limit)
        raise _error(text, message, match.start(group))
    return int(digits)


def parse(text, table):
    """Parse canonical polynomial text over the given table.

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := int ['/' int] | name ['^' ['-'] int]
    """
    terms = {}
    sign = _OPERATOR.match(text)
    op, pos = (sign[1], sign.end()) if sign[1] in ("+", "-") else ("+", 0)
    while True:
        coeff, exps = Fraction(-1 if op == "-" else 1), [0] * len(table)
        while True:
            f = _FACTOR.match(text, pos)
            num, slash, den, name, caret, minus, power = f.groups()
            if num:
                if slash and den is None:
                    raise _error(text, "expected an integer denominator", f.end())
                if slash and not _int(text, f, 3):
                    raise _error(text, "zero denominator", f.start(3))
                coeff *= Fraction(_int(text, f, 1), int(den)) if slash else _int(text, f, 1)
            elif name:
                idx = table._index.get(name)
                if idx is None:
                    raise _error(text, "unknown variable %r" % name, f.start(4))
                if caret and power is None:
                    raise _error(text, "expected an integer exponent", f.end())
                exps[idx] += (-1 if minus else 1) * _int(text, f, 7) if caret else 1
            else:
                raise _error(text, "expected a number or variable", f.end())
            nxt = _OPERATOR.match(text, f.end())
            op, pos = nxt[1], nxt.end()
            if op != "*":
                break
        exps = tuple(exps)
        try:
            table.check_exponents(exps)
        except ExponentError as exc:
            raise _error(text, str(exc), f.start(f.lastindex)) from None
        terms[exps] = terms.get(exps, 0) + coeff
        if not op:
            if pos < len(text):
                raise _error(text, "expected '+' or '-'", pos)
            return LaurentPolynomial(table, terms)


def retabulate(poly, table):
    """Rebuild a polynomial over another table, matching variables by name.

    Variables missing from the new table must not occur in the polynomial;
    fresh variables get exponent zero.  Invertibility flags of the new table
    are enforced on the rebuilt exponents.
    """
    positions = [table._index.get(name) for name in poly.table.names]
    terms = {}
    for exps, coeff in poly.terms.items():
        rebuilt = [0] * len(table)
        for pos, e, name in zip(positions, exps, poly.table.names):
            if pos is None:
                if e:
                    raise KeyError(
                        "variable %r does not exist in the target table" % name
                    )
            else:
                rebuilt[pos] = e
        terms[tuple(rebuilt)] = coeff
    return LaurentPolynomial(table, terms)


# -- ring homomorphisms ----------------------------------------------------

class RingHomomorphism:
    """Substitution homomorphism determined by per-variable images.

    ``images`` maps every source variable name to a polynomial over the
    target table.  The image of an invertible source
    variable must be a unit, so that negative exponents can be pushed
    forward.  Powers of the images are cached on the instance, so that every
    polynomial it maps shares them.
    """

    __slots__ = ("source", "target", "images", "_powers")

    def __init__(self, source, target, images):
        resolved = []
        for name, inv in zip(source.names, source.invertible):
            if name not in images:
                raise ValueError("no image given for variable %r" % name)
            img = images[name]
            if img.table != target:
                raise TableMismatchError("image of %r is over the wrong table" % name)
            if inv and not img.is_unit():
                raise NonUnitError(
                    "image of invertible variable %r must be a unit, got %s"
                    % (name, img)
                )
            resolved.append(img)
        extra = set(images) - set(source.names)
        if extra:
            raise ValueError("images given for unknown variables: %r" % sorted(extra))
        self.source = source
        self.target = target
        self.images = tuple(resolved)
        self._powers = {}

    def __call__(self, poly):
        if poly.table != self.source:
            raise TableMismatchError("polynomial is not over the source table")
        result = LaurentPolynomial.zero(self.target)
        powers = self._powers
        for exps, coeff in poly.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                key = (i, e)
                if key not in powers:
                    powers[key] = self.images[i] ** e
                term = term * powers[key]
            result = result + term
        return result


# -- reduction modulo t^2 - f ----------------------------------------------

def reduce_mod_square(poly, modulus, var):
    """Reduce a polynomial modulo ``var^2 - modulus``.

    Returns ``(even, odd)``, both free of ``var``, with ``poly = even + odd *
    var`` in ``R[var] / (var^2 - modulus)``.  ``poly`` and ``modulus`` share
    one table, ``modulus`` must be free of ``var`` and ``var`` must not occur
    with a negative exponent.
    """
    table = poly.table
    if modulus.table != table:
        raise TableMismatchError("polynomial and modulus over different tables")
    if modulus.degree(var) not in (None, 0):
        raise ValueError("modulus must be free of %r" % var)
    idx = table.index(var)
    # parts[parity][k]: terms of the coefficient of var^(2k + parity)
    parts = ({}, {})
    for exps, coeff in poly.terms.items():
        e = exps[idx]
        if e < 0:
            raise ExponentError("negative exponent on %r in quotient reduction" % var)
        k, parity = divmod(e, 2)
        stripped = exps[:idx] + (0,) + exps[idx + 1:]
        parts[parity].setdefault(k, {})[stripped] = coeff
    powers = [LaurentPolynomial.one(table)]
    top = max((k for part in parts for k in part), default=0)
    while len(powers) <= top:
        powers.append(powers[-1] * modulus)
    return tuple(
        sum(
            (LaurentPolynomial(table, terms) * powers[k] for k, terms in part.items()),
            LaurentPolynomial.zero(table),
        )
        for part in parts
    )

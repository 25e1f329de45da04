import json
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadricbundles.rings import (
    DivisionError,
    ExponentError,
    LaurentPolynomial,
    NonUnitError,
    ParseError,
    RingHomomorphism,
    TableMismatchError,
    VariableTable,
    parse,
    reduce_mod_square,
)

KLMN = VariableTable(("K", "L", "M", "N"))
ST = VariableTable(("s", "t"), invertible=("t",))
UV = VariableTable(("u", "v", "u'", "v'"))
#: Plain, invertible and mixed tables; names with digits and quotes.
MIXED_TABLES = (
    KLMN,
    ST,
    VariableTable(("a", "b", "x'", "y1"), invertible=("b", "y1")),
    VariableTable(("u", "v"), invertible=("u", "v")),
)


def random_poly(rng, table, nterms=4, max_exp=3, max_den=5):
    terms = {}
    for _ in range(nterms):
        exps = tuple(
            rng.randint(-max_exp if inv else 0, max_exp) for inv in table.invertible
        )
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, max_den))
    return LaurentPolynomial(table, terms)


class TestVariableTable:
    def test_allows_matches_check_exponents(self):
        for exps in [(0, 0), (2, -3), (-1, 0), (-1, -1), (1, 5)]:
            assert ST.allows(exps) == (exps[0] >= 0)
            if ST.allows(exps):
                ST.check_exponents(exps)
            else:
                with pytest.raises(ExponentError, match="leave the ring"):
                    ST.check_exponents(exps)


class TestParsing:
    def test_base_quadric(self):
        p = parse("K^2 - L^2 + M^2 - N^2", KLMN)
        assert len(p.terms) == 4
        assert sorted(p.terms.values()) == [Fraction(-1), Fraction(-1), Fraction(1), Fraction(1)]

    def test_zero(self):
        assert parse("0", KLMN).is_zero()
        assert str(LaurentPolynomial.zero(KLMN)) == "0"

    def test_laurent_monomial(self):
        p = parse("t^-1 * s^2", ST)
        assert p.terms == {(2, -1): Fraction(1)}

    def test_rational_coefficients(self):
        p = parse("3/4*s - 1/2", ST)
        assert p.terms == {(1, 0): Fraction(3, 4), (0, 0): Fraction(-1, 2)}

    def test_unknown_variable_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("K + x", KLMN)
        assert err.value.position == 4

    def test_negative_exponent_rejected_when_not_invertible(self):
        with pytest.raises(ParseError):
            parse("s^-1", ST)

    @pytest.mark.parametrize("text, position", [("1" * 5000, 0), ("x^" + "1" * 5000, 2)])
    def test_digit_run_past_the_integer_string_limit(self, text, position):
        with pytest.raises(ParseError, match="5000 digits exceeds the limit") as err:
            parse(text, VariableTable(("x",)))
        assert err.value.position == position

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse("K + * L", KLMN)
        with pytest.raises(ParseError):
            parse("K $ L", KLMN)

    @pytest.mark.parametrize("text", ["K^2 - L^2", "-3*K*L + 1/7", "2*M^3*N - K"])
    def test_round_trip_is_identity(self, text):
        p = parse(text, KLMN)
        assert parse(str(p), KLMN) == p

    def test_round_trip_canonical_random(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_poly(rng, ST)
            canonical = str(p)
            again = parse(canonical, ST)
            assert again == p
            assert str(again) == canonical


# -- the two-stage parser, kept as the oracle for rings.parse -----------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<op>[-+*/^]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0], pos)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class ReferenceParser:
    """Recursive-descent parser for the canonical polynomial grammar, over a
    token list built first.

    poly   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := number | name ['^' ['-'] int]
    number := int ['/' int]
    """

    def __init__(self, text, table):
        self.tokens = _tokenize(text)
        self.table = table
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        result = LaurentPolynomial.zero(self.table)
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        result = result + self.term(sign)
        while True:
            kind, value, pos = self.peek()
            if kind == "end":
                return result
            if kind == "op" and value in "+-":
                self.next()
                result = result + self.term(-1 if value == "-" else 1)
            else:
                raise ParseError("expected '+' or '-'", pos)

    def term(self, sign):
        coeff = Fraction(sign)
        exps = [0] * len(self.table)
        coeff, exps = self.factor(coeff, exps)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.next()
                coeff, exps = self.factor(coeff, exps)
            else:
                break
        exps = tuple(exps)
        try:
            self.table.check_exponents(exps)
        except ExponentError as exc:
            raise ParseError(str(exc), self.tokens[self.i - 1][2]) from None
        return LaurentPolynomial(self.table, {exps: coeff})

    def factor(self, coeff, exps):
        kind, value, pos = self.next()
        if kind == "int":
            num = value
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "/":
                self.next()
                kind, den, dpos = self.next()
                if kind != "int":
                    raise ParseError("expected an integer denominator", dpos)
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                return coeff * Fraction(num, den), exps
            return coeff * num, exps
        if kind == "name":
            try:
                idx = self.table.index(value)
            except KeyError:
                raise ParseError("unknown variable %r" % value, pos) from None
            power = 1
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "^":
                self.next()
                negate = False
                kind, nxt, npos = self.next()
                if kind == "op" and nxt == "-":
                    negate = True
                    kind, nxt, npos = self.next()
                if kind != "int":
                    raise ParseError("expected an integer exponent", npos)
                power = -nxt if negate else nxt
            exps = list(exps)
            exps[idx] += power
            return coeff, exps
        raise ParseError("expected a number or variable", pos)


def reference_parse(text, table):
    return ReferenceParser(text, table).parse()


def outcome(parser, text, table):
    """The polynomial a parser returns, or the message and position of its
    ``ParseError``."""
    try:
        return parser(text, table)
    except ParseError as exc:
        return str(exc), exc.position


#: Characters inserted into canonical texts: operators, blank, digits,
#: letters, the quote that names may hold and one no token holds.
INSERTED = "+-*/^ 0123456789abcdefghijklmnopqrstuvwxyz'$"


def oracle_corpus(seed=17, polys=600):
    """``(text, table)`` for canonical texts of random polynomials, each with
    one deletion, one insertion from ``INSERTED`` and one adjacent swap."""
    rng = random.Random(seed)
    for _ in range(polys):
        table = rng.choice(MIXED_TABLES)
        text = str(random_poly(rng, table, nterms=rng.randint(1, 4), max_den=20))
        i = rng.randrange(len(text))
        j = rng.randrange(len(text) + 1)
        k = rng.randrange(max(len(text) - 1, 1))
        yield text, table
        yield text[:i] + text[i + 1:], table
        yield text[:j] + rng.choice(INSERTED) + text[j:], table
        yield text[:k] + text[k + 1:k + 2] + text[k:k + 1] + text[k + 2:], table


#: Records every text the library parses while ``run all --seed 7`` runs.
RUN_ALL_TEXTS = """
import json, sys
from quadricbundles import biforms, reports
seen = []
parse = biforms.parse
def record(text, table):
    inverted = [n for n, inv in zip(table.names, table.invertible) if inv]
    seen.append((text, table.names, inverted))
    return parse(text, table)
biforms.parse = record
reports.run_all(seed=7)
json.dump(seen, sys.stdout)
"""


#: How each ``ParseError`` message begins; the corpus reaches every one.
ERROR_KINDS = (
    "unexpected character",
    "expected '+' or '-'",
    "expected a number or variable",
    "expected an integer denominator",
    "expected an integer exponent",
    "zero denominator",
    "unknown variable",
    "exponents",
)


class TestParserOracle:
    def test_corpus_matches_the_two_stage_parser(self):
        corpus = list(oracle_corpus())
        assert len(corpus) >= 2000
        accepted, kinds = 0, set()
        for text, table in corpus:
            expected = outcome(reference_parse, text, table)
            assert outcome(parse, text, table) == expected, text
            if isinstance(expected, tuple):
                kinds.update(kind for kind in ERROR_KINDS if expected[0].startswith(kind))
            else:
                accepted += 1
        assert kinds == set(ERROR_KINDS)
        assert accepted >= len(corpus) // 4

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "-", "*s", "--s", "s^", "s^- -2", "3/", "3/ 0", "12'", "s'", "1٣'",
         "s^-1 t", "s^-1*$", "x^y", "0*s^-1", "1/2/3", "s ^ 2 ^ 3", "٣/٣*s", "s\n+\tt"],
    )
    def test_edge_texts_match_the_two_stage_parser(self, text):
        assert outcome(parse, text, ST) == outcome(reference_parse, text, ST)

    def test_run_all_texts_match_the_two_stage_parser(self):
        result = subprocess.run(
            [sys.executable, "-c", RUN_ALL_TEXTS], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        texts = json.loads(result.stdout)
        assert texts
        for text, names, inverted in texts:
            table = VariableTable(names, inverted)
            assert parse(text, table) == reference_parse(text, table), text


class TestArithmetic:
    def test_square_expansion(self):
        # (u*v' - v*u')^2 expands to u^2*v'^2 - 2*u*v*u'*v' + v^2*u'^2
        p = parse("u*v' - v*u'", UV)
        expected = parse("u^2*v'^2 - 2*u*v*u'*v' + v^2*u'^2", UV)
        assert p * p == expected
        assert p ** 2 == expected

    def test_additive_identity(self):
        p = parse("K^2 - L^2", KLMN)
        assert p + LaurentPolynomial.zero(KLMN) == p
        assert p + 0 == p

    def test_unit_cancellation(self):
        S = VariableTable(("s1",), invertible=("s1",))
        s1 = LaurentPolynomial.variable(S, "s1")
        assert s1 ** 2 * s1 ** -1 == s1

    def test_negative_power_of_non_unit_fails(self):
        p = parse("s", ST)
        with pytest.raises(NonUnitError):
            p ** -1
        with pytest.raises(NonUnitError):
            parse("s + t", ST) ** -1

    def test_table_mismatch(self):
        with pytest.raises(TableMismatchError):
            parse("K", KLMN) + parse("s", ST)

    def test_ring_axioms_random(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_poly(rng, ST)
            b = random_poly(rng, ST)
            c = random_poly(rng, ST)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_scalar_coercion(self):
        p = parse("s", ST)
        assert 2 * p == parse("2*s", ST)
        assert p * Fraction(1, 2) == parse("1/2*s", ST)
        assert p - 1 == parse("s - 1", ST)
        rng = random.Random(11)
        for _ in range(40):
            q = random_poly(rng, ST)
            for c in (0, -3, Fraction(-7, 4)):
                assert q * c == q * LaurentPolynomial.constant(ST, c) == c * q
                assert (q * c).table == ST

    def test_constants_hash_like_their_value(self):
        three = LaurentPolynomial.constant(ST, 3)
        zero = LaurentPolynomial.zero(ST)
        assert three == 3 and hash(three) == hash(3)
        assert zero == 0 and hash(zero) == hash(0)
        assert three in {3}
        assert {Fraction(3): "three"}[three] == "three"
        assert {Fraction(0): "zero"}[zero] == "zero"
        assert parse("s", ST) not in {Fraction(1)}


class TestSubstitution:
    def test_single_substitution(self):
        source = VariableTable(("t1", "K"))
        target = VariableTable(("s1", "K"))
        h = RingHomomorphism(
            source, target, {"t1": parse("s1^2", target), "K": parse("K", target)}
        )
        assert h(parse("t1*K^2", source)) == parse("s1^2*K^2", target)

    def test_identity(self):
        h = RingHomomorphism(
            KLMN,
            KLMN,
            {name: LaurentPolynomial.variable(KLMN, name) for name in KLMN.names},
        )
        p = parse("K^2 - 3*L*M + N", KLMN)
        assert h(p) == p

    def test_homomorphism_laws_random(self):
        rng = random.Random(7)
        source = ST
        target = VariableTable(("a", "b"), invertible=("b",))
        h = RingHomomorphism(
            source, target, {"s": parse("a + b", target), "t": parse("2*b^-1", target)}
        )
        for _ in range(25):
            p = random_poly(rng, source)
            q = random_poly(rng, source)
            assert h(p * q) == h(p) * h(q)
            assert h(p + q) == h(p) + h(q)

    def test_invertible_variable_needs_unit_image(self):
        with pytest.raises(NonUnitError):
            RingHomomorphism(ST, ST, {"s": parse("s", ST), "t": parse("s + t", ST)})

    def test_image_of_zero_allowed_for_plain_variable(self):
        h = RingHomomorphism(ST, ST, {"s": parse("0", ST), "t": parse("t", ST)})
        assert h(parse("s^2 + s*t + 1", ST)) == parse("1", ST)


class TestExactDivision:
    def test_monomial_quotient(self):
        S = VariableTable(("s1", "A", "B", "C", "D"))
        num = parse("s1^2*A^2 - s1^2*B^2 + s1^2*C^2 - s1^2*D^2", S)
        assert num.exact_div(parse("s1^2", S)) == parse("A^2 - B^2 + C^2 - D^2", S)

    def test_divide_by_one(self):
        p = parse("K^2 - L^2", KLMN)
        assert p.exact_div(LaurentPolynomial.one(KLMN)) == p

    def test_inexact_with_witness(self):
        AB = VariableTable(("A", "B"))
        with pytest.raises(DivisionError) as err:
            parse("A^2", AB).exact_div(parse("B", AB))
        assert err.value.remainder == parse("A^2", AB)

    @staticmethod
    def assert_refused(num, den):
        # not an inexact division: a divisor with several terms is refused
        # for its shape, whether or not a quotient exists
        with pytest.raises(ValueError, match="monomials only") as err:
            parse(num, ST).exact_div(parse(den, ST))
        assert not isinstance(err.value, DivisionError)
        assert str(parse(den, ST)) in str(err.value)

    def test_general_quotient(self):
        # s^2 - 1 = (s - 1)(s + 1) has a quotient, s^2 + 1 has none; both
        # divisions are refused alike
        self.assert_refused("s^2 - 1", "s - 1")
        self.assert_refused("s^2 + 1", "s - 1")

    def test_general_quotient_leaving_the_ring(self):
        # the quotient s^-1 of (s + 1) / (s^2 + s) would need s inverted; the
        # binomial divisor is refused before that question arises
        self.assert_refused("s + 1", "s^2 + s")
        self.assert_refused("0", "s^2 + s")

    def test_inexact_in_fully_laurent_ring(self):
        # every monomial is a unit, so division by one is always exact; the
        # inexact division by a binomial is refused for its shape
        XY = VariableTable(("x", "y"), invertible=("x", "y"))
        with pytest.raises(ValueError, match="monomials only"):
            parse("x + 1", XY).exact_div(parse("y + 1", XY))
        assert parse("x", XY).exact_div(parse("y", XY)) == parse("x*y^-1", XY)
        quotient = parse("x + 1", XY).exact_div(parse("2*y", XY))
        assert quotient == parse("1/2*x*y^-1 + 1/2*y^-1", XY)

    def test_product_division_random(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_poly(rng, ST)
            b = random_poly(rng, ST, nterms=1)
            if b.is_zero():
                continue
            assert (a * b).exact_div(b) == a


# -- properties --------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
COEFFICIENTS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def polynomials(table, max_terms=5):
    exponents = st.tuples(
        *(st.integers(-3 if inv else 0, 3) for inv in table.invertible)
    )
    return st.dictionaries(exponents, COEFFICIENTS, max_size=max_terms).map(
        lambda terms: LaurentPolynomial(table, terms)
    )


def monomials(table):
    return polynomials(table, max_terms=1).filter(lambda m: not m.is_zero())


def same_table(*strategies):
    """One table, then one draw from each ``strategy(table)``."""
    return st.sampled_from(MIXED_TABLES).flatmap(
        lambda table: st.tuples(*(strategy(table) for strategy in strategies))
    )


class TestRingProperties:
    @PROPERTY_SETTINGS
    @given(same_table(polynomials))
    def test_parse_inverts_str(self, drawn):
        (p,) = drawn
        assert parse(str(p), p.table) == p

    @PROPERTY_SETTINGS
    @given(same_table(polynomials, polynomials, polynomials))
    def test_ring_axioms(self, drawn):
        a, b, c = drawn
        zero, one = LaurentPolynomial.zero(a.table), LaurentPolynomial.one(a.table)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a and a - a == zero
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * one == a
        assert a * (b + c) == a * b + a * c

    @PROPERTY_SETTINGS
    @given(same_table(polynomials, polynomials), COEFFICIENTS)
    def test_equal_objects_hash_equal(self, drawn, c):
        p, q = drawn
        reordered = LaurentPolynomial(p.table, dict(reversed(list(p.terms.items()))))
        assert reordered == p and hash(reordered) == hash(p)
        assert (p == q) == (p - q).is_zero()
        if p == q:
            assert hash(p) == hash(q)
        constant = LaurentPolynomial.constant(p.table, c)
        assert constant == c and hash(constant) == hash(c)
        if c.denominator == 1:
            assert constant == int(c) and hash(constant) == hash(int(c))
        assert p.is_constant() or p != c

    @PROPERTY_SETTINGS
    @given(same_table(polynomials, monomials))
    def test_exact_division_by_a_monomial(self, drawn):
        a, m = drawn
        assert (a * m).exact_div(m) == a

    @PROPERTY_SETTINGS
    @given(same_table(polynomials, monomials))
    def test_inexact_division_names_its_remainder(self, drawn):
        p, m = drawn
        (mexps, _), = m.terms.items()
        stuck = {
            exps: coeff
            for exps, coeff in p.terms.items()
            if not p.table.allows(tuple(a - b for a, b in zip(exps, mexps)))
        }
        if not stuck:
            assert p.exact_div(m) * m == p
            return
        with pytest.raises(DivisionError) as err:
            p.exact_div(m)
        remainder = err.value.remainder
        assert remainder == LaurentPolynomial(p.table, stuck)
        assert (p - remainder).exact_div(m) * m == p - remainder


def pair_product(x, y, f):
    """Product of ``e1 + o1*t`` and ``e2 + o2*t`` in ``R[t] / (t^2 - f)``."""
    (e1, o1), (e2, o2) = x, y
    return (e1 * e2 + o1 * o2 * f, e1 * o2 + o1 * e2)


def termwise_reduction(poly, f, var):
    """Reference reduction: each term on its own, ``t^(2k+j) = f^k * t^j``."""
    table = poly.table
    idx = table.index(var)
    parts = [LaurentPolynomial.zero(table), LaurentPolynomial.zero(table)]
    for exps, coeff in poly.terms.items():
        k, parity = divmod(exps[idx], 2)
        stripped = exps[:idx] + (0,) + exps[idx + 1:]
        parts[parity] = parts[parity] + LaurentPolynomial(table, {stripped: coeff}) * f ** k
    return tuple(parts)


class TestQuotientAlgebra:
    TAB = VariableTable(("s", "t"))

    def modulus(self):
        return parse("s^2 - 1", self.TAB)

    def test_defining_relation(self):
        f = self.modulus()
        assert reduce_mod_square(parse("t^2", self.TAB), f, "t") == (f, 0)
        assert reduce_mod_square(parse("t^3", self.TAB), f, "t") == (0, f)

    def test_norm_form(self):
        f = self.modulus()
        a = parse("s + 2", self.TAB)
        b = parse("3*s", self.TAB)
        t = parse("t", self.TAB)
        even, odd = reduce_mod_square((a + b * t) * (a - b * t), f, "t")
        assert even == a * a - b * b * f
        assert odd.is_zero()

    def test_reduce_is_multiplicative(self):
        rng = random.Random(3)
        f = self.modulus()
        tab = self.TAB
        for _ in range(25):
            p = random_poly(rng, tab, nterms=4, max_exp=3)
            q = random_poly(rng, tab, nterms=4, max_exp=3)
            lhs = reduce_mod_square(p * q, f, "t")
            rhs = pair_product(
                reduce_mod_square(p, f, "t"), reduce_mod_square(q, f, "t"), f
            )
            assert lhs == rhs

    def test_matches_termwise_reduction(self):
        rng = random.Random(5)
        f = parse("s^3 - 2*s + 1/3", self.TAB)
        for _ in range(25):
            p = random_poly(rng, self.TAB, nterms=6, max_exp=7)
            assert reduce_mod_square(p, f, "t") == termwise_reduction(p, f, "t")

    def test_modulus_must_avoid_variable(self):
        with pytest.raises(ValueError):
            reduce_mod_square(parse("t", self.TAB), parse("t", self.TAB), "t")

    def test_modulus_over_the_same_table(self):
        with pytest.raises(TableMismatchError):
            reduce_mod_square(parse("t", self.TAB), parse("s", ST), "t")

    def test_negative_exponent_rejected(self):
        tab = VariableTable(("s", "t"), invertible=("t",))
        with pytest.raises(ExponentError):
            reduce_mod_square(parse("s + t^-1", tab), parse("s", tab), "t")

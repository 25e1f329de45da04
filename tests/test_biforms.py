import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from test_linalg import intersect_row_spaces, naive_determinant

from quadricbundles import biforms
from quadricbundles.biforms import (
    BIFORM_TABLE,
    CURVE_TABLE,
    RST,
    BiformVector,
    CurveSpec,
    GradedEqualityReport,
    MonomialScaledModule,
    back_substitute,
    biform_coordinates,
    curve_coordinates,
    freeness_certificate,
    graded_subspace,
    intersection_module,
    intersection_subspace,
    local_module,
    membership,
    nonflatness_witness,
    verify_containment,
    verify_graded_intersection,
    witness_curve,
)
from quadricbundles.rings import (
    LaurentPolynomial,
    RingHomomorphism,
    parse,
)


def e(index):
    coords = [Fraction(0)] * 9
    coords[index] = Fraction(1)
    return tuple(coords)


def local_intersection_oracle(exponents):
    """Intersection of the three local graded pieces from the kernel of each
    piece, independent of the constraint rows ``intersection_subspace``
    takes from the inverse change of basis."""
    spaces = [graded_subspace(local_module(i), exponents) for i in (1, 2, 3)]
    return intersect_row_spaces(spaces, 9)


def brute_force_graded_intersection(window):
    """Reference for verify_graded_intersection: compare at every monomial of
    the window, and probe one step past its boundary in each variable."""
    target = biforms.intersection_module()
    mismatches = []
    checked = 0
    saturated = True
    span = range(window + 1)
    for exponents in product(span, repeat=3):
        lhs = local_intersection_oracle(exponents)
        rhs = graded_subspace(target, exponents)
        checked += 1
        if lhs != rhs:
            mismatches.append((exponents, lhs, rhs))
        for axis in range(3):
            if exponents[axis] == window:
                beyond = list(exponents)
                beyond[axis] += 1
                beyond = tuple(beyond)
                if local_intersection_oracle(beyond) != lhs:
                    saturated = False
                if graded_subspace(target, beyond) != rhs:
                    saturated = False
    return GradedEqualityReport(
        passed=not mismatches and saturated,
        checked=checked,
        mismatches=tuple(mismatches),
        saturated=saturated,
    )


def raise_first_generator(monkeypatch, factor):
    """Replace the free module by one whose first generator monomial is
    multiplied by ``factor``."""
    original = intersection_module()
    (monomial, form), *rest = original.gens
    raised = MonomialScaledModule(
        name=original.name,
        ring=original.ring,
        gens=((monomial * parse(factor, RST), form), *rest),
    )
    monkeypatch.setattr(biforms, "intersection_module", lambda: raised)


class TestBasis:
    def test_coordinates_of_basis_monomials(self):
        assert biform_coordinates(parse("u*v*u'*v'", BIFORM_TABLE)) == e(4)
        assert biform_coordinates(parse("u^2*u'^2", BIFORM_TABLE)) == e(0)

    def test_polarization_identity(self):
        # u*v*u'*v' = 1/4*(u*v'+v*u')^2 - 1/4*(u*v'-v*u')^2
        plus = parse("u*v'+v*u'", BIFORM_TABLE)
        minus = parse("u*v'-v*u'", BIFORM_TABLE)
        combo = Fraction(1, 4) * (plus * plus) - Fraction(1, 4) * (minus * minus)
        assert biform_coordinates(combo) == e(4)

    def test_non_biform_rejected(self):
        with pytest.raises(ValueError):
            biform_coordinates(parse("u^3*v*u'^2", BIFORM_TABLE))
        with pytest.raises(ValueError):
            biform_coordinates(parse("u^2*u'^2 + 1", BIFORM_TABLE))


class TestModuleData:
    def test_m1_generator_5(self):
        m1 = local_module(1)
        monomial, form = m1.gens[4]
        assert monomial == parse("1", RST)
        assert form == e(4)

    def test_m2_generator_1(self):
        m2 = local_module(2)
        monomial, form = m2.gens[0]
        assert monomial == parse("s^2", RST)
        expected = biform_coordinates(
            parse("u^2+v^2", BIFORM_TABLE) * parse("u'^2+v'^2", BIFORM_TABLE)
        )
        assert form == expected

    def test_m3_generator_3(self):
        m3 = local_module(3)
        monomial, form = m3.gens[2]
        assert monomial == parse("1", RST)
        minus = parse("u*v'-v*u'", BIFORM_TABLE)
        assert form == biform_coordinates(minus * minus)

    def test_intersection_module_generators(self):
        n = intersection_module()
        assert n.gens[0][0] == parse("r^2*s^2", RST)
        assert n.gens[0][1] == e(4)
        assert n.gens[3][0] == parse("r*s*t", RST)
        assert n.gens[3][1] == biform_coordinates(
            parse("u*u'+v*v'", BIFORM_TABLE) * parse("u*v'-v*u'", BIFORM_TABLE)
        )
        assert n.gens[8][0] == parse("r^2*s*t^2", RST)
        assert n.gens[8][1] == biform_coordinates(
            parse("u*u'-v*v'", BIFORM_TABLE) * parse("u*u'+v*v'", BIFORM_TABLE)
        )

    def test_ring_flags(self):
        flags = {
            1: (True, True, False),
            2: (True, False, True),
            3: (False, True, True),
        }
        for index, invertible in flags.items():
            assert local_module(index).ring.invertible == invertible
        assert intersection_module().ring.invertible == (False, False, False)

    def test_generator_monomials_are_monic(self):
        # the exponent reader drops the coefficient, so it refuses a scalar
        for module in [local_module(i) for i in (1, 2, 3)] + [intersection_module()]:
            for monomial, _ in module.gens:
                exps = biforms._exponents(monomial)
                assert LaurentPolynomial(RST, {exps: 1}) == monomial
        with pytest.raises(ValueError, match="not monic"):
            biforms._exponents(parse("2*t", RST))

    def test_dependent_forms_are_not_a_basis(self):
        m1 = local_module(1)
        gens = (m1.gens[1],) + m1.gens[1:]
        with pytest.raises(ValueError, match="not a basis"):
            MonomialScaledModule(name="degenerate", ring=m1.ring, gens=gens)

    def test_change_of_basis_solves_coordinates(self):
        # coordinates of u*v*u'*v' in the constant-form basis of M3
        m3 = local_module(3)
        coords = [sum(a * b for a, b in zip(row, e(4))) for row in m3.basis_inverse]
        expected = [Fraction(0)] * 9
        expected[1] = Fraction(1, 4)
        expected[2] = Fraction(-1, 4)
        assert coords == expected


class TestMembership:
    def test_x0_in_m1(self):
        cert = membership(intersection_module().generator_vector(0), local_module(1))
        assert cert.member
        expected = [parse("0", RST)] * 9
        expected[4] = parse("r^2*s^2", RST)
        assert list(cert.coefficients) == expected

    def test_x0_in_m3(self):
        cert = membership(intersection_module().generator_vector(0), local_module(3))
        assert cert.member
        assert cert.coefficients[1] == parse("1/4*s^2", RST)
        assert cert.coefficients[2] == parse("-1/4*r^2*s^2", RST)

    def test_x4_in_m2(self):
        cert = membership(intersection_module().generator_vector(4), local_module(2))
        assert cert.member
        expected = [parse("0", RST)] * 9
        expected[5] = parse("r^2*t", RST)
        expected[7] = parse("r^2*t", RST)
        assert list(cert.coefficients) == expected

    def test_x2_in_m3(self):
        cert = membership(intersection_module().generator_vector(2), local_module(3))
        assert cert.member
        assert cert.coefficients[2] == parse("s^2*t^2", RST)

    def test_negative_control(self):
        monomial = parse("t^-1", RST)
        vector = BiformVector(tuple(monomial * c for c in e(4)))
        cert = membership(vector, local_module(1))
        assert not cert.member
        assert cert.offending == (4,)

    def test_own_generators_have_unit_certificates(self):
        for index in (1, 2, 3):
            module = local_module(index)
            for j in range(9):
                cert = membership(module.generator_vector(j), module)
                assert cert.member
                assert cert.coefficients[j] == parse("1", RST)
                assert all(
                    cert.coefficients[k].is_zero() for k in range(9) if k != j
                )

    def test_back_substitution(self):
        target = intersection_module()
        for module_index in (1, 2, 3):
            module = local_module(module_index)
            for g in range(9):
                vector = target.generator_vector(g)
                cert = membership(vector, module)
                assert back_substitute(cert, module).coords == vector.coords


class TestContainment:
    def test_all_27_certificates(self):
        report = verify_containment()
        assert report.passed
        assert len(report.certificates) == 27
        assert all(cert.member for _, _, cert in report.certificates)


class TestFreeness:
    def test_determinant_value(self):
        report = freeness_certificate()
        assert report.passed
        # reconstruct independently: det = prod(monomials) * det(constant forms)
        target = intersection_module()
        mono = LaurentPolynomial.one(RST)
        for m, _ in target.gens:
            mono = mono * m
        rows = [[Fraction(x) for x in form] for _, form in target.gens]
        det = Fraction(1)
        n = 9
        for k in range(n):
            pivot = next(i for i in range(k, n) if rows[i][k])
            if pivot != k:
                rows[k], rows[pivot] = rows[pivot], rows[k]
                det = -det
            det *= rows[k][k]
            inv = 1 / rows[k][k]
            for i in range(k + 1, n):
                factor = rows[i][k] * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
        assert report.det == mono * det
        assert abs(det) == 64

    def test_eight_generator_rank(self):
        from quadricbundles.linalg import rational_rank

        target = intersection_module()
        for drop in range(9):
            rows = [
                list(form) for j, (_, form) in enumerate(target.gens) if j != drop
            ]
            assert rational_rank(rows) == 8

    def test_duplicate_generator_gives_zero_determinant(self):
        from quadricbundles.linalg import determinant

        forms = [list(form) for _, form in intersection_module().gens]
        forms[8] = forms[0]
        assert determinant(forms) == 0

    def test_cofactor_expansion_of_the_generator_matrix(self):
        # the full polynomial matrix, expanded without the multilinear split
        target = intersection_module()
        rows = [[mono * c for c in form] for mono, form in target.gens]
        assert sum(entry != 0 for row in rows for entry in row) == 28
        det = naive_determinant(rows)
        assert det == freeness_certificate().det == parse("64*r^13*s^12*t^12", RST)


class TestGradedIntersection:
    def test_uv_line_at_r2s2(self):
        space = intersection_subspace((2, 2, 0))
        assert space == [e(4)]
        assert graded_subspace(intersection_module(), (2, 2, 0)) == [e(4)]

    def test_trivial_at_origin(self):
        assert intersection_subspace((0, 0, 0)) == []
        assert graded_subspace(intersection_module(), (0, 0, 0)) == []

    def test_full_space_deep_in_the_interior(self):
        space = intersection_subspace((5, 5, 5))
        assert len(space) == 9
        assert graded_subspace(intersection_module(), (5, 5, 5)) == space

    def test_monotone_in_each_direction(self):
        from quadricbundles.linalg import rational_rank

        for exponents in ((0, 0, 0), (1, 2, 0), (2, 2, 2), (1, 1, 1)):
            base = intersection_subspace(exponents)
            for axis in range(3):
                bigger = list(exponents)
                bigger[axis] += 1
                up = intersection_subspace(tuple(bigger))
                stacked = [list(row) for row in up] + [list(row) for row in base]
                assert rational_rank(stacked) == len(up)

    def test_constraint_rows_match_kernel_oracle(self):
        for exponents in product(range(6), repeat=3):
            assert intersection_subspace(exponents) == local_intersection_oracle(
                exponents
            ), exponents

    def test_window_equality(self):
        report = verify_graded_intersection(4)
        assert report.passed
        assert report.checked == 125
        assert report.mismatches == ()
        assert report.saturated

    def test_window_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            verify_graded_intersection(3)

    def test_clamp_lemma(self):
        modules = [local_module(i) for i in (1, 2, 3)] + [intersection_module()]
        for module in modules:
            for exponents in product(range(6), repeat=3):
                clamped = tuple(min(x, 2) for x in exponents)
                assert graded_subspace(module, exponents) == graded_subspace(
                    module, clamped
                ), (module.name, exponents)

    def test_modules_are_built_once(self):
        assert local_module(2) is local_module(2)
        assert intersection_module() is intersection_module()

    @pytest.mark.parametrize("window", [4, 5, 6])
    def test_matches_brute_force_reference(self, window):
        report = verify_graded_intersection(window)
        assert report == brute_force_graded_intersection(window)
        assert report.checked == (window + 1) ** 3

    def test_raised_generator_mismatches_match_reference(self, monkeypatch):
        raise_first_generator(monkeypatch, "r")
        report = verify_graded_intersection(4)
        assert report == brute_force_graded_intersection(4)
        assert report.mismatches
        assert not report.passed
        assert report.saturated
        # r^2*s^2*uvu'v' is in all three local modules but no longer in N
        assert report.mismatches[0][0] == (2, 2, 0)

    def test_bound_beyond_window_is_unsaturated(self, monkeypatch):
        raise_first_generator(monkeypatch, "r^3")
        report = verify_graded_intersection(4)
        assert not report.saturated
        assert not report.passed
        assert report.checked == 125


#: Counts the eliminations of one ``run_appendix(window=6)`` in a fresh
#: process, so that every cache starts empty.
WORK_COUNT = """
import json
from quadricbundles import biforms, linalg, reports

calls = 0
rref = linalg.rref


def counted(rows):
    global calls
    calls += 1
    return rref(rows)


linalg.rref = counted
reports.run_appendix(window=6)
print(json.dumps({"rref": calls, "spans": biforms._span.cache_info().misses}))
"""


class TestWorkCount:
    def test_fresh_appendix_row_reductions(self):
        result = subprocess.run(
            [sys.executable, "-c", WORK_COUNT], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        counts = json.loads(result.stdout)
        # one kernel and one row space per clamp class (27 of them), the
        # spans of the free module and four inverse changes of basis
        assert counts["rref"] <= 80
        assert counts["spans"] <= 21


class TestNonflatness:
    def test_modulus_forced_by_identities(self):
        # (s^2*alpha^2 - gamma^2)(s^2*beta^2*gamma^-2 - s^2) expanded: the
        # gamma exponent in the last modulus term must be -2
        expected = parse(
            "1/16*s^4*alpha^2*beta^2*gamma^-2 - 1/16*s^4*alpha^2"
            " - 1/16*s^2*beta^2 + 1/16*s^2*gamma^2",
            CURVE_TABLE,
        )
        assert witness_curve(-2).modulus == expected

    def test_identities_hold_with_exponent_minus_two(self):
        report = nonflatness_witness(witness_curve(-2))
        assert report.identities_hold
        assert report.x0_nonzero
        assert report.coordinate_order == (0, 3, 4, 5)
        assert report.passed

    def test_identities_fail_with_printed_exponent(self):
        report = nonflatness_witness(witness_curve(-1))
        assert not report.identities_hold
        assert not report.passed

    def test_x0_value(self):
        # x0 = r^2 s^2 uvu'v' restricts to 16 s^4 t^2 * u u' on the curve
        spec = witness_curve(-2)
        images = curve_coordinates(spec)
        even, odd = images[0]
        assert odd.is_zero()
        direct = parse("16*s^4", CURVE_TABLE) * spec.u * spec.u_prime * spec.modulus
        assert even == direct

    def test_specialization_alpha_beta_gamma_equal(self):
        spec = witness_curve(-2)
        gamma = parse("gamma", CURVE_TABLE)
        collapse = RingHomomorphism(
            CURVE_TABLE,
            CURVE_TABLE,
            {
                "s": parse("s", CURVE_TABLE),
                "t": parse("t", CURVE_TABLE),
                "alpha": gamma,
                "beta": gamma,
                "gamma": gamma,
            },
        )
        specialized = CurveSpec(
            gamma_exponent=-2,
            r=collapse(spec.r),
            u=collapse(spec.u),
            v=collapse(spec.v),
            u_prime=collapse(spec.u_prime),
            v_prime=collapse(spec.v_prime),
            modulus=collapse(spec.modulus),
        )
        report = nonflatness_witness(specialized)
        # the specialization collapses the curve (modulus and u*u' vanish), so
        # the identities persist trivially while x0 itself degenerates
        assert report.identities_hold

    def test_corrupted_curve_fails_with_residual(self):
        spec = witness_curve(-2)
        first_term = parse("-1/16*s^4*alpha^2", CURVE_TABLE)
        report = nonflatness_witness(replace(spec, modulus=spec.modulus - first_term))
        assert not report.identities_hold
        assert any(even != "0" or odd != "0" for even, odd in report.residuals)

    def test_permuted_images_do_not_pass(self, monkeypatch):
        # with images 3 and 6 swapped, (0, 6, 4, 5) would satisfy the
        # identities, but only the printed order (0, 3, 4, 5) may be tested
        images = curve_coordinates(witness_curve(-2))
        images[3], images[6] = images[6], images[3]
        monkeypatch.setattr(biforms, "curve_coordinates", lambda spec: images)
        report = nonflatness_witness(witness_curve(-2))
        assert report.coordinate_order == (0, 3, 4, 5)
        assert not report.identities_hold
        assert not report.passed

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            witness_curve(0)

"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing the stated runtime budget."""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

from quadricbundles import biforms, brauer, bundles, covers, reports
from quadricbundles.rings import parse


def timed(label, limit, body):
    started = time.perf_counter()
    try:
        body()
    except AssertionError:
        print("FAIL %s" % label)
        raise
    elapsed = time.perf_counter() - started
    if limit is None:
        print("PASS %s (%.2fs)" % (label, elapsed))
        return
    print("PASS %s (%.2fs < %ds)" % (label, elapsed, limit))
    assert elapsed < limit, "%s exceeded %ds budget (%.2fs)" % (label, limit, elapsed)


def test_criterion_1_normal_form_completeness():
    # recomputed via the product oracle before freezing
    expected_discriminants = [
        "1",
        "t1",
        "t1^2",
        "t1*t2^2",
        "t1*t2^2",
        "t1^2*t2^2",
        "t1*t2^2*t3^2",
        "t1*t2^2*t3^2",
    ]

    def body():
        for entry, expected in zip(range(1, 9), expected_discriminants):
            bundle = bundles.normal_form(entry)
            assert bundle.n == bundles.MIN_DIMENSION[entry]
            certificate = bundles.flatness_certificate(bundle)
            assert abs(certificate.value) == 1
            disc = bundles.discriminant(bundle)
            assert disc.is_monomial()
            assert disc == parse(expected, bundles.base_table(bundle.n))

    timed("criterion-1 normal-form completeness", 1, body)


def test_criterion_2_cover_map_suite():
    def body():
        for entry in range(2, 9):
            cover = covers.cover_map(entry)
            monomial, residual = covers.pullback_factorization(cover)
            assert residual == covers.base_quadric(cover.table)
            (exps, coeff), = monomial.terms.items()
            assert coeff == 1
            assert all(e % 2 == 0 for e in exps)
            generators = covers.infer_sign_action(cover)
            assert len(generators) == cover.m
            report = covers.verify_projective_equivariance(cover, generators)
            assert report.passed
            inverse = covers.generic_fiber_inverse(cover)
            assert inverse.verified

    timed("criterion-2 cover-map suite 7/7", 2, body)


def test_criterion_3_containment():
    def body():
        report = biforms.verify_containment()
        assert report.passed
        assert len(report.certificates) == 27
        target = biforms.intersection_module()
        modules = {m.name: m for m in (biforms.local_module(i) for i in (1, 2, 3))}
        for g, name, certificate in report.certificates:
            assert certificate.member
            rebuilt = biforms.back_substitute(certificate, modules[name])
            assert rebuilt.coords == target.generator_vector(g).coords

    timed("criterion-3 containment 27/27 with back-substitution", 5, body)


def test_criterion_4_freeness():
    def body():
        report = biforms.freeness_certificate()
        assert report.passed
        assert not report.det.is_zero()

    timed("criterion-4 free rank-9 determinant", 1, body)


def test_criterion_5_graded_intersection_equality():
    def body():
        report = biforms.verify_graded_intersection(4)
        assert report.passed
        assert report.checked == 125
        assert report.mismatches == ()
        assert report.saturated

    timed("criterion-5 graded equality on the 0..4 window", 30, body)


def test_criterion_6_nonflatness_witness():
    def body():
        results = {
            e: biforms.nonflatness_witness(biforms.witness_curve(e))
            for e in (-2, -1)
        }
        passing = [e for e, rep in results.items() if rep.passed]
        # at least one exponent works, and a pass with -1 alone would
        # contradict the hand-derivation oracle
        assert passing == [-2]
        assert results[-2].identities_hold
        assert results[-2].x0_nonzero

    timed("criterion-6 non-flatness witness (gamma exponent -2)", 5, body)


def test_criterion_7_brauer_suite():
    def body():
        payload = reports.run_brauer(seed=7)
        checks = {item["check"]: item for item in payload["items"]}
        symbols = checks["hilbert-symbol-vs-search-oracle"]
        assert symbols["samples"] >= 500
        assert symbols["disagreements"] == []
        product = checks["global-product-formula"]
        assert product["samples"] >= 200
        assert product["failures"] == []
        doubling = checks["restriction-corestriction-doubling"]
        assert doubling["samples"] >= 100
        assert doubling["failures"] == []
        descent = checks["quaternion-descent-instances"]
        assert descent["samples"] >= 20
        assert descent["inconsistent"] == 0
        for detail in descent["details"]:
            if not detail["similar"]:
                assert not detail["hypothesis_division_split"]
        assert payload["status"] == "pass"

    timed("criterion-7 brauer randomized suite", 60, body)


def test_criterion_8_byte_identical_reports(tmp_path):
    def body():
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "quadricbundles",
                    "run",
                    "all",
                    "--seed",
                    "7",
                    "--json",
                    str(path),
                ],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
        first = paths[0].read_bytes()
        second = paths[1].read_bytes()
        assert first == second
        assert hashlib.sha256(first).hexdigest() == (
            "b95bf00c772bfadf3c0f0848c8dc979ef1347252f663fc342bcad5ff5d9cee5a"
        )
        payload = json.loads(first)
        assert payload["status"] in ("pass", "attention")

    timed("criterion-8 deterministic reports", None, body)

"""Verification suites and their machine-readable reports.

Each suite returns a JSON-ready dictionary: ``suite`` name, ``status`` (pass,
fail, or attention), and a list of per-check ``items`` embedding the
canonical text of every polynomial involved.  Randomized checks draw from an
explicitly seeded generator, so identical options produce byte-identical
reports; ``attention`` is reserved for documented discrepancies (the modulus
exponent of the witness curve).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from . import biforms, brauer, bundles, covers

SUITES = ("normal-forms", "section5", "brauer", "appendix")

DEFAULT_SEED = 7

#: Entries each suite runs, and the ``--entry`` values it takes.
ENTRIES = {
    "normal-forms": sorted(bundles.NORMAL_FORMS),
    "section5": sorted(covers.COVER_SPECS),
}

#: Sampling floors for the randomized brauer checks.
SYMBOL_SAMPLES = 500
PRODUCT_SAMPLES = 200
DOUBLING_SAMPLES = 100
DESCENT_SAMPLES = 20

ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)
SQUAREFREE_POOL = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, 10, -10, 15, 17, -17, 30)


# -- normal forms -------------------------------------------------------------

def _variable_indices(bundle):
    present = set()
    for coeff in bundle.coeffs:
        present |= {int(name[1:]) for name in coeff.variables()}
    return sorted(present)


def normal_form_item(entry):
    """Report of normal form ``entry`` over A^m, m = ``bundles.MIN_DIMENSION[entry]``.

    Base-change lemma: the coefficients use only t_1..t_m;
    ``LaurentPolynomial.__str__`` prints no zero exponent; the strata run over
    the variables that occur.  So equation, coefficients, both discriminants,
    certificate and strata are the same over every A^n with n >= m, and the
    report over A^n is this one with ``dim`` n.
    """
    bundle = bundles.normal_form(entry)
    certificate = bundles.flatness_certificate(bundle)
    strata = []
    indices = _variable_indices(bundle)
    for size in range(len(indices) + 1):
        for zeroset in combinations(indices, size):
            strata.append(
                {
                    "zeroset": list(zeroset),
                    "rank": bundles.gram_rank_on_stratum(bundle, set(zeroset)),
                }
            )
    return {
        "entry": entry,
        "dim": bundle.n,
        "equation": str(bundle.equation()),
        "coefficients": [str(c) for c in bundle.coeffs],
        "discriminant": str(bundles.discriminant(bundle)),
        "discriminant_square_class": str(bundles.discriminant(bundle, square_class=True)),
        "certificate": {
            "kind": certificate.kind,
            "index": certificate.index,
            "value": str(certificate.value),
        },
        "strata": strata,
    }


def _run_entries(suite, entry, item_of, errors):
    """Items of ``suite`` for each of its entries, or for ``entry`` alone.  An
    entry fails when ``item_of`` raises one of ``errors``, or when a check of
    its item reads ``"fail"``."""
    items = []
    for k in ENTRIES[suite] if entry is None else [entry]:
        try:
            items.append(item_of(k))
        except errors as exc:
            items.append({"entry": k, "error": str(exc)})
    failures = sum("error" in item or "fail" in item.values() for item in items)
    return {"suite": suite, "status": "fail" if failures else "pass", "items": items}


def run_normal_forms(entry=None):
    errors = (bundles.NoUnitCoefficientError, ValueError)
    return _run_entries("normal-forms", entry, normal_form_item, errors)


# -- cover maps ---------------------------------------------------------------

def section5_item(entry):
    cover = covers.cover_map(entry)
    monomial, residual = covers.pullback_factorization(cover)
    generators = covers.infer_sign_action(cover)
    equivariance = covers.verify_projective_equivariance(cover, generators)
    inverse = covers.generic_fiber_inverse(cover)
    return {
        "entry": entry,
        "map": {
            "cover_variables": list(cover.table.names),
            "base": [str(p) for p in cover.base_images],
            "projective": [str(p) for p in cover.proj_images],
        },
        "monomial": str(monomial),
        "residual": str(residual),
        "action": [
            {
                "generator": gen.s_index,
                "letter_signs": list(gen.letter_signs),
                "rescale": gen.rescale,
            }
            for gen in generators
        ],
        "equivariance": "pass" if equivariance.passed else "fail",
        "equivariance_failures": list(equivariance.failures),
        "inverse": "pass" if inverse.verified else "fail",
        "inverse_images": [str(p) for p in inverse.images],
    }


def run_section5(entry=None):
    errors = (covers.CoverMapError, ValueError)
    return _run_entries("section5", entry, section5_item, errors)


# -- brauer arithmetic --------------------------------------------------------

def _random_rational(rng):
    num = 0
    while num == 0:
        num = rng.randint(-40, 40)
    return Fraction(num, rng.randint(1, 8))


def _random_place(rng):
    choice = rng.randint(0, len(ORACLE_PRIMES))
    if choice == 0:
        return brauer.REAL
    return brauer.Place.prime(ORACLE_PRIMES[choice - 1])


def descent_verdict(report):
    """The verdict fields of every descent report: similarity and its scale,
    splitting over Q(sqrt(d)), and consistency."""
    return {
        "similar": report.similar,
        "scale": report.scale,
        "splits_over_extension": report.splits_over_extension,
        "consistent": report.consistent,
    }


def run_brauer(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    items = []
    failures = 0

    disagreements = []
    for _ in range(SYMBOL_SAMPLES):
        a, b = _random_rational(rng), _random_rational(rng)
        place = _random_place(rng)
        formula = brauer.hilbert_symbol(a, b, place)
        search = brauer.hilbert_symbol_search(a, b, place)
        if formula != search:
            disagreements.append({"a": str(a), "b": str(b), "place": str(place)})
    failures += len(disagreements)
    items.append(
        {
            "check": "hilbert-symbol-vs-search-oracle",
            "samples": SYMBOL_SAMPLES,
            "disagreements": disagreements,
        }
    )

    product_failures = []
    for _ in range(PRODUCT_SAMPLES):
        a, b = _random_rational(rng), _random_rational(rng)
        product = 1
        for place in brauer.relevant_places([a, b]):
            product *= brauer.hilbert_symbol(a, b, place)
        if product != 1:
            product_failures.append({"a": str(a), "b": str(b)})
    failures += len(product_failures)
    items.append(
        {
            "check": "global-product-formula",
            "samples": PRODUCT_SAMPLES,
            "failures": product_failures,
        }
    )

    doubling_failures = []
    for _ in range(DOUBLING_SAMPLES):
        beta = brauer.QuaternionClass(_random_rational(rng), _random_rational(rng))
        d = rng.choice(SQUAREFREE_POOL)
        if not brauer.res_cor_doubling_check(beta, d):
            doubling_failures.append({"a": str(beta.a), "b": str(beta.b), "d": d})
    failures += len(doubling_failures)
    items.append(
        {
            "check": "restriction-corestriction-doubling",
            "samples": DOUBLING_SAMPLES,
            "failures": doubling_failures,
        }
    )

    descent_details = []
    inconsistent = 0
    for _ in range(DESCENT_SAMPLES):
        p = rng.choice([1, -1, 2, 3, -3, 5, 7, -7, 10, 11])
        q = rng.choice([1, -1, 2, 3, -3, 5, 7, -7, 10, 11])
        r = rng.choice([1, -1, 2, 3, -3, 5, 7, -7, 10, 11])
        d = rng.choice(SQUAREFREE_POOL)
        report = brauer.verify_quaternion_descent_instance(p, q, r, d)
        if not report.consistent:
            inconsistent += 1
        descent_details.append(
            {
                "p": p,
                "q": q,
                "r": r,
                "d": d,
                **descent_verdict(report),
                "hypothesis_division_split": report.hypothesis_division_split,
            }
        )
    failures += inconsistent
    items.append(
        {
            "check": "quaternion-descent-instances",
            "samples": DESCENT_SAMPLES,
            "inconsistent": inconsistent,
            "details": descent_details,
        }
    )

    worked = brauer.verify_quaternion_descent_instance(3, 5, 7, 2)
    worked_item = {
        "check": "worked-descent-example",
        "p": 3,
        "q": 5,
        "r": 7,
        "d": 2,
        "isotropy_form": str(worked.isotropy_form),
        "albert_pair_form": str(worked.albert_pair_form),
        **descent_verdict(worked),
    }
    if not worked.consistent:
        failures += 1
    items.append(worked_item)

    return {
        "suite": "brauer",
        "status": "fail" if failures else "pass",
        "seed": seed,
        "items": items,
    }


def hilbert_report(a, b, place):
    """Report of ``brauer hilbert``: ``(a, b)_place`` by the formula and by
    the search oracle, which raises ``ValueError`` past its bound."""
    symbol = brauer.hilbert_symbol(a, b, place)
    search = brauer.hilbert_symbol_search(a, b, place)
    return {
        "a": str(a),
        "b": str(b),
        "place": str(place),
        "symbol": symbol,
        "search_oracle": search,
        "agree": symbol == search,
    }


def _invariant_table(form):
    return {
        "dim": form.dim,
        "disc": form.disc,
        "signature": list(form.signature),
        "hasse": [[str(place), value] for place, value in form.hasse.items()],
    }


def albert_report(p, q, r, d):
    """Report of ``brauer albert``: descent instance ``(p, q, r, d)`` with
    both forms and their invariants."""
    report = brauer.verify_quaternion_descent_instance(p, q, r, d)
    return {
        "p": str(p),
        "q": str(q),
        "r": str(r),
        "d": d,
        "pair": [
            [str(p), str(d)],
            [str(report.residual_class.a), str(report.residual_class.b)],
        ],
        "isotropy_form": str(report.isotropy_form),
        "albert_pair_form": str(report.albert_pair_form),
        "invariants": {
            "isotropy_form": _invariant_table(report.isotropy_form),
            "albert_pair_form": _invariant_table(report.albert_pair_form),
        },
        **descent_verdict(report),
        "hypothesis_division_split": report.hypothesis_division_split,
    }


# -- the biform-module computations -------------------------------------------

def run_appendix(window=biforms.MIN_WINDOW):
    items = []
    statuses = []

    containment = biforms.verify_containment()
    items.append(
        {
            "check": "containment",
            "passed": containment.passed,
            "certificates": [
                {
                    "generator": g,
                    "module": name,
                    "member": cert.member,
                    "coefficients": [str(c) for c in cert.coefficients],
                }
                for g, name, cert in containment.certificates
            ],
        }
    )
    statuses.append("pass" if containment.passed else "fail")

    freeness = biforms.freeness_certificate()
    items.append(
        {
            "check": "freeness",
            "passed": freeness.passed,
            "determinant": str(freeness.det),
        }
    )
    statuses.append("pass" if freeness.passed else "fail")

    graded = biforms.verify_graded_intersection(window)
    items.append(
        {
            "check": "graded-equality",
            "passed": graded.passed,
            "window": window,
            "checked": graded.checked,
            "saturated": graded.saturated,
            "mismatches": [
                {"monomial": list(exps)} for exps, _, _ in graded.mismatches
            ],
        }
    )
    statuses.append("pass" if graded.passed else "fail")

    exponent_reports = {
        e: biforms.nonflatness_witness(biforms.witness_curve(e))
        for e in biforms.GAMMA_EXPONENTS
    }
    passing = [e for e, rep in exponent_reports.items() if rep.passed]
    if passing == [-2]:
        chosen = -2
        note = (
            "identities hold for gamma exponent -2 only; the exponent -1"
            " variant of the modulus fails them and is flagged as a"
            " probable transcription error"
        )
    elif passing == [-1]:
        chosen = -1
        note = (
            "identities hold for gamma exponent -1 only, contradicting the"
            " hand-derivation oracle; refusing to pass until reconciled"
        )
    elif not passing:
        chosen = None
        note = "no gamma exponent satisfies the identities"
    else:
        chosen = None
        note = (
            "both gamma exponents satisfy the identities, contradicting"
            " the hand-derivation oracle"
        )
    items.append(
        {
            "check": "nonflatness",
            "gamma_exp_used": chosen,
            "identities": chosen is not None,
            "x0_nonzero": bool(chosen is not None and exponent_reports[chosen].x0_nonzero),
            "exponents": {
                str(e): rep._asdict() for e, rep in exponent_reports.items()
            },
            "note": note,
        }
    )
    statuses.append("attention" if chosen == -2 else "fail")

    return {
        "suite": "appendix",
        "status": aggregate_status(statuses),
        "window": window,
        "items": items,
    }


# -- orchestration ------------------------------------------------------------

def aggregate_status(statuses):
    if any(s == "fail" for s in statuses):
        return "fail"
    if any(s == "attention" for s in statuses):
        return "attention"
    return "pass"


def run_all(seed=DEFAULT_SEED, window=biforms.MIN_WINDOW):
    suites = [run_normal_forms(), run_section5(), run_brauer(seed), run_appendix(window)]
    return {
        "status": aggregate_status([s["status"] for s in suites]),
        "seed": seed,
        # the appendix always tests both gamma exponents
        "options": {"window": window, "gamma_exp": "auto"},
        "suites": suites,
    }


#: Published schema for the JSON reports emitted by the command line.
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "definitions": {
        "status": {"enum": ["pass", "fail", "attention"]},
        "suiteReport": {
            "type": "object",
            "required": ["suite", "status", "items"],
            "properties": {
                "suite": {"enum": list(SUITES)},
                "status": {"$ref": "#/definitions/status"},
                "items": {"type": "array", "items": {"type": "object"}},
                "seed": {"type": "integer"},
                "window": {"type": "integer"},
            },
        },
        "aggregateReport": {
            "type": "object",
            "required": ["status", "seed", "options", "suites"],
            "properties": {
                "status": {"$ref": "#/definitions/status"},
                "seed": {"type": "integer"},
                "options": {"type": "object"},
                "suites": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/suiteReport"},
                },
            },
        },
    },
    "oneOf": [
        {"$ref": "#/definitions/suiteReport"},
        {"$ref": "#/definitions/aggregateReport"},
    ],
}

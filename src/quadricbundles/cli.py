"""Command-line entry point for the verification suites.

Exit codes: 0 when every requested check passes (``attention`` outcomes
count as passing but carry a documented note), 1 on any failed check, 2 on
usage errors.  Reports written with ``--json`` are deterministic for a fixed
``--seed`` and never include timing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import biforms, brauer, bundles, reports


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit(payload, json_path, stream):
    if json_path:
        _write_json(json_path, payload)
        print("report written to %s" % json_path, file=stream)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True), file=stream)


#: Most digits an integer, numerator or denominator may have on the command
#: line, so that products of a few inputs stay printable and every query
#: stays fast.  The slowest input at the bound is a smooth ``albert --d``,
#: whose prime factors are all found by trial division: the 997-digit
#: product of the primes up to 2351 takes about 1 s in a fresh process on a
#: 2-vCPU VM.
MAX_RATIONAL_DIGITS = 1000

_SIGNED_DIGITS = r"[+-]?[0-9]{1,%d}" % MAX_RATIONAL_DIGITS
_INTEGER = re.compile(_SIGNED_DIGITS)
_RATIONAL = re.compile(r"%s(?:/[0-9]{1,%d})?" % (_SIGNED_DIGITS, MAX_RATIONAL_DIGITS))


def _integer(low=None, high=None):
    """argparse type: ``[+-]digits``, checked as text before any arithmetic,
    then at least ``low`` and at most ``high`` where given."""

    def convert(text):
        if _INTEGER.fullmatch(text) is None:
            raise argparse.ArgumentTypeError(
                "must be an integer like 3 or -5, with at most %d digits"
                % MAX_RATIONAL_DIGITS
            )
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        if high is not None and value > high:
            raise argparse.ArgumentTypeError("must be at most %d, got %d" % (high, value))
        return value

    return convert


#: ``--seed``, ``--entry`` and ``--d``: any integer of at most
#: ``MAX_RATIONAL_DIGITS`` digits.
_any_integer = _integer()
#: ``--window``: the graded check needs the floor and is constant-time above.
_window = _integer(biforms.MIN_WINDOW)
#: ``--dim``: every normal-form computation is linear in the dimension.
_dim = _integer(0, bundles.MAX_DIMENSION)


def _rational(text):
    """argparse type: ``[+-]digits`` or ``[+-]digits/digits``, checked as
    text before any arithmetic, and nonzero."""
    if _RATIONAL.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(
            "must be a rational number like 3 or -5/7, with at most %d digits"
            " above and below the bar" % MAX_RATIONAL_DIGITS
        )
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("must have a nonzero denominator") from None
    if value == 0:
        raise argparse.ArgumentTypeError("must be nonzero")
    return value


def _place(text):
    """argparse type: ``real`` or a prime, read as an integer."""
    if text == "real":
        return brauer.REAL
    try:
        return brauer.Place.prime(_any_integer(text))
    except brauer.FactorizationBoundError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except (argparse.ArgumentTypeError, ValueError):
        raise argparse.ArgumentTypeError(
            "must be 'real' or a prime number, with at most %d digits"
            % MAX_RATIONAL_DIGITS
        ) from None


def _json_path(text):
    """argparse type for ``--json``: a path in an existing directory that is
    not itself a directory, so that a report that cannot be written fails
    before any suite runs."""
    directory = os.path.dirname(text)
    if directory and not os.path.isdir(directory):
        raise argparse.ArgumentTypeError("directory %r does not exist" % directory)
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError("%r is a directory" % text)
    return text


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quadricbundles",
        description="Exact verification of quadric surface bundle models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one verification suite or all of them")
    run.add_argument("suite", choices=reports.SUITES + ("all",))
    run.add_argument("--seed", type=_any_integer, default=reports.DEFAULT_SEED)
    run.add_argument("--window", type=_window, default=biforms.MIN_WINDOW)
    run.add_argument("--entry", type=_any_integer, default=None)
    run.add_argument("--dim", type=_dim, default=None)
    run.add_argument("--json", dest="json_path", type=_json_path, default=None)

    br = sub.add_parser("brauer", help="quaternion and quadratic form reports")
    brsub = br.add_subparsers(dest="brauer_command", required=True)
    hil = brsub.add_parser("hilbert", help="one Hilbert symbol, formula and oracle")
    hil.add_argument("--a", type=_rational, required=True)
    hil.add_argument("--b", type=_rational, required=True)
    hil.add_argument("--place", type=_place, required=True)
    hil.add_argument("--json", dest="json_path", type=_json_path, default=None)
    alb = brsub.add_parser("albert", help="Albert form report for one descent instance")
    alb.add_argument("--p", type=_rational, required=True)
    alb.add_argument("--q", type=_rational, required=True)
    alb.add_argument("--r", type=_rational, required=True)
    alb.add_argument("--d", type=_any_integer, required=True)
    alb.add_argument("--json", dest="json_path", type=_json_path, default=None)
    return parser


def _validate_run(parser, args):
    """Usage errors for ``--entry`` and ``--dim`` on suites that ignore them,
    and for a ``--dim`` below the minimum of an entry the suite would run."""
    if args.dim is not None and args.suite != "normal-forms":
        parser.error("--dim applies to the normal-forms suite")
    entries = reports.ENTRIES.get(args.suite)
    if args.entry is not None:
        if entries is None:
            parser.error("--entry applies to the normal-forms and section5 suites")
        if args.entry not in entries:
            parser.error(
                "%s entries are %d..%d, got %d"
                % (args.suite, entries[0], entries[-1], args.entry)
            )
        entries = [args.entry]
    if args.dim is not None:
        try:
            bundles.check_dimension(max(entries, key=bundles.MIN_DIMENSION.get), args.dim)
        except ValueError as exc:
            parser.error(str(exc))


def _exit_code(status):
    return 0 if status in ("pass", "attention") else 1


def _print_notes(report):
    for item in report.get("items", ()):
        note = item.get("note")
        if note:
            print("  note [%s]: %s" % (item.get("check", "item"), note))


def _run_command(parser, args):
    _validate_run(parser, args)
    if args.suite == "all":
        started = time.perf_counter()
        payload = reports.run_all(seed=args.seed, window=args.window)
        elapsed = time.perf_counter() - started
        for suite in payload["suites"]:
            print("suite %-12s %s" % (suite["suite"] + ":", suite["status"]))
            if suite["status"] != "pass":
                _print_notes(suite)
        print("overall: %s (%.2fs)" % (payload["status"], elapsed))
        if args.json_path:
            _emit(payload, args.json_path, sys.stdout)
        return _exit_code(payload["status"])
    started = time.perf_counter()
    payload = reports.run_suite(
        args.suite,
        seed=args.seed,
        window=args.window,
        entry=args.entry,
        dim=args.dim,
    )
    elapsed = time.perf_counter() - started
    print("suite %s: %s (%.2fs)" % (payload["suite"], payload["status"], elapsed))
    if payload["status"] != "pass":
        _print_notes(payload)
    for item in payload["items"]:
        if "error" in item:
            print("  item error: %s" % item["error"])
    if args.json_path:
        _emit(payload, args.json_path, sys.stdout)
    return _exit_code(payload["status"])


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        return _run_command(parser, args)

    if args.brauer_command == "hilbert":
        a, b, place = args.a, args.b, args.place
        symbol = brauer.hilbert_symbol(a, b, place)
        try:
            search = brauer.hilbert_symbol_search(a, b, place)
        except ValueError as exc:
            parser.error(str(exc))
        payload = {
            "a": str(a),
            "b": str(b),
            "place": str(place),
            "symbol": symbol,
            "search_oracle": search,
            "agree": symbol == search,
        }
        _emit(payload, args.json_path, sys.stdout)
        return 0 if symbol == search else 1

    # brauer albert
    p, q, r, d = args.p, args.q, args.r, args.d
    try:
        report = brauer.verify_quaternion_descent_instance(p, q, r, d)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {
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
        "similar": report.similar,
        "scale": report.scale,
        "splits_over_extension": report.splits_over_extension,
        "hypothesis_division_split": report.hypothesis_division_split,
        "consistent": report.consistent,
    }
    _emit(payload, args.json_path, sys.stdout)
    return 0 if report.consistent else 1


def _invariant_table(form):
    inv = brauer.form_invariants(form)
    return {
        "dim": inv.dim,
        "disc": inv.disc,
        "signature": list(inv.signature),
        "hasse": [[str(place), value] for place, value in inv.hasse],
    }


if __name__ == "__main__":
    sys.exit(main())

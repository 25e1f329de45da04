"""Command-line entry point for the verification suites.

Exit codes: 0 when every requested check passes (``attention`` outcomes
count as passing but carry a documented note), 1 on any failed check, 2 on
usage errors.  Reports written with ``--json`` are deterministic for a fixed
``--seed`` and never include timing.

Each command's parser hands itself to the command's handler, so a usage
error, a ``--json`` write that fails included, is one line ``quadricbundles
<command>: error: ...``.  ``run`` writes its report only to ``--json
PATH``, and prints its summary on stdout, or on stderr when a path is given;
``brauer hilbert`` and ``brauer albert`` write theirs to the path, or to
stdout when no path is given.  The ``report written to`` line and errors go
to stderr.
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
    """Write the report.  The open does not block, so a FIFO with no reader
    fails at once (ENXIO); the write then blocks as usual."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK, 0o666)
    os.set_blocking(fd, True)
    with open(fd, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit(parser, payload, json_path):
    """Write the report to ``json_path``, or print it if there is none; a write
    that fails is a usage error naming the path, as ``_json_path``'s are."""
    if not json_path:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    try:
        _write_json(json_path, payload)
    except OSError as exc:
        parser.exit(2, "%s: error: cannot write %r: %s\n" % (parser.prog, json_path, exc.strerror))
    print("report written to %s" % json_path, file=sys.stderr)


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
#: ``--dim``: a label on the form built at its minimal dimension
#: (``reports.normal_form_item``), so every legal value costs the same.
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
    not itself a directory and that the system will create a file at, so
    that a report that cannot be written fails before any suite runs.  A
    file the check creates is removed; an existing one is not opened."""
    directory = os.path.dirname(text)
    if directory and not os.path.isdir(directory):
        raise argparse.ArgumentTypeError("directory %r does not exist" % directory)
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError("%r is a directory" % text)
    try:
        os.close(os.open(text, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return text
    except OSError as exc:
        raise argparse.ArgumentTypeError("cannot write %r: %s" % (text, exc.strerror)) from None
    os.unlink(text)
    return text


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quadricbundles",
        description="Exact verification of quadric surface bundle models.",
    )
    sub = parser.add_subparsers(required=True)

    run = sub.add_parser("run", help="run one verification suite or all of them")
    run.set_defaults(handler=_run, parser=run)
    run.add_argument("suite", choices=reports.SUITES + ("all",))
    run.add_argument("--seed", type=_any_integer, default=None)
    run.add_argument("--window", type=_window, default=None)
    run.add_argument("--entry", type=_any_integer, default=None)
    run.add_argument("--dim", type=_dim, default=None)
    run.add_argument("--json", dest="json_path", type=_json_path, default=None)

    br = sub.add_parser("brauer", help="quaternion and quadratic form reports")
    brsub = br.add_subparsers(required=True)
    hil = brsub.add_parser("hilbert", help="one Hilbert symbol, formula and oracle")
    hil.set_defaults(handler=_hilbert, parser=hil)
    hil.add_argument("--a", type=_rational, required=True)
    hil.add_argument("--b", type=_rational, required=True)
    hil.add_argument("--place", type=_place, required=True)
    hil.add_argument("--json", dest="json_path", type=_json_path, default=None)
    alb = brsub.add_parser("albert", help="Albert form report for one descent instance")
    alb.set_defaults(handler=_albert, parser=alb)
    alb.add_argument("--p", type=_rational, required=True)
    alb.add_argument("--q", type=_rational, required=True)
    alb.add_argument("--r", type=_rational, required=True)
    alb.add_argument("--d", type=_any_integer, required=True)
    alb.add_argument("--json", dest="json_path", type=_json_path, default=None)
    return parser


def _validate_run(parser, args):
    """Usage errors for ``--seed``, ``--window``, ``--entry`` and ``--dim``
    on suites that ignore them, and for a ``--dim`` below the minimum of an
    entry the suite would run."""
    if args.seed is not None and args.suite not in ("brauer", "all"):
        parser.error("--seed applies to the brauer suite and to all")
    if args.window is not None and args.suite not in ("appendix", "all"):
        parser.error("--window applies to the appendix suite and to all")
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


def _run(parser, args):
    """``run``: a status line per suite, its notes and item errors, then overall."""
    _validate_run(parser, args)
    seed = reports.DEFAULT_SEED if args.seed is None else args.seed
    window = biforms.MIN_WINDOW if args.window is None else args.window
    started = time.perf_counter()
    if args.suite == "all":
        payload = reports.run_all(seed=seed, window=window)
    else:
        payload = reports.run_suite(
            args.suite, seed=seed, window=window, entry=args.entry, dim=args.dim
        )
    elapsed = time.perf_counter() - started
    out = sys.stderr if args.json_path else sys.stdout
    for suite in payload.get("suites", [payload]):
        print("suite %s: %s" % (suite["suite"], suite["status"]), file=out)
        for item in suite["items"]:
            if item.get("note"):
                print("  note [%s]: %s" % (item["check"], item["note"]), file=out)
            if "error" in item:
                print("  item error: %s" % item["error"], file=out)
    print("overall: %s (%.2fs)" % (payload["status"], elapsed), file=out)
    if args.json_path:
        _emit(parser, payload, args.json_path)
    return 0 if payload["status"] in ("pass", "attention") else 1


def _hilbert(parser, args):
    try:
        payload = reports.hilbert_report(args.a, args.b, args.place)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(parser, payload, args.json_path)
    return 0 if payload["agree"] else 1


def _albert(parser, args):
    try:
        payload = reports.albert_report(args.p, args.q, args.r, args.d)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(parser, payload, args.json_path)
    return 0 if payload["consistent"] else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    return args.handler(args.parser, args)

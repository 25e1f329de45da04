"""Command-line entry point for the verification suites.

Exit codes: 0 when every requested check passes (``attention`` outcomes
count as passing but carry a documented note), 1 on any failed check, 2 on
usage errors.  Reports written with ``--json`` are deterministic for a fixed
``--seed`` and never include timing.

Each ``run`` suite has its own parser, which declares only the flags its
report function reads, so a flag of another suite is an unrecognized
argument; flags come after the suite name.  Each command's parser hands
itself to the command's handler, so a usage error, an unrecognized argument
or a ``--json`` write that fails included, is one line ``quadricbundles
<command>: error: ...``.  Every command writes its report to ``--json PATH``,
or to stdout when no path is given.  The ``run`` summary, the ``report
written to`` line and errors go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import biforms, brauer, reports


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


def _integer(low=None):
    """argparse type: ``[+-]digits``, checked as text before any arithmetic,
    then at least ``low`` where given."""

    def convert(text):
        if _INTEGER.fullmatch(text) is None:
            raise argparse.ArgumentTypeError(
                "must be an integer like 3 or -5, with at most %d digits"
                % MAX_RATIONAL_DIGITS
            )
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return convert


#: ``--seed``, ``--entry`` and ``--d``: any integer of at most
#: ``MAX_RATIONAL_DIGITS`` digits.
_any_integer = _integer()
#: ``--window``: the graded check needs the floor and is constant-time above.
_window = _integer(biforms.MIN_WINDOW)


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
    suites = run.add_subparsers(required=True)
    for name, report, flags in (
        ("normal-forms", reports.run_normal_forms, ("entry",)),
        ("section5", reports.run_section5, ("entry",)),
        ("brauer", reports.run_brauer, ("seed",)),
        ("appendix", reports.run_appendix, ("window",)),
        ("all", reports.run_all, ("seed", "window")),
    ):
        suite = suites.add_parser(name)
        suite.set_defaults(handler=_run, parser=suite, report=report, flags=flags)
        if "entry" in flags:
            suite.add_argument("--entry", type=_any_integer, choices=reports.ENTRIES[name])
        if "seed" in flags:
            suite.add_argument("--seed", type=_any_integer, default=reports.DEFAULT_SEED)
        if "window" in flags:
            suite.add_argument("--window", type=_window, default=biforms.MIN_WINDOW)
        suite.add_argument("--json", dest="json_path", type=_json_path, default=None)

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


def _run(parser, args):
    """``run SUITE``: the report, and on stderr a status line per suite, its
    notes and item errors, then overall."""
    started = time.perf_counter()
    payload = args.report(**{flag: getattr(args, flag) for flag in args.flags})
    elapsed = time.perf_counter() - started
    for suite in payload.get("suites", [payload]):
        print("suite %s: %s" % (suite["suite"], suite["status"]), file=sys.stderr)
        for item in suite["items"]:
            if item.get("note"):
                print("  note [%s]: %s" % (item["check"], item["note"]), file=sys.stderr)
            if "error" in item:
                print("  item error: %s" % item["error"], file=sys.stderr)
    print("overall: %s (%.2fs)" % (payload["status"], elapsed), file=sys.stderr)
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
    # parse_args would report leftover arguments through the top-level
    # parser; the parser that took them names the command
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error("unrecognized arguments: %s" % " ".join(unknown))
    return args.handler(args.parser, args)

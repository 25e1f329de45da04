import argparse
import hashlib
import json
import math
import re
import subprocess
import sys
import time
from itertools import takewhile
from pathlib import Path

import jsonschema
import pytest

from quadricbundles import bundles, cli, reports
from quadricbundles.cli import main

#: Product of the 25-digit primes 10^24 + 7 and 3*10^24 + 7.
SEMIPRIME = "3000000000000000000000028000000000000000000000049"


#: Largest integer text every integer flag accepts, and one digit more.
LONGEST = "9" * cli.MAX_RATIONAL_DIGITS
TOO_LONG = "9" * (cli.MAX_RATIONAL_DIGITS + 1)
#: Smooth numbers at and past the digit bound, which factor at once.
SMOOTH = "1" + "0" * (cli.MAX_RATIONAL_DIGITS - 1)
SMOOTH_TOO_LONG = SMOOTH + "0"
#: The 997-digit product of the primes up to 2351: a squarefree ``--d``
#: whose factors trial division finds one by one, the slowest legal ``--d``.
PRIMORIAL_2351 = str(
    math.prod(p for p in range(2, 2352) if all(p % q for q in range(2, math.isqrt(p) + 1)))
)

MAX_DIM = str(bundles.MAX_DIMENSION)
PAST_DIM = str(bundles.MAX_DIMENSION + 1)
HILBERT = ("brauer", "hilbert")
ALBERT = ("brauer", "albert")

#: A report path in a directory that does not exist.
MISSING_DIR_JSON = "missing/report.json"

#: Every argument of every subcommand: the rest of a command line, the
#: largest legal value and one past it (for ``--json``, a path in a missing
#: directory).  The legal value must exit 0 or 1, the one past it 2.
BOUNDS = {
    (("run",), "suite"): ([], "all", "everything"),
    (("run",), "--seed"): (["brauer"], LONGEST, TOO_LONG),
    (("run",), "--window"): (["appendix"], LONGEST, TOO_LONG),
    (("run",), "--entry"): (["section5"], "8", "9"),
    (("run",), "--dim"): (["normal-forms"], MAX_DIM, PAST_DIM),
    (("run",), "--json"): (["section5"], "report.json", MISSING_DIR_JSON),
    (("verify-normal-forms",), "--entry"): ([], "8", "9"),
    (("verify-normal-forms",), "--dim"): (["--entry", "8"], MAX_DIM, PAST_DIM),
    (("verify-normal-forms",), "--json"): (["--entry", "8"], "report.json", MISSING_DIR_JSON),
    (("verify-section5",), "--entry"): ([], "8", "9"),
    (("verify-section5",), "--json"): (["--entry", "8"], "report.json", MISSING_DIR_JSON),
    (("verify-appendix",), "--window"): ([], LONGEST, TOO_LONG),
    (("verify-appendix",), "--json"): ([], "report.json", MISSING_DIR_JSON),
    (HILBERT, "--a"): (["--b", "3", "--place", "5"], "-%s/%s7" % (LONGEST, LONGEST[1:]), TOO_LONG),
    (HILBERT, "--b"): (["--a", "3", "--place", "5"], LONGEST, "1/" + TOO_LONG),
    (HILBERT, "--place"): (["--a", "2", "--b", "3"], "53", "59"),
    (HILBERT, "--json"): (["--a", "2", "--b", "3", "--place", "5"], "report.json", MISSING_DIR_JSON),
    (ALBERT, "--p"): (["--q", "3", "--r", "5", "--d", "2"], SMOOTH, SMOOTH_TOO_LONG),
    (ALBERT, "--q"): (["--p", "3", "--r", "5", "--d", "2"], "-" + SMOOTH, SMOOTH_TOO_LONG),
    (ALBERT, "--r"): (["--p", "3", "--q", "5", "--d", "2"], "5/" + SMOOTH, "5/" + SMOOTH_TOO_LONG),
    (ALBERT, "--d"): (["--p", "3", "--q", "5", "--r", "7"], PRIMORIAL_2351, SMOOTH_TOO_LONG),
    (ALBERT, "--json"): (["--p", "3", "--q", "5", "--r", "7", "--d", "2"], "report.json", MISSING_DIR_JSON),
}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_flags(text):
    """``(synopsis, table)`` of the README's command-line section: the
    ``(command, flag)`` pairs of the synopsis block, and the flags named in
    the first column of the argument table."""
    section = text.split("## Command line", 1)[1]
    synopsis = set()
    command = None
    for line in section.split("```")[1].splitlines():
        words = line.split()
        if words[:1] == ["quadricbundles"]:
            command = tuple(takewhile(re.compile(r"[a-z][a-z0-9-]*").fullmatch, words[1:]))
        synopsis.update((command, flag) for flag in re.findall(r"--[a-z][a-z-]*", line))
    table = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            table.update(re.findall(r"`(--[a-z][a-z-]*)`", line.split("|")[1]))
    return synopsis, table


def parser_flags(parser):
    return {(command, name) for command, name, _ in parser_arguments(parser) if name[:2] == "--"}


def parser_arguments(parser, command=()):
    """``(command, name, action)`` for every argument of every subparser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parser_arguments(sub, command + (name,))
        elif not isinstance(action, argparse._HelpAction):
            yield command, (action.option_strings or [action.dest])[0], action


def untabled(parser):
    return {(command, name) for command, name, _ in parser_arguments(parser)} - set(BOUNDS)


def command_line(key, value):
    command, name = key
    rest = BOUNDS[key][0]
    if name.startswith("--"):
        return [*command, *rest, "%s=%s" % (name, value)]
    return [*command, value, *rest]


def exit_code(argv):
    """``main(argv)`` in-process, with usage errors caught as exit 2."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "quadricbundles", *argv],
        capture_output=True,
        text=True,
    )


class TestExitCodes:
    def test_pass_suite(self, capsys):
        assert main(["run", "normal-forms"]) == 0
        out = capsys.readouterr().out
        assert "normal-forms: pass" in out

    def test_attention_suite_exits_zero(self, capsys):
        assert main(["run", "appendix"]) == 0
        assert "attention" in capsys.readouterr().out

    def test_forced_printed_exponent_fails(self):
        # the exponent cannot be pinned: the appendix always tests both, and
        # its attention note reports that the printed -1 fails
        for argv in (
            ("run", "appendix", "--gamma-exp", "-1"),
            ("run", "all", "--gamma-exp=-2"),
            ("verify-appendix", "--gamma-exp", "-1"),
        ):
            result = run_cli(*argv)
            assert result.returncode == 2, argv
            assert "unrecognized arguments" in result.stderr

    def test_usage_error_on_bad_entry(self):
        result = run_cli("run", "section5", "--entry", "9")
        assert result.returncode == 2
        assert "2..8" in result.stderr

    def test_usage_error_on_unknown_suite(self):
        result = run_cli("run", "everything")
        assert result.returncode == 2

    def test_usage_error_on_small_window(self):
        result = run_cli("run", "appendix", "--window", "2")
        assert result.returncode == 2

    def test_verify_appendix_usage_error_on_small_window(self):
        result = run_cli("verify-appendix", "--window", "2")
        assert result.returncode == 2
        assert "at least 4" in result.stderr

    def test_verify_commands_take_entries_from_the_tables(self):
        assert run_cli("verify-section5", "--entry", "1").returncode == 2
        assert run_cli("verify-normal-forms", "--entry", "9").returncode == 2

    def test_dim_only_applies_to_normal_forms(self):
        result = run_cli("run", "section5", "--dim", "5")
        assert result.returncode == 2
        assert "--dim" in result.stderr

    def test_dim_above_the_bound_fails_fast(self):
        too_big = str(bundles.MAX_DIMENSION + 1)
        started = time.perf_counter()
        result = run_cli("verify-normal-forms", "--entry", "8", "--dim", too_big)
        assert time.perf_counter() - started < 1.0
        assert result.returncode == 2
        assert run_cli("run", "normal-forms", "--dim", too_big).returncode == 2

    def test_dim_at_the_bound_is_linear(self):
        dim = str(bundles.MAX_DIMENSION)
        started = time.perf_counter()
        result = run_cli("verify-normal-forms", "--entry", "8", "--dim", dim)
        assert time.perf_counter() - started < 1.0
        assert result.returncode == 0
        assert json.loads(result.stdout)["dim"] == bundles.MAX_DIMENSION
        started = time.perf_counter()
        result = run_cli("run", "normal-forms", "--dim", dim)
        assert time.perf_counter() - started < 2.0
        assert result.returncode == 0

    def test_dim_below_the_minimum_is_a_usage_error(self):
        for argv in (("--dim", "0"), ("--entry", "8", "--dim", "2")):
            result = run_cli("run", "normal-forms", *argv)
            assert result.returncode == 2
            assert "needs base dimension >= 3" in result.stderr

    def test_dim_at_the_minimum_runs(self, capsys):
        assert main(["run", "normal-forms", "--entry", "1", "--dim", "0"]) == 0
        assert main(["run", "normal-forms", "--dim", "3"]) == 0
        capsys.readouterr()

    def test_single_entry_runs(self, capsys):
        assert main(["run", "section5", "--entry", "4"]) == 0
        assert main(["run", "normal-forms", "--entry", "7"]) == 0
        capsys.readouterr()


class TestSingleCommands:
    def test_verify_normal_forms_payload(self, capsys):
        assert main(["verify-normal-forms", "--entry", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entry"] == 4
        assert payload["equation"] == "t1*t2*K^2 - t2*L^2 + M^2 - N^2"
        assert payload["discriminant"] == "t1*t2^2"
        assert payload["certificate"]["index"] == 2
        assert {"zeroset": [2], "rank": 2} in payload["strata"]

    def test_verify_section5_payload(self, capsys):
        assert main(["verify-section5", "--entry", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["monomial"] == "s1^2*s2^2*s3^2"
        assert payload["map"]["projective"] == [
            "s3*A",
            "s1*B",
            "s1*s2*C",
            "s1*s2*s3*D",
        ]

    def test_verify_appendix_payload(self, capsys):
        assert main(["verify-appendix"]) == 0
        payload = json.loads(capsys.readouterr().out)
        checks = {item["check"]: item for item in payload["items"]}
        assert len(checks["containment"]["certificates"]) == 27
        assert checks["freeness"]["determinant"] == "64*r^13*s^12*t^12"
        assert checks["graded-equality"]["checked"] == 125
        assert checks["nonflatness"]["gamma_exp_used"] == -2

    def test_verify_appendix_window_6_report_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "appendix.json"
        assert main(["verify-appendix", "--window", "6", "--json", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3cc6ec7b365580543c09e3a98d0914b5cea38931f0a06915c7710c12cf2ff40f"
        )

    def test_large_window_runs(self, tmp_path, capsys):
        path = tmp_path / "appendix.json"
        assert main(["run", "appendix", "--window", "40", "--json", str(path)]) == 0
        capsys.readouterr()
        checks = {item["check"]: item for item in json.loads(path.read_text())["items"]}
        assert checks["graded-equality"]["checked"] == 68921
        assert checks["graded-equality"]["saturated"]

    def test_brauer_hilbert(self, capsys):
        assert main(["brauer", "hilbert", "--a", "-1", "--b", "-1", "--place", "real"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symbol"] == -1
        assert payload["agree"]

    def test_brauer_hilbert_rejects_composite_place(self):
        result = run_cli("brauer", "hilbert", "--a", "2", "--b", "3", "--place", "6")
        assert result.returncode == 2

    def test_brauer_hilbert_refuses_place_past_oracle_bound(self):
        started = time.perf_counter()
        result = run_cli("brauer", "hilbert", "--a", "2", "--b", "3", "--place", "1009")
        assert time.perf_counter() - started < 1.0
        assert result.returncode == 2
        assert "search oracle" in result.stderr

    def test_brauer_hilbert_place_past_factorization_bound(self):
        result = run_cli("brauer", "hilbert", "--a", "2", "--b", "3", "--place", SEMIPRIME)
        assert result.returncode == 2
        assert "factorization bound" in result.stderr

    def test_brauer_hilbert_semiprime_argument(self):
        started = time.perf_counter()
        result = run_cli("brauer", "hilbert", "--a", SEMIPRIME, "--b", "3", "--place", "5")
        assert time.perf_counter() - started < 1.0
        assert result.returncode == 0
        assert json.loads(result.stdout)["agree"] is True

    def test_brauer_albert_semiprime_is_usage_error(self):
        result = run_cli(
            "brauer", "albert", "--p", SEMIPRIME, "--q", "5", "--r", "7", "--d", "2"
        )
        assert result.returncode == 2
        assert SEMIPRIME in result.stderr

    def test_brauer_albert(self, capsys):
        assert main(["brauer", "albert", "--p", "3", "--q", "5", "--r", "7", "--d", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["albert_pair_form"] == "<3, 2, -6, -30, -42, 35>"
        assert payload["invariants"]["isotropy_form"]["disc"] == -1
        assert payload["consistent"]

    def test_rationals_outside_the_accepted_forms_fail_fast(self):
        too_long = "1" + "0" * cli.MAX_RATIONAL_DIGITS
        calls = (
            ("hilbert", "--a", "1e3000000", "--b", "3", "--place", "5"),
            ("hilbert", "--a", "1e20000", "--b", "3", "--place", "5"),
            ("hilbert", "--a", "1.5", "--b", "3", "--place", "5"),
            ("hilbert", "--a", "3/0", "--b", "3", "--place", "5"),
            ("albert", "--p", too_long, "--q", "5", "--r", "7", "--d", "2"),
            ("albert", "--p", "3", "--q", "1/" + too_long, "--r", "7", "--d", "2"),
            ("albert", "--p", "3", "--q", "5", "--r", "7", "--d", "2" + too_long[1:]),
            ("albert", "--p", "3", "--q", "5", "--r", "7", "--d", "3/2"),
            ("albert", "--p", "3", "--q", "5", "--r", "7", "--d", "0"),
        )
        for argv in calls:
            started = time.perf_counter()
            result = run_cli("brauer", *argv)
            assert time.perf_counter() - started < 1.0
            assert result.returncode == 2, argv
            assert "Traceback" not in result.stderr

    def test_brauer_albert_at_the_digit_bound(self, capsys):
        longest = "1" + "0" * (cli.MAX_RATIONAL_DIGITS - 1)
        argv = ["brauer", "albert", "--p", longest, "--q", "3", "--r=-5/" + longest]
        assert main(argv + ["--d", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == longest

    def test_brauer_albert_rejects_square_d(self):
        result = run_cli("brauer", "albert", "--p", "3", "--q", "5", "--r", "7", "--d", "4")
        assert result.returncode == 2


class TestDependencies:
    def test_cli_imports_only_the_standard_library(self):
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, quadricbundles.cli; "
                "print(sorted({'numpy', 'sympy'} & set(sys.modules)))",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestReports:
    def test_every_suite_validates_against_schema(self):
        for name in reports.SUITES:
            payload = reports.run_suite(name, seed=3)
            jsonschema.validate(payload, reports.REPORT_SCHEMA)

    def test_aggregate_validates_against_schema(self):
        payload = reports.run_all(seed=3)
        jsonschema.validate(payload, reports.REPORT_SCHEMA)

    def test_brauer_report_is_seed_deterministic(self):
        a = reports.run_brauer(seed=11)
        b = reports.run_brauer(seed=11)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        c = reports.run_brauer(seed=12)
        assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)

    def test_json_into_a_missing_directory_fails_before_any_suite(self, tmp_path):
        started = time.perf_counter()
        result = run_cli("run", "all", "--json", str(tmp_path / MISSING_DIR_JSON))
        assert time.perf_counter() - started < 1.0
        assert result.returncode == 2
        assert "does not exist" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_json_naming_a_directory_fails_before_any_suite(self, tmp_path):
        started = time.perf_counter()
        result = run_cli("run", "normal-forms", "--json", str(tmp_path))
        assert time.perf_counter() - started < 1.0
        assert result.returncode == 2
        assert "is a directory" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_json_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["run", "normal-forms", "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["suite"] == "normal-forms"
        assert payload["status"] == "pass"
        assert len(payload["items"]) == 8

    def test_reports_embed_canonical_polynomials(self):
        payload = reports.run_normal_forms()
        equations = [item["equation"] for item in payload["items"]]
        assert "K^2 - L^2 + M^2 - N^2" in equations
        # canonical order sorts terms by exponent vector, so the t-bearing
        # terms of entry 7 come before the constant-coefficient M^2 term
        assert "t1*t2*t3*K^2 - t2*L^2 - t3*N^2 + M^2" in equations


class TestDeclaredInputs:
    def test_every_argument_is_in_the_bound_table(self):
        assert untabled(cli._build_parser()) == set()

    def test_an_untabled_argument_is_found(self):
        parser = cli._build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        subparsers.choices["verify-section5"].add_argument("--dummy")
        assert untabled(parser) == {(("verify-section5",), "--dummy")}

    def test_readme_names_exactly_the_parser_flags(self):
        synopsis, table = readme_flags(README.read_text(encoding="utf-8"))
        flags = parser_flags(cli._build_parser())
        assert synopsis == flags
        assert table == {name for _, name in flags}

    def test_a_stale_readme_flag_is_found(self):
        text = README.read_text(encoding="utf-8")
        text = text.replace("verify-section5 --entry K", "verify-section5 --entry K [--dummy D]")
        text = text.replace("| `--seed` |", "| `--seed`, `--dummy` |")
        synopsis, table = readme_flags(text)
        flags = parser_flags(cli._build_parser())
        assert synopsis - flags == {(("verify-section5",), "--dummy")}
        assert table - {name for _, name in flags} == {"--dummy"}

    def test_every_argument_has_a_shared_reader_or_choices(self):
        readers = {cli._any_integer, cli._window, cli._dim, cli._rational, cli._place}
        for command, name, action in parser_arguments(cli._build_parser()):
            if name == "--json":
                assert action.type is cli._json_path and action.choices is None
            else:
                assert action.type in readers or (action.type is None and action.choices), (
                    command,
                    name,
                )

    @pytest.mark.parametrize("key", sorted(BOUNDS), ids=lambda key: " ".join((*key[0], key[1])))
    def test_largest_legal_value_and_one_past_it(self, key, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _, legal, past = BOUNDS[key]
        for value, codes in ((legal, {0, 1}), (past, {2})):
            started = time.perf_counter()
            code = exit_code(command_line(key, value))
            elapsed = time.perf_counter() - started
            capsys.readouterr()
            assert code in codes, (value[:20], code)
            assert elapsed < 2.0, (value[:20], elapsed)

    @pytest.mark.parametrize("text", ["0_7", " 7", "7 ", "+0_7"])
    def test_integer_text_beyond_the_digits_is_a_usage_error(self, text, capsys):
        integer_readers = {cli._any_integer, cli._window, cli._dim, cli._place}
        for command, name, action in parser_arguments(cli._build_parser()):
            if action.type in integer_readers:
                argv = command_line((command, name), text)
                assert exit_code(argv) == 2, argv
                assert "argument %s" % name in capsys.readouterr().err

    def test_verify_normal_forms_passes_library_errors_through(self, monkeypatch):
        def broken(entry, dim):
            raise ValueError("not a usage error")

        monkeypatch.setattr(reports, "normal_form_item", broken)
        with pytest.raises(ValueError, match="not a usage error"):
            main(["verify-normal-forms", "--entry", "4"])

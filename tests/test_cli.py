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


#: sha256 of ``items[0]`` of ``run ARGV --json``, dumped with ``indent=2,
#: sort_keys=True`` and a final newline: the bytes each single-entry command
#: wrote before ``run --entry`` became the only way to report one entry.
ITEM_DIGESTS = {
    ("normal-forms", "--entry", "1"): "f8c5337626ac68be2b84d686eb96cccbc414c44498a69af9b31ac4fd713cd057",
    ("normal-forms", "--entry", "2"): "5c0484498347df0e7971900d52c7dedab0300e34a4046486acbc7630d43fdd1b",
    ("normal-forms", "--entry", "3"): "adcef778dd70cbbb8d643ff1751be8aca4eb02d15735574cbdbb7e097aa94594",
    ("normal-forms", "--entry", "4"): "fc4ea6bc530541138b83ce12947da00a6f43d652eac639f808240b09b8833164",
    ("normal-forms", "--entry", "5"): "2fdeda59d7d2534a756a9e21f1ebeace43f3fc69f8776546ee2de3c731247b7b",
    ("normal-forms", "--entry", "6"): "55c67ab1ee98d6a158e611b6fe9b5dc308b28e65cfc876e189595f9d434d918b",
    ("normal-forms", "--entry", "7"): "de318e3d5ed1d6bbc8dae5f6f9309e75ed918f797c082d1a12a4fc8bdd2a4ca0",
    ("normal-forms", "--entry", "8"): "91ff919e3b49d45782aa36b01b58b27c9b541fc3f999dc9d395b88eb927039b8",
    ("normal-forms", "--entry", "8", "--dim", "100"): (
        "25806cb1a1460735a46ff904debfefc23e8c98561805405fc1f4303db97b4992"
    ),
    ("section5", "--entry", "2"): "2e10f17d41bc1a4764fad8b515239b6eadba4bdc8f41217a38427ed3c3c87d8b",
    ("section5", "--entry", "3"): "cb82c00d96324723c0206542281a2719ad0a1afb7b35ba5291af15da9ce08610",
    ("section5", "--entry", "4"): "169c7f1a24a6f768673aa3f05d7c42cf9e0800e405e2e7b6daf15ed7d8a329a5",
    ("section5", "--entry", "5"): "63d4ed449551f7a86398306be779fd722c84e2f467c6709da020b019d462ac66",
    ("section5", "--entry", "6"): "804b1a732115d21a68120da7e8865263d9c495cc1b0e9cf137414f0066b99080",
    ("section5", "--entry", "7"): "82b052fb4e8d6e35f2b1faa18360deee9be8896c2c2e1ea55438ce0885a4b344",
    ("section5", "--entry", "8"): "1adb89b13187b9a2794b135f89a444737e21f600ec757c7442ce73e86d821185",
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


def run_report(tmp_path, suite, *argv):
    """The report of ``run SUITE ARGV --json``, which must exit 0."""
    path = tmp_path / "report.json"
    assert main(["run", suite, *argv, "--json", str(path)]) == 0
    return json.loads(path.read_text())


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
        # the appendix report is written by `run appendix` alone
        result = run_cli("run", "appendix", "--window", "2")
        assert result.returncode == 2
        assert "at least 4" in result.stderr

    def test_verify_commands_take_entries_from_the_tables(self):
        # single entries are run by `run <suite> --entry K` alone
        assert run_cli("run", "section5", "--entry", "1").returncode == 2
        assert run_cli("run", "normal-forms", "--entry", "9").returncode == 2

    def test_dim_only_applies_to_normal_forms(self):
        result = run_cli("run", "section5", "--dim", "5")
        assert result.returncode == 2
        assert "--dim" in result.stderr

    def test_dim_above_the_bound_fails_fast(self):
        too_big = str(bundles.MAX_DIMENSION + 1)
        started = time.perf_counter()
        result = run_cli("run", "normal-forms", "--entry", "8", "--dim", too_big)
        assert time.perf_counter() - started < 1.0
        assert result.returncode == 2
        assert run_cli("run", "normal-forms", "--dim", too_big).returncode == 2

    def test_dim_at_the_bound_is_linear(self, tmp_path):
        dim = str(bundles.MAX_DIMENSION)
        path = tmp_path / "entry.json"
        started = time.perf_counter()
        result = run_cli("run", "normal-forms", "--entry", "8", "--dim", dim, "--json", str(path))
        assert time.perf_counter() - started < 1.0
        assert result.returncode == 0
        assert json.loads(path.read_text())["items"][0]["dim"] == bundles.MAX_DIMENSION
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
    """One entry's payload is ``items[0]`` of ``run <suite> --entry K``."""

    @pytest.mark.parametrize("argv", sorted(ITEM_DIGESTS), ids=" ".join)
    def test_single_entry_item_is_pinned(self, argv, tmp_path, capsys):
        text = json.dumps(run_report(tmp_path, *argv)["items"][0], indent=2, sort_keys=True) + "\n"
        capsys.readouterr()
        assert hashlib.sha256(text.encode()).hexdigest() == ITEM_DIGESTS[argv]

    def test_verify_normal_forms_payload(self, tmp_path, capsys):
        payload = run_report(tmp_path, "normal-forms", "--entry", "4")["items"][0]
        capsys.readouterr()
        assert payload["entry"] == 4
        assert payload["equation"] == "t1*t2*K^2 - t2*L^2 + M^2 - N^2"
        assert payload["discriminant"] == "t1*t2^2"
        assert payload["certificate"]["index"] == 2
        assert {"zeroset": [2], "rank": 2} in payload["strata"]

    def test_verify_section5_payload(self, tmp_path, capsys):
        payload = run_report(tmp_path, "section5", "--entry", "8")["items"][0]
        capsys.readouterr()
        assert payload["monomial"] == "s1^2*s2^2*s3^2"
        assert payload["map"]["projective"] == [
            "s3*A",
            "s1*B",
            "s1*s2*C",
            "s1*s2*s3*D",
        ]

    def test_verify_appendix_payload(self, tmp_path, capsys):
        payload = run_report(tmp_path, "appendix")
        capsys.readouterr()
        checks = {item["check"]: item for item in payload["items"]}
        assert len(checks["containment"]["certificates"]) == 27
        assert checks["freeness"]["determinant"] == "64*r^13*s^12*t^12"
        assert checks["graded-equality"]["checked"] == 125
        assert checks["nonflatness"]["gamma_exp_used"] == -2

    def test_verify_appendix_window_6_report_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "appendix.json"
        assert main(["run", "appendix", "--window", "6", "--json", str(path)]) == 0
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
        brauer = subparsers.choices["brauer"]
        commands = next(a for a in brauer._actions if isinstance(a, argparse._SubParsersAction))
        commands.choices["hilbert"].add_argument("--dummy")
        assert untabled(parser) == {(HILBERT, "--dummy")}

    def test_readme_names_exactly_the_parser_flags(self):
        synopsis, table = readme_flags(README.read_text(encoding="utf-8"))
        flags = parser_flags(cli._build_parser())
        assert synopsis == flags
        assert table == {name for _, name in flags}

    def test_a_stale_readme_flag_is_found(self):
        text = README.read_text(encoding="utf-8")
        text = text.replace("brauer hilbert --a A", "brauer hilbert [--dummy D] --a A")
        text = text.replace("| `--seed` |", "| `--seed`, `--dummy` |")
        synopsis, table = readme_flags(text)
        flags = parser_flags(cli._build_parser())
        assert synopsis - flags == {(HILBERT, "--dummy")}
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

    def test_verify_normal_forms_passes_library_errors_through(self, monkeypatch, tmp_path, capsys):
        # a library error is no usage error: the run fails and reports it
        def broken(entry, dim):
            raise ValueError("not a usage error")

        monkeypatch.setattr(reports, "normal_form_item", broken)
        path = tmp_path / "report.json"
        assert main(["run", "normal-forms", "--entry", "4", "--json", str(path)]) == 1
        assert "item error: not a usage error" in capsys.readouterr().out
        assert json.loads(path.read_text())["items"] == [{"entry": 4, "error": "not a usage error"}]

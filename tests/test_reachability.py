"""Every function of the package is entered by some command, or is named in
``ALLOWLIST`` with the reason it is not.

A fixed list of command lines runs in one fresh interpreter under
``sys.setprofile``.  The code objects it enters are compared with every
``def`` that ``ast`` finds in the package.  A fresh interpreter starts with
empty caches, so a memoized function is entered on its first call, whatever
other tests ran before.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadricbundles
from test_cli import SEMIPRIME

PACKAGE = Path(quadricbundles.__file__).resolve().parent

#: Command lines whose union must enter every function not in ``ALLOWLIST``;
#: ``REPORT`` stands for a report path in a fresh directory.
REPORT = "REPORT"
CALLS = (
    ["run", "all", "--seed", "7", "--json", REPORT],
    ["run", "section5"],
    ["run", "brauer", "--seed", "3"],
    ["run", "appendix", "--window", "5"],
    ["brauer", "hilbert", "--a", "2", "--b", "3", "--place", "7"],
    ["brauer", "hilbert", "--a", "-1", "--b", "-1", "--place", "real"],
    # past the search oracle's bound: a usage error
    ["brauer", "hilbert", "--a", "2", "--b", "3", "--place", "59"],
    ["brauer", "albert", "--p", "3", "--q", "5", "--r", "7", "--d", "2"],
    # a prime past trial division, decided by Miller-Rabin
    ["brauer", "albert", "--p", "3", "--q", "5", "--r", "7", "--d", "10000000019"],
    # a prime square that Miller-Rabin calls composite and a prime cube past its
    # range, both certified by integer roots
    ["brauer", "albert", "--p", "10000000019", "--q", "10000000019", "--r", "7", "--d", "2"],
    # past the factorization bound: a usage error
    ["brauer", "albert", "--p", SEMIPRIME, "--q", "5", "--r", "7", "--d", "2"],
)

#: Functions no command enters, each with the reason it stays.
ALLOWLIST = {
    "rings.ParseError.__init__": "error class: malformed polynomial text, which no command takes",
    "rings.DivisionError.__init__": "error class: an inexact division, which no suite makes",
    "rings._error": "builds the ParseError of malformed polynomial text",
    "rings.VariableTable.__setattr__": "immutability guard, entered only by a faulty write",
    "rings.VariableTable.__repr__": "dunder for debugging; reports print polynomials",
    "rings.LaurentPolynomial.__setattr__": "immutability guard, entered only by a faulty write",
    "rings.LaurentPolynomial.__hash__": "dunder: equal polynomials hash equal",
    "rings.LaurentPolynomial.__repr__": "dunder for debugging; reports print str",
    "rings.LaurentPolynomial.__rsub__": "dunder: scalar minus polynomial",
    "linalg.rational_rank": "called by the benchmark's self-tests (bench/test_bench.py)",
    "brauer.forms_equivalent": "named by the benchmark's metric table (bench/tracing.py)",
    "brauer.Place.__eq__": "dunder: equal places compare equal; suites use interned places",
    "brauer.QuaternionClass.__eq__": "dunder: classes compare by (a, b)",
    "brauer.QuaternionClass.__hash__": "dunder: equal classes hash equal",
    "brauer.RationalQuadraticForm.__eq__": "dunder: forms compare by their diagonal",
    "brauer.RationalQuadraticForm.__hash__": "dunder: equal forms hash equal",
    "bundles.DiagonalQuadricBundle.__eq__": "dunder: bundles compare by (n, coeffs)",
    "bundles.DiagonalQuadricBundle.__hash__": "dunder: equal bundles hash equal",
}

#: Runs ``CALLS`` (as JSON on stdin) under a profile hook and prints the
#: ``[module, first line]`` of every package function entered.
PROBE = """
import contextlib, io, json, os, sys
calls = json.load(sys.stdin)
package = sys.argv[1]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from quadricbundles.cli import main
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
found = []
for filename, line in entered:
    path = os.path.realpath(filename)
    if os.path.dirname(path) == package:
        found.append([os.path.basename(path)[:-3], line])
print(json.dumps(sorted(found)))
"""


def module_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def defs(source):
    """``{first line: qualified name}`` of every def in one module.  The first
    line is the first decorator's, as in the function's code object."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[min([child.lineno] + [d.lineno for d in child.decorator_list])] = name
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def unreached(entered, sources):
    """``module.qualname`` of every def in ``sources`` (module name to text)
    that no entered ``(module, first line)`` starts."""
    return {
        "%s.%s" % (module, name)
        for module, source in sources.items()
        for line, name in defs(source).items()
        if (module, line) not in entered
    }


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    report = str(tmp_path_factory.mktemp("reach") / "report.json")
    calls = [[report if word == REPORT else word for word in argv] for argv in CALLS]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE)],
        input=json.dumps(calls),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return {tuple(pair) for pair in json.loads(result.stdout)}


def test_every_function_is_entered_or_allowlisted(entered):
    assert unreached(entered, module_sources()) == set(ALLOWLIST)


def test_an_added_function_is_found(entered):
    sources = module_sources()
    sources["brauer"] += "\n\ndef _dummy():\n    pass\n"
    assert unreached(entered, sources) == set(ALLOWLIST) | {"brauer._dummy"}

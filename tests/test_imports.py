"""Every name a package module imports is used there or re-exported, and
every module it imports is its own or in the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadricbundles

PACKAGE = Path(quadricbundles.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "from math import gcd, sqrt\nimport os\nprint(sqrt(os.sep))\n"
    assert unused_imports(source) == [(1, "gcd")]


def test_counts_re_exports_as_used():
    source = "from .rings import parse\n__all__ = ['parse']\n"
    assert unused_imports(source) == []


def absolute_imports(source):
    """(line, module) of each absolute import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found.extend((node.lineno, module) for module in modules)
    return sorted(found)


def non_stdlib_imports(source):
    """(line, module) of each absolute import outside the standard library."""
    return [
        (line, module)
        for line, module in absolute_imports(source)
        if module.split(".")[0] not in sys.stdlib_module_names
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_detects_a_third_party_import():
    source = (
        "import os.path, numpy as np\n"
        "from . import rings\n"
        "from .linalg import rref\n"
        "from sympy.ntheory import factorint\n"
        "from __future__ import annotations\n"
    )
    assert non_stdlib_imports(source) == [(1, "numpy"), (4, "sympy.ntheory")]


def fresh_stdout(code):
    """Words ``code`` prints in a fresh interpreter that imports the package
    from its source tree."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.split()


def test_brauer_import_builds_no_cache():
    # the factorizations and the prime places are built on first use, so
    # importing the module costs no arithmetic
    code = (
        "import quadricbundles.brauer as b; "
        "print(len(b._factorizations), b._prime_place.cache_info().currsize)"
    )
    assert fresh_stdout(code) == ["0", "0"]


#: The package modules ``import quadricbundles.brauer`` loads, and the
#: standard-library modules they import.
BRAUER_CHAIN = ("__init__", "rings", "linalg", "brauer")
BRAUER_STDLIB = ["__future__", "collections", "fractions", "functools", "math", "re", "sys"]


def test_brauer_import_adds_the_same_modules():
    # a module the import pulls in, or drops, shifts the start-up cost of every
    # fresh process that only answers Brauer queries.  Which modules the
    # interpreter preloads varies by version, so the standard library that
    # the chain imports is loaded first and only the package may be added.
    imported = {
        module
        for name in BRAUER_CHAIN
        for _, module in absolute_imports((PACKAGE / (name + ".py")).read_text(encoding="utf-8"))
    }
    assert sorted(imported) == BRAUER_STDLIB
    code = (
        "import sys; import %s; before = set(sys.modules); import quadricbundles.brauer; "
        "print(*sorted(set(sys.modules) - before))" % ", ".join(BRAUER_STDLIB)
    )
    assert fresh_stdout(code) == [
        "quadricbundles", "quadricbundles.brauer", "quadricbundles.linalg",
        "quadricbundles.rings",
    ]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # together they cost most of the package's cold start
    loaded = fresh_stdout("import sys; import quadricbundles.cli; print(*sorted(sys.modules))")
    assert "quadricbundles.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded

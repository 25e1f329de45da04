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


def non_stdlib_imports(source):
    """(line, module) of each absolute import outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found.extend(
            (node.lineno, module)
            for module in modules
            if module.split(".")[0] not in sys.stdlib_module_names
        )
    return sorted(found)


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


def test_brauer_import_builds_no_cache():
    # the factorizations, the primality verdicts and the prime places are
    # built on first use, so importing the module costs no arithmetic
    code = (
        "import quadricbundles.brauer as b; "
        "print(*(f.cache_info().currsize for f in (b._factor, b._is_prime, b._prime_place)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["0", "0", "0"]

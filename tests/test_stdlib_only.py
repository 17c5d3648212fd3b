"""The package runs on the standard library alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "orbitscope").glob("*.py"))


def imported_names(tree):
    """Top-level name of each absolute import; a relative import is the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "orbitscope" if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    names = set(imported_names(ast.parse(path.read_text(), filename=str(path))))
    assert names <= set(sys.stdlib_module_names) | {"orbitscope"}, \
        sorted(names - set(sys.stdlib_module_names))


def test_package_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
    assert len(re.findall(r"^dependencies\b", text, re.MULTILINE)) == 1

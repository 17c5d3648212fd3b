"""Every name the package exports has a caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitscope"
UNCALLED = {
    "cone_sample",  # kept for ROADMAP item 25
    "apply",  # named by the benchmark's per-layer metrics
    "weight_product",  # named by the benchmark's per-layer metrics
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names(path):
    """Names path uses as code: a Name, an Attribute or an ImportFrom."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_export_has_a_caller_outside_the_tests():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "tools").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    used = {name for path in paths for name in referenced_names(path)}
    assert sorted(exported_names() - used - UNCALLED) == []
    assert UNCALLED <= exported_names() - used

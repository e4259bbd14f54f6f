"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "linminmax").glob("*.py"))


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_are_found():
    assert any(p.name == "cli.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_stdlib_or_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = sys.stdlib_module_names | {"linminmax"}
    outside = sorted(set(_imported_roots(tree)) - allowed)
    assert not outside, f"{path.name} imports {outside}"

"""Every generic element is drawn by one sampler, `relation.sample_element`.

The source files are parsed with `ast`; a call of `.coefficient()` (the
sampler's coefficient stream) anywhere else would be a second sampler.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "linminmax").glob("*.py"))


def _coefficient_calls(tree):
    """(enclosing function, line) of each `.coefficient()` call in a module."""
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "coefficient"
            ):
                found.append((func, child.lineno))
            walk(child, func)

    walk(tree, None)
    return found


def test_coefficients_are_drawn_only_in_sample_element():
    calls = {
        path.stem: _coefficient_calls(ast.parse(path.read_text(), filename=str(path)))
        for path in SOURCES
    }
    outside = [
        (module, func, line)
        for module, found in calls.items()
        for func, line in found
        if (module, func) != ("relation", "sample_element")
    ]
    assert not outside, f"coefficient() drawn outside relation.sample_element: {outside}"
    assert calls["relation"], "relation.sample_element no longer draws coefficients"

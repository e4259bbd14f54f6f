"""`src/` ships only what `linminmax gen|check|demo` runs.

The source files are parsed with `ast`.  A definition is reached when the
code that runs, starting from `cli.main` and the values of `CHECKS`,
`DEMOS` and `GENERATORS`, names it: as a name for a function, as an
attribute for a method.  Module-level code, class bodies and dunder
methods always run (an import runs the one, an operator the other).
Matching by name is loose, since every method called `add` is reached
by any `.add`, so a definition that is not reached has no caller at all.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "linminmax"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
ENTRY_TABLES = ("CHECKS", "DEMOS", "GENERATORS")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(node) -> set:
    """Every name and attribute that `node` refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _imported_modules(module: str) -> set:
    """The package modules that `module` imports."""
    out = set()
    for node in ast.walk(MODULES[module]):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("linminmax."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("linminmax.")}
    return out & set(MODULES)


def _reachable_modules() -> set:
    seen, todo = {"__init__"}, ["cli"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_imported_modules(module))
    return seen


def _definitions():
    """(defs, always): every top-level function and non-dunder method by (module, name),
    and the (module, node) pairs of the code that always runs."""
    defs, always = {}, []
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs[(module, node.name)] = node
            elif isinstance(node, ast.ClassDef):
                always += [(module, n) for n in node.bases + node.decorator_list]
                for sub in node.body:
                    if isinstance(sub, FUNCTIONS) and not _is_dunder(sub.name):
                        defs[(module, f"{node.name}.{sub.name}")] = sub
                    else:
                        always.append((module, sub))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                always.append((module, node))
    return defs, always


def _entry_points(defs) -> set:
    """`cli.main` and the functions that `CHECKS`, `DEMOS` and `GENERATORS` hold."""
    entries = {("cli", "main")}
    for node in MODULES["cli"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ENTRY_TABLES for t in node.targets
        ):
            entries |= {("cli", name) for name in _names(node.value)} & set(defs)
    return entries


def test_every_definition_is_reached_from_the_cli():
    defs, always = _definitions()
    modules = _reachable_modules()
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1].rpartition(".")[2], []).append(key)
    todo = sorted(_entry_points(defs))
    assert {("cli", "check_konig"), ("cli", "demo_skew3"), ("cli", "gen_lgv")} <= set(todo)
    todo += [
        k for module, node in always if module in modules for name in _names(node) for k in by_name.get(name, [])
    ]
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen or key[0] not in modules:
            continue
        seen.add(key)
        todo += [k for name in _names(defs[key]) for k in by_name.get(name, []) if k != key]
    unreached = sorted(f"{module}.{name}" for module, name in set(defs) - seen)
    assert not unreached, f"no caller in the code the CLI runs: {unreached}"


def test_every_module_is_imported_from_the_cli():
    assert set(MODULES) - _reachable_modules() == set()


def test_only_the_cli_imports_the_verifier():
    importers = sorted(module for module in MODULES if "verify" in _imported_modules(module))
    assert importers == ["cli"]


def test_lgv_imports_only_the_kernel_and_the_errors():
    """Acyclicity is read off the minor table, so `lgv` needs no relation or matrix space."""
    assert _imported_modules("lgv") == {"exact_linalg", "errors"}


def test_the_blowup_side_limit_lives_in_relation():
    """Only `relation` names BLOWUP_DIM_BUDGET: `max_order` reads it, and `best_sample`'s refusal prints it."""
    namers = sorted(module for module, tree in MODULES.items() if "BLOWUP_DIM_BUDGET" in _names(tree))
    assert namers == ["relation"]


def test_no_code_asks_which_kind_of_space_it_holds():
    """No `isinstance` test on Relation or MatrixSpace, but equality's test of its operand.

    A relation and a matrix space each yield their generators and images,
    so the code that takes either one never asks which it was given.
    """
    found = []
    for module, tree in MODULES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTIONS) or fn.name == "__eq__":
                continue
            for call in ast.walk(fn):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "isinstance"
                    and _names(call.args[1]) & {"Relation", "MatrixSpace"}
                ):
                    found.append(f"{module}.{fn.name}:{call.lineno}")
    assert found == []

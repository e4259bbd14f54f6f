"""Self-checks for the classical combinatorial oracles."""

import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import linminmax
import reference
from reference import (
    BipartiteGraph,
    Digraph,
    Poset,
    bipartite_max_matching,
    hall_check,
    poset_dilworth,
    vertex_disjoint_paths,
)
from linminmax.errors import CertificationError


def rand_bipartite(rng, n, m, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(m) if rng.random() < p]
    return BipartiteGraph(n, m, edges)


def rand_poset(rng, size, p=0.4):
    labels = list(range(size))
    rng.shuffle(labels)
    rel = set()
    for a in range(size):
        for b in range(a + 1, size):
            if rng.random() < p:
                rel.add((labels[a], labels[b]))
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            for k, l in list(rel):
                if j == k and (i, l) not in rel:
                    rel.add((i, l))
                    changed = True
    return Poset(size, sorted(rel))


def test_matching_examples():
    diag = BipartiteGraph(3, 3, [(i, i) for i in range(3)])
    size, matching, cover = bipartite_max_matching(diag)
    assert size == 3 and len(matching) == 3

    star = BipartiteGraph(1, 3, [(0, j) for j in range(3)])
    size, _, (cl, cr) = bipartite_max_matching(star)
    assert size == 1 and (cl == [0] or cr == [0] or len(cl) + len(cr) == 1)


def test_matching_cover_duality_random():
    rng = random.Random(3)
    for _ in range(40):
        g = rand_bipartite(rng, rng.randint(1, 7), rng.randint(1, 7))
        size, matching, (cl, cr) = bipartite_max_matching(g)
        assert len(matching) == size == len(cl) + len(cr)


def test_hall_examples():
    diag = BipartiteGraph(3, 3, [(i, i) for i in range(3)])
    ok, wit = hall_check(diag)
    assert ok and wit is None

    shared = BipartiteGraph(2, 2, [(0, 0), (1, 0)])
    ok, wit = hall_check(shared)
    assert not ok and sorted(wit) == [0, 1]

    with pytest.raises(CertificationError):
        hall_check(BipartiteGraph(17, 1, []))


def test_hall_agrees_with_matching():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = rand_bipartite(rng, n, rng.randint(n, 7))
        ok, _ = hall_check(g)
        size, _, _ = bipartite_max_matching(g)
        assert ok == (size == n)


def test_poset_examples():
    chain = Poset(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert poset_dilworth(chain)[:2] == (1, 1)
    anti = Poset(4, [])
    assert poset_dilworth(anti)[:2] == (4, 4)


def test_poset_random_duality():
    rng = random.Random(7)
    for _ in range(30):
        p = rand_poset(rng, rng.randint(1, 7))
        mc, ma, chains, anti = poset_dilworth(p)
        assert mc == ma
        assert sorted(v for c in chains for v in c) == list(range(p.size))
        for a in anti:
            for b in anti:
                if a != b:
                    assert not p.comparable(a, b)


def test_vertex_disjoint_examples():
    path = Digraph(3, [(0, 1), (1, 2)])
    count, paths, sep = vertex_disjoint_paths(path, [0], [2])
    assert count == 1 and len(sep) == 1

    two = Digraph(4, [(0, 2), (1, 3)])
    count, paths, sep = vertex_disjoint_paths(two, [0, 1], [2, 3])
    assert count == 2

    # H and K intersect: the shared vertex is a one-vertex path
    loopish = Digraph(2, [(0, 1)])
    count, paths, sep = vertex_disjoint_paths(loopish, [0], [0])
    assert count == 1 and paths == [[0]]


def test_vertex_disjoint_random_duality():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.25
        ]
        g = Digraph(n, edges)
        h = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        k = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        count, paths, sep = vertex_disjoint_paths(g, h, k)
        assert count == len(sep) == len(paths)
        for p in paths:
            assert p[0] in h and p[-1] in k


def _imports(path):
    """(level, module) of every import in a source file; level 0 is absolute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((0, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.level, node.module
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.level, a.name) for a in node.names)


CLASSICAL_ORACLES = (
    "BipartiteGraph",
    "Digraph",
    "bipartite_max_matching",
    "hall_check",
    "Poset",
    "poset_dilworth",
    "vertex_disjoint_paths",
)


def test_oracles_share_no_code():
    """The classical oracles use the stdlib and `errors` alone, and `src` imports no test module."""
    path = Path(reference.__file__)
    tree = ast.parse(path.read_text())
    assert all(m.split(".")[0] in sys.stdlib_module_names | {"linminmax"} for _, m in _imports(path))
    package_names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "linminmax"
        and node.module != "linminmax.errors"
        for alias in node.names
    }
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in CLASSICAL_ORACLES:
        used = {node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)}
        assert not used & package_names, name
        assert used & set(defs) <= set(CLASSICAL_ORACLES), name
    tests = {p.stem for p in path.parent.glob("*.py")}
    for src in Path(linminmax.__file__).parent.glob("*.py"):
        assert all(m.split(".")[0] not in tests for _, m in _imports(src)), src.name


def test_digraph_weights_round_trip_as_rationals():
    G = Digraph(3, [(0, 1), (1, 2)], [Fraction(-3, 2), 4])
    assert G.to_json()["weights"] == ["-3/2", "4"]
    assert Digraph.from_json(G.to_json()) == G

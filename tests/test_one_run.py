"""One matroid-intersection run per relation theorem, one routing space per path check.

No span, no draw and no nilpotency test for linorders, no span for
acyclicity, and no span for a path capacity's routing space.
A subspace's complement is computed once per check, and a proved blow-up order
is drawn once.  Matrix Dilworth on a basis of rank-ones draws nothing, and on
any other algebra reads its antichain and its chains off one blow-up run.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from linminmax import dilworth, exact_linalg, lgv, matching_cover, ncrank, relation
from linminmax.cli import EXIT_BOUNDS, EXIT_PROVED, gen_linorder, main
from linminmax.exact_linalg import IntEchelon, Mat, Subspace, Vec, unit_vec
from linminmax.matching_cover import matroid_intersection
from linminmax.relation import Relation
from linminmax.verify import verify_cover, verify_matching
from conftest import rand_vec
from reference import BipartiteGraph, bipartite_max_matching, instance_from_relation, to_matrix_space
from test_relation import strict_algebra

GOLDEN = Path(__file__).parent / "golden"


def count_calls(monkeypatch, fn):
    """Calls of `fn` through every linminmax module that holds it, as a list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("linminmax") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def count_spans(monkeypatch):
    """The shape (m, n) of every matrix space built, as a list."""
    shapes = []
    build = relation.MatrixSpace._span

    def counted(self, m, n, generators):
        shapes.append((m, n))
        return build(self, m, n, generators)

    monkeypatch.setattr(relation.MatrixSpace, "_span", counted)
    return shapes


@pytest.mark.parametrize("theorem", ["konig", "hall", "rado", "dilworth", "coherent"])
def test_each_check_runs_the_intersection_once(theorem, monkeypatch, capsys):
    runs = count_calls(monkeypatch, matching_cover.matroid_intersection)
    spans = count_spans(monkeypatch)
    draws = count_calls(monkeypatch, relation.sample_element)
    assert main(["check", theorem, str(GOLDEN / f"{theorem}.json")]) == EXIT_PROVED
    capsys.readouterr()
    assert len(runs) == 1
    if theorem in ("dilworth", "coherent"):
        assert spans == [] and draws == []


@pytest.mark.parametrize("theorem", ["dilworth", "coherent"])
def test_linorder_checks_run_no_nilpotency_flag(theorem, monkeypatch, capsys):
    """The linorder axioms decide nilpotency, so validation runs no nilpotency test.

    Neither the closure and trace test of a matrix space nor the minor
    table that decides an LGV family's acyclicity runs.
    """
    algebras = count_calls(monkeypatch, relation.is_nilpotent_algebra)
    tables = count_calls(monkeypatch, lgv._subset_minors)
    assert main(["check", theorem, str(GOLDEN / f"{theorem}.json")]) == EXIT_PROVED
    capsys.readouterr()
    assert algebras == [] and tables == []


def test_coherent_on_a_16_dimensional_linorder_builds_no_span(tmp_path, monkeypatch, capsys):
    path = tmp_path / "linorder-16.json"
    assert main(["gen", "linorder", "size=16", "--seed", "3", "--out", str(path)]) == EXIT_PROVED
    spans = count_spans(monkeypatch)
    draws = count_calls(monkeypatch, relation.sample_element)
    assert main(["check", "coherent", str(path), "--output", "json"]) == EXIT_PROVED
    report = json.loads(capsys.readouterr().out)
    assert report["antichain_dim"] == report["coherent_count"] == 5
    assert spans == [] and draws == []


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "menger", str(GOLDEN / "menger.json")],
        ["demo", "menger-f7"],
        ["check", "matrix-menger", str(GOLDEN / "matrix-menger.json")],
    ],
)
def test_path_capacities_build_one_routing_space(argv, monkeypatch, capsys):
    """The solver routes in the space the check builds; no space but the instance's is spanned.

    The routing space is held as its generators, so a relation's path
    capacity spans nothing and a matrix space's spans only the instance.
    """
    routings = count_calls(monkeypatch, relation.routing_space)
    spans = count_spans(monkeypatch)
    assert main(argv) == EXIT_PROVED
    capsys.readouterr()
    assert len(routings) == 1
    assert len(spans) == (1 if argv[1] == "matrix-menger" else 0)


def _linorder_space(tmp_path, size: int):
    """The file of the span of `gen linorder size=<size> --seed 3`."""
    V = to_matrix_space(Relation.from_json(gen_linorder(random.Random(3), size)))
    path = tmp_path / f"linorder-{size}-space.json"
    path.write_text(json.dumps(V.to_json()))
    return path


@pytest.mark.parametrize("size", [None, 5])
def test_matrix_dilworth_on_a_rank_one_basis_draws_nothing(size, tmp_path, monkeypatch, capsys):
    """A basis of rank-ones is read as its factor relation: no draw, no blow-up run, no ncrank search."""
    path = GOLDEN / "matrix-dilworth.json" if size is None else _linorder_space(tmp_path, size)
    runs = count_calls(monkeypatch, relation.best_sample)
    draws = count_calls(monkeypatch, relation.sample_element)
    searches = count_calls(monkeypatch, ncrank.ncrank)
    assert main(["check", "matrix-dilworth", str(path), "--output", "json"]) == EXIT_PROVED
    report = json.loads(capsys.readouterr().out)
    assert runs == draws == searches == []
    assert report["coherent_count"] == report["r"] * report["antichain_dim"] > 0


def test_matrix_dilworth_without_a_rank_one_basis_is_one_blowup_run(tmp_path, monkeypatch, capsys):
    """One draw's Wong limit is the cover and its Jordan chains the decomposition: no ncrank search."""
    V = strict_algebra(5, 4)
    assert relation.rank_one_relation(V) is None
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(V.to_json()))
    runs = count_calls(monkeypatch, relation.best_sample)
    searches = count_calls(monkeypatch, ncrank.ncrank)
    assert main(["check", "matrix-dilworth", str(path), "--output", "json"]) == EXIT_PROVED
    report = json.loads(capsys.readouterr().out)
    assert len(runs) == 1 and searches == []
    assert report["coherent_count"] == report["r"] * report["antichain_dim"] > 0


def test_matrix_dilworth_beyond_the_side_limit_draws_nothing(tmp_path, monkeypatch, capsys):
    """The span of a 9-dimensional linorder needs r = 8, of side 72 > 64: exit 2 before any draw."""
    path = _linorder_space(tmp_path, 9)
    draws = count_calls(monkeypatch, relation.sample_element)
    searches = count_calls(monkeypatch, ncrank.ncrank)
    assert main(["check", "matrix-dilworth", str(path), "--output", "json"]) == EXIT_BOUNDS
    assert json.loads(capsys.readouterr().out) == {"error": "bounds: blow-up side 72 exceeds 64"}
    assert draws == [] and searches == []


def test_solvers_run_the_intersection_once_and_sample_nothing(rng, monkeypatch):
    """Rado runs it once; the linorder decompositions read the matching they are given."""
    runs = count_calls(monkeypatch, matching_cover.matroid_intersection)
    draws = count_calls(monkeypatch, relation.sample_element)
    for _ in range(10):
        m = rng.randint(1, 4)
        sets = [[rand_vec(rng, m) for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(1, m))]
        runs.clear()
        matching_cover.rado_transversal(sets, m)
        assert len(runs) == 1
    runs.clear()
    for size in range(1, 6):
        R = Relation.from_json(gen_linorder(random.Random(size), size))
        matching = matroid_intersection(R)[0]  # the unpatched name: not counted
        dilworth.bichain_decomposition(matching)
        dilworth.coherent_decomposition(matching)
    assert runs == [] and draws == []


def test_acyclicity_builds_no_span(monkeypatch):
    spans = count_spans(monkeypatch)
    e = [unit_vec(3, i) for i in range(3)]
    assert instance_from_relation(Relation(3, 3, [(e[0], e[1]), (e[1], e[2])]), [], []).acyclic
    assert not instance_from_relation(Relation(3, 3, [(e[0], e[1]), (e[1], e[0])]), [], []).acyclic
    assert spans == []


# At most this many `Mat.kernel` calls per golden check and demo.  A cover
# keeps its shrunk subspace U and a separator X = F~^perp, so a complement
# is taken only where a report prints one; none is taken for a zero or full
# subspace, in `verify`, or for a Wong cover or the cut of X to F^perp.
KERNEL_CALLS = {
    "coherent": 5,
    "dilworth": 1,
    "hall": 1,
    "konig": 0,
    "lgv": 0,
    "matrix-dilworth": 4,
    "matrix-konig": 0,
    "matrix-menger": 0,
    "menger": 1,
    "ncrank": 0,
    "rado": 0,
    "demo linorder-f4": 5,
    "demo menger-f7": 1,
    "demo skew3": 0,
}


# At most this many `relation.sample_element` draws per golden check and
# demo: a proved blow-up order costs one draw, and only an order that is not
# proved (skew3's order 1) draws every trial.
DRAW_CALLS = {
    "coherent": 0,
    "dilworth": 0,
    "hall": 0,
    "konig": 0,
    "lgv": 0,
    "matrix-dilworth": 1,
    "matrix-konig": 1,
    "matrix-menger": 1,
    "menger": 1,
    "ncrank": 1,
    "rado": 0,
    "demo linorder-f4": 0,
    "demo menger-f7": 1,
    "demo skew3": 26,
}


@pytest.mark.parametrize("name", sorted(DRAW_CALLS))
def test_golden_checks_and_demos_draw_few_elements(name, monkeypatch, capsys):
    draws = count_calls(monkeypatch, relation.sample_element)
    argv = name.split() if name.startswith("demo ") else ["check", name, str(GOLDEN / f"{name}.json")]
    assert main(argv) == EXIT_PROVED
    capsys.readouterr()
    assert len(draws) <= DRAW_CALLS[name]


# At most this many `matching_cover._circuits` calls per golden check: two
# per round of the exchange graph, and no round once the matching spans the
# v's.  Only coherent's relation needs a round to find its cover.
CIRCUIT_CALLS = {
    "coherent": 2,
    "dilworth": 0,
    "hall": 0,
    "konig": 0,
    "rado": 0,
}


@pytest.mark.parametrize("theorem", sorted(CIRCUIT_CALLS))
def test_golden_checks_run_few_exchange_rounds(theorem, monkeypatch, capsys):
    circuits = count_calls(monkeypatch, matching_cover._circuits)
    assert main(["check", theorem, str(GOLDEN / f"{theorem}.json")]) == EXIT_PROVED
    capsys.readouterr()
    assert len(circuits) <= CIRCUIT_CALLS[theorem]


def _intersection_cases(rng):
    """(relation, graph or None): 0/1 graphs and relations of deficient v or w rank.

    The relations mix in zero vectors and repeated pairs; the graphs have
    isolated vertices and repeated edges.
    """

    def draw(basis, dim):
        return sum((b.scaled(rng.randint(-1, 1)) for b in basis), Vec([0] * dim))

    for k in range(240):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        if k % 2:
            edges = [(i, j) for i in range(n) for j in range(m) if rng.random() < 0.35]
            edges += rng.sample(edges, rng.randint(0, len(edges)) // 3)
            pairs = [(unit_vec(n, i), unit_vec(m, j)) for i, j in edges]
            yield Relation(n, m, pairs), BipartiteGraph(n, m, edges)
            continue
        bv = [rand_vec(rng, n, 1) for _ in range(rng.randint(0, n))]
        bw = [rand_vec(rng, m, 1) for _ in range(rng.randint(0, m))]
        pairs = [(draw(bv, n), draw(bw, m)) for _ in range(rng.randint(0, 8))]
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))
        yield Relation(n, m, pairs), None


def test_the_intersection_stops_exactly_when_the_matching_spans_the_vs(rng, monkeypatch):
    """No exchange round runs once |I| = dim span of the v's, and one always
    runs on the final I otherwise; either way the matching meets the cover."""
    circuits = count_calls(monkeypatch, matching_cover._circuits)
    stopped = searched = 0
    for R, graph in _intersection_cases(rng):
        circuits.clear()
        matching, cover = matroid_intersection(R)
        assert matching.size == cover.size
        assert verify_matching(R, matching) and verify_cover(R, cover)
        if graph is not None:
            assert cover.size == bipartite_max_matching(graph)[0]
        span_v = Subspace.span(R.n, [v for v, w in R.pairs if not w.is_zero()])
        rounds = [tuple(args[1]) for args in circuits]
        assert all(len(I) < span_v.dim for I in rounds)
        if matching.size == span_v.dim:
            assert (cover.U, cover.F) == (span_v.orthocomplement(), Subspace.zero(R.m))
            stopped += 1
        else:
            assert rounds[-1] == matching.indices
            searched += 1
    assert stopped >= 100 and searched >= 40


def test_the_greedy_start_reduces_each_row_once(rng, monkeypatch):
    """The greedy start adds each row once, and pops a v whose w is dependent."""
    calls = []
    monkeypatch.setattr(IntEchelon, "contains", lambda self, row: calls.append(row))
    for R, _ in _intersection_cases(rng):
        matching, cover = matroid_intersection(R)
        assert verify_matching(R, matching) and verify_cover(R, cover)
    assert calls == []


@pytest.mark.parametrize("acyclic", [False, True])
def test_the_lgv_check_runs_no_fraction_solve(acyclic, tmp_path, monkeypatch, capsys):
    """A point costs one integer echelon: no `solve_exact` and no `Mat.det`."""
    path = GOLDEN / "lgv.json"
    if not acyclic:
        path = tmp_path / "lgv.json"
        assert main(["gen", "lgv", "n=4", "r=4", "k=2", "--seed", "1", "--out", str(path)]) == 0
    solves = count_calls(monkeypatch, exact_linalg.solve_exact)
    dets = []
    det = Mat.det
    monkeypatch.setattr(Mat, "det", lambda self: dets.append(self) or det(self))
    assert main(["check", "lgv", str(path), "--output", "json"]) == EXIT_PROVED
    assert json.loads(capsys.readouterr().out)["acyclic"] is acyclic
    assert solves == [] and dets == []


@pytest.mark.parametrize("theorem", ["ncrank", "matrix-konig"])
def test_space_covers_take_no_complement(theorem, tmp_path, monkeypatch, capsys):
    """The Wong limit U is the cover: no kernel and no complement, also where U is proper."""
    taken = []
    monkeypatch.setattr(Mat, "kernel", lambda self: taken.append(self))
    monkeypatch.setattr(Subspace, "orthocomplement", lambda self: taken.append(self))
    proper = 0
    for seed in range(6):
        V = to_matrix_space(Relation.from_json(gen_linorder(random.Random(seed), 3 + seed % 3)))
        path = tmp_path / "space.json"
        path.write_text(json.dumps(V.to_json()))
        assert main(["check", theorem, str(path), "--output", "json", "--seed", str(seed)]) == EXIT_PROVED
        if theorem == "ncrank":
            proper += 0 < len(json.loads(capsys.readouterr().out)["witness"]["E"][0]) < V.n
        capsys.readouterr()
    assert taken == []
    assert theorem == "matrix-konig" or proper >= 3


@pytest.mark.parametrize("theorem", sorted(KERNEL_CALLS))
def test_golden_checks_compute_few_kernels(theorem, monkeypatch, capsys):
    calls = []
    kernel = Mat.kernel

    def counted(self):
        calls.append(self)
        return kernel(self)

    monkeypatch.setattr(Mat, "kernel", counted)
    argv = theorem.split() if theorem.startswith("demo ") else ["check", theorem, str(GOLDEN / f"{theorem}.json")]
    assert main(argv) == EXIT_PROVED
    capsys.readouterr()
    assert len(calls) <= KERNEL_CALLS[theorem]

"""Path capacities, separators, and the generic rank subset formulas."""

from itertools import combinations

import pytest

from linminmax.errors import DimensionError
from linminmax.exact_linalg import Mat, Subspace, solve_exact, unit_vec
from linminmax.matching_cover import matroid_intersection
from linminmax.menger import mpc
from linminmax.relation import GenericSampler, Relation, routing_space, sample_element
from linminmax.dilworth import BiChain
from linminmax.verify import independent_bipaths_check, verify_blowup_element, verify_separator
from conftest import dot, kron, rand_mat, rand_relation, rand_subspace, rand_vec, reduced_indices, vec
from reference import (
    Digraph,
    Poset,
    bordered_rank,
    dense_routing_space,
    generic_rank_rank_one_update,
    generic_rank_sum,
    graph_instance,
    konig_via_menger,
    outer,
    poset_embed,
    space_contains,
    to_matrix_space,
    vertex_disjoint_paths,
)


def f7_instance():
    e = [unit_vec(7, i) for i in range(7)]
    R = Relation(
        7,
        7,
        [
            (e[0], e[2] + e[3]),
            (e[1], e[2] - e[3]),
            (e[3] + e[4], e[5]),
            (e[3] - e[4], e[6]),
        ],
    )
    return R, Subspace.span(7, [e[0], e[1]]), Subspace.span(7, [e[5], e[6]])


def test_f7_capacity_and_separator():
    R, E, F = f7_instance()
    cv = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=5))
    assert cv.value == cv.dual.size == 1
    e = [unit_vec(7, i) for i in range(7)]
    sep = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=6)).dual
    assert sep.size == 1
    assert sep.E_tilde == Subspace.span(7, e[0:4])
    assert sep.X == Subspace.span(7, e[0:3])  # F~ = X^perp
    assert sep.to_json()["F_tilde"] == Subspace.span(7, e[3:7]).to_json()
    assert verify_separator(R, E, F, sep)


def test_f7_bipaths_beat_separator():
    R, E, F = f7_instance()
    e = [unit_vec(7, i) for i in range(7)]
    paths = [
        BiChain((e[0], e[2] + e[3], e[5]), (e[0], e[3] + e[4], e[5]), (0, 2)),
        BiChain((e[1], e[2] - e[3], e[6]), (e[1], e[3] - e[4], e[6]), (1, 3)),
    ]
    assert independent_bipaths_check(R, E, F, paths)
    # two independent bi-paths squeeze through a size-1 separator
    assert len(paths) > mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=6)).dual.size
    assert not independent_bipaths_check(R, E, F, [paths[0], paths[0]])
    stray = BiChain((e[2],), (e[5],), ())
    assert not independent_bipaths_check(R, E, F, [stray])


def test_cpc_trivial_cases():
    n = 3
    empty = Relation(n, n, [])
    full = Subspace.full(n)
    cv = mpc(empty, full, full, routing_space(empty, full, full), GenericSampler(seed=1))
    assert cv.value == n
    zero = Subspace.zero(n)
    cv0 = mpc(empty, zero, zero, routing_space(empty, zero, zero), GenericSampler(seed=2))
    assert cv0.value == 0
    sep0 = mpc(empty, zero, zero, routing_space(empty, zero, zero), GenericSampler(seed=4)).dual
    assert sep0.size == 0
    with pytest.raises(DimensionError):
        routing_space(Relation(2, 3, []), zero, zero)


def test_capacity_equals_separator_random(rng):
    for _ in range(10):
        n = rng.randint(2, 4)
        R = rand_relation(rng, n, n, rng.randint(1, 6))
        E = Subspace.span(n, [rand_vec(rng, n) for _ in range(rng.randint(0, 2))])
        F = Subspace.span(n, [rand_vec(rng, n) for _ in range(rng.randint(0, 2))])
        cv = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=7))
        sep = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=8)).dual
        assert cv.value == sep.size == cv.dual.size
        assert verify_separator(R, E, F, cv.dual)


def test_guttman_and_transfer_matrix():
    # nilpotent linorder element: (I - A)^{-1} is the finite geometric sum
    V = to_matrix_space(poset_embed(Poset(4, [(0, 1), (0, 2), (0, 3)])))
    s = GenericSampler(seed=11)
    n = 4
    for _ in range(5):
        A = sample_element(V, s)
        inv = solve_exact(Mat.identity(n) - A, Mat.identity(n))
        geometric = Mat.zeros(n, n)
        power = Mat.identity(n)
        for _ in range(n):
            geometric = geometric + power
            power = power @ A
        assert inv == geometric


def test_rank_one_update_examples():
    A = Mat.zeros(3, 3)
    assert generic_rank_rank_one_update(A, vec(1, 0, 0), vec(0, 1, 0)) == 1
    # w in the image and v in the row space leave the rank unchanged
    B = Mat([[1, 0], [0, 0]])
    assert generic_rank_rank_one_update(B, vec(1, 0), vec(1, 0)) == 1
    assert generic_rank_rank_one_update(B, vec(0, 1), vec(0, 1)) == 2


def eval_rank(A, pairs, coeffs):
    acc = A
    for (v, w), c in zip(pairs, coeffs):
        acc = acc + outer(w, v).scaled(c)
    return acc.rank()


def test_rank_one_update_matches_sampling(rng):
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_mat(rng, m, n)
        v, w = rand_vec(rng, n), rand_vec(rng, m)
        formula = generic_rank_rank_one_update(A, v, w)
        samples = [
            eval_rank(A, [(v, w)], [rng.randint(10**5, 10**6)]) for _ in range(3)
        ]
        assert samples[0] == samples[1] == samples[2] == formula


def test_generic_rank_sum_examples(rng):
    A = rand_mat(rng, 3, 3)
    assert generic_rank_sum(A, []) == A.rank()
    v, w = rand_vec(rng, 3, nonzero=True), rand_vec(rng, 3, nonzero=True)
    assert generic_rank_sum(A, [(v, w)]) == generic_rank_rank_one_update(A, v, w)


def test_generic_rank_sum_matches_sampling(rng):
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_mat(rng, m, n)
        r = rng.randint(1, 4)
        pairs = [(rand_vec(rng, n), rand_vec(rng, m)) for _ in range(r)]
        formula = generic_rank_sum(A, pairs)
        samples = [
            eval_rank(A, pairs, [rng.randint(10**5, 10**6) for _ in range(r)])
            for _ in range(3)
        ]
        assert samples[0] == samples[1] == samples[2] == formula
        # the subset minimum upper-bounds every evaluation
        low = eval_rank(A, pairs, [rng.randint(-3, 3) for _ in range(r)])
        assert low <= formula


def test_graph_instances_match_flow(rng):
    G = Digraph(2, [(0, 1)])
    R, E, F = graph_instance(G, [0], [1])
    assert R.pairs == ((unit_vec(2, 0), unit_vec(2, 1)),)
    assert mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=17)).value == 1

    for trial in range(10):
        n = rng.randint(2, 6)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.3
        ]
        H = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        K = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        G = Digraph(n, edges)
        count, _, _ = vertex_disjoint_paths(G, H, K)
        for with_loops in (False, True):
            R, E, F = graph_instance(G, H, K, with_loops=with_loops)
            cv = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=100 + trial))
            assert cv.value == count, (edges, H, K, with_loops)
        # with loops the separator size matches the classical one too
        R, E, F = graph_instance(G, H, K, with_loops=True)
        sep = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=200 + trial)).dual
        assert sep.size == count


def test_weak_duality_sampled(rng):
    for _ in range(8):
        n = rng.randint(2, 4)
        R = rand_relation(rng, n, n, rng.randint(1, 5))
        E = Subspace.span(n, [rand_vec(rng, n)])
        F = Subspace.span(n, [rand_vec(rng, n)])
        sep = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=22)).dual
        V = to_matrix_space(R)
        s = GenericSampler(seed=23)
        for _ in range(5):
            A = sample_element(V, s)
            assert bordered_rank(A, E, F) - n <= sep.size


def test_konig_via_menger(rng):
    assert konig_via_menger(Relation(2, 3, []), GenericSampler(seed=29)).value == 0
    diag = Relation(3, 3, [(unit_vec(3, i), unit_vec(3, i)) for i in range(3)])
    assert konig_via_menger(diag, GenericSampler(seed=31)).value == 3
    for _ in range(6):
        R = rand_relation(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5))
        cv = konig_via_menger(R, GenericSampler(seed=37))
        assert cv.value == matroid_intersection(R)[1].size


def _check_cpc_certificate(R, E, F, cv):
    """Proved, a separator, and a primal whose bordered rank meets it.

    The primal is checked by the coefficients it carries on the routing
    space it was drawn on, and lies in the dense routing space of V_R.
    """
    assert verify_separator(R, E, F, cv.dual)
    assert cv.value == cv.dual.size
    r, el = cv.primal
    assert verify_blowup_element(routing_space(R, E, F), r, el, r * (R.n + cv.value))
    assert space_contains(dense_routing_space(to_matrix_space(R), E, F), el, r)


def test_cpc_beyond_the_old_subset_budget(rng):
    """n = 10 and 12 with 24 and 36 independent pairs."""
    for n, count in ((10, 24), (12, 36)):
        R = rand_relation(rng, n, n, count)
        assert len(reduced_indices(R)) == count
        E = rand_subspace(rng, n, max_dim=3)
        F = rand_subspace(rng, n, max_dim=3)
        cv = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=n))
        _check_cpc_certificate(R, E, F, cv)


def test_cpc_matches_disjoint_paths_on_dense_graphs(rng):
    """Graph encodings with 9..12 vertices and more than 20 edges plus loops."""
    for trial in range(4):
        n = rng.randint(9, 12)
        edges = sorted(
            {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.25}
        )
        H = rng.sample(range(n), rng.randint(2, 4))
        K = rng.sample(range(n), rng.randint(2, 4))
        G = Digraph(n, edges)
        count, _, _ = vertex_disjoint_paths(G, H, K)
        R, E, F = graph_instance(G, H, K, with_loops=True)
        assert len(reduced_indices(R)) > 20
        cv = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=300 + trial))
        _check_cpc_certificate(R, E, F, cv)
        assert cv.value == count


def test_an_unproved_capacity_returns_the_draw_behind_its_value(monkeypatch):
    """Drawing only the border [[I, i],[p, 0]] proves nothing; the value still has its element."""
    from linminmax import relation

    draw = relation.sample_element

    class BorderOnly:
        """The coefficients of border (x) I_r: I_r for the first generator, then zeros."""

        def __init__(self, r):
            self.stream = iter([int(k == l) for k in range(r) for l in range(r)])

        def coefficient(self):
            return next(self.stream, 0)

    monkeypatch.setattr(relation, "sample_element", lambda V, s, r=1: draw(V, BorderOnly(r), r))
    R, E, F = f7_instance()
    routing = routing_space(R, E, F)
    cv = mpc(R, E, F, routing, GenericSampler(seed=0, trials=2))
    assert cv.value == 0 < cv.dual.size
    assert verify_separator(R, E, F, cv.dual)
    r, el = cv.primal
    border = Mat.from_int_rows(routing.int_basis[0], routing.den, routing.n)
    assert el == kron(border, Mat.identity(r))
    assert verify_blowup_element(routing, r, el, r * (R.n + cv.value))
    assert space_contains(dense_routing_space(to_matrix_space(R), E, F), el, r)


def test_cpc_has_no_size_limit():
    """A circulant digraph on 66 vertices: its routing space is wider than any blow-up budget."""
    n = 66
    G = Digraph(n, sorted({(i, (i + d) % n) for i in range(n) for d in (1, 5)}))
    R, E, F = graph_instance(G, [0, 1], [33, 40])
    cv = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=1))
    _check_cpc_certificate(R, E, F, cv)
    assert cv.value == 2 and cv.primal[0] == 1


def _subset_capacity(R, E, F):
    """min over S of rank of the pairing of F + {v_k : k not in S} with E + {w_k : k in S}."""
    kept = [R.pairs[i] for i in reduced_indices(R)]
    best = None
    for size in range(len(kept) + 1):
        for S in combinations(range(len(kept)), size):
            rows = list(F.vectors) + [v for k, (v, _) in enumerate(kept) if k not in S]
            cols = list(E.vectors) + [kept[k][1] for k in S]
            value = Mat([[dot(r, c) for c in cols] for r in rows], len(cols)).rank()
            best = value if best is None else min(best, value)
    return best


def test_cpc_matches_the_subset_formula(rng):
    for trial in range(12):
        n = rng.randint(2, 4)
        R = rand_relation(rng, n, n, rng.randint(2, 7))
        E = Subspace.span(n, [rand_vec(rng, n, nonzero=True) for _ in range(rng.randint(1, 2))])
        F = Subspace.span(n, [rand_vec(rng, n, nonzero=True) for _ in range(rng.randint(1, 2))])
        cv = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=400 + trial))
        _check_cpc_certificate(R, E, F, cv)
        assert cv.value == _subset_capacity(R, E, F)


def test_routing_space_echelons_once(echelon_widths):
    """No echelon of routing width (n + dim F)(n + dim E) is built, for a relation or its span.

    The routing space is held as its generators; mpc routes on them, and the
    verifier checks the primal by its coefficients, with no echelon of them.
    """
    R, E, F = f7_instance()
    V = to_matrix_space(R)
    width = (7 + F.dim) * (7 + E.dim)
    for space in (R, V):
        echelon_widths.clear()
        routing = routing_space(space, E, F)
        cv = mpc(space, E, F, routing, GenericSampler(seed=3))
        assert cv.value == cv.dual.size
        r, el = cv.primal
        assert verify_blowup_element(routing, r, el, r * (7 + cv.value))
        assert echelon_widths and width not in echelon_widths


def test_separator_size_is_computed_once(monkeypatch, capsys):
    """A menger check ranks the products of E~ with X once per separator, however often it reads the size.

    The size is dim E~ minus that rank; menger ranks nothing else.
    """
    from pathlib import Path

    from linminmax import menger
    from linminmax.cli import main

    ranks, separators = [], []

    class Counting(menger.Mat):
        def rank(self):
            ranks.append((self.rows, self.cols))
            return super().rank()

    class Recorded(menger.Separator):
        def __init__(self, *args):
            super().__init__(*args)
            separators.append(self)

    monkeypatch.setattr(menger, "Mat", Counting)
    monkeypatch.setattr(menger, "Separator", Recorded)
    golden = Path(__file__).parent / "golden"
    for theorem in ("menger", "matrix-menger"):
        ranks.clear()
        separators.clear()
        assert main(["check", theorem, str(golden / f"{theorem}.json")]) == 0
        capsys.readouterr()
        assert len(separators) == 2  # the trivial dual and the Wong separator
        # the Wong separator's size; the trivial one is never read
        wong = separators[1]
        assert ranks == [(wong.E_tilde.dim, wong.X.dim)]


def test_path_capacities_on_the_zero_space():
    """The 0 x 0 border spans nothing; its routing space is the zero space."""
    from linminmax.relation import MatrixSpace

    zero = Subspace.zero(0)
    for space in (Relation(0, 0, []), MatrixSpace(0, 0, [])):
        cv = mpc(space, zero, zero, routing_space(space, zero, zero), GenericSampler(seed=1))
        assert cv.value == cv.dual.size == 0

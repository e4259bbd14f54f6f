"""Acceptance suite: every criterion at its stated scale and time limit.

Each test prints one PASS line with its elapsed time (run with -s to see
them on a green run).  All checks are exact equalities; there are no
tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from linminmax.cli import (
    EXIT_PROVED,
    RunConfig,
    demo_linorder_f4,
    demo_menger_f7,
    demo_skew3,
)
from linminmax.dilworth import bichain_decomposition
from linminmax.exact_linalg import (
    Mat,
    Subspace,
    Vec,
    solve_exact,
    subspace_sum,
    unit_vec,
)
from linminmax.matching_cover import (
    Matching,
    matroid_intersection,
)
from linminmax.menger import mpc
from linminmax.lgv import LgvInstance, lgv_acyclic, lgv_lhs, lgv_rhs_parts, lgv_rhs
from linminmax.errors import SingularityError
from linminmax.ncrank import matrix_coherent_decomposition
from linminmax.relation import GenericSampler, Relation, routing_space, sample_element
from linminmax.verify import verify_cover, verify_matching
from reference import (
    BipartiteGraph,
    Digraph,
    basis_matrix,
    bipartite_max_matching,
    bordered_rank,
    classical_lgv,
    from_cols,
    generic_rank_rank_one_update,
    generic_rank_sum,
    graph_instance,
    hall_check,
    max_rank_blowup,
    outer,
    poset_dilworth,
    poset_embed,
    subspace_intersection,
    to_matrix_space,
    vertex_disjoint_paths,
)
from test_dilworth import rand_dual_basis_linorder
from test_oracles import rand_poset


def _report(name, elapsed, limit, detail=""):
    assert elapsed < limit, f"{name} took {elapsed:.1f}s (limit {limit}s)"
    print(f"PASS {name} ({elapsed:.2f}s < {limit}s) {detail}")


def _rand_vec(rng, n, bound=2):
    while True:
        v = Vec([rng.randint(-bound, bound) for _ in range(n)])
        if not v.is_zero():
            return v


def _rand_relation(rng, n, m, r):
    return Relation(
        n, m, [(_rand_vec(rng, n), _rand_vec(rng, m)) for _ in range(r)]
    )


def test_criterion_1_linorder_f4():
    start = time.monotonic()
    report, code = demo_linorder_f4(RunConfig(seed=0))
    elapsed = time.monotonic() - start
    assert code == EXIT_PROVED
    assert report["antichain_dim"] == 3
    assert report["bichain_count"] == 3
    assert report["coherent_count"] == 3
    assert report["w_chains_span_basis"] is True
    _report("criterion 1 (linorder demo)", elapsed, 1.0, "antichain=bichains=coherent=3")


def test_criterion_2_menger_f7():
    start = time.monotonic()
    report, code = demo_menger_f7(RunConfig(seed=0))
    elapsed = time.monotonic() - start
    assert code == EXIT_PROVED
    assert report["cpc"] == 1
    assert report["separator_size"] == 1
    assert report["independent_bipaths"] == 2
    e = [unit_vec(7, i) for i in range(7)]
    assert Subspace.from_json(report["E_tilde"], 7) == Subspace.span(7, e[0:4])
    assert Subspace.from_json(report["F_tilde"], 7) == Subspace.span(7, e[3:7])
    _report("criterion 2 (menger demo)", elapsed, 1.0, "cpc=1, 2 bi-paths")


def test_criterion_3_skew3():
    start = time.monotonic()
    report, code = demo_skew3(RunConfig(seed=0))
    elapsed = time.monotonic() - start
    assert code == EXIT_PROVED
    assert report["max_rank"] == 2
    assert report["blowup_rank_r2"] == 6
    assert report["ncrank"] == 3
    assert report["full_ncrank"] is True
    assert report["divisible_by_r"] is True
    _report("criterion 3 (skew3)", elapsed, 10.0, "rank 2, blow-up 6, ncrank 3")


def test_criterion_4_linear_konig_200():
    start = time.monotonic()
    passed = 0
    for i in range(200):
        rng = random.Random(41000 + i)
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(1, 12)
        R = _rand_relation(rng, n, m, r)
        matching, cover = matroid_intersection(R)
        assert matching.size == cover.size
        assert verify_matching(R, matching)
        assert verify_cover(R, cover)
        passed += 1
    elapsed = time.monotonic() - start
    assert passed == 200
    _report("criterion 4 (linear Konig x200)", elapsed, 120.0, "200/200 exact")


def test_criterion_5_classical_reductions():
    start = time.monotonic()
    # 200 bipartite graphs: Hall equivalence and Konig equality.
    for i in range(200):
        rng = random.Random(52000 + i)
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        edges = [(a, b) for a in range(n) for b in range(m) if rng.random() < 0.3][:18]
        g = BipartiteGraph(n, m, edges)
        R = Relation(
            n, m, [(unit_vec(n, a), unit_vec(m, b)) for a, b in edges]
        )
        classical, _, _ = bipartite_max_matching(g)
        matching, cover = matroid_intersection(R)
        assert matching.size == cover.size == classical
        if m >= n:
            hall_ok, _ = hall_check(g)
            assert hall_ok == (matching.size == n)
    # 100 posets: Dilworth values agree.
    for i in range(100):
        rng = random.Random(53000 + i)
        p = rand_poset(rng, rng.randint(1, 7))
        R = poset_embed(p)
        mc, ma, _, _ = poset_dilworth(p)
        matching, cover = matroid_intersection(R)
        assert R.n - cover.size == cover.antichain().dim == ma
        assert bichain_decomposition(matching).size == mc
    # 100 digraphs: capacity = disjoint paths = separator size.
    for i in range(100):
        rng = random.Random(54000 + i)
        n = rng.randint(2, 8)
        target = rng.randint(1, min(12, n * (n - 1)))
        edges = set()
        while len(edges) < target:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((a, b))
        G = Digraph(n, sorted(edges))
        H = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        K = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        count, _, _ = vertex_disjoint_paths(G, H, K)
        R, E, F = graph_instance(G, H, K, with_loops=True)
        cv = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=54500 + i))
        assert cv.value == count == cv.dual.size
    elapsed = time.monotonic() - start
    _report(
        "criterion 5 (classical reductions)",
        elapsed,
        180.0,
        "200 bipartite + 100 posets + 100 digraphs",
    )


def test_criterion_6_rank_formulas_500_each():
    start = time.monotonic()
    rng = random.Random(61000)
    for _ in range(500):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], n)
        v = Vec([rng.randint(-3, 3) for _ in range(n)])
        w = Vec([rng.randint(-3, 3) for _ in range(m)])
        formula = generic_rank_rank_one_update(A, v, w)
        evals = [
            (A + outer(w, v).scaled(rng.randint(10**5, 10**6))).rank()
            for _ in range(3)
        ]
        assert evals[0] == evals[1] == evals[2] == formula
    for _ in range(500):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], n)
        r = rng.randint(0, 6)
        pairs = [
            (
                Vec([rng.randint(-3, 3) for _ in range(n)]),
                Vec([rng.randint(-3, 3) for _ in range(m)]),
            )
            for _ in range(r)
        ]
        formula = generic_rank_sum(A, pairs)
        for _ in range(3):
            acc = A
            for v, w in pairs:
                acc = acc + outer(w, v).scaled(rng.randint(10**5, 10**6))
            assert acc.rank() == formula
    elapsed = time.monotonic() - start
    _report("criterion 6 (rank formulas x500 each)", elapsed, 120.0, "3 agreeing evaluations each")


def test_criterion_7_lgv():
    start = time.monotonic()
    # 100 random instances x 20 points each.
    for i in range(100):
        rng = random.Random(71000 + i)
        n = rng.randint(1, 6)
        r = rng.randint(0, 6)
        k = rng.randint(0, min(3, n))
        inst = LgvInstance(
            Mat([[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)], r),
            Mat([[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)], r),
            Mat([[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)], k),
            Mat([[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)], k),
        )
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 100:
            attempts += 1
            xs = [Fraction(rng.randint(-9, 9)) for _ in range(r)]
            try:
                lhs = lgv_lhs(inst, xs)
            except SingularityError:
                continue
            assert lhs == lgv_rhs(inst, xs)
            checked += 1
        assert checked == 20
    # acyclic instances: denominator identically 1 at sampled points
    for i in range(20):
        rng = random.Random(72000 + i)
        n = rng.randint(2, 6)
        edges = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4
        ]
        pairs = [(unit_vec(n, a), unit_vec(n, b)) for a, b in edges]
        k = rng.randint(1, 2)
        inst = LgvInstance(
            from_cols([p[0] for p in pairs], n)
            if pairs
            else Mat.zeros(n, 0),
            from_cols([p[1] for p in pairs], n)
            if pairs
            else Mat.zeros(n, 0),
            from_cols([unit_vec(n, rng.randrange(n)) for _ in range(k)], n),
            from_cols([unit_vec(n, rng.randrange(n)) for _ in range(k)], n),
        )
        xs = [Fraction(rng.randint(-9, 9)) for _ in range(len(pairs))]
        _, den = lgv_rhs_parts(inst, xs)
        assert den == 1
        lhs, rhs = lgv_acyclic(inst, xs)
        assert lhs == rhs
    # 50 weighted DAGs: determinant equals the signed disjoint-path sum.
    for i in range(50):
        rng = random.Random(73000 + i)
        n = rng.randint(2, 8)
        edges = []
        weights = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.35:
                    edges.append((a, b))
                    weights.append(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        G = Digraph(n, edges, weights)
        k = rng.randint(1, min(3, n))
        H = rng.sample(range(n), k)
        K = rng.sample(range(n), k)
        det_m, signed = classical_lgv(G, H, K)
        assert det_m == signed
    elapsed = time.monotonic() - start
    _report("criterion 7 (path determinants)", elapsed, 180.0, "100x20 points + 50 DAGs")


def test_criterion_8_matrix_theorems():
    start = time.monotonic()
    # 50 rank-one generated spaces at r = n-1: blow-up rank = r * cover size.
    for i in range(50):
        rng = random.Random(81000 + i)
        n = rng.randint(2, 4)
        R = _rand_relation(rng, n, n, rng.randint(1, 8))
        V = to_matrix_space(R)
        r = n - 1
        blown = max_rank_blowup(V, r, GenericSampler(seed=81500 + i))
        assert blown == r * matroid_intersection(R)[1].size
    # linorder algebras: matrix coherent decomposition size = r * antichain.
    for i in range(12):
        rng = random.Random(82000 + i)
        R, _ = rand_dual_basis_linorder(rng, rng.randint(2, 4))
        V = to_matrix_space(R)
        r = max(1, V.n - 1)
        sampler = GenericSampler(seed=82500 + i)
        cover, D = matrix_coherent_decomposition(V, r, sampler)
        assert D.size == r * cover.antichain().dim == r * (R.n - matroid_intersection(R)[1].size)
    # matricial and coherent path capacities agree on rank-one spaces.
    for i in range(20):
        rng = random.Random(83000 + i)
        n = rng.randint(2, 3)
        R = _rand_relation(rng, n, n, rng.randint(1, 4))
        V = to_matrix_space(R)
        E = Subspace.span(n, [_rand_vec(rng, n) for _ in range(rng.randint(0, 2))])
        F = Subspace.span(n, [_rand_vec(rng, n) for _ in range(rng.randint(0, 2))])
        a = mpc(V, E, F, routing_space(V, E, F), GenericSampler(seed=83500 + i))
        b = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=83700 + i))
        assert a.value == b.value
    elapsed = time.monotonic() - start
    _report(
        "criterion 8 (matrix theorems at r=n-1)",
        elapsed,
        300.0,
        "50 blow-ups + 12 algebras + 20 capacities",
    )


def test_criterion_9_structural_invariants():
    start = time.monotonic()
    rng = random.Random(91000)
    # orthocomplement involution + Grassmann
    for _ in range(50):
        n = rng.randint(1, 5)
        S = Subspace.span(n, [_rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        T = Subspace.span(n, [_rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        assert S.orthocomplement().orthocomplement() == S
        assert S.dim + S.orthocomplement().dim == n
        assert (
            S.dim + T.dim
            == subspace_sum(S, T).dim + subspace_intersection(S, T).dim
        )
    # Guttman rank additivity on sampled A with I - A invertible
    guttman_checked = 0
    for i in range(15):
        n = rng.randint(2, 4)
        R = _rand_relation(rng, n, n, rng.randint(1, 5))
        V = to_matrix_space(R)
        E = Subspace.span(n, [_rand_vec(rng, n)])
        F = Subspace.span(n, [_rand_vec(rng, n)])
        s = GenericSampler(seed=91500 + i)
        for _ in range(4):
            A = sample_element(V, s)
            inv = solve_exact(Mat.identity(n) - A, basis_matrix(E))
            if inv is None:
                continue
            schur = (basis_matrix(F).transpose() @ inv).rank()
            assert bordered_rank(A, E, F) == n + schur
            guttman_checked += 1
    assert guttman_checked >= 30
    # nilpotent truncation: (I - A)^{-1} = sum of the first n powers
    for i in range(10):
        R, _ = rand_dual_basis_linorder(rng, rng.randint(2, 4))
        V = to_matrix_space(R)
        n = V.n
        s = GenericSampler(seed=92000 + i)
        A = sample_element(V, s)
        inv = solve_exact(Mat.identity(n) - A, Mat.identity(n))
        geometric = Mat.zeros(n, n)
        power = Mat.identity(n)
        for _ in range(n):
            geometric = geometric + power
            power = power @ A
        assert inv == geometric
    # divisibility of blow-up ranks
    for i in range(10):
        n = rng.randint(2, 3)
        R = _rand_relation(rng, n, n, rng.randint(1, 4))
        V = to_matrix_space(R)
        for r in (1, 2, 3):
            assert max_rank_blowup(V, r, GenericSampler(seed=93000 + i)) % r == 0
    # double independence <=> full rank of the plain rank-one sum
    for i in range(30):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        R = _rand_relation(rng, n, m, rng.randint(1, 6))
        matching, cover = matroid_intersection(R)
        assert matching.rank_one_sum().rank() == cover.size
        # forced dependence drops the rank below the index count
        v, w = R.pairs[0]
        doubled = Relation(R.n, R.m, list(R.pairs) + [(v.scaled(2), w.scaled(3))])
        dep = Matching(doubled, (0, len(R.pairs)))
        assert dep.rank_one_sum().rank() < 2
    elapsed = time.monotonic() - start
    _report("criterion 9 (structural invariants)", elapsed, 60.0, "100% pass")

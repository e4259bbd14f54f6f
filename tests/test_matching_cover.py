"""Linear Hall/Konig: matchings, covers, defects, transversals."""

import random
from itertools import product

import pytest

from linminmax.errors import DimensionError
from linminmax.exact_linalg import Mat, Subspace, Vec, unit_vec
from linminmax.matching_cover import (
    Matching,
    matroid_intersection,
    rado_transversal,
)
from linminmax.menger import mpc
from linminmax.relation import (
    GenericSampler,
    Relation,
    apply_space,
    routing_space,
    sample_element,
)
from linminmax.verify import verify_cover, verify_matching, verify_rado_report, verify_separator
from conftest import planted_rado_family, rand_relation, rand_vec, vec
from reference import (
    BipartiteGraph,
    bipartite_max_matching,
    hall_check,
    lovasz_max_rank,
    to_matrix_space,
)


def embed_bipartite(g: BipartiteGraph) -> Relation:
    return Relation(
        g.n, g.m, [(unit_vec(g.n, i), unit_vec(g.m, j)) for i, j in g.edges]
    )


def unrestricted_min_cover(R: Relation) -> int:
    """Brute-force oracle: all pairs of index subsets, no domination shortcut."""
    r = len(R.pairs)
    spans_v = {}
    spans_w = {}
    for mask in range(1 << r):
        idx = [i for i in range(r) if mask >> i & 1]
        spans_v[mask] = Subspace.span(R.n, [R.pairs[i][0] for i in idx])
        spans_w[mask] = Subspace.span(R.m, [R.pairs[i][1] for i in idx])
    v_member = {}
    w_member = {}
    for mask in range(1 << r):
        v_member[mask] = sum(
            1 << k for k in range(r) if spans_v[mask].contains(R.pairs[k][0])
        )
        w_member[mask] = sum(
            1 << k for k in range(r) if spans_w[mask].contains(R.pairs[k][1])
        )
    full = (1 << r) - 1
    best = R.n + R.m
    for ma in range(1 << r):
        for mb in range(1 << r):
            if v_member[ma] | w_member[mb] == full:
                best = min(best, spans_v[ma].dim + spans_w[mb].dim)
    return best


def test_max_matching_examples():
    diag = Relation(3, 3, [(unit_vec(3, i), unit_vec(3, i)) for i in range(3)])
    matching, cover = matroid_intersection(diag)
    assert matching.size == cover.size == 3

    e = lambda i: unit_vec(4, i)
    shared = Relation(4, 4, [(e(0), e(1)), (e(0), e(2)), (e(0), e(3))])
    matching, cover = matroid_intersection(shared)
    assert cover.size == 1
    assert verify_matching(shared, matching) and verify_cover(shared, cover)


def test_max_matching_agrees_with_classical(rng):
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        g_edges = [(i, j) for i in range(n) for j in range(m) if rng.random() < 0.4]
        g = BipartiteGraph(n, m, g_edges)
        size, _, _ = bipartite_max_matching(g)
        assert matroid_intersection(embed_bipartite(g))[1].size == size


def test_min_cover_examples():
    empty = Relation(3, 4, [])
    assert matroid_intersection(empty)[1].size == 0
    single = Relation(2, 2, [(vec(1, 1), vec(1, -1))])
    assert matroid_intersection(single)[1].size == 1


def test_min_cover_matches_unrestricted_oracle(rng):
    for _ in range(12):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        R = rand_relation(rng, n, m, rng.randint(1, 7))
        cover = matroid_intersection(R)[1]
        assert verify_cover(R, cover)
        assert cover.size == unrestricted_min_cover(R)


def test_separator_beyond_the_old_subset_budget():
    """25 independent pairs: more than any subset enumeration took."""
    rng = random.Random(1)
    R = rand_relation(rng, 5, 5, 25)
    assert to_matrix_space(R).dim == 25
    E = Subspace.span(5, [unit_vec(5, 0)])
    F = Subspace.span(5, [unit_vec(5, 4)])
    cv = mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=10))
    assert cv.value == cv.dual.size
    assert verify_separator(R, E, F, cv.dual)
    # the pairs span all of M_5, so one path gets from E to F
    assert cv.value == cv.dual.size == 1


def test_max_matching_on_large_graphs():
    """Graph sizes far beyond any subset enumeration."""
    rng = random.Random(5)
    for _ in range(6):
        n, m = rng.randint(12, 20), rng.randint(12, 20)
        cells = [(i, j) for i in range(n) for j in range(m)]
        g = BipartiteGraph(n, m, sorted(rng.sample(cells, rng.randint(50, 150))))
        size, _, _ = bipartite_max_matching(g)
        R = embed_bipartite(g)
        matching, cover = matroid_intersection(R)
        assert matching.size == cover.size == size
        assert verify_matching(R, matching) and verify_cover(R, cover)


def low_rank_relation(rng, n, m):
    """Pairs drawn from low-dimensional spans, with zeros and repeats."""
    vs = [rand_vec(rng, n) for _ in range(rng.randint(1, n))]
    ws = [rand_vec(rng, m) for _ in range(rng.randint(1, m))]
    pairs = []
    for _ in range(rng.randint(1, 12)):
        v = sum((b.scaled(rng.randint(-2, 2)) for b in vs), Vec([0] * n))
        w = sum((b.scaled(rng.randint(-2, 2)) for b in ws), Vec([0] * m))
        pairs.append((v, w))
        if rng.random() < 0.2:
            pairs.append((v.scaled(rng.choice([1, -2])), w))
    return Relation(n, m, pairs)


def test_low_rank_primal_equals_dual(rng):
    for _ in range(60):
        R = low_rank_relation(rng, rng.randint(1, 6), rng.randint(1, 6))
        matching, cover = matroid_intersection(R)
        assert verify_matching(R, matching) and verify_cover(R, cover)
        assert matching.size == cover.size
        if len(R.pairs) <= 6:
            assert cover.size == unrestricted_min_cover(R)


def test_weak_duality(rng):
    for _ in range(20):
        R = rand_relation(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 6))
        matching, cover = matroid_intersection(R)
        # any sub-matching vs any subset-generated cover
        indices = list(matching.indices)
        sub = Matching(R, tuple(indices[: len(indices) // 2]))
        assert verify_matching(R, sub)
        assert sub.size <= cover.size


def test_prop_lafact_both_directions(rng):
    for _ in range(25):
        R = rand_relation(rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 6))
        m = matroid_intersection(R)[0]
        assert m.rank_one_sum().rank() == m.size
        # random index multisets with forced dependence lose rank
        r = len(R.pairs)
        if r >= 2:
            v, w = R.pairs[0]
            doubled = Relation(R.n, R.m, list(R.pairs) + [(v.scaled(3), w)])
            dep = Matching(doubled, (0, r))
            dep_sum = dep.rank_one_sum()
            assert dep_sum.rank() < 2 or not verify_matching(doubled, dep)


def test_the_minimum_cover_is_exact(rng):
    """F = N(U) for the cover of every run, so U is a shrunk subspace of defect n - |cover|.

    Among the relations: zero vectors, repeated pairs, unsaturated ones, no pairs, and n = 0.
    """
    relations = [Relation(0, 2, []), Relation(0, 0, []), Relation(3, 3, []), Relation(2, 3, [])]
    for _ in range(45):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        pairs = [(rand_vec(rng, n, 1), rand_vec(rng, m, 1)) for _ in range(rng.randint(1, 5))]
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))
        relations.append(Relation(n, m, pairs))
    unsaturated = 0
    for R in relations:
        cover = matroid_intersection(R)[1]
        S = cover.U
        assert cover.F == apply_space(R, S)
        assert S.dim - cover.F.dim == R.n - cover.size
        unsaturated += cover.size < R.n
    assert unsaturated >= 20


def test_a_spanning_matching_gives_the_full_space_without_a_span(monkeypatch):
    """When the matching's v's span F^n, U is 0 by its size alone, and F = 0."""
    spans = []
    span = Subspace.span

    def counting(ambient, vectors):
        vectors = list(vectors)
        spans.append((ambient, len(vectors)))
        return span(ambient, vectors)

    monkeypatch.setattr(Subspace, "span", staticmethod(counting))
    rng = random.Random(71)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(5, 7)
        pairs = [(rand_vec(rng, n), rand_vec(rng, m)) for _ in range(rng.randint(n, 8))]
        pairs += [(unit_vec(n, i), rand_vec(rng, m, nonzero=True)) for i in range(n)]
        R = Relation(n, m, rng.sample(pairs, len(pairs)))
        spans.clear()
        matching, cover = matroid_intersection(R)
        assert matching.size == n
        assert cover.U == Subspace.zero(n) and cover.F == Subspace.zero(m)
        assert all(ambient == m for ambient, _ in spans), spans  # F alone, never U
        assert verify_cover(R, cover)


def test_deficient_covers_are_spanned_by_the_matching(rng):
    """Deficient relations with zero v's, zero w's and repeated pairs: the cover verifies, at the matching's size."""
    checked = 0
    for _ in range(40):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        k = rng.randint(0, min(n, m) - 1)  # every w in a k-space, so no matching saturates F^n
        basis = [rand_vec(rng, m) for _ in range(k)]

        def low_w():
            return sum((b.scaled(rng.randint(-2, 2)) for b in basis), Vec([0] * m))

        pairs = [(rand_vec(rng, n, nonzero=True), low_w()) for _ in range(rng.randint(1, 6))]
        pairs += [(Vec([0] * n), rand_vec(rng, m)), (rand_vec(rng, n), Vec([0] * m))]
        pairs += rng.sample(pairs, rng.randint(1, len(pairs)))
        R = Relation(n, m, rng.sample(pairs, len(pairs)))
        matching, cover = matroid_intersection(R)
        assert matching.size < n
        assert verify_matching(R, matching) and verify_cover(R, cover)
        assert cover.size == matching.size
        if len(R) <= 7:
            assert cover.size == unrestricted_min_cover(R)
        checked += cover.F.dim > 0
    assert checked >= 10


def test_saturated_matching_examples():
    diag = Relation(3, 3, [(unit_vec(3, i), unit_vec(3, i)) for i in range(3)])
    assert matroid_intersection(diag)[0].size == 3

    e = lambda i: unit_vec(4, i)
    shared = Relation(4, 4, [(e(0), e(1)), (e(0), e(2)), (e(0), e(3))])
    matching, witness = matroid_intersection(shared)
    assert matching.size < shared.n and verify_cover(shared, witness)
    S = witness.U
    assert S.dim > witness.F.dim
    assert S.contains(e(1))


def test_saturated_matching_matches_hall(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(n, 6)
        edges = [(i, j) for i in range(n) for j in range(m) if rng.random() < 0.45]
        g = BipartiteGraph(n, m, edges)
        ok, _ = hall_check(g)
        assert ok == (matroid_intersection(embed_bipartite(g))[0].size == n)


def test_defect_matching(rng):
    """Defect Hall on one run: a matching of size n - d, or a shrunk subspace of defect more than d."""
    e = lambda i: unit_vec(4, i)
    shared = Relation(4, 4, [(e(0), e(1)), (e(0), e(2)), (e(0), e(3))])
    diag = Relation(3, 3, [(unit_vec(3, i), unit_vec(3, i)) for i in range(3)])
    # a matching of size 1 = n - 3 in `shared`, and of size 3 = n - 0 in `diag`
    assert matroid_intersection(shared)[1].size == 1 and matroid_intersection(diag)[1].size == 3

    relations = [shared, diag]
    for _ in range(15):
        relations.append(rand_relation(rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 5)))
    for R in relations:
        matching, cover = matroid_intersection(R)
        for d in range(R.n + 1):
            if cover.size >= R.n - d:
                prefix = Matching(R, matching.indices[: R.n - d])
                assert prefix.size == R.n - d and verify_matching(R, prefix)
            else:
                # too-small defect yields a witness
                assert verify_cover(R, cover)
                assert cover.U.dim - cover.F.dim > d


def test_extract_matching(rng):
    """Each prefix of a maximum matching is a matching whose rank-one sum has its size as rank."""
    diag = Relation(3, 3, [(unit_vec(3, i), unit_vec(3, i)) for i in range(3)])
    assert sorted(matroid_intersection(diag)[0].indices) == [0, 1, 2]
    for _ in range(15):
        R = rand_relation(rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 6))
        matching = matroid_intersection(R)[0]
        assert matching.size == matroid_intersection(R)[1].size
        for target in range(matching.size + 1):
            m = Matching(R, matching.indices[:target])
            assert verify_matching(R, m)
            assert m.rank_one_sum().rank() == target


def test_lovasz_max_rank(rng):
    cv = lovasz_max_rank(Relation(2, 2, [(unit_vec(2, 0), unit_vec(2, 0))]))
    assert cv.value == 1

    e = lambda i: unit_vec(4, i)
    shared = Relation(4, 4, [(e(0), e(1)), (e(0), e(2)), (e(0), e(3))])
    cv = lovasz_max_rank(shared)
    assert cv.value == 1
    assert cv.dual.U == Subspace.span(4, [e(1), e(2), e(3)])
    assert shared.n - cv.dual.size == 3

    for _ in range(10):
        R = rand_relation(rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 6))
        V = to_matrix_space(R)
        cv = lovasz_max_rank(R)
        s = GenericSampler(seed=7)
        sampled = max(sample_element(V, s).rank() for _ in range(50))
        assert cv.value == sampled
        assert cv.primal.rank() == cv.value


def exhaustive_transversal(sets, m):
    """Brute-force oracle for independent representatives."""
    for choice in product(*[range(len(s)) for s in sets]):
        picks = [sets[i][k] for i, k in enumerate(choice)]
        if Subspace.span(m, picks).dim == len(sets):
            return picks
    return None


def test_rado_examples():
    e = lambda i: unit_vec(3, i)
    tr, wit = rado_transversal([[e(0)], [e(1)], [e(2)]], 3)
    assert wit is None and tr == [e(0), e(1), e(2)]

    tr, wit = rado_transversal([[unit_vec(2, 0)], [unit_vec(2, 0)]], 2)
    assert tr is None and wit == [0, 1]

    for sets, m in (([], 3), ([[e(0)], [e(1)], [e(2)]], 2)):  # no sets, or more sets than m
        with pytest.raises(DimensionError):
            rado_transversal(sets, m)


def test_rado_agrees_with_exhaustive(rng):
    for _ in range(20):
        m = rng.randint(2, 4)
        n = rng.randint(1, min(3, m))
        sets = [
            [rand_vec(rng, m, nonzero=True) for _ in range(rng.randint(1, 3))]
            for _ in range(n)
        ]
        tr, wit = rado_transversal(sets, m)
        oracle = exhaustive_transversal(sets, m)
        if oracle is None:
            assert tr is None
            union = Subspace.span(m, [v for i in wit for v in sets[i]])
            assert union.dim < len(wit)
        else:
            assert tr is not None
            assert Subspace.span(m, tr).dim == n
            for i, v in enumerate(tr):
                assert v in sets[i]


def test_rado_finds_the_planted_plane(rng):
    """Three sets inside one plane: the violating family verifies, and its union is deficient."""
    for _ in range(30):
        m = rng.randint(3, 8)
        n = rng.randint(3, m)
        sets = planted_rado_family(rng, n, m)
        tr, wit = rado_transversal(sets, m)
        assert tr is None and verify_rado_report(sets, m, None, wit)
        assert Subspace.span(m, [v for i in wit for v in sets[i]]).dim < len(wit)


def test_konig_prints_the_complement_of_the_shrunk_subspace(rng):
    """On deficient relations, the E that `check konig` prints is U^perp, and the check exits 0."""
    from linminmax.cli import EXIT_PROVED, RunConfig, check_konig, gen_relation

    for seed in range(30):
        n = rng.randint(2, 6)
        data = gen_relation(random.Random(seed), n, rng.randint(1, 6), rng.randint(1, n - 1))
        cover = matroid_intersection(Relation.from_json(data))[1]
        report, code = check_konig(data, RunConfig(seed))
        assert code == EXIT_PROVED and cover.size < n
        assert report["cover"] == {"E": cover.U.orthocomplement().to_json(), "F": cover.F.to_json()}


def test_a_matching_of_size_n_takes_no_kernel(monkeypatch):
    """A saturating matching leaves U = 0 with no elimination; `konig` and `hall` then take no kernel."""
    from linminmax.cli import EXIT_PROVED, RunConfig, check_hall, check_konig

    def refused(self):
        raise AssertionError("kernel taken")

    monkeypatch.setattr(Mat, "kernel", refused)
    rng = random.Random(73)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(5, 7)
        pairs = [(rand_vec(rng, n), rand_vec(rng, m)) for _ in range(rng.randint(0, 6))]
        pairs += [(unit_vec(n, i), unit_vec(m, i)) for i in range(n)]
        R = Relation(n, m, rng.sample(pairs, len(pairs)))
        matching, cover = matroid_intersection(R)
        assert matching.size == n and cover.U == Subspace.zero(n)
        for check in (check_konig, check_hall):
            assert check(R.to_json(), RunConfig())[1] == EXIT_PROVED

"""The path-determinant identity, its acyclic form, and the classical case."""

import random
from dataclasses import fields
from fractions import Fraction
from itertools import chain, combinations

import pytest

from linminmax.errors import SingularityError
from linminmax.exact_linalg import Mat, Vec, hstack, solve_exact, unit_vec
from linminmax.lgv import (
    LgvInstance,
    lgv_acyclic,
    lgv_lhs,
    lgv_rhs,
    lgv_rhs_parts,
)
from linminmax.relation import Relation
from conftest import diag, dot, gs_matrix, rand_mat, rand_vec, submatrix, vec
from reference import Digraph, classical_lgv, instance_from_relation, pair_digraph_has_cycle


def rand_instance(rng, n=None, r=None, k=None) -> LgvInstance:
    n = n if n is not None else rng.randint(1, 5)
    r = r if r is not None else rng.randint(0, 5)
    k = k if k is not None else rng.randint(0, min(3, n))
    return LgvInstance(
        rand_mat(rng, n, r, 2),
        rand_mat(rng, n, r, 2),
        rand_mat(rng, n, k, 2),
        rand_mat(rng, n, k, 2),
    )


def test_lhs_rhs_trivial_points(rng):
    inst = rand_instance(rng, n=4, r=3, k=2)
    zero = [Fraction(0)] * 3
    expected = (inst.B.transpose() @ inst.A).det()
    assert lgv_lhs(inst, zero) == expected
    assert lgv_rhs(inst, zero) == expected

    inst0 = rand_instance(rng, n=3, r=0, k=2)
    assert lgv_lhs(inst0, []) == (inst0.B.transpose() @ inst0.A).det()

    instk0 = rand_instance(rng, n=3, r=2, k=0)
    assert lgv_lhs(instk0, [Fraction(1), Fraction(1)]) == 1
    assert lgv_rhs(instk0, [Fraction(1), Fraction(1)]) == 1


def test_identity_random_points(rng):
    checked = 0
    for _ in range(25):
        inst = rand_instance(rng)
        for _ in range(6):
            xs = [Fraction(rng.randint(-4, 4)) for _ in range(inst.r)]
            try:
                lhs = lgv_lhs(inst, xs)
            except SingularityError:
                with pytest.raises(SingularityError):
                    lgv_rhs(inst, xs)
                continue
            assert lhs == lgv_rhs(inst, xs)
            checked += 1
    assert checked >= 60


def test_principal_minor_expansion(rng):
    # denominator sum equals det(I_r - X V^T W) directly
    for _ in range(20):
        inst = rand_instance(rng)
        xs = [Fraction(rng.randint(-3, 3)) for _ in range(inst.r)]
        _, den = lgv_rhs_parts(inst, xs)
        direct = (
            Mat.identity(inst.r)
            - diag(xs) @ inst.V.transpose() @ inst.W
        ).det()
        assert den == direct


def test_gs_matrix_shape(rng):
    inst = rand_instance(rng, n=4, r=4, k=2)
    g = gs_matrix(inst, [0, 2])
    assert (g.rows, g.cols) == (4, 4)


def acyclic(R: Relation) -> bool:
    """`LgvInstance.acyclic` of the pairs of R, with no sources or sinks."""
    return instance_from_relation(R, [], []).acyclic


def test_acyclicity():
    e = [unit_vec(3, i) for i in range(3)]
    dag = Relation(3, 3, [(e[0], e[1]), (e[1], e[2]), (e[0], e[2])])
    assert acyclic(dag)
    loop = Relation(1, 1, [(vec(1), vec(1))])
    assert not acyclic(loop)
    cycle = Relation(2, 2, [(e2 := unit_vec(2, 0), unit_vec(2, 1)), (unit_vec(2, 1), e2)])
    assert not acyclic(cycle)


def _rand_pair_relation(rng, n, trial) -> Relation:
    """Sparse random pairs (zero vectors, loops, 2-cycles) or a digraph's encoding.

    The encodings put the pair (e_i, e_j) on each edge of a random DAG,
    sometimes with one back edge or loop, in the standard basis or through
    a random dual basis pair (rows of M and columns of M^-1).
    """
    if trial % 3 == 0:
        pairs = [(rand_vec(rng, n, 1), rand_vec(rng, n, 1)) for _ in range(rng.randint(0, 5))]
        return Relation(n, n, pairs)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    if rng.random() < 0.3:
        i, j = sorted((rng.randrange(n), rng.randrange(n)))
        edges.append((j, i))
    if trial % 3 == 1:
        return Relation(n, n, [(unit_vec(n, i), unit_vec(n, j)) for i, j in edges])
    while (m := rand_mat(rng, n, n, 2)).det() == 0:
        pass
    inv = solve_exact(m, Mat.identity(n))
    return Relation(n, n, [(m.row(i), inv.col(j)) for i, j in edges])


def test_is_acyclic_is_a_pair_digraph_without_a_cycle(rng):
    """V_R^n = 0 exactly when the pair digraph has no cycle; then the denominator is 1."""
    outcomes = {True: 0, False: 0}
    e0, e1 = unit_vec(2, 0), unit_vec(2, 1)
    fixed = [
        Relation(2, 2, [(e0, e0)]),
        Relation(2, 2, [(e0, e1), (e1, e0)]),
        Relation(2, 2, [(vec(0, 0), e0), (e0, vec(0, 0)), (e0, e1)]),
    ]
    randoms = (_rand_pair_relation(rng, rng.randint(1, 4), trial) for trial in range(150))
    for R in chain(fixed, randoms):
        inst = instance_from_relation(R, [unit_vec(R.n, 0)], [unit_vec(R.n, R.n - 1)])
        assert inst.acyclic == (not pair_digraph_has_cycle(R)), R.to_json()
        outcomes[inst.acyclic] += 1
        if inst.acyclic:
            for _ in range(3):
                xs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(inst.r)]
                assert lgv_rhs_parts(inst, xs)[1] == 1, (R.to_json(), xs)
    assert min(outcomes.values()) >= 40, outcomes


def _rand_rational(rng) -> Fraction:
    return Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))


def _sparse_vec(rng, n) -> Vec:
    return Vec([_rand_rational(rng) if rng.random() < 0.35 else 0 for _ in range(n)])


def _rand_cyclic_digraph(rng, n):
    """A random DAG on n vertices plus one loop, 2-cycle or chorded cycle, or nothing more."""
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    extra = rng.choice(["dag", "loop", "2-cycle", "cycle"])
    if extra == "loop":
        edges.add((i := rng.randrange(n), i))
    elif extra == "2-cycle" and n >= 2:
        i, j = rng.sample(range(n), 2)
        edges |= {(i, j), (j, i)}
    elif extra == "cycle" and n >= 3:
        cycle = rng.sample(range(n), rng.randint(3, n))
        edges |= set(zip(cycle, cycle[1:] + cycle[:1]))
        edges |= {(a, b) for a in cycle for b in cycle if a != b and rng.random() < 0.3}  # chords
    return sorted(edges)


def test_acyclic_matches_the_pair_digraph_cycle_search():
    """`LgvInstance.acyclic`, read off the minor table, is "the pair digraph has no cycle".

    Sparse rational pairs with zero v or w vectors, and digraphs with
    loops, 2-cycles and chorded cycles in the standard basis or a scaled
    random dual basis pair; n = 0 and r = 0 too.
    """
    rng = random.Random(89)
    relations = [Relation(0, 0, []), Relation(0, 0, [(vec(), vec())] * 2), Relation(3, 3, [])]
    for trial in range(360):
        n = rng.randint(1, 5)
        if trial % 3 == 0:
            pairs = [(_sparse_vec(rng, n), _sparse_vec(rng, n)) for _ in range(rng.randint(0, 6))]
            relations.append(Relation(n, n, pairs))
            continue
        edges = _rand_cyclic_digraph(rng, n)[:6]
        if trial % 3 == 1:
            relations.append(Relation(n, n, [(unit_vec(n, i), unit_vec(n, j)) for i, j in edges]))
            continue
        while (m := rand_mat(rng, n, n, 2)).det() == 0:
            pass
        inv = solve_exact(m, Mat.identity(n))
        scales = [(_rand_rational(rng), _rand_rational(rng)) for _ in edges]
        pairs = [(m.row(i).scaled(a), inv.col(j).scaled(b)) for (i, j), (a, b) in zip(edges, scales)]
        relations.append(Relation(n, n, pairs))
    outcomes = {True: 0, False: 0}
    for R in relations:
        verdict = acyclic(R)
        assert verdict == (not pair_digraph_has_cycle(R)), R.to_json()
        outcomes[verdict] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_acyclic_identity_and_denominator(rng):
    for _ in range(12):
        n = rng.randint(2, 5)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        pairs = [(unit_vec(n, i), unit_vec(n, j)) for i, j in edges]
        R = Relation(n, n, pairs)
        k = rng.randint(1, 2)
        sources = [unit_vec(n, rng.randrange(n)) for _ in range(k)]
        sinks = [unit_vec(n, rng.randrange(n)) for _ in range(k)]
        inst = instance_from_relation(R, sources, sinks)
        assert inst.acyclic
        xs = [Fraction(rng.randint(-4, 4)) for _ in range(inst.r)]
        lhs, rhs = lgv_acyclic(inst, xs)
        assert lhs == rhs
        assert lhs == lgv_rhs(inst, xs)

    with pytest.raises(ValueError):
        lgv_acyclic(
            instance_from_relation(
                Relation(1, 1, [(vec(1), vec(1))]), [vec(1)], [vec(1)]
            ),
            [Fraction(1)],
        )


def test_grid_dag_counts_paths():
    # two-route diamond: 0 -> {1,2} -> 3
    G = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    det_m, signed = classical_lgv(G, [0], [3])
    assert det_m == 2 == signed

    pairs = [(unit_vec(4, i), unit_vec(4, j)) for i, j in G.edges]
    inst = instance_from_relation(
        Relation(4, 4, pairs), [unit_vec(4, 0)], [unit_vec(4, 3)]
    )
    lhs, _ = lgv_acyclic(inst, [Fraction(1)] * 4)
    assert lhs == 2


def test_classical_examples():
    single = Digraph(3, [(0, 1), (1, 2)])
    det_m, signed = classical_lgv(single, [0], [2])
    assert det_m == 1 == signed

    crossing_free = Digraph(4, [(0, 2), (1, 3)], [Fraction(2), Fraction(3)])
    det_m, signed = classical_lgv(crossing_free, [0, 1], [2, 3])
    assert det_m == 6 == signed

    with pytest.raises(ValueError):
        classical_lgv(Digraph(2, [(0, 1), (1, 0)]), [0], [1])


def test_classical_random_dags(rng):
    for _ in range(15):
        n = rng.randint(2, 7)
        edges = []
        weights = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.append((i, j))
                    weights.append(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
        G = Digraph(n, edges, weights)
        k = rng.randint(1, min(3, n))
        H = rng.sample(range(n), k)
        K = rng.sample(range(n), k)
        det_m, signed = classical_lgv(G, H, K)
        assert det_m == signed


def test_classical_agrees_with_linear_encoding(rng):
    for _ in range(10):
        n = rng.randint(2, 5)
        edges = []
        weights = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((i, j))
                    weights.append(Fraction(rng.randint(1, 4)))
        G = Digraph(n, edges, weights)
        k = rng.randint(1, min(2, n))
        H = rng.sample(range(n), k)
        K = rng.sample(range(n), k)
        det_m, signed = classical_lgv(G, H, K)
        pairs = [(unit_vec(n, i), unit_vec(n, j)) for i, j in edges]
        inst = instance_from_relation(
            Relation(n, n, pairs),
            [unit_vec(n, h) for h in H],
            [unit_vec(n, s) for s in K],
        )
        lhs, rhs = lgv_acyclic(inst, weights)
        assert lhs == det_m == rhs


def test_json_round_trip(rng):
    inst = rand_instance(rng, n=3, r=2, k=1)
    assert LgvInstance.from_json(inst.to_json()) == inst


def test_cached_tables_leave_fields_equality_and_json(rng):
    inst = rand_instance(rng, n=3, r=2, k=1)
    fresh = LgvInstance.from_json(inst.to_json())
    inst.minors, inst.acyclic  # fill both caches
    assert [f.name for f in fields(inst)] == ["V", "W", "A", "B"]
    assert inst == fresh and hash(inst) == hash(fresh)
    assert inst.to_json() == fresh.to_json()


def test_acyclic_identity_failures_are_invariant_violations(monkeypatch):
    from linminmax import lgv
    from linminmax.errors import InvariantViolation

    G = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    pairs = [(unit_vec(4, i), unit_vec(4, j)) for i, j in G.edges]
    inst = instance_from_relation(Relation(4, 4, pairs), [unit_vec(4, 0)], [unit_vec(4, 3)])
    xs = [Fraction(1)] * 4
    true_parts = lgv.lgv_rhs_parts(inst, xs)
    for parts in [(true_parts[0], Fraction(2)), (true_parts[0] + 1, Fraction(1))]:
        monkeypatch.setattr(lgv, "lgv_rhs_parts", lambda inst, xs, parts=parts: parts)
        with pytest.raises(InvariantViolation):
            lgv_acyclic(inst, xs)


# ---------------------------------------------------------------------------
# the point-free minor table against the per-point Fraction expansion


def ref_rhs_parts(inst, xs):
    """sum_S (-1)^|S| x_S det G_S and sum_S (-1)^|S| x_S det (V^T W)_S."""
    table = hstack([inst.V, inst.B]).transpose() @ hstack([inst.W, inst.A])
    num = Fraction(0)
    den = Fraction(0)
    for size in range(inst.r + 1):
        for S in combinations(range(inst.r), size):
            x_s = Fraction((-1) ** size)
            for i in S:
                x_s *= xs[i]
            num += x_s * gs_matrix(inst, S).det()
            den += x_s * submatrix(table, S, S).det()
    return num, den


def rand_rational(rng, bound=4):
    return Fraction(rng.randint(-bound, bound), rng.choice([1, 1, 2, 3, 5, 6]))


def rand_rational_instance(rng, n, r, k) -> LgvInstance:
    def block(cols):
        return Mat([[rand_rational(rng, 2) for _ in range(cols)] for _ in range(n)], cols)

    return LgvInstance(block(r), block(r), block(k), block(k))


def test_rhs_parts_match_per_point_reference():
    rng = random.Random(61)
    shapes = [(3, 0, 2), (3, 2, 0), (1, 0, 0), (4, 4, 2), (2, 3, 1), (5, 5, 3)]
    shapes += [(rng.randint(1, 5), rng.randint(0, 5), rng.randint(0, 3)) for _ in range(24)]
    seen_zero = 0
    for n, r, k in shapes:
        inst = rand_rational_instance(rng, n, r, k)
        for _ in range(8):
            xs = [rand_rational(rng) if rng.random() > 0.25 else Fraction(0) for _ in range(r)]
            seen_zero += 0 in xs
            assert lgv_rhs_parts(inst, xs) == ref_rhs_parts(inst, xs)
    assert seen_zero > 20


# ---------------------------------------------------------------------------
# the bordered integer determinant against the Fraction solve


def ref_lhs(inst, xs):
    """det(B^T (I - W X V^T)^{-1} A) by a Fraction solve of (I - W X V^T) Y = A."""
    m = Mat.identity(inst.n) - inst.W @ diag(xs) @ inst.V.transpose()
    solved = solve_exact(m, inst.A)
    if solved is None:
        raise SingularityError("I - W X V^T is singular at this point")
    return (inst.B.transpose() @ solved).det()


def _singular_point(inst, rng):
    """A point where I - W X V^T is singular, or None: x_i = 1 / (v_i . w_i), the rest 0."""
    pairs = [i for i in range(inst.r) if dot(inst.V.col(i), inst.W.col(i))]
    if not pairs:
        return None
    i = rng.choice(pairs)
    xs = [Fraction(0)] * inst.r
    xs[i] = 1 / dot(inst.V.col(i), inst.W.col(i))
    return xs


def test_lhs_matches_the_fraction_solve():
    """Seeded rational instances, with k = 0, r = 0 and n = 0, and singular points."""
    rng = random.Random(73)
    shapes = [(0, 0, 0), (0, 3, 0), (0, 2, 2), (3, 0, 2), (3, 2, 0), (1, 1, 1), (5, 5, 3)]
    shapes += [(rng.randint(1, 6), rng.randint(0, 6), rng.randint(0, 3)) for _ in range(40)]
    checked = singular = 0
    for n, r, k in shapes:
        inst = rand_rational_instance(rng, n, r, k)
        points = [[rand_rational(rng) for _ in range(r)] for _ in range(6)]
        points.append([rng.randint(-9, 9) for _ in range(r)])
        points.append(_singular_point(inst, rng))
        for xs in (p for p in points if p is not None):
            try:
                expected = ref_lhs(inst, xs)
            except SingularityError:
                with pytest.raises(SingularityError):
                    lgv_lhs(inst, xs)
                singular += 1
                continue
            assert lgv_lhs(inst, xs) == expected, (inst.to_json(), xs)
            checked += 1
    assert checked >= 250 and singular >= 30


def test_subset_minors_once_per_instance(monkeypatch):
    from linminmax import lgv

    rng = random.Random(67)
    calls = []
    original = lgv.det_bareiss

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(lgv, "det_bareiss", counting)
    for n, r, k in [(4, 4, 2), (3, 0, 2), (3, 3, 0)]:
        inst = rand_rational_instance(rng, n, r, k)
        calls.clear()
        for _ in range(10):
            lgv_rhs_parts(inst, [rand_rational(rng) for _ in range(r)])
        assert len(calls) == 2 * 2**r


def test_rhs_parts_build_no_fraction_per_subset(monkeypatch):
    rng = random.Random(71)
    inst = rand_rational_instance(rng, 5, 6, 2)
    points = [[rand_rational(rng) for _ in range(inst.r)] for _ in range(5)]
    expected = [ref_rhs_parts(inst, xs) for xs in points]
    inst.minors  # the table is built once, before counting

    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for xs, parts in zip(points, expected):
        made.clear()
        got = lgv_rhs_parts(inst, xs)
        # one per coordinate and one per side: none of the 2^r subsets
        assert len(made) <= inst.r + 2 < 2**inst.r
        assert got == parts
    Fraction(1, 3)  # the counter is live
    assert made

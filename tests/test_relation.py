"""Relations, induced matrix spaces, and the finiteness reduction."""

import json
from fractions import Fraction
from itertools import product

import pytest

from linminmax import relation
from linminmax.errors import CertificationError, DimensionError
from linminmax.exact_linalg import IntEchelon, Mat, Subspace, Vec, unit_vec
from linminmax.lgv import LgvInstance
from linminmax.relation import (
    GenericSampler,
    MatrixSpace,
    Relation,
    apply_space,
    best_sample,
    is_nilpotent_algebra,
    routing_space,
    sample_element,
)
from conftest import (
    as_lists,
    blow_up,
    diag,
    rand_mat,
    rand_relation,
    rand_subspace,
    rand_vec,
    reduced_indices,
    vec,
)
from reference import (
    dense_routing_space,
    instance_from_relation,
    outer,
    ref_nilpotent_algebra,
    ref_power_dims,
    space_contains,
    spanned,
    to_matrix_space,
)


def spans_same(space_a, space_b):
    if (space_a.m, space_a.n) != (space_b.m, space_b.n):
        return False
    width = space_a.m * space_a.n
    ech = IntEchelon(width)
    for b in space_a.basis:
        ech.add(b.int_flat())
    if not all(
        ech.contains(b.int_flat()) for b in space_b.basis
    ):
        return False
    ech2 = IntEchelon(width)
    for b in space_b.basis:
        ech2.add(b.int_flat())
    return all(
        ech2.contains(b.int_flat()) for b in space_a.basis
    )


def test_to_matrix_space_examples():
    e = lambda i: unit_vec(2, i)
    R = Relation(2, 2, [(e(0), e(0))])
    V = to_matrix_space(R)
    assert V.basis == (Mat([[1, 0], [0, 0]]),)

    dup = Relation(2, 2, [(e(0), e(0)), (e(0).scaled(2), e(0).scaled(2))])
    assert to_matrix_space(dup).dim == 1
    assert len(reduced_indices(dup)) == 1


def test_to_matrix_space_random_span(rng):
    for _ in range(10):
        n, m = rng.randint(2, 3), rng.randint(2, 3)
        R = rand_relation(rng, n, m, n * m + 5)
        V = to_matrix_space(R)
        assert V.dim <= n * m
        full = MatrixSpace(m, n, V.basis)
        for v, w in R.pairs:
            assert space_contains(full, outer(w, v))


def test_reduce_relation_preserves_neighborhoods(rng):
    for _ in range(8):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        R = rand_relation(rng, n, m, 10)
        small = Relation(n, m, [R.pairs[i] for i in reduced_indices(R)])
        assert len(small.pairs) <= n * m
        assert spans_same(to_matrix_space(R), to_matrix_space(small))
        for _ in range(20):
            E = rand_subspace(rng, n)
            assert apply_space(to_matrix_space(R), E) == apply_space(
                to_matrix_space(small), E
            )


def test_reduce_keeps_index_order():
    e = lambda i: unit_vec(3, i)
    R = Relation(3, 3, [(e(0), e(1)), (e(1), e(2)), (e(2), e(0))])
    assert reduced_indices(R) == [0, 1, 2]


def test_neighborhood_examples():
    e = lambda i: unit_vec(4, i)
    R = Relation(4, 4, [(e(0), e(1)), (e(0), e(2)), (e(0), e(3))])
    assert apply_space(R, Subspace.span(4, [e(0)])) == Subspace.span(4, [e(1), e(2), e(3)])
    # vectors orthogonal to every v
    assert apply_space(R, Subspace.span(4, [e(1), e(2)])) == Subspace.zero(4)


def test_neighborhood_equals_apply_space(rng):
    for _ in range(15):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        R = rand_relation(rng, n, m, rng.randint(1, 8))
        S = [rand_vec(rng, n) for _ in range(rng.randint(1, 3))]
        V = to_matrix_space(R)
        U = Subspace.span(n, S)
        assert apply_space(R, U) == apply_space(V, U)


def test_apply_space_examples():
    V = MatrixSpace(2, 2, [Mat.identity(2)])
    E = Subspace.span(2, [vec(1, 1)])
    assert apply_space(V, E) == E
    V0 = MatrixSpace(2, 2, [])
    assert apply_space(V0, Subspace.full(2)) == Subspace.zero(2)
    # 3x3 skew action on a coordinate line
    skew = MatrixSpace(
        3,
        3,
        [
            Mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
            Mat([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
            Mat([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
        ],
    )
    line = Subspace.span(3, [unit_vec(3, 0)])
    assert apply_space(skew, line) == Subspace.span(3, [unit_vec(3, 1), unit_vec(3, 2)])
    with pytest.raises(DimensionError):
        apply_space(skew, Subspace.full(2))


def test_apply_space_monotone(rng):
    for _ in range(10):
        n = rng.randint(2, 4)
        R = rand_relation(rng, n, n, rng.randint(1, 6))
        V = to_matrix_space(R)
        small = rand_subspace(rng, n, max_dim=n - 1)
        extra = rand_vec(rng, n)
        big = Subspace.span(n, list(small.vectors) + [extra])
        image_small = apply_space(V, small)
        image_big = apply_space(V, big)
        assert image_big.contains_subspace(image_small)


def test_sampler_determinism_and_sampling():
    V = MatrixSpace(2, 2, [Mat([[1, 0], [0, 0]])])
    a = sample_element(V, GenericSampler(seed=123))
    b = sample_element(V, GenericSampler(seed=123))
    assert a == b
    c = sample_element(V, GenericSampler(seed=123, coeff_bound=5))
    assert abs(as_lists(c)[0][0]) <= 5
    assert as_lists(c)[1][1] == 0
    V0 = MatrixSpace(3, 2, [])
    assert sample_element(V0, GenericSampler(seed=1)) == Mat.zeros(3, 2)


def test_relation_json_round_trip(rng):
    R = rand_relation(rng, 3, 2, 4)
    assert Relation.from_json(R.to_json()) == R
    V = to_matrix_space(R)
    V2 = MatrixSpace.from_json(V.to_json())
    assert spans_same(V, V2)


def test_zero_pairs_are_dropped_by_reduce():
    e = lambda i: unit_vec(2, i)
    R = Relation(2, 2, [(vec(0, 0), e(1)), (e(0), e(1))])
    assert reduced_indices(R) == [1]
    # but they are retained in the relation itself
    assert len(R.pairs) == 2


def conjugated(rng, mats, n):
    """The same matrices in a random basis, P M P^-1, with rational entries."""
    from linminmax.exact_linalg import solve_exact

    while True:
        p = rand_mat(rng, n, n, bound=2)
        inv = solve_exact(p, Mat.identity(n))
        if inv is not None:
            return [p @ m @ inv for m in mats]


def random_nilpotent_space(rng, n):
    """Strictly upper triangular generators, some rows thinned, then conjugated."""
    mats = []
    for _ in range(rng.randint(1, 3)):
        rows = [
            [rng.randint(-2, 2) if j > i and rng.random() < 0.5 else 0 for j in range(n)]
            for i in range(n)
        ]
        mats.append(Mat(rows, n))
    mats = conjugated(rng, mats, n)
    ech = IntEchelon(n * n)
    kept = [m for m in mats if ech.add(m.int_flat())]
    return MatrixSpace(n, n, kept) if kept else random_nilpotent_space(rng, n)


def algebra_of(n, mats) -> MatrixSpace:
    """The span of `mats` and all their products: the algebra they generate, without I."""
    space = spanned(n, n, mats)
    while True:
        products = [x @ y for x, y in product(space.basis, space.basis)]
        grown = spanned(n, n, list(space.basis) + products)
        if grown.dim == space.dim:
            return MatrixSpace(n, n, space.basis)
        space = grown


def strict_algebra(seed: int, n: int) -> MatrixSpace:
    """The algebra of 2 random strictly upper triangular n x n matrices, conjugated.

    Its basis starts with the 2 generators, so for n >= 3 it is seldom
    spanned by rank-ones: `check matrix-dilworth` samples it.
    """
    import random

    rng = random.Random(seed)
    strict = [
        Mat([[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)], n)
        for _ in range(2)
    ]
    return algebra_of(n, conjugated(rng, strict, n))


def test_space_power_is_zero_matches_products(rng):
    """`is_nilpotent_algebra` is "closed, and V^n = 0" by spans of products, on V and on its algebra."""
    spaces = [random_nilpotent_space(rng, rng.randint(2, 5)) for _ in range(25)]
    e12, e21 = Mat([[0, 1], [0, 0]]), Mat([[0, 0], [1, 0]])
    spaces += [
        MatrixSpace(2, 2, [e12, e21]),  # each generator is nilpotent, V is not
        MatrixSpace(2, 2, [Mat.identity(2)]),
        MatrixSpace(3, 3, [Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])]),  # index 3
        MatrixSpace(3, 3, [Mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])]),  # a permutation
    ]
    for _ in range(10):
        n = rng.randint(1, 4)
        spaces.append(MatrixSpace(n, n, [rand_mat(rng, n, n)]))
    seen = {True: 0, False: 0}
    for V in spaces:
        for W in (V, algebra_of(V.n, V.basis)):
            verdict = is_nilpotent_algebra(W)
            assert verdict == ref_nilpotent_algebra(W), W.basis
            seen[verdict] += 1
    assert seen[True] > 20 and seen[False] > 5, seen
    assert is_nilpotent_algebra(MatrixSpace(3, 3, []))
    assert is_nilpotent_algebra(MatrixSpace(0, 0, []))


def test_is_nilpotent_algebra_matches_closure_and_powers():
    """The trace rule agrees with "closed under products, and V^n = 0" by spans of products.

    Closed algebras of both verdicts (conjugated strictly upper triangular
    ones, upper triangular ones with a diagonal, diagonal ones,
    span{I, E12}, the 0 x 0 and the zero space), and spaces that are not
    closed though every generator is nilpotent, which are refused.
    """
    import random

    rng = random.Random(97)

    def upper(n, strict):
        low = 1 if strict else 0
        rows = [
            [rng.randint(-2, 2) if j >= i + low and rng.random() < 0.6 else 0 for j in range(n)]
            for i in range(n)
        ]
        return Mat(rows, n)

    e12, e23 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    spaces = [
        MatrixSpace(0, 0, []),
        MatrixSpace(3, 3, []),
        MatrixSpace(3, 3, [e12, e23]),
        MatrixSpace(2, 2, [Mat.identity(2), Mat([[0, 1], [0, 0]])]),
        algebra_of(2, [Mat([[1, 0], [0, -1]])]),  # a traceless generator whose square is I
    ]
    for trial in range(150):
        n = rng.randint(1, 4)
        kind = trial % 5
        if kind == 0:  # strictly upper triangular, conjugated, closed
            gens = conjugated(rng, [upper(n, True) for _ in range(rng.randint(1, 2))], n)
            spaces.append(algebra_of(n, gens))
        elif kind == 1:  # upper triangular with a diagonal, conjugated, closed
            gens = conjugated(rng, [upper(n, False) for _ in range(rng.randint(1, 2))], n)
            spaces.append(algebra_of(n, gens))
        elif kind == 2:  # diagonal
            spaces.append(algebra_of(n, [diag([rng.randint(-2, 2) for _ in range(n)])]))
        elif kind == 3:  # nilpotent generators, closed or not
            spaces.append(random_nilpotent_space(rng, max(n, 3)))
        else:  # the path e12, e23, ..., conjugated: each generator is nilpotent, e12 e23 is missing
            n = max(n, 3)
            units = [[int(j == i + 1) for j in range(n)] for i in range(n)]
            path = [Mat([row if k == i else [0] * n for k, row in enumerate(units)], n) for i in range(n - 1)]
            spaces.append(MatrixSpace(n, n, conjugated(rng, path, n)))
    outcomes = {True: 0, False: 0}
    refused_nilpotent = 0
    for V in spaces:
        verdict = is_nilpotent_algebra(V)
        assert verdict == ref_nilpotent_algebra(V), (V.n, V.basis)
        outcomes[verdict] += 1
        refused_nilpotent += not verdict and ref_power_dims(V, max(V.n, 1))[-1] == 0
    assert min(outcomes.values()) >= 40, outcomes
    assert refused_nilpotent >= 20, refused_nilpotent


def test_relation_power_is_zero_matches_its_span(rng):
    """On a relation the LGV minor table decides V_R^n = 0, with the span's verdicts."""
    import random

    from linminmax.cli import gen_linorder

    e = [unit_vec(2, i) for i in range(2)]
    zero = vec(0, 0)
    relations = [
        Relation(0, 0, []),
        Relation(0, 0, [(vec(), vec())]),
        Relation(3, 3, []),
        Relation(2, 2, [(zero, e[0]), (e[1], zero)]),  # pairs whose rank-ones vanish
        Relation(2, 2, [(e[0], e[1]), (e[1], e[0])]),  # a 2-cycle
        Relation(2, 2, [(e[0], e[0])]),  # a loop
        Relation(2, 2, [(e[0], e[1])]),
    ]
    relations += [Relation.from_json(gen_linorder(random.Random(s), s % 6)) for s in range(12)]
    for _ in range(30):
        n = rng.randint(1, 4)
        relations.append(rand_relation(rng, n, n, rng.randint(1, 4)))
    nilpotent = 0
    for R in relations:
        acyclic = instance_from_relation(R, [], []).acyclic
        assert acyclic == (ref_power_dims(to_matrix_space(R), max(R.n, 1))[-1] == 0), R.to_json()
        nilpotent += acyclic
    assert 15 < nilpotent < len(relations)


def test_relation_routing_space_matches_its_span(rng):
    """Routing R spans what the dense routing space of V_R spans, and has its members.

    Routing R keeps every nonzero generator, a repeated or dependent one
    too; the dense reference eliminates them.
    """
    e = [unit_vec(3, i) for i in range(3)]
    zero, line = Subspace.zero(3), Subspace.span(3, [e[0]])
    cases = [
        (Relation(0, 0, []), Subspace.zero(0), Subspace.zero(0)),
        (Relation(3, 3, []), zero, zero),
        (Relation(3, 3, []), Subspace.full(3), line),
        (Relation(3, 3, [(x, x) for x in e]), zero, zero),  # the border I lies in the span
        (
            Relation(3, 3, [(e[0], e[1]), (e[0], e[1]), (vec(0, 0, 0), e[2]), (e[1], e[0])]),
            line,
            zero,
        ),  # a repeated pair and a pair with a zero vector
    ]
    for _ in range(30):
        n = rng.randint(1, 4)
        pairs = list(rand_relation(rng, n, n, rng.randint(0, 6), bound=1).pairs)
        if pairs and rng.random() < 0.5:
            pairs.append(rng.choice(pairs))
        if rng.random() < 0.3:
            pairs.insert(rng.randint(0, len(pairs)), (Vec([0] * n), rand_vec(rng, n)))
        E, F = rand_subspace(rng, n, max_dim=2), rand_subspace(rng, n, max_dim=2)
        cases.append((Relation(n, n, pairs), E, F))
    sampler = GenericSampler(seed=5)
    for R, E, F in cases:
        a, b = routing_space(R, E, F), dense_routing_space(to_matrix_space(R), E, F)
        span_a = spanned(a.m, a.n, [Mat.from_int_rows(g, a.den, a.n) for g in a.int_basis])
        assert spans_same(span_a, b), R.to_json()
        elements = [sample_element(a, sampler), sample_element(b, sampler), rand_mat(rng, a.m, a.n, 1)]
        assert [space_contains(span_a, el) for el in elements] == [space_contains(b, el) for el in elements]
        assert space_contains(b, elements[0])
    # the border I beside the three e_i e_i^T that span it; the zero pair is left out
    assert [len(routing_space(*cases[k]).int_basis) for k in (3, 4)] == [4, 4]
    assert [dense_routing_space(to_matrix_space(R), E, F).dim for R, E, F in cases[3:5]] == [3, 3]


def test_space_power_is_zero_needs_square():
    """Nilpotency is defined for square spaces and square pair families only."""
    V = MatrixSpace(2, 3, [Mat([[0, 1, 0], [0, 0, 0]])])
    assert not is_nilpotent_algebra(V)
    assert not is_nilpotent_algebra(MatrixSpace(2, 3, []))
    with pytest.raises(DimensionError):
        LgvInstance(Mat.zeros(3, 1), Mat.zeros(2, 1), Mat.zeros(3, 0), Mat.zeros(3, 0))


def test_is_nilpotent_algebra_examples(rng):
    e12, e13, e23 = (
        Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
        Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
    )
    assert is_nilpotent_algebra(MatrixSpace(3, 3, [e12, e13, e23]))
    assert is_nilpotent_algebra(MatrixSpace(3, 3, conjugated(rng, [e12, e13, e23], 3)))
    # nilpotent, but e12 e23 = e13 is not in the span: not an algebra
    assert not is_nilpotent_algebra(MatrixSpace(3, 3, [e12, e23]))
    assert not is_nilpotent_algebra(MatrixSpace(2, 2, [Mat([[0, 1], [0, 0]]), Mat([[0, 0], [1, 0]])]))


def test_matrix_space_membership_is_stable():
    V = MatrixSpace(2, 2, [Mat([[1, 2], [0, 0]]), Mat([[0, 0], [3, 4]])])
    inside = Mat([[2, 4], [-3, -4]])
    outside = Mat([[1, 0], [0, 0]])
    for _ in range(2):  # membership tests leave the stored echelon unchanged
        assert space_contains(V, inside)
        assert not space_contains(V, outside)
    with pytest.raises(DimensionError):
        space_contains(V, Mat.identity(3))


def rand_rational_space(rng, m, n, dim):
    """A matrix space spanned by `dim` (or fewer) random matrices with p/q entries."""
    basis = []
    for _ in range(dim):
        cand = Mat(
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(m)
            ],
            n,
        )
        try:
            MatrixSpace(m, n, basis + [cand])
        except ValueError:
            continue
        basis.append(cand)
    return MatrixSpace(m, n, basis)


class CountingSampler(GenericSampler):
    """A GenericSampler that counts the coefficients it hands out."""

    def __post_init__(self):
        super().__post_init__()
        self.drawn = 0

    def coefficient(self):
        self.drawn += 1
        return super().coefficient()


def test_sample_element_lies_in_the_blowup(rng):
    for trial in range(12):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        V = rand_rational_space(rng, m, n, rng.randint(0, 3))
        for r in (1, 2, 3):
            A = sample_element(V, GenericSampler(seed=trial, coeff_bound=50), r)
            assert (A.rows, A.cols) == (m * r, n * r)
            assert space_contains(blow_up(V, r).space, A)


def test_sample_element_at_order_one_is_the_basis_combination(rng):
    for trial in range(20):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        V = rand_rational_space(rng, m, n, rng.randint(0, 3) if m * n else 0)
        coeffs = GenericSampler(seed=trial, coeff_bound=9)
        expected = Mat.zeros(m, n)
        for b in V.basis:
            expected = expected + b.scaled(coeffs.coefficient())
        assert sample_element(V, GenericSampler(seed=trial, coeff_bound=9)) == expected


def _unreachable(V):
    """A `best_sample` bound that no draw of V (x) M_r reaches: n + 1."""
    return lambda el: (None, V.n + 1)


def test_best_sample_returns_the_first_maximum_and_stops_at_target(monkeypatch):
    V = MatrixSpace(2, 2, [Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]])])
    draws = [
        Mat([[1, 0], [0, 0]]),
        Mat([[2, 0], [0, 3]]),
        Mat([[5, 0], [0, 7]]),
        Mat([[0, 0], [0, 1]]),
    ]
    calls = []

    def scripted(space, sampler, r=1):
        calls.append(r)
        return draws[len(calls) - 1]

    monkeypatch.setattr(relation, "sample_element", scripted)
    sampler = GenericSampler(seed=0, trials=4)
    assert best_sample(V, sampler, 1, _unreachable(V)) == (2, draws[1], (None, 3))
    assert len(calls) == 4
    calls.clear()
    assert best_sample(V, sampler, 1, lambda el: (None, 2)) == (2, draws[1], (None, 2))
    assert len(calls) == 2


def test_best_sample_draws_match_the_sampler_stream(rng):
    for trial in range(8):
        V = rand_rational_space(rng, 3, 3, rng.randint(1, 3))
        for r in (1, 2):
            s = CountingSampler(seed=trial, trials=5)
            rank, el, _ = best_sample(V, s, r, _unreachable(V))
            assert s.drawn == 5 * V.dim * r * r
            ref = GenericSampler(seed=trial, trials=5)
            seen = [sample_element(V, ref, r) for _ in range(5)]
            ranks = [a.rank() for a in seen]
            assert rank == max(ranks)
            assert el == seen[ranks.index(rank)]
            s = CountingSampler(seed=trial, trials=5)
            rank, el, _ = best_sample(V, s, r, lambda el: (None, Fraction(ranks[0], r)))
            assert (rank, el) == (ranks[0], seen[0])
            assert s.drawn == V.dim * r * r


def test_best_sample_on_the_zero_space_draws_nothing():
    for m, n, r in [(3, 2, 1), (2, 2, 3), (0, 4, 2), (2, 0, 1)]:
        s = CountingSampler(seed=1)
        V = MatrixSpace(m, n, [])
        rank, el, _ = best_sample(V, s, r, _unreachable(V))
        assert rank == 0
        assert el == Mat.zeros(m * r, n * r)
        assert s.drawn == 0


def test_to_matrix_space_echelons_once(rng, echelon_widths):
    """One echelon chooses the kept pairs and then serves `contains`."""
    R = rand_relation(rng, 3, 4, 9)
    V = to_matrix_space(R)
    assert echelon_widths == [12]
    assert 0 < V.dim <= 9
    assert all(space_contains(V, b) for b in V.basis)
    assert echelon_widths == [12]


def test_spanned_keeps_the_prefix_greedy_generators():
    a, b = Mat([[1, 2], [0, 0]]), Mat([[0, 0], [3, 4]])
    V = spanned(2, 2, [Mat.zeros(2, 2), a, a.scaled(2), b, a + b])
    assert V.basis == (a, b)
    assert spanned(2, 2, [Mat.zeros(2, 2)]).dim == 0
    # the pairs behind the basis of a relation's span are the prefix-greedy ones
    e0, e1 = unit_vec(2, 0), unit_vec(2, 1)
    pairs = [(e0, vec(0, 0)), (e0, e0), (e0.scaled(2), e0), (e1, e0), (e0 + e1, e0)]
    assert reduced_indices(Relation(2, 2, pairs)) == [1, 3]
    assert to_matrix_space(Relation(2, 2, pairs)).basis == (outer(e0, e0), outer(e0, e1))
    with pytest.raises(ValueError):
        MatrixSpace(2, 2, [a, b, a + b])


def test_nilpotent_verdict_is_decided_once_per_space(monkeypatch, tmp_path, capsys):
    """`check matrix-dilworth` runs the closure test once, on a nilpotent algebra and on a refused space."""
    from linminmax.cli import EXIT_PARSE, EXIT_PROVED, main
    from test_one_run import count_calls

    calls = count_calls(monkeypatch, relation.is_nilpotent_algebra)
    e12, e23 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    for basis, code in [([e12, e23, e12 @ e23], EXIT_PROVED), ([e12, e23], EXIT_PARSE)]:
        path = tmp_path / "space.json"
        path.write_text(json.dumps(MatrixSpace(3, 3, basis).to_json()))
        calls.clear()
        assert main(["check", "matrix-dilworth", str(path)]) == code
        capsys.readouterr()
        assert len(calls) == 1


def _scripted(monkeypatch, draws):
    """Make `sample_element` hand out `draws` in order; returns the calls made."""
    calls = []

    def scripted(space, sampler, r=1):
        calls.append(r)
        return draws[len(calls) - 1]

    monkeypatch.setattr(relation, "sample_element", scripted)
    return calls


def test_best_sample_stops_at_the_first_draw_that_meets_its_own_dual(monkeypatch):
    V = MatrixSpace(2, 2, [Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]])])
    draws = [
        Mat([[1, 0], [0, 0]]),
        Mat([[0, 0], [0, 4]]),
        Mat([[2, 0], [0, 3]]),
        Mat([[5, 0], [0, 7]]),
    ]
    calls = _scripted(monkeypatch, draws)
    duals = []

    def bound(el):
        duals.append(el)
        return ("cert", el), 2

    sampler = GenericSampler(seed=0, trials=4)
    assert best_sample(V, sampler, 1, bound) == (2, draws[2], (("cert", draws[2]), 2))
    assert len(calls) == 3
    assert duals == [draws[0], draws[2]]

    # a bound that no draw reaches proves nothing: every trial is drawn, and
    # the first maximum comes back with its own dual
    calls.clear()
    duals.clear()

    def unproved(el):
        duals.append(el)
        return ("cert", el), 3

    assert best_sample(V, sampler, 1, unproved) == (2, draws[2], (("cert", draws[2]), 3))
    assert len(calls) == 4
    assert duals == [draws[0], draws[2]]


def test_best_sample_with_a_dual_draws_on_while_the_rank_is_not_a_multiple_of_r(monkeypatch):
    V = MatrixSpace(1, 1, [Mat([[1]])])
    one, two = Mat([[1, 0], [0, 0]]), Mat([[1, 0], [0, 1]])
    draws = [one, one, one, two, two, one, one]
    calls = _scripted(monkeypatch, draws)
    sampler = GenericSampler(seed=0, trials=2)
    rank_cert = lambda el: (el.rank(), 2)
    assert best_sample(V, sampler, 2, rank_cert) == (2, two, (2, 2))
    assert len(calls) == 4
    # at most 2 * trials more draws, then a maximum that is no multiple of r fails
    draws[3] = draws[4] = one
    calls.clear()
    with pytest.raises(CertificationError, match="maximum 1 is not divisible by 2"):
        best_sample(V, sampler, 2, rank_cert)
    assert len(calls) == 6


def test_best_sample_with_a_dual_on_the_zero_space_draws_nothing():
    s = CountingSampler(seed=1)
    seen = []

    def bound(el):
        seen.append(el)
        return "cert", 0

    assert best_sample(MatrixSpace(2, 3, []), s, 2, bound) == (0, Mat.zeros(4, 6), ("cert", 0))
    assert seen == [Mat.zeros(4, 6)]
    assert s.drawn == 0

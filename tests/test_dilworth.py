"""Linorders, bi-chains, coherent chains, and the classical Dilworth reduction."""

import random
from itertools import product

import pytest

from linminmax.cli import gen_linorder
from linminmax.dilworth import (
    LinorderViolation,
    bichain_decomposition,
    coherent_decomposition,
    nilpotent_jordan_chains,
    validate_linorder,
    w_chain_check,
)
from linminmax.errors import DimensionError
from linminmax.exact_linalg import Mat, Subspace, outer_sum, solve_exact, unit_vec
from linminmax.matching_cover import matroid_intersection
from linminmax.relation import Relation
from linminmax.verify import (
    verify_antichain,
    verify_bichain_decomposition,
    verify_coherent_decomposition,
    verify_pair_sum,
)
from conftest import rand_vec, vec
from reference import Poset, poset_dilworth, poset_embed, ref_power_dims, space_contains, to_matrix_space
from test_oracles import rand_poset


def f4_linorder() -> Relation:
    e = [unit_vec(4, i) for i in range(4)]
    R = Relation(4, 4, [(e[0], e[1]), (e[0], e[2]), (e[0], e[3])])
    assert validate_linorder(R) is None
    return R


def rand_dual_basis_linorder(rng, size) -> tuple:
    """Random poset pushed through a random dual basis pair."""
    poset = rand_poset(rng, size)
    while True:
        m = Mat([[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)], size)
        if m.det() != 0:
            break
    inv = solve_exact(m, Mat.identity(size))
    pairs = [(m.row(i), inv.col(j)) for i, j in poset.gt]
    R = Relation(size, size, pairs)
    assert validate_linorder(R) is None
    return R, poset


def test_validate_examples():
    chain = poset_embed(Poset(3, [(0, 1), (1, 2), (0, 2)]))
    assert validate_linorder(chain) is None

    refl = validate_linorder(Relation(1, 1, [(vec(1), vec(1))]))
    assert isinstance(refl, LinorderViolation) and refl.axiom == "orthogonality"

    e = [unit_vec(3, i) for i in range(3)]
    # (e0,e1),(e1,e2) present but (e0,e2) missing: transitivity fails
    broken = validate_linorder(Relation(3, 3, [(e[0], e[1]), (e[1], e[2])]))
    assert isinstance(broken, LinorderViolation) and broken.axiom == "transitivity"

    assert validate_linorder(f4_linorder()) is None

    with pytest.raises(DimensionError):
        validate_linorder(Relation(2, 3, []))


def _closed_under_composition(rng, n, limit=10) -> Relation:
    """Sparse random pairs, closed under (v, w), (v2, w2) -> (v, w2) when w . v2 != 0."""
    pairs = [(rand_vec(rng, n, 1), rand_vec(rng, n, 1)) for _ in range(rng.randint(0, 3))]
    grown = True
    while grown and len(pairs) < limit:
        grown = False
        for (v, w), (v2, w2) in product(pairs, repeat=2):
            if not w.is_orthogonal(v2) and (v, w2) not in pairs:
                pairs.append((v, w2))
                grown = True
    return Relation(n, n, pairs)


def test_the_linorder_axioms_force_a_nilpotent_span():
    """Every relation `validate_linorder` accepts has V_R^n = 0: the axioms decide it."""
    rng = random.Random(53)
    accepted = []
    for _ in range(300):
        R = _closed_under_composition(rng, rng.randint(1, 3))
        if validate_linorder(R) is None:
            accepted.append(R)
    assert len({R.pairs for R in accepted if R.pairs}) >= 30
    for seed in range(12):
        data = gen_linorder(random.Random(seed), 1 + seed % 6)
        R = Relation.from_json(data)
        assert validate_linorder(R) is None
        accepted.append(R)
    for _ in range(12):
        accepted.append(poset_embed(rand_poset(rng, rng.randint(1, 6))))
    for R in accepted:
        assert ref_power_dims(to_matrix_space(R), max(R.n, 1))[-1] == 0, R.to_json()


def bichains(R):
    return bichain_decomposition(matroid_intersection(R)[0])


def coherent(R):
    return coherent_decomposition(matroid_intersection(R)[0])


def test_antichain_examples():
    empty = Relation(3, 3, [])
    assert validate_linorder(empty) is None
    cover = matroid_intersection(empty)[1]
    assert empty.n - cover.size == 3 and cover.antichain() == Subspace.full(3)

    R = f4_linorder()
    cover = matroid_intersection(R)[1]
    C = cover.antichain()
    e = [unit_vec(4, i) for i in range(4)]
    assert R.n - cover.size == 3
    assert C == Subspace.span(4, [e[1], e[2], e[3]])
    assert verify_antichain(R, C)


def test_bichain_decomposition_examples():
    D = bichains(Relation(3, 3, []))
    assert D.size == 3 and all(c.length == 1 for c in D.chains)

    R = f4_linorder()
    D = bichains(R)
    assert D.size == 3
    assert verify_bichain_decomposition(R, D)
    assert sum(c.length for c in D.chains) == 4


def test_w_chain_examples():
    R = f4_linorder()
    e = [unit_vec(4, i) for i in range(4)]
    assert w_chain_check(R, [[e[0], e[1]], [e[0] + e[2], e[3]]])
    assert not w_chain_check(R, [[e[0], e[0]]])
    D = bichains(R)
    assert w_chain_check(R, [list(c.ws) for c in D.chains])


def test_jordan_chain_examples():
    ch = nilpotent_jordan_chains(Mat.zeros(3, 3))
    assert len(ch) == 3 and all(l == 1 for _, l in ch)

    block = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    ch = nilpotent_jordan_chains(block)
    assert len(ch) == 1 and ch[0][1] == 3

    with pytest.raises(ValueError):
        nilpotent_jordan_chains(Mat.identity(2))


def rand_nilpotent(rng, n) -> Mat:
    """Random strictly upper-triangular matrix conjugated by a random basis."""
    upper = Mat(
        [
            [rng.randint(-2, 2) if j > i else 0 for j in range(n)]
            for i in range(n)
        ],
        n,
    )
    while True:
        p = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], n)
        if p.det() != 0:
            break
    return p @ upper @ solve_exact(p, Mat.identity(n))


def test_jordan_chains_match_rank_profile():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 6)
        a = rand_nilpotent(rng, n)
        chains = nilpotent_jordan_chains(a)
        powers = [Mat.identity(n)]
        for _ in range(n):
            powers.append(powers[-1] @ a)
        # conjugate partition oracle: #chains of length >= j is
        # rank(A^{j-1}) - rank(A^j)
        for j in range(1, n + 1):
            expected = powers[j - 1].rank() - powers[j].rank()
            assert sum(1 for _, l in chains if l >= j) == expected
        # iterates form a basis and chains end exactly at zero
        total = []
        for seed, length in chains:
            u = seed
            for _ in range(length):
                total.append(u)
                u = a.apply(u)
            assert u.is_zero()
            if length > 1:
                assert not powers[length - 1].apply(seed).is_zero()
        assert Subspace.span(n, total).dim == n


def test_coherent_decomposition_examples():
    C = coherent(Relation(3, 3, []))
    assert C.size == 3 and C.A.is_zero()

    R = f4_linorder()
    matching = matroid_intersection(R)[0]
    C = coherent_decomposition(matching)
    assert C.size == 3
    assert verify_coherent_decomposition(C) and space_contains(to_matrix_space(R), C.A)
    assert verify_pair_sum(R, matching.indices, C.A)


def interior_link_sum(R, D) -> Mat:
    """The sum of w v^T over the interior links (v_i, w_{i+1}) of every bi-chain of D, on R."""
    links = [R.pairs[i] for chain in D.chains for i in chain.link_pair_indices]
    return outer_sum(links, R.n, R.n)


def test_coherent_matrix_is_the_interior_link_sum():
    R = f4_linorder()
    D = bichains(R)
    C = coherent(R)
    assert C.A == interior_link_sum(R, D)
    assert C.size == D.size == 3

    empty = Relation(2, 2, [])
    C0 = coherent(empty)
    assert C0.A == interior_link_sum(empty, bichains(empty)) == Mat.zeros(2, 2)
    assert C0.size == 2 and verify_coherent_decomposition(C0)


def test_poset_embedding_reduction():
    rng = random.Random(43)
    for _ in range(15):
        p = rand_poset(rng, rng.randint(1, 6))
        R = poset_embed(p)
        mc, ma, _, _ = poset_dilworth(p)
        matching, cover = matroid_intersection(R)
        width = R.n - cover.size
        D = bichains(R)
        C = coherent(R)
        assert width == cover.antichain().dim == ma
        assert D.size == mc
        assert C.size == ma
        assert width == p.size - matching.size


def test_random_linorders_all_equal():
    rng = random.Random(47)
    for _ in range(10):
        R, poset = rand_dual_basis_linorder(rng, rng.randint(2, 5))
        matching, cover = matroid_intersection(R)
        width = R.n - cover.size
        D = bichains(R)
        C = coherent(R)
        assert C.A == interior_link_sum(R, D)
        assert width == cover.antichain().dim == D.size == C.size
        assert width == R.n - matching.size
        mc, ma, _, _ = poset_dilworth(poset)
        assert width == ma

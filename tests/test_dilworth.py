"""Linorders, bi-chains, coherent chains, and the classical Dilworth reduction."""

import dataclasses
import random
from itertools import product

import pytest

from linminmax.cli import gen_linorder
from linminmax.dilworth import (
    Linorder,
    LinorderViolation,
    bichain_decomposition,
    coherent_decomposition,
    max_antichain,
    nilpotent_jordan_chains,
    validate_linorder,
    w_chain_check,
)
from linminmax.errors import DimensionError
from linminmax.exact_linalg import Mat, Subspace, outer_sum, solve_exact, unit_vec
from linminmax.matching_cover import max_matching
from linminmax.relation import Relation, space_power_is_zero
from linminmax.verify import (
    verify_antichain,
    verify_bichain_decomposition,
    verify_coherent_decomposition,
    verify_pair_sum,
)
from conftest import rand_vec, vec
from reference import Poset, poset_dilworth, poset_embed, to_matrix_space
from test_oracles import rand_poset


def f4_linorder() -> Linorder:
    e = [unit_vec(4, i) for i in range(4)]
    L = validate_linorder(
        Relation(4, 4, [(e[0], e[1]), (e[0], e[2]), (e[0], e[3])])
    )
    assert isinstance(L, Linorder)
    return L


def rand_dual_basis_linorder(rng, size) -> Linorder:
    """Random poset pushed through a random dual basis pair."""
    poset = rand_poset(rng, size)
    while True:
        m = Mat([[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)], size)
        if m.det() != 0:
            break
    inv = solve_exact(m, Mat.identity(size))
    pairs = [(m.row(i), inv.col(j)) for i, j in poset.gt]
    L = validate_linorder(Relation(size, size, pairs))
    assert isinstance(L, Linorder)
    return L, poset


def test_validate_examples():
    chain = poset_embed(Poset(3, [(0, 1), (1, 2), (0, 2)]))
    assert isinstance(chain, Linorder)

    refl = validate_linorder(Relation(1, 1, [(vec(1), vec(1))]))
    assert isinstance(refl, LinorderViolation) and refl.axiom == "orthogonality"

    e = [unit_vec(3, i) for i in range(3)]
    # (e0,e1),(e1,e2) present but (e0,e2) missing: transitivity fails
    broken = validate_linorder(Relation(3, 3, [(e[0], e[1]), (e[1], e[2])]))
    assert isinstance(broken, LinorderViolation) and broken.axiom == "transitivity"

    assert isinstance(f4_linorder(), Linorder)

    with pytest.raises(DimensionError):
        validate_linorder(Relation(2, 3, []))


def _closed_under_composition(rng, n, limit=10) -> Relation:
    """Sparse random pairs, closed under (v, w), (v2, w2) -> (v, w2) when w . v2 != 0."""
    pairs = [(rand_vec(rng, n, 1), rand_vec(rng, n, 1)) for _ in range(rng.randint(0, 3))]
    grown = True
    while grown and len(pairs) < limit:
        grown = False
        for (v, w), (v2, w2) in product(pairs, repeat=2):
            if w.dot(v2) != 0 and (v, w2) not in pairs:
                pairs.append((v, w2))
                grown = True
    return Relation(n, n, pairs)


def test_the_linorder_axioms_force_a_nilpotent_span():
    """Every relation `validate_linorder` accepts has V_R^n = 0: the axioms decide it."""
    rng = random.Random(53)
    accepted = []
    for _ in range(300):
        R = _closed_under_composition(rng, rng.randint(1, 3))
        if isinstance(validate_linorder(R), Linorder):
            accepted.append(R)
    assert len({R.pairs for R in accepted if R.pairs}) >= 30
    for seed in range(12):
        data = gen_linorder(random.Random(seed), 1 + seed % 6)
        accepted.append(validate_linorder(Relation.from_json(data)).relation)
    for _ in range(12):
        accepted.append(poset_embed(rand_poset(rng, rng.randint(1, 6))).relation)
    for R in accepted:
        assert space_power_is_zero(R, R.n), R.to_json()


def test_antichain_examples():
    empty = validate_linorder(Relation(3, 3, []))
    cv = max_antichain(empty)
    assert cv.value == 3 and cv.primal == Subspace.full(3)

    L = f4_linorder()
    cv = max_antichain(L)
    e = [unit_vec(4, i) for i in range(4)]
    assert cv.value == 3
    assert cv.primal == Subspace.span(4, [e[1], e[2], e[3]])
    assert verify_antichain(L.relation, cv.primal)


def test_bichain_decomposition_examples():
    empty = validate_linorder(Relation(3, 3, []))
    D = bichain_decomposition(empty)
    assert D.size == 3 and all(c.length == 1 for c in D.chains)

    L = f4_linorder()
    D = bichain_decomposition(L)
    assert D.size == 3
    assert verify_bichain_decomposition(L.relation, D)
    assert sum(c.length for c in D.chains) == 4


def test_w_chain_examples():
    L = f4_linorder()
    e = [unit_vec(4, i) for i in range(4)]
    assert w_chain_check(L, [[e[0], e[1]], [e[0] + e[2], e[3]]])
    assert not w_chain_check(L, [[e[0], e[0]]])
    D = bichain_decomposition(L)
    assert w_chain_check(L, [list(c.ws) for c in D.chains])


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
    empty = validate_linorder(Relation(3, 3, []))
    C = coherent_decomposition(empty)
    assert C.size == 3 and C.A.is_zero()

    L = f4_linorder()
    C = coherent_decomposition(L)
    assert C.size == 3
    assert verify_coherent_decomposition(C, to_matrix_space(L.relation))
    assert verify_pair_sum(L.relation, L.optimum[0].indices, C.A)


def interior_link_sum(R, D) -> Mat:
    """The sum of w v^T over the interior links (v_i, w_{i+1}) of every bi-chain of D, on R."""
    links = [R.pairs[i] for chain in D.chains for i in chain.link_pair_indices]
    return outer_sum(links, R.n, R.n)


def test_coherent_matrix_is_the_interior_link_sum():
    L = f4_linorder()
    D = bichain_decomposition(L)
    C = coherent_decomposition(L)
    assert C.A == interior_link_sum(L.relation, D)
    assert C.size == D.size == 3

    empty = validate_linorder(Relation(2, 2, []))
    C0 = coherent_decomposition(empty)
    assert C0.A == interior_link_sum(empty.relation, bichain_decomposition(empty)) == Mat.zeros(2, 2)
    assert C0.size == 2 and verify_coherent_decomposition(C0)


def test_poset_embedding_reduction():
    rng = random.Random(43)
    for _ in range(15):
        p = rand_poset(rng, rng.randint(1, 6))
        L = poset_embed(p)
        mc, ma, _, _ = poset_dilworth(p)
        ac = max_antichain(L)
        D = bichain_decomposition(L)
        C = coherent_decomposition(L)
        assert ac.value == ma
        assert D.size == mc
        assert C.size == ma
        assert ac.value == p.size - max_matching(L.relation).value


def test_random_linorders_all_equal():
    rng = random.Random(47)
    for _ in range(10):
        L, poset = rand_dual_basis_linorder(rng, rng.randint(2, 5))
        ac = max_antichain(L)
        D = bichain_decomposition(L)
        C = coherent_decomposition(L)
        assert C.A == interior_link_sum(L.relation, D)
        assert ac.value == D.size == C.size
        assert ac.value == L.n - max_matching(L.relation).value
        mc, ma, _, _ = poset_dilworth(poset)
        assert ac.value == ma


def test_linorder_holds_its_relation_and_one_run():
    import inspect

    L = f4_linorder()
    assert [f.name for f in dataclasses.fields(L)] == ["relation"]
    assert "optimum" not in vars(L)  # made on first use, then kept
    assert L.optimum is L.optimum
    assert validate_linorder(L.relation) == L  # equality reads the relation alone
    assert list(inspect.signature(coherent_decomposition).parameters) == ["L"]

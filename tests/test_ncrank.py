"""Blow-ups, noncommutative rank, and the matrix-level min-max theorems."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from linminmax import menger, relation
from linminmax import ncrank as ncrank_module
from linminmax.cli import EXIT_PARSE, EXIT_PROVED, main
from linminmax.errors import DimensionError
from linminmax.exact_linalg import Mat, Subspace, Vec, unit_vec
from linminmax.matching_cover import matroid_intersection
from linminmax.menger import mpc
from linminmax.ncrank import matrix_coherent_decomposition, ncrank
from linminmax.relation import (
    GenericSampler,
    MatrixSpace,
    Relation,
    apply_space,
    is_nilpotent_algebra,
    routing_space,
    sample_element,
    wong_limit,
)
from linminmax.verify import verify_cover, verify_separator
from conftest import blow_up, rand_mat, rand_relation, rand_subspace, rand_vec
from reference import Poset, max_rank_blowup, outer, poset_embed, space_contains, spanned, to_matrix_space
from test_dilworth import rand_dual_basis_linorder


def skew3() -> MatrixSpace:
    return MatrixSpace(
        3,
        3,
        [
            Mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
            Mat([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
            Mat([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
        ],
    )


def test_blow_up_examples():
    v = MatrixSpace(2, 2, [Mat([[1, 0], [0, 0]])])
    assert blow_up(v, 1).basis == v.basis
    assert len(blow_up(v, 2).basis) == 4
    assert blow_up(MatrixSpace(2, 2, []), 3).basis == ()
    b = blow_up(v, 2).basis[0]
    assert (b.rows, b.cols) == (4, 4)


def test_max_rank_blowup_examples():
    assert max_rank_blowup(MatrixSpace(2, 2, []), 2, GenericSampler(seed=1)) == 0
    vi = MatrixSpace(3, 3, [Mat.identity(3)])
    assert max_rank_blowup(vi, 2, GenericSampler(seed=2)) == 6
    assert max_rank_blowup(skew3(), 2, GenericSampler(seed=3)) == 6


def test_blowup_divisibility(rng):
    for _ in range(8):
        n = rng.randint(2, 3)
        R = rand_relation(rng, n, n, rng.randint(1, 4))
        V = to_matrix_space(R)
        for r in (1, 2):
            assert max_rank_blowup(V, r, GenericSampler(seed=5)) % r == 0


def test_skew3_chain():
    V = skew3()
    s = GenericSampler(seed=7)
    assert max(sample_element(V, s).rank() for _ in range(10)) == 2
    cv = ncrank(V, GenericSampler(seed=8))
    assert cv.value == cv.dual.size == 3 and V.n - cv.dual.size == 0
    full = ncrank(V, GenericSampler(seed=9))
    assert full.value == V.n
    r, element = full.primal
    assert element.rank() == r * 3


def test_ncrank_examples():
    vi = MatrixSpace(4, 4, [Mat.identity(4)])
    cv = ncrank(vi, GenericSampler(seed=10))
    assert cv.value == 4 and vi.n - cv.dual.size == 0

    e11 = MatrixSpace(2, 2, [Mat([[1, 0], [0, 0]])])
    cv = ncrank(e11, GenericSampler(seed=11))
    assert cv.value == 1 and e11.n - cv.dual.size == 1
    witness = ncrank(e11, GenericSampler(seed=12)).dual
    assert e11.n - witness.size == 1
    assert witness.U.contains(unit_vec(2, 1))

    v0 = MatrixSpace(3, 3, [])
    cv = ncrank(v0, GenericSampler(seed=13))
    assert cv.value == 0 and v0.n - cv.dual.size == 3


def test_plateau_at_n_minus_1(rng):
    for _ in range(6):
        n = rng.randint(2, 4)
        R = rand_relation(rng, n, n, rng.randint(1, 5))
        V = to_matrix_space(R)
        r1, r2 = max(1, n - 1), n
        a = max_rank_blowup(V, r1, GenericSampler(seed=17))
        b = max_rank_blowup(V, r2, GenericSampler(seed=18))
        assert a // r1 == b // r2


def test_rank_one_regularity(rng):
    # for rank-one generated spaces the plain rank equals the ncrank
    for _ in range(10):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        R = rand_relation(rng, n, m, rng.randint(1, 6))
        V = to_matrix_space(R)
        cv = ncrank(V, GenericSampler(seed=19))
        assert cv.value == cv.dual.size
        assert cv.value == matroid_intersection(R)[1].size
        s = GenericSampler(seed=20)
        plain = max(sample_element(V, s).rank() for _ in range(20))
        assert plain == cv.value


def test_matrix_konig_blowup_equality(rng):
    for _ in range(6):
        n = rng.randint(2, 4)
        R = rand_relation(rng, n, n, rng.randint(1, 5))
        V = to_matrix_space(R)
        r = max(1, n - 1)
        blown = max_rank_blowup(V, r, GenericSampler(seed=21))
        assert blown == r * matroid_intersection(R)[1].size


def test_matrix_min_cover(rng):
    """The dual of `ncrank` is the minimum cover of matrix Kőnig."""
    v0 = MatrixSpace(2, 2, [])
    cov = ncrank(v0, GenericSampler(seed=23))
    assert cov.dual.size == 0 and cov.value == cov.dual.size

    sk = ncrank(skew3(), GenericSampler(seed=24))
    assert sk.dual.size == 3 and sk.value == sk.dual.size
    assert verify_cover(skew3(), sk.dual)

    for _ in range(6):
        R = rand_relation(rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 5))
        V = to_matrix_space(R)
        cov = ncrank(V, GenericSampler(seed=25))
        assert cov.dual.size == matroid_intersection(R)[1].size
        assert verify_cover(V, cov.dual)


def test_the_ncrank_dual_is_an_exact_cover(rng):
    """F = V[U] for the dual of `ncrank`: random spaces, skew3 and zero spaces."""
    spaces = [skew3(), MatrixSpace(3, 3, []), MatrixSpace(2, 3, [])]
    for _ in range(15):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        gens = [rand_mat(rng, m, n, bound=1) for _ in range(rng.randint(0, 3))]
        spaces.append(spanned(m, n, gens))
    for seed, V in enumerate(spaces):
        cv = ncrank(V, GenericSampler(seed=seed))
        assert cv.dual.F == apply_space(V, cv.dual.U)
        assert cv.value <= cv.dual.size


def test_matrix_antichain():
    """U n F^perp of the minimum cover (U, F); the identity has no coherent decomposition."""
    v0 = MatrixSpace(3, 3, [])
    assert ncrank(v0, GenericSampler(seed=27)).dual.antichain() == Subspace.full(3)

    upper = MatrixSpace(
        3,
        3,
        [
            Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
            Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
            Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
        ],
    )
    assert is_nilpotent_algebra(upper)
    c = ncrank(upper, GenericSampler(seed=28)).dual.antichain()
    assert c.dim == 1

    identity = MatrixSpace(2, 2, [Mat.identity(2)])
    cov = ncrank(identity, GenericSampler(seed=29)).dual
    with pytest.raises(ValueError):
        matrix_coherent_decomposition(identity, 1, GenericSampler(seed=30), cov)


def test_matrix_antichain_matches_linorder(rng):
    for _ in range(6):
        R, _ = rand_dual_basis_linorder(rng, rng.randint(2, 4))
        V = to_matrix_space(R)
        assert is_nilpotent_algebra(V)
        c = ncrank(V, GenericSampler(seed=31)).dual.antichain()
        assert c.dim == R.n - matroid_intersection(R)[1].size


def _coherent(V, r, seed):
    """`matrix_coherent_decomposition` at r, with the cover drawn from the same sampler."""
    sampler = GenericSampler(seed=seed)
    return matrix_coherent_decomposition(V, r, sampler, ncrank(V, sampler).dual)


def test_matrix_coherent_decomposition(rng):
    v0 = MatrixSpace(2, 2, [])
    D = _coherent(v0, 1, 33)
    assert D.size == 2

    e = [unit_vec(4, i) for i in range(4)]
    V = to_matrix_space(poset_embed(Poset(4, [(0, 1), (0, 2), (0, 3)])))
    D = _coherent(V, 3, 34)
    assert D.size == 9  # 3 * antichain dimension 3

    for _ in range(4):
        R, _ = rand_dual_basis_linorder(rng, rng.randint(2, 4))
        V = to_matrix_space(R)
        r = max(1, V.n - 1)
        D = _coherent(V, r, 35)
        assert D.size == r * (R.n - matroid_intersection(R)[1].size)


def test_matrix_coherent_decomposition_draws_on_while_the_rank_is_not_a_multiple_of_r(monkeypatch):
    """Two rank-1 draws of span{e12} (x) M_2 miss the maximum 2; the loop draws on to it."""
    V = MatrixSpace(2, 2, [Mat([[0, 1], [0, 0]])])
    cover = ncrank(V, GenericSampler(seed=0)).dual
    assert cover.size == 1

    def blown(c):
        """e12 (x) c in the layout of `sample_element`: [[0, c], [0, 0]]."""
        return Mat([[0, 0] + c[0], [0, 0] + c[1], [0] * 4, [0] * 4])

    draws = [blown([[1, 0], [0, 0]]), blown([[2, 0], [0, 0]]), blown([[1, 2], [3, 4]])]
    calls = []

    def scripted(space, sampler, r=1):
        calls.append(r)
        return draws[len(calls) - 1]

    monkeypatch.setattr(relation, "sample_element", scripted)
    D = matrix_coherent_decomposition(V, 2, GenericSampler(seed=0, trials=2), cover)
    assert calls == [2, 2, 2]
    assert D.A == draws[2] and D.size == 2


def test_blowup_of_nilpotent_algebra_is_one(rng):
    for _ in range(4):
        R, _ = rand_dual_basis_linorder(rng, rng.randint(2, 3))
        V = to_matrix_space(R)
        for r in (1, 2):
            blown = blow_up(V, r).space
            assert is_nilpotent_algebra(blown)


def test_mpc_examples():
    v0 = MatrixSpace(3, 3, [])
    full = Subspace.full(3)
    cv = mpc(v0, full, full, routing_space(v0, full, full), GenericSampler(seed=37))
    assert cv.value == cv.dual.size == 3

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
    V = to_matrix_space(R)
    E = Subspace.span(7, [e[0], e[1]])
    F = Subspace.span(7, [e[5], e[6]])
    cv = mpc(V, E, F, routing_space(V, E, F), GenericSampler(seed=38))
    assert cv.value == cv.dual.size == 1

    with pytest.raises(DimensionError):
        routing_space(MatrixSpace(2, 3, []), Subspace.zero(3), Subspace.zero(3))


def test_mpc_matches_cpc(rng):
    for _ in range(6):
        n = rng.randint(2, 3)
        R = rand_relation(rng, n, n, rng.randint(1, 4))
        E = rand_subspace(rng, n, max_dim=1)
        F = rand_subspace(rng, n, max_dim=1)
        V = to_matrix_space(R)
        a = mpc(V, E, F, routing_space(V, E, F), GenericSampler(seed=41))
        routing = routing_space(R, E, F)
        b = mpc(R, E, F, routing, GenericSampler(seed=42))
        assert a.value == b.value == mpc(R, E, F, routing, GenericSampler(seed=43)).dual.size


def test_blowup_sampling_shortfall_is_a_certification_error(monkeypatch):
    import linminmax.relation as rel
    from linminmax.errors import CertificationError

    def rank_one(V, sampler, r=1):
        side = V.n * r
        return Mat([[int(i == j == 0) for j in range(side)] for i in range(V.m * r)], side)

    monkeypatch.setattr(rel, "sample_element", rank_one)
    with pytest.raises(CertificationError):
        max_rank_blowup(skew3(), 2, GenericSampler(seed=3))


def test_order_one_of_a_nonzero_space_needs_no_budget():
    """Order 1 is the space itself; only a blow-up, or the zero space, meets the side limit."""
    from linminmax.errors import CertificationError

    column = MatrixSpace(70, 1, [Mat([[1]] * 70, 1)])
    cv = ncrank(column, GenericSampler(seed=1))
    assert cv.value == cv.dual.size == 1 and cv.primal[0] == 1
    with pytest.raises(CertificationError, match="blow-up side 140"):
        max_rank_blowup(column, 2, GenericSampler(seed=1))
    with pytest.raises(CertificationError, match="blow-up side 70"):
        ncrank(MatrixSpace(70, 1, []), GenericSampler(seed=1))


# ---------------------------------------------------------------------------
# Wong-sequence duals


def _slices(U: Subspace, n: int, r: int) -> Subspace:
    """span of the r slices (u[j r + l])_j of the vectors u of U."""
    return Subspace.span(
        n, [Vec(u.entries[l::r]) for u in U.vectors for l in range(r)]
    )


def _tensor_fr(X: Subspace, r: int) -> Subspace:
    """X (x) F^r, with x (x) e_k at the indices i r + k."""
    vecs = []
    for x in X.vectors:
        for k in range(r):
            vecs.append(Vec([x[i] if l == k else 0 for i in range(X.ambient) for l in range(r)]))
    return Subspace.span(X.ambient * r, vecs)


def test_blowup_image_is_the_slice_image(rng):
    """(V (x) M_r)[U] = V[U'] (x) F^r, against the blow-up basis."""
    for r in (2, 3):
        for _ in range(4):
            m, n = rng.randint(1, 3), rng.randint(2, 3)
            V = MatrixSpace(m, n, [])
            while V.dim < 2:
                try:
                    V = MatrixSpace(m, n, list(V.basis) + [rand_mat(rng, m, n)])
                except ValueError:
                    pass
            U = rand_subspace(rng, n * r, max_dim=2)
            blown = apply_space(blow_up(V, r).space, U)
            assert blown == _tensor_fr(apply_space(V, _slices(U, n, r)), r)


def test_wong_limit_matches_the_blown_up_sequence(rng):
    """The slice-level routine against W_{i+1} = (V (x) M_r)[A^{-1}(W_i)] on the blow-up."""
    for r in (1, 2):
        for _ in range(4):
            n = rng.randint(2, 3)
            V = to_matrix_space(rand_relation(rng, n, n, rng.randint(1, 3)))
            big = blow_up(V, r).space
            A = sample_element(big, GenericSampler(seed=50 + r))
            W = Subspace.zero(n * r)
            while True:
                # A^{-1}(W) = kernel of Q A, with the rows of Q spanning W^perp
                Q = W.orthocomplement()
                if Q.dim:
                    U = (Mat([q.entries for q in Q.vectors], n * r) @ A).kernel()
                else:
                    U = Subspace.full(n * r)
                grown = apply_space(big, U)
                if grown == W:
                    break
                W = grown
            limit, image = wong_limit(V, r, A)
            assert limit == _slices(U, n, r)
            assert _tensor_fr(image, r) == W


def _check_ncrank_certificate(V, cv):
    """The dual's defect, the element's membership in V (x) M_r and its rank."""
    U = cv.dual.U
    assert cv.dual.F == apply_space(V, U)
    assert V.n - cv.dual.size == U.dim - apply_space(V, U).dim
    assert cv.value == cv.dual.size
    r, element = cv.primal
    assert space_contains(blow_up(V, r).space, element)
    assert element.rank() == r * cv.value


def _planted_space(rng, n, dim, big, small):
    """dim generators mapping span(e_0..e_{big-1}) into span(e_0..e_{small-1}),
    under a random change of basis on both sides."""

    def invertible():
        while True:
            M = rand_mat(rng, n, n, bound=2)
            if M.rank() == n:
                return M

    P, Q = invertible(), invertible()
    mats = []
    while len(mats) < dim:
        B = [
            [0 if i >= small and j < big else rng.randint(-2, 2) for j in range(n)]
            for i in range(n)
        ]
        cand = P @ Mat(B, n) @ Q
        try:
            MatrixSpace(n, n, mats + [cand])
            mats.append(cand)
        except ValueError:
            pass
    return MatrixSpace(n, n, mats)


def test_fault_a_planted_block_is_proved():
    """n = 5 with a planted 3 -> 2 block: ncrank 4."""
    V = _planted_space(random.Random("fault-a:1"), 5, 3, 3, 2)
    cv = ncrank(V, GenericSampler(seed=0, trials=10))
    assert cv.value == cv.dual.size == 4
    _check_ncrank_certificate(V, cv)


def test_fault_b_rank_one_space_without_pairs_is_proved():
    """A rank-one 4x4 space given without its pairs: mpc 1, as cpc on the pairs."""
    rng = random.Random("fault-b:0")
    pairs = []
    while len(pairs) < 3:
        pair = (rand_vec(rng, 4, 2, nonzero=True), rand_vec(rng, 4, 2, nonzero=True))
        if to_matrix_space(Relation(4, 4, pairs + [pair])).dim == len(pairs) + 1:
            pairs.append(pair)
    V = MatrixSpace(4, 4, [outer(w, v) for v, w in pairs])
    E = Subspace.span(4, [rand_vec(rng, 4, 2, nonzero=True) for _ in range(2)])
    F = Subspace.span(4, [rand_vec(rng, 4, 2, nonzero=True)])
    cv = mpc(V, E, F, routing_space(V, E, F), GenericSampler(seed=0, trials=10))
    assert cv.value == cv.dual.size == 1
    assert verify_separator(V, E, F, cv.dual)
    R = Relation(4, 4, pairs)
    assert mpc(R, E, F, routing_space(R, E, F), GenericSampler(seed=1)).value == 1


def test_hidden_shrunk_spaces_are_proved():
    rng = random.Random(4321)
    for n in range(4, 9):
        for big in (2, n // 2 + 1, n - 1):
            V = _planted_space(rng, n, 3, big, big - 1)
            cv = ncrank(V, GenericSampler(seed=n, trials=10))
            assert cv.value == cv.dual.size, (n, big)
            assert cv.value <= n - 1
            _check_ncrank_certificate(V, cv)


def test_matrix_dilworth_checks_nilpotency_even_with_a_cover(tmp_path, capsys):
    """Every element of span{e12, e23} is nilpotent, but e12 e23 = e13 is outside it."""
    e12 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    V = MatrixSpace(3, 3, [e12, e23])
    assert ncrank(V, GenericSampler(seed=40)).dual.size == 2
    assert not is_nilpotent_algebra(V)
    path = tmp_path / "path-space.json"
    path.write_text(json.dumps(V.to_json()))
    assert main(["check", "matrix-dilworth", str(path)]) == EXIT_PARSE
    assert "needs a nilpotent algebra" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# one draw per proved order: sampling stops once the primal meets its dual

GOLDEN = Path(__file__).parent / "golden"


def _record_draws_and_wong_limits(monkeypatch):
    """Patch the sampler and the Wong limits to record the order r of each call."""
    draws, limits = [], []
    sample = relation.sample_element

    def counting_sample(V, sampler, r=1):
        draws.append(r)
        return sample(V, sampler, r)

    monkeypatch.setattr(relation, "sample_element", counting_sample)
    for module in (ncrank_module, menger):
        limit = module.wong_limit

        def counting_limit(V, r, A, limit=limit):
            limits.append(r)
            return limit(V, r, A)

        monkeypatch.setattr(module, "wong_limit", counting_limit)
    return draws, limits


@pytest.mark.parametrize("theorem", ["ncrank", "matrix-menger"])
def test_golden_checks_draw_one_element_per_proved_order(theorem, monkeypatch, capsys):
    draws, limits = _record_draws_and_wong_limits(monkeypatch)
    argv = ["check", theorem, str(GOLDEN / f"{theorem}.json"), "--output", "json", "--trials", "10"]
    assert main(argv) == EXIT_PROVED
    assert capsys.readouterr().out == (GOLDEN / f"{theorem}.out").read_text()
    tried = sorted(set(draws))
    per_order = Counter(draws)
    assert per_order[tried[-1]] == 1
    assert all(per_order[r] == 10 for r in tried[:-1])
    assert limits == tried


def test_an_order_that_is_not_proved_draws_every_trial(monkeypatch):
    """skew3 has commutative rank 2 and ncrank 3: r = 1 is not proved, r = 2 is."""
    draws, limits = _record_draws_and_wong_limits(monkeypatch)
    cv = ncrank(skew3(), GenericSampler(seed=3, trials=7))
    assert cv.value == cv.dual.size == 3 and cv.primal[0] == 2
    assert Counter(draws) == {1: 7, 2: 1}
    assert limits == [1, 2]


def test_wong_limit_runs_once_per_order_tried(monkeypatch, rng):
    draws, limits = _record_draws_and_wong_limits(monkeypatch)
    for trial in range(6):
        V = spanned(3, 3, [rand_mat(rng, 3, 3, 1) for _ in range(rng.randint(1, 3))])
        draws.clear()
        limits.clear()
        cv = ncrank(V, GenericSampler(seed=trial, trials=5))
        assert cv.value == cv.dual.size
        assert limits == sorted(set(draws)) == list(range(1, cv.primal[0] + 1))
        draws.clear()
        limits.clear()
        E, F = rand_subspace(rng, 3, 2), rand_subspace(rng, 3, 2)
        cv = mpc(V, E, F, routing_space(V, E, F), GenericSampler(seed=trial, trials=5))
        assert cv.value == cv.dual.size
        assert limits == sorted(set(draws))

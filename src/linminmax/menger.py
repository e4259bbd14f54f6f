"""Linear Menger: coherent path capacity and separator certificates.

The coherent path capacity between subspaces E and F relative to a relation
R is the maximum, over A in the induced matrix space, of
rank [[I - A, i],[p, 0]] - n, with i the inclusion of E and p the projection
onto F.  It equals the minimum separator size, and both sides are computed
exactly: the capacity by minimizing the rank of the bordered subset matrix
over all index subsets (a branch-and-bound whose node ranks only grow), the
separator by converting the minimizing subset.  Random sampling supplies the
primal element and an early-exit bound, never the value itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import (
    BudgetExceededError,
    DimensionError,
    InvariantViolation,
)
from .exact_linalg import (
    IntEchelon,
    Mat,
    Subspace,
    Vec,
    block,
    clear_denominators,
    hstack,
    solve_exact,
    subspace_intersection,
    subspace_sum,
    unit_vec,
    vstack,
)
from .classical_oracles import Digraph
from .dilworth import BiChain, verify_bichain
from .matching_cover import (
    LOWER_BOUND_ONLY,
    PROVED,
    CertifiedValue,
    max_matching,
)
from .relation import (
    GenericSampler,
    Relation,
    reduced_indices,
    sample_element,
    to_matrix_space,
)

DEFAULT_BUDGET = 20


@dataclass(frozen=True)
class Separator:
    """Pair (E~, F~) pinching every relation path from E to F.

    E is inside E~, F inside F~, the orthocomplement of F~ inside E~, and no
    pair jumps from F~^perp past E~; the size is dim(E~ n F~).
    """

    E_tilde: Subspace
    F_tilde: Subspace
    E: Subspace
    F: Subspace

    @property
    def size(self) -> int:
        return subspace_intersection(self.E_tilde, self.F_tilde).dim

    def to_json(self):
        return {
            "E_tilde": self.E_tilde.to_json(),
            "F_tilde": self.F_tilde.to_json(),
            "size": self.size,
        }


def verify_separator(R: Relation, sep: Separator) -> bool:
    if not sep.E_tilde.contains_subspace(sep.E):
        return False
    if not sep.F_tilde.contains_subspace(sep.F):
        return False
    if not sep.E_tilde.contains_subspace(sep.F_tilde.orthocomplement()):
        return False
    return all(
        sep.F_tilde.contains(v) or sep.E_tilde.contains(w) for v, w in R.pairs
    )


def verify_bipath(R: Relation, E: Subspace, F: Subspace, path: BiChain) -> bool:
    """A bi-chain that starts in E and ends in F."""
    return (
        verify_bichain(R, path)
        and E.contains(path.ws[0])
        and F.contains(path.vs[-1])
    )


def independent_bipaths_check(R, E, F, paths) -> bool:
    """All paths valid, with jointly independent v's and jointly independent w's."""
    if not all(verify_bipath(R, E, F, p) for p in paths):
        return False
    n = R.n
    ech_v = IntEchelon(n)
    ech_w = IntEchelon(n)
    for p in paths:
        for v in p.vs:
            if not ech_v.add(clear_denominators(v.entries)):
                return False
        for w in p.ws:
            if not ech_w.add(clear_denominators(w.entries)):
                return False
    return True


# ---------------------------------------------------------------------------
# the subset minimization behind the path capacities


class _Found(Exception):
    pass


def _min_split_rank(int_rows, base_rows: int, base_cols: int, stop_at=None):
    """Exact min over S of the rank of a split submatrix, with sound pruning.

    `int_rows` has base_rows + r rows and base_cols + r columns.  Subset S
    keeps the base rows plus the pair rows base_rows + k for k not in S, and
    the base columns plus the pair columns base_cols + k for k in S.  The
    submatrix of a partial assignment is a submatrix of every leaf below
    it, so its rank lower-bounds those leaves and the branch can be cut once
    it reaches the current best.  `stop_at` (a certified lower bound, e.g.
    from sampling) allows stopping at the first optimal subset.
    Returns (value, S).
    """
    r = len(int_rows) - base_rows
    best: int | None = None
    best_cols: list[int] = []

    def node_rank(rows, cols, cutoff):
        ech = IntEchelon(len(cols))
        for a in rows:
            src = int_rows[a]
            if ech.add([src[c] for c in cols]) and ech.rank >= cutoff:
                return ech.rank
        return ech.rank

    def dfs(k, rows, cols):
        nonlocal best, best_cols
        cutoff = best if best is not None else len(int_rows) + base_cols + 1
        rk = node_rank(rows, cols, cutoff)
        if best is not None and rk >= best:
            return
        if k == r:
            best, best_cols = rk, cols
            if stop_at is not None and best <= stop_at:
                raise _Found()
            return
        dfs(k + 1, rows, cols + [base_cols + k])  # k in S: its column joins
        dfs(k + 1, rows + [base_rows + k], cols)  # k not in S: its row joins

    try:
        dfs(0, list(range(base_rows)), list(range(base_cols)))
    except _Found:
        pass
    return best, {c - base_cols for c in best_cols if c >= base_cols}


def _capacity_search(R: Relation, E: Subspace, F: Subspace, budget, stop_at=None):
    """Exact min over S of rank([p; V_Sc^T] [i, W_S]).

    Returns (value, S, kept_indices).
    """
    kept = reduced_indices(R)
    if len(kept) > budget:
        raise BudgetExceededError(
            f"{len(kept)} independent pairs exceed the subset budget {budget}"
        )
    pairs = [R.pairs[i] for i in kept]
    row_vecs = list(F.vectors) + [v for v, _ in pairs]
    col_vecs = list(E.vectors) + [w for _, w in pairs]
    # Scaling a row or a column by a nonzero factor keeps every submatrix
    # rank, so the products of the cleared vectors serve as well.
    cols = [clear_denominators(c.entries) for c in col_vecs]
    int_rows = [
        [sum(map(mul, row, c)) for c in cols]
        for row in (clear_denominators(r.entries) for r in row_vecs)
    ]
    value, S = _min_split_rank(int_rows, len(F.vectors), len(E.vectors), stop_at)
    return value, S, kept


def _build_separator(R, E, F, kept, S) -> Separator:
    pairs = [R.pairs[i] for i in kept]
    C = subspace_sum(E, Subspace.span(R.n, [pairs[i][1] for i in S]))
    D = subspace_sum(F, Subspace.span(R.n, [pairs[i][0] for i in range(len(pairs)) if i not in S]))
    e_tilde = subspace_sum(C, D.orthocomplement())
    sep = Separator(e_tilde, D, E, F)
    if not verify_separator(R, sep):
        raise InvariantViolation("subset conversion is not a separator")
    return sep


def min_separator(
    R: Relation, E: Subspace, F: Subspace, budget: int = DEFAULT_BUDGET
) -> Separator:
    """Minimum-size (E, F)-separator from the minimizing index subset."""
    _check_square(R, E, F)
    value, S, kept = _capacity_search(R, E, F, budget)
    sep = _build_separator(R, E, F, kept, S)
    if sep.size != value:
        raise InvariantViolation("separator size differs from the subset minimum")
    return sep


def _check_square(R: Relation, E: Subspace, F: Subspace):
    if R.n != R.m:
        raise DimensionError("path capacities need a relation on F^n x F^n")
    if E.ambient != R.n or F.ambient != R.n:
        raise DimensionError("E and F must live in the relation's space")


def _inclusion(E: Subspace, n: int) -> Mat:
    return E.basis if E.dim else Mat.zeros(n, 0)


def _projection(F: Subspace, n: int) -> Mat:
    return F.basis.transpose() if F.dim else Mat.zeros(0, n)


def bordered_matrix(A: Mat, E: Subspace, F: Subspace) -> Mat:
    """[[I - A, i],[p, 0]] with i = basis of E, p = transposed basis of F."""
    n = A.rows
    iota = _inclusion(E, n)
    pi = _projection(F, n)
    return block(
        [
            [Mat.identity(n) - A, iota],
            [pi, Mat.zeros(pi.rows, iota.cols)],
        ]
    )


def bordered_rank(A: Mat, E: Subspace, F: Subspace) -> int:
    return bordered_matrix(A, E, F).rank()


def subset_bordered_matrix(R, E, F, kept, S) -> Mat:
    """[[I, i, W_S],[p, 0, 0],[V_Sc^T, 0, 0]] from the capacity proof."""
    n = R.n
    iota = _inclusion(E, n)
    pi = _projection(F, n)
    ws = [R.pairs[kept[i]][1] for i in sorted(S)]
    vs = [R.pairs[kept[i]][0] for i in range(len(kept)) if i not in S]
    w_mat = Mat.from_cols(ws, rows=n) if ws else Mat.zeros(n, 0)
    v_mat = (
        Mat([v.entries for v in vs], n) if vs else Mat.zeros(0, n)
    )
    top = hstack([Mat.identity(n), iota, w_mat])
    mid = hstack([pi, Mat.zeros(pi.rows, iota.cols), Mat.zeros(pi.rows, w_mat.cols)])
    bot = hstack(
        [v_mat, Mat.zeros(v_mat.rows, iota.cols), Mat.zeros(v_mat.rows, w_mat.cols)]
    )
    return vstack([top, mid, bot])


def cpc(
    R: Relation,
    E: Subspace,
    F: Subspace,
    sampler: GenericSampler,
    budget: int = DEFAULT_BUDGET,
) -> CertifiedValue:
    """Coherent path capacity with a sampled primal and separator dual.

    The value is the exact subset minimum; sampling provides the element
    whose bordered rank attains it (and an early-exit bound for the
    enumeration).  Guttman rank additivity is asserted on every sampled A
    with I - A invertible.
    """
    _check_square(R, E, F)
    n = R.n
    space = to_matrix_space(R)
    best_A = Mat.zeros(n, n)
    best_rank = bordered_rank(best_A, E, F) - n
    _assert_guttman(best_A, E, F)
    for _ in range(sampler.trials):
        A = sample_element(space, sampler)
        _assert_guttman(A, E, F)
        val = bordered_rank(A, E, F) - n
        if val > best_rank:
            best_rank, best_A = val, A
    value, S, kept = _capacity_search(R, E, F, budget, stop_at=best_rank)
    if value < best_rank:
        raise InvariantViolation("sampled rank exceeded the subset minimum")
    sep = _build_separator(R, E, F, kept, S)
    if sep.size != value:
        raise InvariantViolation("separator size differs from capacity")
    if subset_bordered_matrix(R, E, F, kept, S).rank() != n + value:
        raise InvariantViolation("subset bordered matrix rank mismatch")
    status = PROVED if best_rank == value else LOWER_BOUND_ONLY
    return CertifiedValue(value, best_A, sep, status)


def _assert_guttman(A: Mat, E: Subspace, F: Subspace):
    """rank [[I-A, i],[p, 0]] = n + rank(p (I-A)^{-1} i) when I-A is invertible."""
    n = A.rows
    m = Mat.identity(n) - A
    inv_iota = solve_exact(m, _inclusion(E, n))
    if inv_iota is None:
        return
    schur_rank = (_projection(F, n) @ inv_iota).rank()
    if bordered_rank(A, E, F) != n + schur_rank:
        raise InvariantViolation("Guttman rank additivity failed")


# ---------------------------------------------------------------------------
# subset formulas for generic ranks


def generic_rank_rank_one_update(A: Mat, v: Vec, w: Vec) -> int:
    """Generic rank of A + x w v^T: min(rank [A | w], rank [A ; v^T])."""
    if v.dim != A.cols or w.dim != A.rows:
        raise DimensionError("rank-one update with mismatched shapes")
    col_aug = hstack([A, Mat.from_cols([w])])
    row_aug = vstack([A, Mat([v.entries], A.cols)])
    return min(col_aug.rank(), row_aug.rank())


def generic_rank_sum(A: Mat, pairs, budget: int = DEFAULT_BUDGET) -> int:
    """Generic rank of A + sum_i x_i w_i v_i^T over the subset formula.

    Minimizes rank [[A, W_S],[V_Sc^T, 0]] over subsets S by the same
    monotone branch-and-bound as the capacity search, on the integer rows
    of [[A, W],[V^T, 0]].
    """
    pairs = list(pairs)
    if len(pairs) > budget:
        raise BudgetExceededError(
            f"{len(pairs)} pairs exceed the subset budget {budget}"
        )
    for v, w in pairs:
        if v.dim != A.cols or w.dim != A.rows:
            raise DimensionError("update pair with mismatched shape")
    r = len(pairs)
    int_rows = [
        clear_denominators(list(row) + [w[i] for _, w in pairs])
        for i, row in enumerate(A.row_tuples())
    ]
    int_rows += [clear_denominators(list(v.entries) + [0] * r) for v, _ in pairs]
    return _min_split_rank(int_rows, A.rows, A.cols)[0]


# ---------------------------------------------------------------------------
# graph encoding and the Konig reduction


def graph_instance(G: Digraph, H, K, with_loops: bool = False):
    """Standard-basis encoding of a digraph with source and sink vertex sets.

    Returns (R, E, F); with_loops adds a pair (e_i, e_i) per vertex, the
    augmentation used by the classical separator correspondence.
    """
    n = G.size
    pairs = [(unit_vec(n, i), unit_vec(n, j)) for i, j in G.edges]
    if with_loops:
        pairs += [(unit_vec(n, i), unit_vec(n, i)) for i in range(n)]
    E = Subspace.span(n, [unit_vec(n, i) for i in H])
    F = Subspace.span(n, [unit_vec(n, i) for i in K])
    return Relation(n, n, pairs), E, F


def konig_via_menger(
    R: Relation, sampler: GenericSampler, budget: int = DEFAULT_BUDGET
) -> CertifiedValue:
    """Maximum matching value recovered through the path-capacity machinery.

    Embeds R on F^{n+m} as (v + 0, 0 + w), routes from F^n + 0 to 0 + F^m,
    and checks the block rank identity that makes the capacity collapse to
    rank(A) + n + m on sampled elements.
    """
    n, m = R.n, R.m
    big = n + m
    lifted = [
        (Vec(list(v.entries) + [0] * m), Vec([0] * n + list(w.entries)))
        for v, w in R.pairs
    ]
    R2 = Relation(big, big, lifted)
    E = Subspace.span(big, [unit_vec(big, i) for i in range(n)])
    F = Subspace.span(big, [unit_vec(big, n + j) for j in range(m)])

    space = to_matrix_space(R)
    for _ in range(3):
        A = sample_element(space, sampler)
        stacked = block(
            [
                [Mat.identity(n), Mat.zeros(n, m), Mat.identity(n)],
                [-A, Mat.identity(m), Mat.zeros(m, n)],
                [Mat.zeros(m, n), Mat.identity(m), Mat.zeros(m, n)],
            ]
        )
        if stacked.rank() != A.rank() + n + m:
            raise InvariantViolation("Konig reduction rank identity failed")

    capacity = cpc(R2, E, F, sampler, budget)
    direct = max_matching(R)
    if capacity.value != direct.value:
        raise InvariantViolation(
            "path capacity disagrees with the matching optimum"
        )
    return capacity

"""Linear Menger: coherent path capacity and separator certificates.

The coherent path capacity between subspaces E and F relative to a relation
R is the maximum, over A in the induced matrix space, of
rank [[I - A, i],[p, 0]] - n, with i the inclusion of E and p the projection
onto F.  It equals the minimum separator size.  Every such bordered matrix
lies in the routing space spanned by [[I, i],[p, 0]] and the embedded
[[A, 0],[0, 0]], so the sampled element of largest bordered rank is the
primal, and the dual is read off the limit U' of its second Wong sequence
(`relation.wong_limit`): with X the projection of U' onto the first n
coordinates, F~ = X^perp and E~ = X + E + V[X].  The value is proved when
the separator size meets the sampled rank, which for a relation happens at
blow-up order r = 1.  No subset is enumerated, so there is no size limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from . import verify
from .errors import (
    DimensionError,
    InvariantViolation,
)
from .exact_linalg import (
    IntEchelon,
    Mat,
    Subspace,
    Vec,
    block,
    hstack,
    solve_exact,
    subspace_intersection,
    subspace_sum,
    unit_vec,
    vstack,
)
from .classical_oracles import Digraph
from .matching_cover import (
    LOWER_BOUND_ONLY,
    PROVED,
    CertifiedValue,
    max_matching,
)
from .relation import (
    GenericSampler,
    MatrixSpace,
    Relation,
    apply_space,
    sample_element,
    to_matrix_space,
    wong_limit,
)


@dataclass(frozen=True)
class Separator:
    """Pair (E~, F~) pinching every relation path from E to F.

    E is inside E~, F inside F~, the orthocomplement of F~ inside E~, and no
    pair jumps from F~^perp past E~; the size dim(E~ n F~) is computed once.
    """

    E_tilde: Subspace
    F_tilde: Subspace
    E: Subspace
    F: Subspace

    @cached_property
    def size(self) -> int:
        return subspace_intersection(self.E_tilde, self.F_tilde).dim

    def to_json(self):
        return {
            "E_tilde": self.E_tilde.to_json(),
            "F_tilde": self.F_tilde.to_json(),
            "size": self.size,
        }


def _check_square(R: Relation, E: Subspace, F: Subspace):
    if R.n != R.m:
        raise DimensionError("path capacities need a relation on F^n x F^n")
    if E.ambient != R.n or F.ambient != R.n:
        raise DimensionError("E and F must live in the relation's space")


def _inclusion(E: Subspace, n: int) -> Mat:
    return E.basis if E.dim else Mat.zeros(n, 0)


def _projection(F: Subspace, n: int) -> Mat:
    return F.basis.transpose() if F.dim else Mat.zeros(0, n)


def _border(E: Subspace, F: Subspace, n: int) -> tuple[Mat, Mat, Mat]:
    """(i, p, [[I, i],[p, 0]]) with i = basis of E, p = transposed basis of F."""
    iota = _inclusion(E, n)
    pi = _projection(F, n)
    base = block(
        [
            [Mat.identity(n), iota],
            [pi, Mat.zeros(pi.rows, iota.cols)],
        ]
    )
    return iota, pi, base


def _top_left(A: Mat, like: Mat) -> Mat:
    """[[A, 0],[0, 0]] in the shape of `like`."""
    pad = (0,) * (like.cols - A.cols)
    rows = tuple(row + pad for row in A.int_rows())
    zero_rows = ((0,) * like.cols,) * (like.rows - A.rows)
    return Mat.from_int_rows(rows + zero_rows, A.den, like.cols)


def bordered_matrix(A: Mat, E: Subspace, F: Subspace) -> Mat:
    """[[I - A, i],[p, 0]] with i = basis of E, p = transposed basis of F."""
    base = _border(E, F, A.rows)[2]
    return base - _top_left(A, base)


def bordered_rank(A: Mat, E: Subspace, F: Subspace) -> int:
    return bordered_matrix(A, E, F).rank()


# ---------------------------------------------------------------------------
# the routing space and its Wong separator


def _mpc_space(V: MatrixSpace, base: Mat) -> MatrixSpace:
    """Routing space spanned by the border `base` and the embedded [[A,0],[0,0]].

    `base` is [[I, i],[p, 0]], the third entry of `_border`.
    """
    return MatrixSpace.spanned(base.rows, base.cols, [base] + [_top_left(a, base) for a in V.basis])


def wong_separator(V, routing, E, F, r: int, el: Mat) -> Separator:
    """The separator read off the Wong limit of `el` in routing (x) M_r.

    `routing` is `_mpc_space(V, E, F)`.  X is the projection of the limit
    U' onto the first n coordinates, cut to F^perp so that F~ = X^perp
    contains F; then E~ = X + E + V[X] meets the matrix-sense conditions.
    """
    n = V.n
    U, _ = wong_limit(routing, r, el)
    X = subspace_intersection(
        Subspace.span(n, [Vec.from_ints(row[:n]) for row in U.int_rows()]),
        F.orthocomplement(),
    )
    e_tilde = subspace_sum(subspace_sum(X, E), apply_space(V, X))
    return Separator(e_tilde, X.orthocomplement(), E, F)


def cpc(
    R: Relation, E: Subspace, F: Subspace, sampler: GenericSampler
) -> CertifiedValue:
    """Coherent path capacity with a sampled primal and a Wong separator dual.

    The primal is the sampled A (or A = 0) of largest bordered rank.  Its
    bordered matrix is an element of the routing space, and the separator
    comes from its Wong limit at r = 1; the value is proved when the rank
    is n plus the separator size.  Guttman rank additivity is asserted on
    every sampled A with I - A invertible.
    """
    _check_square(R, E, F)
    n = R.n
    space = to_matrix_space(R)
    iota, pi, base = _border(E, F, n)
    best = None
    samples = (sample_element(space, sampler) for _ in range(sampler.trials))
    for A in chain([Mat.zeros(n, n)], samples):
        bordered = base - _top_left(A, base)
        rank = bordered.rank()
        _assert_guttman(A, iota, pi, rank)
        if best is None or rank > best[0]:
            best = (rank, A, bordered)
    rank, A, bordered = best
    routing = _mpc_space(space, base)
    sep = wong_separator(space, routing, E, F, 1, bordered)
    status = PROVED if sep.size == rank - n else LOWER_BOUND_ONLY
    return CertifiedValue(rank - n, A, sep, status)


def _assert_guttman(A: Mat, iota: Mat, pi: Mat, rank: int):
    """rank [[I-A, i],[p, 0]] = n + rank(p (I-A)^{-1} i) when I-A is invertible.

    `rank` is the left side, which the caller has computed.
    """
    n = A.rows
    inv_iota = solve_exact(Mat.identity(n) - A, iota)
    if inv_iota is None:
        return
    if rank != n + (pi @ inv_iota).rank():
        raise InvariantViolation("Guttman rank additivity failed")


# ---------------------------------------------------------------------------
# subset formulas for generic ranks


def generic_rank_rank_one_update(A: Mat, v: Vec, w: Vec) -> int:
    """Generic rank of A + x w v^T: min(rank [A | w], rank [A ; v^T])."""
    if v.dim != A.cols or w.dim != A.rows:
        raise DimensionError("rank-one update with mismatched shapes")
    col_aug = hstack([A, Mat.from_cols([w])])
    row_aug = vstack([A, Mat.from_cols([v]).transpose()])
    return min(col_aug.rank(), row_aug.rank())


def generic_rank_sum(A: Mat, pairs) -> int:
    """Generic rank of A + sum_i x_i w_i v_i^T by the subset formula.

    The minimum over subsets S of rank [[A, W_S],[V_Sc^T, 0]], taken over
    every subset: exponential in the number of pairs, so meant for a few.
    """
    pairs = list(pairs)
    for v, w in pairs:
        if v.dim != A.cols or w.dim != A.rows:
            raise DimensionError("update pair with mismatched shape")
    k = len(pairs)
    # Scaling a row by a nonzero factor keeps every rank, so [A | W] is
    # taken once as integer rows over one denominator, and each v^T alone.
    top = hstack([A, Mat.from_cols([w for _, w in pairs], rows=A.rows)]).int_rows()
    bottom = [list(v.int_row()) for v, _ in pairs]
    best = None
    for mask in range(1 << k):
        cols = list(range(A.cols)) + [A.cols + j for j in range(k) if mask >> j & 1]
        ech = IntEchelon(len(cols))
        for row in top:
            ech.add([row[c] for c in cols])
        for j in range(k):
            if not mask >> j & 1:
                ech.add(bottom[j] + [0] * (len(cols) - A.cols))
        best = ech.rank if best is None else min(best, ech.rank)
    return best


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


def konig_via_menger(R: Relation, sampler: GenericSampler) -> CertifiedValue:
    """Maximum matching value recovered through the path-capacity machinery.

    Embeds R on F^{n+m} as (v + 0, 0 + w), routes from F^n + 0 to 0 + F^m,
    and checks the block rank identity that makes the capacity collapse to
    rank(A) + n + m on sampled elements.
    """
    n, m = R.n, R.m
    big = n + m
    lifted = [
        (
            Vec.from_ints(v.int_row() + (0,) * m, v.den),
            Vec.from_ints((0,) * n + w.int_row(), w.den),
        )
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

    capacity = cpc(R2, E, F, sampler)
    if not verify.verify_separator(R2, capacity.dual):
        raise InvariantViolation("Wong separator fails the separator axioms")
    direct = max_matching(R)
    if capacity.value != direct.value:
        raise InvariantViolation(
            "path capacity disagrees with the matching optimum"
        )
    return capacity

"""Linear and matricial Menger: path capacities and separator certificates.

The matricial path capacity from E to F relative to a square space V is
the maximum, over A in the blow-ups of V, of the rank of
[[I - A, i],[p, 0]] minus n, with i the inclusion of E and p the
projection onto F; it equals the minimum size dim(E~ n F~) of a separator
(E~, F~) with V[F~^perp] inside E~.  Every such bordered matrix lies in
the routing space of V (`relation.routing_space`), which the caller builds
once from the instance, so `mpc` is the noncommutative rank of that space
minus n, found by `ncrank.wong_rank`: a sampled routing element of order
r is the primal, and the dual is read off the limit U' of its second Wong
sequence (`relation.wong_limit`): with X the projection of U' onto the
first n coordinates, cut to F^perp, F~ = X^perp and E~ = X + E + V[X].
The value is proved when the rank of the element is r(n + size).

The coherent path capacity of a relation R is the matricial one of its
space V_R, and `mpc` takes R itself: the routing space of R is spanned
by the border and the embedded rank-ones w v^T, and V_R[X] is the
neighborhood span N(X), so the n*m-wide span V_R is never built.
V_R[F~^perp] lies inside E~ exactly when every pair has v in F~ or w in
E~, so the separator is one in the relation sense too, and it meets the
sampled rank at order r = 1.  No subset is enumerated, and order 1 needs
no blow-up budget, so linear Menger has no size limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import verify
from .errors import DimensionError, InvariantViolation
from .exact_linalg import (
    IntEchelon,
    Mat,
    Subspace,
    Vec,
    block,
    hstack,
    subspace_intersection,
    subspace_sum,
    unit_vec,
    vstack,
)
from .matching_cover import CertifiedValue, max_matching
from .ncrank import wong_rank
from .relation import (
    GenericSampler,
    MatrixSpace,
    Relation,
    apply_space,
    bordered_matrix,
    routing_space,
    sample_element,
    to_matrix_space,
    wong_limit,
)


@dataclass(frozen=True)
class Separator:
    """Pair (E~, F~) pinching every path from E to F relative to a space V.

    E is inside E~, F inside F~, and F~^perp and V[F~^perp] inside E~; the
    instance (V, E, F) is not stored, and the size dim(E~ n F~) is
    computed once.
    """

    E_tilde: Subspace
    F_tilde: Subspace

    @cached_property
    def size(self) -> int:
        return subspace_intersection(self.E_tilde, self.F_tilde).dim

    def to_json(self):
        return {
            "E_tilde": self.E_tilde.to_json(),
            "F_tilde": self.F_tilde.to_json(),
            "size": self.size,
        }


def bordered_rank(A: Mat, E: Subspace, F: Subspace) -> int:
    return bordered_matrix(A, E, F).rank()


def mpc(
    V, E: Subspace, F: Subspace, routing: MatrixSpace, sampler: GenericSampler
) -> CertifiedValue:
    """Matricial path capacity: ncrank of `routing`, the routing space of V, minus n.

    V is a square matrix space or relation.  The primal is a routing
    element (r, el) of rank r(n + value), and the dual the Wong separator
    of the draw behind the value.
    """
    n = V.n

    def separator(r: int, el: Mat):
        U, _ = wong_limit(routing, r, el)
        X = subspace_intersection(
            Subspace.span(n, [Vec.from_ints(row[:n]) for row in U.int_rows()]),
            F.orthocomplement(),
        )
        e_tilde = subspace_sum(subspace_sum(X, E), apply_space(V, X))
        sep = Separator(e_tilde, X.orthocomplement())
        return sep, n + sep.size

    full = Subspace.full(n)
    cv = wong_rank(routing, sampler, separator, (Separator(full, full), 2 * n))
    return CertifiedValue(cv.value - n, cv.primal, cv.dual)


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


def graph_instance(G, H, K, with_loops: bool = False):
    """Standard-basis encoding of a digraph (`size`, `edges`) with source and sink sets.

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

    capacity = mpc(R2, E, F, routing_space(R2, E, F), sampler)
    if not verify.verify_separator(R2, E, F, capacity.dual):
        raise InvariantViolation("Wong separator fails the separator axioms")
    direct = max_matching(R)
    if capacity.value != direct.value:
        raise InvariantViolation(
            "path capacity disagrees with the matching optimum"
        )
    return capacity

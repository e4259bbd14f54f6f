"""Noncommutative rank via blow-ups, with covers as dual certificates.

The noncommutative rank of a matrix space V in M_{m,n} is (1/r) times the
maximum rank in the blow-up V (x) M_r, attained for every r >= n-1, and by
Fortin and Reutenauer the minimum size n - dim U + dim V[U] of a cover:
a subspace U with its image V[U].  That size is n minus the defect
dim U - dim V[U], and bounds every blow-up rank by r times itself, while a
sampled blow-up element of that rank is the primal.  Every blow-up draw
goes through one loop, `relation.best_sample`, which refuses an order
beyond `relation.max_order` (order 1 of a nonzero space is the space
itself and always runs) and stops at the first draw whose rank meets r
times its own bound.  `wong_rank` runs it for r = 1 .. n - 1 as far as
`max_order` allows, with the dual of each draw that beats the best so far
read off the limit U' of its second Wong sequence (`wong_limit`): for
`ncrank` the cover (U', V[U']) itself, which matrix Kőnig reports as its
minimum cover.  An order that is not proved draws all `trials` and keeps
the dual of its first maximum.  The path capacities of `menger` run the
same orders on a routing space, with a separator as the dual.  Matrix
Dilworth on an algebra whose basis is not all rank-ones is one run of the
same loop at r = n - 1 with the same cover bound: the draw that meets it
gives both the minimum cover, whose antichain the check reports, and the
Jordan chains of the coherent decomposition.  On a basis of rank-ones
x_i y_i^T it draws nothing: one matroid intersection of the factor
relation {(y_i, x_i)} (`relation.rank_one_relation`) gives the minimum
cover and an element of maximum rank (Lovász), whose Jordan chains are
lifted to order r.  `ncrank` and matrix Kőnig sample on such a basis too.
Its check decides once that V is a nilpotent algebra
(`relation.is_nilpotent_algebra`).  An unmet bound leaves the value below
the size of its dual, never at a wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import CertificationError
from .exact_linalg import Mat, Subspace, Vec
from .dilworth import CoherentDecomposition, coherent_decomposition, nilpotent_jordan_chains
from .matching_cover import Cover, matroid_intersection
from .relation import (
    Draw,
    GenericSampler,
    MatrixSpace,
    Relation,
    best_sample,
    max_order,
    require_order,
    wong_limit,
)


@dataclass(frozen=True)
class CertifiedValue:
    """A value with its primal and dual witnesses; `verify` decides whether they meet."""

    value: int
    primal: object
    dual: object
    ranks: tuple = ()  # the largest sampled rank at each blow-up order drawn, from r = 1


def _defect_bound(V: MatrixSpace):
    """(r, el) -> (cover (U', V[U']) of el's Wong limit U', its size: a bound on ncrank V)."""

    def certify(r: int, el: Mat):
        cover = Cover(*wong_limit(V, r, el))
        return cover, cover.size

    return certify


def wong_rank(V: MatrixSpace, sampler: GenericSampler, certify, trivial) -> CertifiedValue:
    """Noncommutative rank of V with a sampled primal and a Wong-limit dual.

    `certify(r, el)` reads a certificate off the Wong limit of el in
    V (x) M_r, with the bound on ncrank V that it proves.  For r = 1, then
    each r up to n - 1 and `max_order(V)`, `best_sample` draws until rank
    el meets r times its own bound, proved, or the trials run out.
    Unproved, the value is the largest sampled rank over r, with its draw
    (r, el) as the primal, and the dual is the first certificate of
    smallest bound, or the `trivial` (cert, bound) pair, which holds for
    every draw, when none bounds lower.
    """
    best, primal, dual, ranks = -1, None, trivial, ()
    for r in range(1, max(1, min(V.n - 1, max_order(V))) + 1):
        rank_r, el, (cert, bound) = best_sample(V, sampler, r, partial(certify, r))
        ranks += (rank_r,)
        if rank_r == r * bound:
            return CertifiedValue(bound, (r, el), cert, ranks)
        if bound < dual[1]:
            dual = (cert, bound)
        if rank_r // r > best:
            best, primal = rank_r // r, (r, el)
    return CertifiedValue(best, primal, dual[0], ranks)


def ncrank(V: MatrixSpace, sampler: GenericSampler) -> CertifiedValue:
    """Noncommutative rank with primal blow-up element and minimum-cover dual.

    By the Wong-sequence theorem of Ivanyos, Karpinski, Qiao and Santha, a
    sample of maximum rank meets the cover bound of its own Wong limit, at
    r = n - 1 at the latest.  The trivial dual is the cover (0, 0), of size n.
    """
    trivial = Cover(Subspace.zero(V.n), Subspace.zero(V.m))
    return wong_rank(V, sampler, _defect_bound(V), (trivial, V.n))


def matrix_coherent_decomposition(
    V: MatrixSpace, r: int, sampler: GenericSampler
) -> tuple[Cover, CoherentDecomposition]:
    """(cover, D): a minimum cover of the nilpotent algebra V, and D a coherent decomposition.

    D decomposes F^{rn} relative to V (x) M_r.  One `best_sample` run at r
    with the Wong-limit bound: D holds the Jordan chains of an element A of
    the blow-up (a nilpotent algebra again) whose rank is r times the size
    of the cover read off its own Wong limit, which is then minimum; D's
    size is rn minus that rank.
    """
    rank, A, (cover, size) = best_sample(V, sampler, r, partial(_defect_bound(V), r))
    if rank < r * size:
        raise CertificationError(f"no sampled element reached the certified maximum rank {r * size}")
    return cover, CoherentDecomposition(A, tuple(nilpotent_jordan_chains(A)))


def rank_one_coherent_decomposition(
    V: MatrixSpace, R: Relation, r: int
) -> tuple[Cover, CoherentDecomposition]:
    """(cover, D) as `matrix_coherent_decomposition` gives them, for V spanned by R's rank-ones.

    R = `relation.rank_one_relation(V)`: pair i factors V's i-th basis
    matrix.  One matroid intersection of R gives a minimum cover and a
    maximum matching, whose rank-one sum A_1 has the maximum rank of V
    (Lovász), so nothing is drawn.  D holds the Jordan chains of A_1 (x) I_r,
    the element with coefficient I_r on each matched basis matrix and 0 on
    the others: each chain (u, len) of A_1 gives the r chains (u (x) e_k, len).
    """
    require_order(V, r)
    matching, cover = matroid_intersection(R)
    D = coherent_decomposition(matching)
    eye = [[int(k == l) for l in range(r)] for k in range(r)]
    zero = [[0] * r for _ in range(r)]
    matched = set(matching.indices)
    coeffs = [eye if i in matched else zero for i in range(len(R.pairs))]

    def lifted(row, k):
        return tuple([x if l == k else 0 for x in row for l in range(r)])

    rows = tuple(lifted(row, k) for row in D.A.int_rows() for k in range(r))
    A = Draw.of(rows, D.A.den, D.A.cols * r, coeffs)
    chains = tuple(
        (Vec.from_ints(lifted(u.int_row(), k), u.den), length)
        for u, length in D.chains
        for k in range(r)
    )
    return cover, CoherentDecomposition(A, chains)

"""Noncommutative rank via blow-ups, with covers as dual certificates.

The noncommutative rank of a matrix space V in M_{m,n} is (1/r) times the
maximum rank in the blow-up V (x) M_r, attained for every r >= n-1, and by
Fortin and Reutenauer the minimum size n - dim U + dim V[U] of a cover:
a subspace U with its image V[U].  That size is n minus the defect
dim U - dim V[U], and bounds every blow-up rank by r times itself, while a
sampled blow-up element of that rank is the primal.  Every blow-up draw
goes through one loop, `relation.best_sample`, which enforces the side
limit BLOWUP_DIM_BUDGET (order 1 of a nonzero space is the space itself
and always runs) and stops at the first draw whose rank meets r times its
own bound.  `wong_rank` runs it for r = 1 .. n - 1 as far as the side
allows, with the dual of each draw that beats the best so far read off
the limit U' of its second Wong sequence (`wong_limit`): for `ncrank` the
cover (U', V[U']) itself, which matrix Kőnig reports as its minimum
cover.  An order that is not proved draws all `trials` and keeps the dual
of its first maximum.  The path capacities of `menger` run the same orders on a
routing space, with a separator as the dual.  Matrix Dilworth takes the
Jordan chains of a blow-up element that the same loop draws with the
cover size as its bound: the one coherent decomposition that samples,
since a linorder's reads its maximum matching.  Its check decides once
that V is a nilpotent algebra (`relation.is_nilpotent_algebra`).  An unmet
bound leaves the value below the size of its dual, never at a wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import CertificationError
from .exact_linalg import Mat, Subspace
from .dilworth import CoherentDecomposition, nilpotent_jordan_chains
from .matching_cover import Cover
from .relation import (
    BLOWUP_DIM_BUDGET,
    GenericSampler,
    MatrixSpace,
    best_sample,
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
    each r up to n - 1 whose blow-up side stays within BLOWUP_DIM_BUDGET,
    `best_sample` draws until rank el meets r times its own bound, proved,
    or the trials run out.  Unproved, the value is the largest sampled
    rank over r, with its draw (r, el) as the primal, and the dual is the
    first certificate of smallest bound, or the `trivial` (cert, bound)
    pair, which holds for every draw, when none bounds lower.
    """
    best, primal, dual, ranks = -1, None, trivial, ()
    for r in range(1, max(1, min(V.n - 1, BLOWUP_DIM_BUDGET // max(V.m, V.n, 1))) + 1):
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
    V: MatrixSpace, r: int, sampler: GenericSampler, cover: Cover
) -> CoherentDecomposition:
    """Coherent decomposition of F^{rn} relative to V (x) M_r, V a nilpotent algebra.

    The Jordan chains of an element of the blow-up (a nilpotent algebra
    again) of rank r times the size of `cover`, the dual of `ncrank`,
    drawn by `best_sample`; its size is rn minus that rank.
    """
    rank, A, _ = best_sample(V, sampler, r, lambda el: (None, cover.size))
    if rank < r * cover.size:
        raise CertificationError(
            f"no sampled element reached the certified maximum rank {r * cover.size}"
        )
    return CoherentDecomposition(A, tuple(nilpotent_jordan_chains(A)))

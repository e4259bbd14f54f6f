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
sequence (`relation.wong_limit`).  The routing space is held as its
generators, with no elimination, and the element carries the
coefficients by which `verify` checks it.  The separator is kept as
(E~, X), with X = F~^perp the projection of U' onto the first n
coordinates, cut to F^perp by `exact_linalg.meet_perp`, and
E~ = X + E + V[X]; F~ is taken for the report alone.  The value is
proved when the rank of the element is r(n + size).

The coherent path capacity of a relation R is the matricial one of its
space V_R, and `mpc` takes R itself: the routing space of R is spanned
by the border and the embedded rank-ones w v^T, whose image of U is w
wherever v meets U's first n coordinates, and V_R[X] is the
neighborhood span N(X), so the n*m-wide span V_R is never built.
V_R[X] lies inside E~ exactly when every pair has v orthogonal to X or w
in E~, so the separator is one in the relation sense too, and it meets
the sampled rank at order r = 1.  No subset is enumerated, and order 1
needs no blow-up budget, so linear Menger has no size limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .exact_linalg import Mat, Subspace, meet_perp, subspace_sum
from .ncrank import CertifiedValue, wong_rank
from .relation import GenericSampler, RoutingSpace, apply_space, wong_limit


@dataclass(frozen=True)
class Separator:
    """Pair (E~, F~) pinching every path from E to F relative to V, kept as (E~, X = F~^perp).

    E lies in E~, F is orthogonal to X, and X and V[X] lie in E~; the
    instance (V, E, F) is not stored.  The size dim(E~ n F~) is computed
    once, as dim E~ minus the rank of E~'s products with X.
    """

    E_tilde: Subspace
    X: Subspace

    @cached_property
    def size(self) -> int:
        xs = self.X.int_rows()
        products = tuple(tuple(sum(map(mul, e, x)) for x in xs) for e in self.E_tilde.int_rows())
        return self.E_tilde.dim - Mat.from_int_rows(products, 1, len(xs)).rank()

    def to_json(self):
        return {
            "E_tilde": self.E_tilde.to_json(),
            "F_tilde": self.X.orthocomplement().to_json(),
            "size": self.size,
        }


def mpc(
    V, E: Subspace, F: Subspace, routing: RoutingSpace, sampler: GenericSampler
) -> CertifiedValue:
    """Matricial path capacity: ncrank of `routing`, the routing space of V, minus n.

    V is a square matrix space or relation.  The primal is a routing
    element (r, el) of rank r(n + value), and the dual the Wong separator
    of the draw behind the value.
    """
    n = V.n

    def separator(r: int, el: Mat):
        U, _ = wong_limit(routing, r, el)
        X = meet_perp((row[:n] for row in U.int_rows()), F)
        sep = Separator(subspace_sum(subspace_sum(X, E), apply_space(V, X)), X)
        return sep, n + sep.size

    trivial = Separator(Subspace.full(n), Subspace.zero(n))
    cv = wong_rank(routing, sampler, separator, (trivial, 2 * n))
    return CertifiedValue(cv.value - n, cv.primal, cv.dual)

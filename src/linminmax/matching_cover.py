"""Maximum matchings and minimum covers of relations, of equal size.

The maximum size of a matching (pairs with doubly independent vectors)
equals the minimum size of a cover.  A cover is a shrunk subspace U with
F = V[U]: every pair has v orthogonal to U or w in F, and the size is
n - dim U + dim F.  This is Edmonds' matroid-intersection min-max for the
linear matroids of the v's and of the w's, and both optima come from one
polynomial augmenting-path run: the final common independent set is the
matching, and the set reachable in the last exchange graph gives a cover
of the same size, read off the matching's own pairs.  The run stops as
soon as the matching spans the v's: nothing is then reachable, and the
cover is (0, 0), with no elimination, when the matching has size n.
Kőnig, Hall and Rado each read that one run: a relation on F^n x F^m is
saturated exactly when its maximum matching has size n, and otherwise U
is the witness, of defect dim U - dim F = n - |cover|.  A minimum cover
is exact: F is the neighborhood span N(U), because (U, N(U)) is a cover
too and N(U) lies inside F.  For a matrix space the same `Cover` has
F = V[U], and `ncrank` returns it as its dual.  `verify` checks
matchings and covers against the instance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import DimensionError
from .exact_linalg import (
    IntEchelon,
    Mat,
    Subspace,
    Vec,
    meet_perp,
    outer_sum,
    unit_vec,
)
from .relation import Relation


@dataclass(frozen=True)
class Matching:
    """Index set into a relation whose v's and w's are independent."""

    relation: Relation
    indices: tuple

    @property
    def size(self) -> int:
        return len(self.indices)

    def pairs(self):
        return [self.relation.pairs[i] for i in self.indices]

    def rank_one_sum(self) -> Mat:
        return outer_sum(self.pairs(), self.relation.m, self.relation.n)

    def to_json(self):
        return list(self.indices)


@dataclass(frozen=True)
class Cover:
    """A subspace U of F^n with F = V[U]: each pair of R has v orthogonal to U or w in F.

    Its size is n - dim U + dim F, and U has defect dim U - dim F = n - size,
    so the size bounds the rank of every element of V, and of V (x) M_r over r.
    """

    U: Subspace
    F: Subspace

    @property
    def size(self) -> int:
        return self.U.ambient - self.U.dim + self.F.dim

    def antichain(self) -> Subspace:
        """U n F^perp: the maximum antichain, for a minimum cover of a nilpotent space."""
        return meet_perp(self.U.int_rows(), self.F)


def _circuits(rows, I, outside, width):
    """Fundamental circuits of the elements outside I in a linear matroid.

    One echelon of the rows [u_y | e_y] for y in I; each outside u_x is
    reduced as [u_x | 0].  A nonzero left half means I + x is independent
    (None); otherwise the nonzero right-half entries name the y with
    I - y + x independent.
    """
    k = len(I)
    ech = IntEchelon(width + k)
    for j, y in enumerate(I):
        ech.add(rows[y] + [int(t == j) for t in range(k)])
    out = {}
    for x in outside:
        red = ech.reduce(rows[x] + [0] * k)
        if any(red[:width]):
            out[x] = None
        else:
            out[x] = [I[t] for t in range(k) if red[width + t]]
    return out


def matroid_intersection(R: Relation):
    """Maximum matching and minimum cover of R, of equal size.

    Edmonds' augmenting-path matroid intersection for the linear matroids
    of the v's and of the w's, over the pairs with v and w both nonzero.
    Each round builds the exchange graph from fundamental circuits and
    augments along a shortest path from X1 (I + x keeps the v's
    independent) to X2 (I + x keeps the w's independent).  When no path is
    left, the set Q reachable from X1 gives the cover U, the annihilator
    of {v_i : i not in Q}, and F = span{w_i : i in Q}, of size |I|, read
    off the v's of I - Q and the w's of I n Q: by Edmonds' rank identity,
    each is a basis of its side.  Once I spans the v's, X1 and Q are empty,
    so no round is run to find that.
    """
    ground = [
        i for i, (v, w) in enumerate(R.pairs) if not v.is_zero() and not w.is_zero()
    ]
    vrows = {i: list(R.pairs[i][0].int_row()) for i in ground}
    wrows = {i: list(R.pairs[i][1].int_row()) for i in ground}
    # Greedy start: a maximal common independent set.
    ech_v, ech_w = IntEchelon(R.n), IntEchelon(R.m)
    I, skipped = [], []
    for i in ground:
        if ech_v.rank == R.n:
            break  # every later v is dependent: it joins neither I nor skipped
        if ech_v.add(vrows[i]):
            if ech_w.add(wrows[i]):
                I.append(i)
            else:
                ech_v.pop()
                skipped.append(i)
    # ech_v then spans every v: any v not skipped for its w lies in the
    # span of I's v's already.
    for i in skipped:
        ech_v.add(vrows[i])
    Q = {}
    while len(I) < ech_v.rank:
        members = set(I)
        outside = [x for x in ground if x not in members]
        circ_v = _circuits(vrows, I, outside, R.n)
        circ_w = _circuits(wrows, I, outside, R.m)
        # Arcs y -> x when I - y + x keeps the v's independent, and x -> y
        # when it keeps the w's independent.
        succ = {y: [] for y in I}
        for x in outside:
            if circ_v[x] is not None:
                for y in circ_v[x]:
                    succ[y].append(x)
            succ[x] = circ_w[x] or []
        parent = {x: None for x in outside if circ_v[x] is None}
        sink = next((x for x in parent if circ_w[x] is None), None)
        queue = deque(parent)
        while queue and sink is None:
            u = queue.popleft()
            for z in succ[u]:
                if z in parent:
                    continue
                parent[z] = u
                if z not in members and circ_w[z] is None:
                    sink = z
                    break
                queue.append(z)
        if sink is None:
            Q = parent
            break
        path = set()
        while sink is not None:
            path.add(sink)
            sink = parent[sink]
        I = sorted(members ^ path)
    vs = [R.pairs[i][0].int_row() for i in I if i not in Q]
    ws = [R.pairs[i][1] for i in I if i in Q]
    # the v's and the w's of I are independent: n of them span F^n, m of them F^m
    U = Subspace.zero(R.n) if len(vs) == R.n else Mat.from_int_rows(tuple(vs), 1, R.n).kernel()
    F = Subspace.full(R.m) if len(ws) == R.m else Subspace.span(R.m, ws)
    return Matching(R, tuple(I)), Cover(U, F)


def rado_transversal(sets, m: int):
    """Independent representatives w_i in S_i, or a violating subfamily.

    Encodes the families as the relation {(e_i, v) : v in S_i}.  Its
    maximum matching saturates the e_i exactly when a transversal exists;
    otherwise the minimum cover converts into indices of k sets whose
    union spans fewer than k dimensions.
    """
    sets = [list(s) for s in sets]
    n = len(sets)
    if not m >= n >= 1:
        raise DimensionError("rado_transversal needs m >= number of sets >= 1")
    pairs = []
    for i, S in enumerate(sets):
        for v in S:
            if v.dim != m:
                raise DimensionError("set vector with wrong ambient dimension")
            pairs.append((unit_vec(n, i), v))
    R = Relation(n, m, pairs)
    matching, cover = matroid_intersection(R)
    if matching.size < n:
        # The shrunk subspace U is a coordinate subspace here (all v's are
        # e_i), and the sets it touches have a union of deficient dimension.
        return None, [i for i in range(n) if any(u[i] for u in cover.U.int_rows())]
    transversal: list[Vec | None] = [None] * n
    for idx in matching.indices:
        v, w = R.pairs[idx]
        i = next(j for j, x in enumerate(v.int_row()) if x)
        transversal[i] = w
    return transversal, None

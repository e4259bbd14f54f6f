"""Independent references that the tests compare the solvers against.

None of this is run by `linminmax gen|check|demo`, so none of it ships in
`src/`.  The classical oracles come first: augmenting paths, exhaustive
subset checks and BFS max-flow on plain graphs and posets, written with
the standard library and the package's error types alone, so that they
share no code with the exact-arithmetic modules they validate.  Every
oracle returns a primal/dual pair of equal size (an inequality is a hard
failure of the oracle itself).  Then come the references built on the
package: subspace membership by Fraction elimination and intersection by
Zassenhaus, spans of matrices and membership in their blow-ups by
elimination, the rank-one span of a relation, the routing space as one
eliminated padded span and the bordered matrix of a path capacity, the
subset formulas for generic ranks, Kőnig through Menger, Lovász's
maximum rank, the poset and graph encodings, nilpotency by the powers
of a space and acyclicity by a depth-first search of the pair digraph,
and the classical Lindström–Gessel–Viennot identity by explicit path
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, product

from linminmax import verify
from linminmax.dilworth import validate_linorder
from linminmax.errors import CertificationError, DimensionError, InvariantViolation
from linminmax.exact_linalg import IntEchelon, Mat, Subspace, Vec, hstack, unit_vec
from linminmax.lgv import LgvInstance
from linminmax.matching_cover import matroid_intersection
from linminmax.menger import mpc
from linminmax.ncrank import CertifiedValue, _defect_bound
from linminmax.relation import (
    GenericSampler,
    MatrixSpace,
    Relation,
    _border,
    best_sample,
    routing_space,
    sample_element,
)


# ---------------------------------------------------------------------------
# classical oracles


@dataclass(frozen=True)
class BipartiteGraph:
    n: int
    m: int
    edges: tuple

    def __init__(self, n, m, edges):
        edges = tuple((int(i), int(j)) for i, j in edges)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < m):
                raise ValueError("edge endpoint out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", edges)

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            if j not in adj[i]:
                adj[i].append(j)
        return adj

    def to_json(self):
        return {"n": self.n, "m": self.m, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, data):
        return cls(int(data["n"]), int(data["m"]), data["edges"])


@dataclass(frozen=True)
class Digraph:
    size: int
    edges: tuple
    weights: tuple | None = None

    def __init__(self, size, edges, weights=None):
        edges = tuple((int(i), int(j)) for i, j in edges)
        for i, j in edges:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError("edge endpoint out of range")
        if weights is not None:
            weights = tuple(Fraction(w) for w in weights)
            if len(weights) != len(edges):
                raise ValueError("one weight per edge required")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)

    def to_json(self):
        data = {"size": self.size, "edges": [list(e) for e in self.edges]}
        if self.weights is not None:
            data["weights"] = [str(w) for w in self.weights]
        return data

    @classmethod
    def from_json(cls, data):
        return cls(int(data["size"]), data["edges"], data.get("weights"))


# ---------------------------------------------------------------------------
# bipartite matching + Konig cover


def bipartite_max_matching(G: BipartiteGraph):
    """Augmenting-path maximum matching with a vertex cover of equal size.

    Returns (size, matching edges, (left cover, right cover)).
    """
    adj = G.adjacency()
    match_left = [None] * G.n
    match_right = [None] * G.m

    def try_augment(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_right[v] is None or try_augment(match_right[v], seen):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    for u in range(G.n):
        try_augment(u, set())

    size = sum(1 for v in match_left if v is not None)
    matching = [(u, match_left[u]) for u in range(G.n) if match_left[u] is not None]

    # Konig: alternating reachability from unmatched left vertices.
    reach_left = set(u for u in range(G.n) if match_left[u] is None)
    reach_right = set()
    frontier = list(reach_left)
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in reach_right:
                reach_right.add(v)
                w = match_right[v]
                if w is not None and w not in reach_left:
                    reach_left.add(w)
                    frontier.append(w)
    cover_left = [u for u in range(G.n) if u not in reach_left]
    cover_right = sorted(reach_right)
    if len(cover_left) + len(cover_right) != size:
        raise InvariantViolation("Konig cover size differs from matching size")
    for i, j in G.edges:
        if i not in cover_left and j not in cover_right:
            raise InvariantViolation("Konig cover misses an edge")
    return size, matching, (cover_left, cover_right)


def hall_check(G: BipartiteGraph):
    """Exhaustive Hall condition; returns (ok, violating subset or None)."""
    if G.n > 16:
        raise CertificationError("hall_check is exhaustive; n must be <= 16")
    adj = G.adjacency()
    neigh_bits = [0] * G.n
    for i in range(G.n):
        for j in adj[i]:
            neigh_bits[i] |= 1 << j
    for mask in range(1, 1 << G.n):
        members = [i for i in range(G.n) if mask >> i & 1]
        bits = 0
        for i in members:
            bits |= neigh_bits[i]
        if bin(bits).count("1") < len(members):
            return False, members
    return True, None


# ---------------------------------------------------------------------------
# posets and Dilworth


@dataclass(frozen=True)
class Poset:
    size: int
    gt: tuple  # (i, j) meaning p_i > p_j, strict and transitively closed

    def __init__(self, size, gt):
        gt = tuple(sorted(set((int(i), int(j)) for i, j in gt)))
        for i, j in gt:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError("poset relation out of range")
            if i == j:
                raise ValueError("strict order cannot be reflexive")
        rel = set(gt)
        for i, j in gt:
            for k, l in gt:
                if j == k and (i, l) not in rel:
                    raise ValueError("strict order is not transitively closed")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "gt", gt)

    def comparable(self, i, j):
        return (i, j) in self.gt or (j, i) in self.gt

    def to_json(self):
        return {"size": self.size, "gt": [list(p) for p in self.gt]}

    @classmethod
    def from_json(cls, data):
        return cls(int(data["size"]), data["gt"])


def poset_dilworth(P: Poset):
    """Minimum chain partition and maximum antichain of a small poset.

    Returns (min_chains, max_antichain, chains, antichain); the two values
    are asserted equal.
    """
    if P.size > 10:
        raise CertificationError("poset_dilworth is exhaustive; size must be <= 10")
    n = P.size
    # Min chain partition = n - max matching in the comparability digraph.
    G = BipartiteGraph(n, n, [(i, j) for i, j in P.gt])
    msize, matching, _ = bipartite_max_matching(G)
    succ = {i: j for i, j in matching}
    starts = set(range(n)) - set(succ.values())
    chains = []
    for s in sorted(starts):
        chain = [s]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(chain)
    min_chains = len(chains)
    if min_chains != n - msize:
        raise InvariantViolation("chain extraction lost a chain")

    best = []
    for k in range(n, 0, -1):
        for cand in combinations(range(n), k):
            if all(not P.comparable(a, b) for a, b in combinations(cand, 2)):
                best = list(cand)
                break
        if best:
            break
    if len(best) != min_chains:
        raise InvariantViolation("Dilworth equality failed in the oracle")
    return min_chains, len(best), chains, best


# ---------------------------------------------------------------------------
# vertex-disjoint paths (Menger) via unit-capacity max flow


def vertex_disjoint_paths(G: Digraph, H, K):
    """Max fully-vertex-disjoint H->K paths and a minimum vertex separator.

    Vertex splitting + BFS augmentation; counts one-vertex paths for
    vertices in both H and K.  Returns (count, paths, separator).
    """
    if G.size > 12:
        raise CertificationError("vertex_disjoint_paths budget is size <= 12")
    H = sorted(set(H))
    K = sorted(set(K))
    n = G.size
    # Nodes: 0 = source, 1 = sink, vertex v -> in 2+2v, out 3+2v.
    source, sink = 0, 1
    cap: dict[tuple[int, int], int] = {}

    def add_edge(a, b, c):
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)

    big = n + 1
    for v in range(n):
        add_edge(2 + 2 * v, 3 + 2 * v, 1)
    for i, j in set(G.edges):
        if i != j:
            add_edge(3 + 2 * i, 2 + 2 * j, big)
    for h in H:
        add_edge(source, 2 + 2 * h, 1)
    for k in K:
        add_edge(3 + 2 * k, sink, 1)

    adj: dict[int, list[int]] = {}
    for a, b in cap:
        adj.setdefault(a, []).append(b)

    flow: dict[tuple[int, int], int] = {e: 0 for e in cap}

    def bfs_path():
        prev = {source: None}
        queue = [source]
        while queue:
            u = queue.pop(0)
            if u == sink:
                break
            for v in adj.get(u, []):
                if v not in prev and cap[(u, v)] - flow[(u, v)] > 0:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            return None
        path = []
        v = sink
        while prev[v] is not None:
            path.append((prev[v], v))
            v = prev[v]
        return path[::-1]

    count = 0
    while True:
        path = bfs_path()
        if path is None:
            break
        for a, b in path:
            flow[(a, b)] += 1
            flow[(b, a)] -= 1
        count += 1

    # Min cut: split edges crossing the residual-reachable set.
    reach = {source}
    queue = [source]
    while queue:
        u = queue.pop(0)
        for v in adj.get(u, []):
            if v not in reach and cap[(u, v)] - flow[(u, v)] > 0:
                reach.add(v)
                queue.append(v)
    separator = [
        v for v in range(n) if 2 + 2 * v in reach and 3 + 2 * v not in reach
    ]
    # Source/sink edges in the cut correspond to H/K vertices whose split
    # edge is saturated inside; with unit vertex capacities the reachable
    # analysis above already charges those to the vertex itself.
    for h in H:
        if source in reach and 2 + 2 * h not in reach:
            separator.append(h)
    for k in K:
        if 3 + 2 * k in reach and sink not in reach:
            separator.append(k)
    separator = sorted(set(separator))
    if len(separator) != count:
        raise InvariantViolation("max-flow min-cut mismatch in the oracle")

    # Decompose the flow into vertex paths.
    paths = []
    used = {e: f for e, f in flow.items() if f > 0}
    for h in H:
        if used.get((source, 2 + 2 * h), 0) <= 0:
            continue
        used[(source, 2 + 2 * h)] -= 1
        node = 2 + 2 * h
        path = []
        while True:
            v = (node - 2) // 2
            path.append(v)
            out = 3 + 2 * v
            used[(node, out)] -= 1
            if used.get((out, sink), 0) > 0:
                used[(out, sink)] -= 1
                break
            nxt = next(
                b for b in adj.get(out, []) if used.get((out, b), 0) > 0 and b != sink
            )
            used[(out, nxt)] -= 1
            node = nxt
        paths.append(path)
    if len(paths) != count:
        raise InvariantViolation("flow decomposition lost a path")
    for a, b in combinations(range(len(paths)), 2):
        if set(paths[a]) & set(paths[b]):
            raise InvariantViolation("flow decomposition paths are not disjoint")
    return count, paths, separator


# ---------------------------------------------------------------------------
# subspaces


def ref_rref(rows):
    """Fraction Gauss-Jordan reference: (nonzero RREF rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    piv_cols, pr = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(pr, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        rows[pr] = [x / rows[pr][c] for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        piv_cols.append(c)
        pr += 1
    return rows[:pr], piv_cols


def ref_kernel_rows(n, rows):
    """Basis of {v : r . v = 0 for every row r}, by the reference RREF."""
    red, piv = ref_rref(rows)
    basis = []
    for f in (j for j in range(n) if j not in piv):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, piv):
            v[p] = -row[f]
        basis.append(v)
    return basis


def ref_nullspace(n, rows):
    """The RREF rows of {v in F^n : r . v = 0 for every row r}, all in Fractions."""
    return ref_rref(ref_kernel_rows(n, rows))[0]


def in_span(S: Subspace, v: Vec) -> bool:
    """Membership by the reference RREF: v adds nothing to the rank of S's basis."""
    rows = [list(u.entries) for u in S.vectors]
    return len(ref_rref(rows + [list(v.entries)])[0]) == len(ref_rref(rows)[0])


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """A ∩ B by Zassenhaus: echelon the rows [a | a] and [b | 0].

    A row of the echelon whose left half is zero, that is whose pivot is at
    least n, is [0 | x] with x = sum c_i a_i = -sum d_j b_j, so its right
    half lies in A ∩ B; those right halves form a basis of A ∩ B.
    """
    if a.ambient != b.ambient:
        raise DimensionError("intersection of subspaces in different ambient spaces")
    n = a.ambient
    pad = (0,) * n
    ech = IntEchelon(2 * n)
    for row in [r + r for r in a.int_rows()] + [r + pad for r in b.int_rows()]:
        ech.add(row)
    meet = [r[n:] for r, p in zip(ech.rows, ech.pivots) if p >= n]
    return Subspace.span(n, map(Vec.from_ints, meet))


# ---------------------------------------------------------------------------
# relations and matrix spaces


def outer(w: Vec, v: Vec) -> Mat:
    """Rank-one matrix w v^T sending u to (v . u) w."""
    vn = v.int_row()
    return Mat.from_int_rows(
        tuple(tuple([x * y for y in vn]) for x in w.int_row()), w.den * v.den, v.dim
    )


def spanned(m: int, n: int, generators) -> MatrixSpace:
    """The span of `generators`, kept on the prefix-greedy independent ones."""
    space = MatrixSpace.__new__(MatrixSpace)
    space._span(m, n, tuple(generators))
    return space


def space_contains(V: MatrixSpace, a: Mat, r: int = 1) -> bool:
    """Whether a lies in V (x) M_r, the layout `sample_element` draws.

    It does exactly when each of its r^2 slices (a[i r + k][j r + l])_{i,j}
    lies in V; each slice is one reduction against the echelon of V.
    """
    if (a.rows, a.cols) != (V.m * r, V.n * r):
        raise DimensionError("membership test with wrong shape")
    rows = a.int_rows()
    return all(
        V._echelon.contains([x for row in rows[k::r] for x in row[l::r]])
        for k in range(r)
        for l in range(r)
    )


def to_matrix_space(R: Relation) -> MatrixSpace:
    """Independent rank-one generators of span{w v^T : (v, w) in R}, prefix-greedy."""
    return spanned(R.m, R.n, [outer(w, v) for v, w in R.pairs])


def ref_power_dims(V: MatrixSpace, kmax: int) -> list:
    """dim V^k for k = 1..kmax from the definition: spans of basis products."""
    width = V.m * V.n
    level = list(V.basis)
    dims = []
    for _ in range(kmax):
        ech = IntEchelon(width)
        kept = [p for p in level if ech.add(p.int_flat())]
        dims.append(len(kept))
        level = [p @ b for p, b in product(kept, V.basis)]
    return dims


def ref_nilpotent_algebra(V: MatrixSpace) -> bool:
    """V is square, V^2 lies in V (by spanning the products), and V^n = 0 (by `ref_power_dims`)."""
    if V.m != V.n:
        return False
    products = [x @ y for x, y in product(V.basis, V.basis)]
    closed = spanned(V.m, V.n, list(V.basis) + products).dim == V.dim
    return closed and ref_power_dims(V, max(V.n, 1))[-1] == 0


def top_left(A: Mat, like: Mat) -> Mat:
    """[[A, 0],[0, 0]] in the shape of `like`."""
    pad = (0,) * (like.cols - A.cols)
    rows = tuple(row + pad for row in A.int_rows())
    zero_rows = ((0,) * like.cols,) * (like.rows - A.rows)
    return Mat.from_int_rows(rows + zero_rows, A.den, like.cols)


def dense_routing_space(V, E: Subspace, F: Subspace) -> MatrixSpace:
    """The routing space as one padded span, eliminated: the border, then V's generators embedded.

    Its generators are those of `relation.routing_space`, in the same
    order, padded to (n + dim F) x (n + dim E) and kept prefix-greedy.
    """
    base = _border(E, F, V.n)
    gens = (outer(w, v) for v, w in V.pairs) if isinstance(V, Relation) else V.basis
    return spanned(base.rows, base.cols, [base] + [top_left(a, base) for a in gens])


def bordered_matrix(A: Mat, E: Subspace, F: Subspace) -> Mat:
    """[[I - A, i],[p, 0]], the element of the routing space at A."""
    base = _border(E, F, A.rows)
    return base - top_left(A, base)


# ---------------------------------------------------------------------------
# matchings, blow-ups and linorders


def lovasz_max_rank(R: Relation) -> CertifiedValue:
    """Maximum rank in the span of R, with the minimum cover as its dual.

    The value is n - d where d is the largest dimension defect dim S -
    dim N(S); the primal is the rank-one sum of a maximum matching, and
    the cover's U is a maximizing S.
    """
    matching, cover = matroid_intersection(R)
    return CertifiedValue(cover.size, matching.rank_one_sum(), cover)


def max_rank_blowup(V: MatrixSpace, r: int, sampler: GenericSampler) -> int:
    """Maximum sampled rank in V (x) M_r; a multiple of r."""
    return best_sample(V, sampler, r, partial(_defect_bound(V), r))[0]


def poset_embed(P) -> Relation:
    """Standard-basis linorder with a pair (e_i, e_j) for each (i, j) in `P.gt`."""
    n = P.size
    R = Relation(n, n, [(unit_vec(n, i), unit_vec(n, j)) for i, j in P.gt])
    if validate_linorder(R) is not None:
        raise InvariantViolation("poset embedding violated a linorder axiom")
    return R


# ---------------------------------------------------------------------------
# path capacities: the bordered rank and the subset formulas for generic ranks


def _block(rows_of_blocks) -> Mat:
    """The block matrix of a grid of matrices, assembled entry by entry."""
    return Mat(
        [
            [Fraction(x, b.den) for b in blocks for x in b.int_rows()[i]]
            for blocks in rows_of_blocks
            for i in range(blocks[0].rows)
        ],
        sum(b.cols for b in rows_of_blocks[0]),
    )


def bordered_rank(A: Mat, E: Subspace, F: Subspace) -> int:
    return bordered_matrix(A, E, F).rank()


def generic_rank_rank_one_update(A: Mat, v: Vec, w: Vec) -> int:
    """Generic rank of A + x w v^T: min(rank [A | w], rank [A ; v^T])."""
    if v.dim != A.cols or w.dim != A.rows:
        raise DimensionError("rank-one update with mismatched shapes")
    col_aug = hstack([A, Mat.from_cols([w])])
    row_aug = _block([[A], [Mat.from_cols([v]).transpose()]])
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
        stacked = _block(
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
    if capacity.value != matroid_intersection(R)[1].size:
        raise InvariantViolation(
            "path capacity disagrees with the matching optimum"
        )
    return capacity


# ---------------------------------------------------------------------------
# path determinants


def instance_from_relation(R: Relation, sources, sinks) -> LgvInstance:
    if R.n != R.m:
        raise DimensionError("path instances need a relation on F^n x F^n")
    return LgvInstance(
        Mat.from_cols([v for v, _ in R.pairs], rows=R.n),
        Mat.from_cols([w for _, w in R.pairs], rows=R.n),
        Mat.from_cols(list(sources), rows=R.n),
        Mat.from_cols(list(sinks), rows=R.n),
    )


def pair_digraph_has_cycle(R: Relation) -> bool:
    """Depth-first search of the digraph with an arc i -> j when v_i . w_j != 0."""
    r = len(R.pairs)
    succ = [[j for j in range(r) if not R.pairs[i][0].is_orthogonal(R.pairs[j][1])] for i in range(r)]
    state = [0] * r  # 0 unseen, 1 on the stack, 2 done

    def cycle_from(i):
        state[i] = 1
        for j in succ[i]:
            if state[j] == 1 or (state[j] == 0 and cycle_from(j)):
                return True
        state[i] = 2
        return False

    return any(state[i] == 0 and cycle_from(i) for i in range(r))


def classical_lgv(G, H, K):
    """det of the path-weight matrix vs the signed vertex-disjoint path sum.

    G has `size`, `edges` and `weights` (None for all 1).

    M[i][j] sums path weights from H[i] to K[j] by dynamic programming over
    a topological order; the signed sum enumerates all k-tuples of
    vertex-disjoint paths explicitly.  Returns (det M, signed sum).
    """
    H = list(H)
    K = list(K)
    if len(H) != len(K):
        raise DimensionError("need equally many sources and sinks")
    n = G.size
    weights = (
        list(G.weights)
        if G.weights is not None
        else [Fraction(1)] * len(G.edges)
    )
    succ: dict[int, list[tuple[int, Fraction]]] = {u: [] for u in range(n)}
    indeg = [0] * n
    for (u, v), w in zip(G.edges, weights):
        if u == v:
            raise ValueError("acyclic graph cannot carry loops")
        succ[u].append((v, w))
        indeg[v] += 1
    order = [u for u in range(n) if indeg[u] == 0]
    head = 0
    indeg_work = indeg[:]
    while head < len(order):
        u = order[head]
        head += 1
        for v, _ in succ[u]:
            indeg_work[v] -= 1
            if indeg_work[v] == 0:
                order.append(v)
    if len(order) != n:
        raise ValueError("graph has a cycle")

    def path_weights_from(src):
        acc = [Fraction(0)] * n
        acc[src] = Fraction(1)
        for u in order:
            if acc[u] == 0:
                continue
            for v, w in succ[u]:
                acc[v] += acc[u] * w
        return acc

    table = [path_weights_from(h) for h in H]
    M = Mat([[table[i][k] for k in K] for i in range(len(H))], len(K))
    det_m = M.det()

    # Exhaustive signed sum over vertex-disjoint path tuples.
    all_paths: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}

    def paths_from(u):
        if u in all_paths:
            return all_paths[u]
        result = [((u,), Fraction(1))]
        for v, w in succ[u]:
            for tail, tw in paths_from(v):
                result.append(((u,) + tail, w * tw))
        all_paths[u] = result
        return result

    k = len(H)
    sink_pos = {v: j for j, v in enumerate(K)}
    signed = Fraction(0)

    def extend(i, used, acc, ends):
        nonlocal signed
        if i == k:
            perm = [sink_pos[e] for e in ends]
            sign = 1
            for a, b in combinations(range(k), 2):
                if perm[a] > perm[b]:
                    sign = -sign
            signed += sign * acc
            return
        for path, w in paths_from(H[i]):
            if path[-1] not in sink_pos:
                continue
            if used & set(path):
                continue
            extend(i + 1, used | set(path), acc * w, ends + [path[-1]])

    extend(0, set(), Fraction(1), [])
    return det_m, signed

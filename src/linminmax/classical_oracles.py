"""Classical combinatorial oracles used to cross-check the linear machinery.

Deliberately naive and self-contained: augmenting paths, exhaustive subset
checks, BFS max-flow.  Nothing here shares code with the exact-arithmetic
modules it validates, and every oracle returns a primal/dual pair of equal
size (an inequality is a hard failure of the oracle itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CertificationError, InvariantViolation


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

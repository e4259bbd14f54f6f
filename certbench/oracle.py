"""Independent exact routines the benchmark checks reports against.

Nothing here imports linminmax.  Vectors are lists of Fractions, a
subspace is the list of its reduced row echelon basis rows, and a matrix
is a list of rows.  The classical oracles (augmenting-path matching,
vertex-split max flow, poset width) are written from scratch as well, so
a fault shared by the program and its own test oracles cannot hide here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# A prime for the modular rank of sampled integer matrices.  Rank mod p
# never exceeds the rank over Q, so it is a sound lower bound.
PRIME = (1 << 61) - 1


def parse_vec(data) -> list[Fraction]:
    return [Fraction(x) for x in data]


def parse_mat(data) -> list[list[Fraction]]:
    return [parse_vec(r) for r in data]


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rref(rows) -> list[list[Fraction]]:
    """Nonzero rows of the reduced row echelon form of `rows`."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return []
    width = len(rows[0])
    out = 0
    for c in range(width):
        piv = next((i for i in range(out, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[out], rows[piv] = rows[piv], rows[out]
        pv = rows[out][c]
        rows[out] = [x / pv for x in rows[out]]
        for i in range(len(rows)):
            if i != out and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[out])]
        out += 1
        if out == len(rows):
            break
    return rows[:out]


def rank(rows) -> int:
    return len(rref(rows))


def span(vectors, ambient: int) -> list[list[Fraction]]:
    vectors = [list(v) for v in vectors]
    if any(len(v) != ambient for v in vectors):
        raise ValueError("vector of the wrong dimension")
    return rref(vectors)


def contains(basis, v) -> bool:
    """Membership of v in the subspace whose RREF basis is `basis`."""
    v = [Fraction(x) for x in v]
    for b in basis:
        p = next(i for i, x in enumerate(b) if x)
        if v[p]:
            f = v[p]
            v = [a - f * c for a, c in zip(v, b)]
    return not any(v)


def contains_all(basis, vectors) -> bool:
    return all(contains(basis, v) for v in vectors)


def kernel(rows, width: int) -> list[list[Fraction]]:
    """RREF basis of {x : M x = 0}."""
    red = rref(rows)
    pivots = [next(i for i, x in enumerate(r) if x) for r in red]
    out = []
    for f in (j for j in range(width) if j not in pivots):
        x = [Fraction(0)] * width
        x[f] = Fraction(1)
        for r, p in zip(red, pivots):
            x[p] = -r[f]
        out.append(x)
    return rref(out)


def perp(basis, ambient: int) -> list[list[Fraction]]:
    if not basis:
        return [[Fraction(int(i == j)) for j in range(ambient)] for i in range(ambient)]
    return kernel(basis, ambient)


def subspace_from_json(data, ambient: int) -> list[list[Fraction]]:
    """A reported subspace is its basis matrix: ambient rows, one column per vector."""
    rows = parse_mat(data)
    if len(rows) != ambient:
        raise ValueError("subspace basis with the wrong ambient dimension")
    width = len(rows[0]) if rows else 0
    return span([[rows[i][j] for i in range(ambient)] for j in range(width)], ambient)


def dim_intersection(a, b, ambient: int) -> int:
    return len(a) + len(b) - len(span(list(a) + list(b), ambient))


def dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def apply(mat, v) -> list[Fraction]:
    return [dot(r, v) for r in mat]


def matmul(a, b):
    bt = list(zip(*b))
    return [[dot(r, c) for c in bt] for r in a]


def apply_space(mats, basis, rows: int) -> list[list[Fraction]]:
    """V[E] = span{A e : A in V, e in E}."""
    return span([apply(a, e) for a in mats for e in basis], rows)


def is_nilpotent_space(mats, n: int) -> bool:
    """V^n = 0 by the flag iteration U <- V[U] started at F^n."""
    U = perp([], n)
    for _ in range(n):
        U = apply_space(mats, U, n)
        if not U:
            return True
    return False


def outer(w, v):
    return [[a * b for b in v] for a in w]


def flatten(mat):
    return [x for r in mat for x in r]


def in_matrix_span(mats, a) -> bool:
    return contains(span([flatten(m) for m in mats], len(flatten(a))), flatten(a))


def in_blowup(mats, m: int, n: int, r: int, x) -> bool:
    """Whether the (m r) x (n r) matrix x lies in V (x) M_r.

    x = sum_b B_b (x) C_b exactly when, for every cell (k, l) of the r x r
    factor, the m x n matrix of entries x[(i, k), (j, l)] lies in V.
    """
    basis = span([flatten(b) for b in mats], m * n)
    for k in range(r):
        for l in range(r):
            cell = [x[i * r + k][j * r + l] for i in range(m) for j in range(n)]
            if not contains(basis, cell):
                return False
    return True


def rank_mod_p(rows) -> int:
    """Rank of an integer matrix modulo PRIME (a lower bound on its rank over Q)."""
    rows = [[x % PRIME for x in r] for r in rows]
    if not rows:
        return 0
    width = len(rows[0])
    rk = 0
    for c in range(width):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = pow(rows[rk][c], PRIME - 2, PRIME)
        prow = [x * inv % PRIME for x in rows[rk]]
        rows[rk] = prow
        for i in range(rk + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], prow)]
        rk += 1
    return rk


def _denominator_lcm(entries) -> int:
    l = 1
    for x in entries:
        l = l * x.denominator // gcd(l, x.denominator)
    return l


def integer_vectors(vectors):
    """Scale each vector to integers (its span is unchanged)."""
    out = []
    for v in vectors:
        l = _denominator_lcm(v)
        out.append([int(x * l) for x in v])
    return out


def integer_mats(mats):
    """Scale each matrix to integers (the span of the list is unchanged)."""
    out = []
    for a in mats:
        l = _denominator_lcm(flatten(a))
        out.append([[int(x * l) for x in r] for r in a])
    return out


def independent(mats):
    """Greedy independent sub-list, in list order, of a list of matrices."""
    kept = []
    for a in mats:
        if rank([flatten(b) for b in kept + [a]]) == len(kept) + 1:
            kept.append(a)
    return kept


def sampled_blowup_rank(mats, m: int, n: int, r: int, rng, samples: int = 2) -> int:
    """Largest rank mod p of random integer elements of V (x) M_r."""
    imats = integer_mats(mats)
    best = 0
    for _ in range(samples):
        acc = [[0] * (n * r) for _ in range(m * r)]
        for b in imats:
            c = [[rng.randrange(PRIME) for _ in range(r)] for _ in range(r)]
            for i in range(m):
                for j in range(n):
                    if b[i][j]:
                        for k in range(r):
                            row = acc[i * r + k]
                            for l in range(r):
                                row[j * r + l] += b[i][j] * c[k][l]
        best = max(best, rank_mod_p(acc))
    return best


# ---------------------------------------------------------------------------
# classical oracles


def bipartite_matching(n: int, m: int, edges) -> int:
    """Maximum matching size by augmenting paths (Kuhn)."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
    match_right = [-1] * m

    def augment(u, seen):
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if match_right[v] < 0 or augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    return sum(1 for u in range(n) if augment(u, set()))


def poset_width(size: int, gt) -> int:
    """Dilworth: width = size - maximum matching of the comparability graph."""
    return size - bipartite_matching(size, size, gt)


def vertex_disjoint_paths(size: int, edges, H, K) -> int:
    """Maximum number of vertex-disjoint H -> K paths (one-vertex paths count)."""
    # Node 2v is v's entry, 2v+1 its exit; source and sink follow.
    src, snk = 2 * size, 2 * size + 1
    cap: dict[int, dict[int, int]] = {u: {} for u in range(2 * size + 2)}

    def edge(a, b):
        cap[a][b] = cap[a].get(b, 0) + 1
        cap[b].setdefault(a, 0)

    for v in range(size):
        edge(2 * v, 2 * v + 1)
    for a, b in edges:
        if a != b:
            edge(2 * a + 1, 2 * b)
    for h in set(H):
        edge(src, 2 * h)
    for k in set(K):
        edge(2 * k + 1, snk)
    flow = 0
    while True:
        prev = {src: None}
        queue = [src]
        for u in queue:
            for v, c in cap[u].items():
                if c > 0 and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if snk not in prev:
            return flow
        v = snk
        while prev[v] is not None:
            u = prev[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow += 1

"""Seeded instance corpora for the benchmark's workloads.

Every instance is built here with the standard library alone, from the
workload seed, and written as the JSON file format `linminmax check`
reads.  Next to each file the corpus keeps the facts the benchmark knows
by construction (the generating poset or graph, a planted shrunk
subspace), which the checks in `checks.py` compare reports against.

The two fault sets are built from fixed seeds, not from the workload
seed, so that they fail the same way in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

# Sampling trials per check, lowered from the CLI default of 25 so that
# three passes of a corpus fit in one run.  With coefficients drawn from
# [-10^6, 10^6] a single trial reaches the maximum rank almost surely.
TRIALS = 10

# Fixed generator seeds of the fault instances (see README.md).
FAULT_A_SEEDS = (1,)
FAULT_B_SEEDS = (0,)


@dataclass
class Instance:
    ident: str
    theorem: str
    data: dict
    facts: dict = field(default_factory=dict)
    budget: int | None = None
    trials: int | None = TRIALS
    cli_seed: int = 0
    fault: str | None = None

    def argv(self, path: str) -> list[str]:
        out = ["check", self.theorem, path, "--output", "json", "--seed", str(self.cli_seed)]
        if self.budget is not None:
            out += ["--budget", str(self.budget)]
        if self.trials is not None:
            out += ["--trials", str(self.trials)]
        return out


# ---------------------------------------------------------------------------
# building blocks


def _rational(rng, bound=3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 1, 2, 3)))


def _vec(rng, n, bound=3, rational=True) -> list[Fraction]:
    while True:
        v = [_rational(rng, bound) if rational else Fraction(rng.randint(-bound, bound)) for _ in range(n)]
        if any(v):
            return v


def _unit(n, i) -> list[Fraction]:
    return [Fraction(int(j == i)) for j in range(n)]


def _mat_json(rows) -> list[list[str]]:
    return [[oracle.fmt(x) for x in r] for r in rows]


def _vec_json(v) -> list[str]:
    return [oracle.fmt(x) for x in v]


def _subspace_json(vectors, ambient) -> list[list[str]]:
    """Basis matrix with one column per vector (the program's subspace format)."""
    return [[oracle.fmt(v[i]) for v in vectors] for i in range(ambient)]


def _relation_json(n, m, pairs) -> dict:
    return {"n": n, "m": m, "pairs": [[_vec_json(v), _vec_json(w)] for v, w in pairs]}


def _int_mat(rng, rows, cols, bound=2):
    return [[Fraction(rng.randint(-bound, bound)) for _ in range(cols)] for _ in range(rows)]


def _invertible(rng, n, bound=2):
    while True:
        m = _int_mat(rng, n, n, bound)
        if oracle.rank(m) == n:
            return m


def _inverse(m):
    n = len(m)
    aug = oracle.rref([list(r) + _unit(n, i) for i, r in enumerate(m)])
    return [r[n:] for r in aug]


# Comparable pairs per poset size, the most common count at density 0.4.
# Fixing it keeps each corpus's cost profile the same from seed to seed.
POSET_PAIRS = {3: 2, 4: 3, 5: 5, 6: 8}


def _poset(rng, size, p=0.4):
    """Random strict order with POSET_PAIRS[size] (greater, smaller) pairs."""
    while True:
        labels = list(range(size))
        rng.shuffle(labels)
        gt = {(labels[a], labels[b]) for a in range(size) for b in range(a + 1, size) if rng.random() < p}
        changed = True
        while changed:
            changed = False
            for i, j in list(gt):
                for k, l in list(gt):
                    if j == k and (i, l) not in gt:
                        gt.add((i, l))
                        changed = True
        if len(gt) == POSET_PAIRS[size]:
            return sorted(gt)


def _linorder_pairs(rng, size):
    """Poset pushed through a dual basis pair: (row i of M, column j of M^-1) for i > j."""
    gt = _poset(rng, size)
    m = _invertible(rng, size)
    inv = _inverse(m)
    pairs = [(list(m[i]), [inv[r][j] for r in range(size)]) for i, j in gt]
    return gt, pairs


def _independent_mats(count, make):
    mats = []
    while len(mats) < count:
        mats = oracle.independent(mats + [make()])
    return mats


def _space_json(m, n, mats) -> dict:
    return {"m": m, "n": n, "basis": [_mat_json(a) for a in mats]}


def _planted_space(rng, n, dim, big, small):
    """dim generators of M_n mapping span(e_0..e_{big-1}) into span(e_0..e_{small-1}),
    under a random change of basis on both sides.  Returns (mats, planted E)."""
    P, Q = _invertible(rng, n), _invertible(rng, n)

    def make():
        B = _int_mat(rng, n, n)
        for i in range(small, n):
            for j in range(big):
                B[i][j] = Fraction(0)
        return oracle.matmul(oracle.matmul(P, B), Q)

    mats = _independent_mats(dim, make)
    Qinv = _inverse(Q)
    planted = [[Qinv[r][j] for r in range(n)] for j in range(big)]
    return mats, oracle.span(planted, n)


# ---------------------------------------------------------------------------
# bipartite: Hall, Konig, Rado


def _generic_relation(rng, n, m, r, deficient):
    """Rational pairs; a deficient relation has every w in an (n-1)-space."""
    if deficient:
        gens = [_vec(rng, m) for _ in range(n - 1)]

        def w_vec():
            while True:
                coeffs = [rng.randint(-2, 2) for _ in gens]
                w = [sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0)) for i in range(m)]
                if any(w):
                    return w
    else:
        def w_vec():
            return _vec(rng, m)
    return [(_vec(rng, n), w_vec()) for _ in range(r)]


def _set_family(rng, n, m, planted):
    """n sets of 2-3 vectors in F^m; a planted family has 3 sets inside a plane."""
    plane = [_vec(rng, m), _vec(rng, m)] if planted else None
    sets = []
    for i in range(n):
        size = 2 + i % 2
        if plane is not None and i < 3:
            s = [[rng.randint(-2, 2) * plane[0][k] + rng.randint(1, 2) * plane[1][k] for k in range(m)] for _ in range(size)]
        else:
            s = [_vec(rng, m) for _ in range(size)]
        sets.append(s)
    return sets


def _left_regular_graph(rng, n, m, d):
    """Every left vertex has d distinct neighbours; right degrees differ by at most one.

    A fixed degree sequence keeps the cost of the subset search steady from
    seed to seed; with uniform random graphs the p90 spread by a third.
    """
    while True:
        stubs = [b for b in range(m) for _ in range(-(-n * d // m))]
        rng.shuffle(stubs)
        chunks = [stubs[a * d:(a + 1) * d] for a in range(n)]
        if all(len(set(c)) == d for c in chunks):
            return sorted((a, b) for a in range(n) for b in chunks[a])


# Sizes and kinds cycle with the instance index, so that every seed gives a
# corpus of the same make-up; only the random entries change.


def bipartite(seed: int) -> list[Instance]:
    rng = random.Random(f"bipartite:{seed}")
    out = []
    for i in range(120):
        theorem = ("konig", "hall", "rado")[i % 3]
        ident = f"rel{i:02d}-{theorem}"
        n = 5 + (i // 3) % 2
        m = 6 if n == 6 else 5 + (i // 6) % 2
        if theorem == "rado":
            sets = _set_family(rng, n, m, planted=(i // 3) % 5 < 2)
            data = {"m": m, "sets": [[_vec_json(v) for v in s] for s in sets]}
            out.append(Instance(ident, theorem, data, {"sets": sets, "m": m}, cli_seed=seed))
            continue
        pairs = _generic_relation(rng, n, m, 14 + (i // 3) % 3, deficient=(i // 3) % 3 == 0)
        out.append(Instance(ident, theorem, _relation_json(n, m, pairs), {"pairs": pairs}, cli_seed=seed))
    for i in range(80):
        theorem = ("konig", "hall")[i % 2]
        n = m = 7
        edges = _left_regular_graph(rng, n, m, 3)
        pairs = [(_unit(n, a), _unit(m, b)) for a, b in edges]
        facts = {"pairs": pairs, "graph": (n, m, edges)}
        out.append(Instance(f"graph{i:02d}-{theorem}", theorem, _relation_json(n, m, pairs), facts, budget=30, cli_seed=seed))
    return out


# ---------------------------------------------------------------------------
# chains_paths: Dilworth, coherent chains, Menger, LGV


def _digraph(rng, size, e):
    edges = set()
    while len(edges) < e:
        a, b = rng.randrange(size), rng.randrange(size)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def _lgv(rng, n, r, k, acyclic):
    if acyclic:
        # v_i = row a_i of M, w_i = column b_i of M^-1 with a_i > b_i: the
        # pair graph i -> j (a_i = b_j) strictly raises b, so it has no cycle.
        M = _invertible(rng, n)
        inv = _inverse(M)
        cols_v, cols_w = [], []
        for _ in range(r):
            b = rng.randrange(n - 1)
            a = rng.randrange(b + 1, n)
            cols_v.append(list(M[a]))
            cols_w.append([inv[x][b] for x in range(n)])
        V = [[cols_v[c][i] for c in range(r)] for i in range(n)]
        W = [[cols_w[c][i] for c in range(r)] for i in range(n)]
    else:
        V, W = _int_mat(rng, n, r), _int_mat(rng, n, r)
    return V, W, _int_mat(rng, n, k), _int_mat(rng, n, k)


def chains_paths(seed: int) -> list[Instance]:
    rng = random.Random(f"chains_paths:{seed}")
    out = []
    for i in range(50):
        theorem = ("dilworth", "coherent")[i % 2]
        size = 6 if i % 6 < 2 else 5
        gt, pairs = _linorder_pairs(rng, size)
        facts = {"pairs": pairs, "poset": (size, gt)}
        out.append(Instance(f"lin{i:02d}-{theorem}", theorem, _relation_json(size, size, pairs), facts, cli_seed=seed))
    for i in range(16):
        n = 6
        pairs = [(_vec(rng, n, 2), _vec(rng, n, 2)) for _ in range(10)]
        E = [_vec(rng, n, 2) for _ in range(1 + i % 3)]
        F = [_vec(rng, n, 2) for _ in range(1 + (i // 3) % 3)]
        data = _relation_json(n, n, pairs)
        data["E"], data["F"] = _subspace_json(E, n), _subspace_json(F, n)
        facts = {"pairs": pairs, "E": E, "F": F}
        out.append(Instance(f"rel{i:02d}-menger", "menger", data, facts, cli_seed=seed))
    for i in range(16):
        size = 6 + i % 2
        edges = _digraph(rng, size, 8 + (i // 2) % 4)
        H = sorted(rng.sample(range(size), 1 + i % 3))
        K = sorted(rng.sample(range(size), 1 + (i // 3) % 3))
        pairs = [(_unit(size, a), _unit(size, b)) for a, b in edges]
        pairs += [(_unit(size, v), _unit(size, v)) for v in range(size)]
        E = [_unit(size, h) for h in H]
        F = [_unit(size, k) for k in K]
        data = _relation_json(size, size, pairs)
        data["E"], data["F"] = _subspace_json(E, size), _subspace_json(F, size)
        facts = {"pairs": pairs, "E": E, "F": F, "digraph": (size, edges, H, K)}
        out.append(Instance(f"dig{i:02d}-menger", "menger", data, facts, cli_seed=seed))
    for i in range(18):
        n, r = ((4, 4), (4, 5), (5, 4), (5, 5))[(i // 2) % 4]
        V, W, A, B = _lgv(rng, n, r, 2, acyclic=i % 2 == 0)
        data = {"V": _mat_json(V), "W": _mat_json(W), "A": _mat_json(A), "B": _mat_json(B)}
        facts = {"V": V, "W": W, "n": n, "r": r}
        out.append(Instance(f"lgv{i:02d}", "lgv", data, facts, cli_seed=seed))
    return out


# ---------------------------------------------------------------------------
# matrix: ncrank, matrix-konig, matrix-dilworth, matrix-menger


def _rank_one_space(rng, n, dim):
    """dim independent rank-one matrices w v^T; returns (mats, pairs (v, w))."""
    pairs, mats = [], []
    while len(mats) < dim:
        v, w = _vec(rng, n, 2, False), _vec(rng, n, 2, False)
        cand = oracle.outer(w, v)
        if oracle.rank([oracle.flatten(a) for a in mats + [cand]]) == len(mats) + 1:
            pairs.append((v, w))
            mats.append(cand)
    return mats, pairs


def matrix(seed: int) -> list[Instance]:
    rng = random.Random(f"matrix:{seed}")
    out = []
    n = 4
    for i in range(12):
        theorem = ("ncrank", "matrix-konig")[i % 2]
        mats, planted = _planted_space(rng, n, 3, 2, 1)
        facts = {"mats": mats, "n": n, "planted": planted}
        out.append(Instance(f"shrunk{i:02d}-{theorem}", theorem, _space_json(n, n, mats), facts, cli_seed=seed))
    for i in range(4):
        theorem = ("ncrank", "matrix-konig")[i % 2]
        mats, _ = _rank_one_space(rng, n, 3)
        facts = {"mats": mats, "n": n, "rank_one": True}
        out.append(Instance(f"rank1-{i:02d}-{theorem}", theorem, _space_json(n, n, mats), facts, cli_seed=seed))
    for i in range(4):
        theorem = ("ncrank", "matrix-konig")[i % 2]
        mats = _independent_mats(3, lambda: _int_mat(rng, n, n))
        facts = {"mats": mats, "n": n}
        out.append(Instance(f"generic{i:02d}-{theorem}", theorem, _space_json(n, n, mats), facts, cli_seed=seed))
    for i in range(10):
        size = 4 if i == 0 else 3
        gt, pairs = _linorder_pairs(rng, size)
        mats = oracle.independent([oracle.outer(w, v) for v, w in pairs])
        facts = {"mats": mats, "n": size, "poset": (size, gt)}
        out.append(Instance(f"alg{i:02d}-matrix-dilworth", "matrix-dilworth", _space_json(size, size, mats), facts, cli_seed=seed))
    for i in range(70):
        m3 = 3
        mats = _independent_mats(2, lambda: _int_mat(rng, m3, m3))
        E, F = [_vec(rng, m3, 2, False)], [_vec(rng, m3, 2, False)]
        data = _space_json(m3, m3, mats)
        data["E"], data["F"] = _subspace_json(E, m3), _subspace_json(F, m3)
        facts = {"mats": mats, "n": m3, "E": E, "F": F}
        out.append(Instance(f"route{i:02d}-matrix-menger", "matrix-menger", data, facts, cli_seed=seed))
    return out + faults()


def faults() -> list[Instance]:
    """Fault A: n=5 spaces with a planted 3->2 block, whose true ncrank is 4.
    Fault B: rank-one 4x4 spaces with dim E = 2 and dim F = 1, loaded
    without their source pairs."""
    out = []
    for s in FAULT_A_SEEDS:
        rng = random.Random(f"fault-a:{s}")
        mats, planted = _planted_space(rng, 5, 3, 3, 2)
        facts = {"mats": mats, "n": 5, "planted": planted}
        out.append(Instance(f"faultA{s:02d}-ncrank", "ncrank", _space_json(5, 5, mats), facts, trials=None, fault="A"))
    for s in FAULT_B_SEEDS:
        rng = random.Random(f"fault-b:{s}")
        mats, pairs = _rank_one_space(rng, 4, 3)
        E = [_vec(rng, 4, 2, False) for _ in range(2)]
        F = [_vec(rng, 4, 2, False)]
        data = _space_json(4, 4, mats)
        data["E"], data["F"] = _subspace_json(E, 4), _subspace_json(F, 4)
        facts = {"mats": mats, "pairs": pairs, "n": 4, "E": E, "F": F}
        out.append(Instance(f"faultB{s:02d}-matrix-menger", "matrix-menger", data, facts, trials=None, fault="B"))
    return out


WORKLOADS = {"bipartite": bipartite, "chains_paths": chains_paths, "matrix": matrix}

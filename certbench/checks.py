"""Re-verification of every JSON report against the benchmark's own routines.

`verify(inst, report)` raises CheckFailed when a value or certificate is
wrong.  It compares reports with facts the corpus knows by construction
(poset width, graph matchings, disjoint paths, planted defects) and with
properties it recomputes from the instance alone (independence, cover
absorption, separator axioms, defects, blow-up membership and rank).
Where a report carries no primal or no dual (`menger`, `matrix-konig`),
it samples its own bound: random integer elements, ranked modulo a large
prime, give a rank that is never too high.

`self_test` hand-mutates correct reports and requires each to be rejected.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from itertools import combinations

import oracle
from oracle import contains, contains_all, dot, perp, rank, span, subspace_from_json


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _dims(inst):
    d = inst.data
    return int(d["n"]), int(d["m"])


def _doubly_independent(pairs, indices, size):
    require(len(indices) == size, f"matching has {len(indices)} indices, value {size}")
    require(len(set(indices)) == len(indices), "matching repeats an index")
    require(all(0 <= i < len(pairs) for i in indices), "matching index out of range")
    require(rank([pairs[i][0] for i in indices]) == size, "matching v's are dependent")
    require(rank([pairs[i][1] for i in indices]) == size, "matching w's are dependent")


def _bordered_lower(mats_int, E, F, n, rng, samples=2):
    """Sampled lower bound on max_A rank [[I - A, i], [p, 0]] - n over A in span."""
    e_cols, f_rows = oracle.integer_vectors(E), oracle.integer_vectors(F)
    best = 0
    for _ in range(samples):
        acc = [[int(i == j) for j in range(n)] for i in range(n)]
        for a in mats_int:
            c = rng.randrange(oracle.PRIME)
            for i in range(n):
                for j in range(n):
                    acc[i][j] -= c * a[i][j]
        rows = [acc[i] + [col[i] for col in e_cols] for i in range(n)]
        rows += [f + [0] * len(e_cols) for f in f_rows]
        best = max(best, oracle.rank_mod_p(rows) - n)
    return best


def _subset_capacity(pairs, E, F):
    """Exact coherent path capacity by the subset formula, over every subset.

    min over S of the rank of the pairing matrix with rows F + {v_k : k not
    in S} and columns E + {w_k : k in S}.  Exponential; used on tiny inputs.
    """
    best = None
    for size in range(len(pairs) + 1):
        for S in combinations(range(len(pairs)), size):
            rows = list(F) + [pairs[k][0] for k in range(len(pairs)) if k not in S]
            cols = list(E) + [pairs[k][1] for k in S]
            value = rank([[dot(r, c) for c in cols] for r in rows]) if rows and cols else 0
            best = value if best is None else min(best, value)
    return best


def _routing_space(mats, E, F, n):
    """[[I, i], [p, 0]] and the embedded [[A, 0], [0, 0]] for A in the basis."""
    e, f = len(E), len(F)
    gens = [[[Fraction(int(i == j)) for j in range(n)] + [E[c][i] for c in range(e)] for i in range(n)]
            + [list(F[r]) + [Fraction(0)] * e for r in range(f)]]
    for a in mats:
        gens.append([list(a[i]) + [Fraction(0)] * e for i in range(n)] + [[Fraction(0)] * (n + e) for _ in range(f)])
    return oracle.independent(gens), n + f, n + e


def _rng(inst):
    return random.Random(f"check:{inst.ident}:{inst.cli_seed}")


# ---------------------------------------------------------------------------
# one function per theorem


def check_konig(inst, rep):
    n, m = _dims(inst)
    pairs = inst.facts["pairs"]
    value = rep["value"]
    require(rep["status"] == "proved", "konig status is not proved")
    _doubly_independent(pairs, rep["matching"], value)
    E = subspace_from_json(rep["cover"]["E"], n)
    F = subspace_from_json(rep["cover"]["F"], m)
    require(len(E) + len(F) == value, "cover size differs from the matching size")
    require(all(contains(E, v) or contains(F, w) for v, w in pairs), "cover misses a pair")
    if "graph" in inst.facts:
        require(value == oracle.bipartite_matching(*inst.facts["graph"]), "value differs from augmenting-path matching")


def check_hall(inst, rep):
    n, m = _dims(inst)
    pairs = inst.facts["pairs"]
    classical = oracle.bipartite_matching(*inst.facts["graph"]) if "graph" in inst.facts else None
    if rep["saturated"]:
        _doubly_independent(pairs, rep["matching"], n)
        require(classical in (None, n), "saturated, but the graph has no perfect matching")
        return
    S = subspace_from_json(rep["witness"]["S"], n)
    N = subspace_from_json(rep["witness"]["neighborhood"], m)
    hits = [w for v, w in pairs if any(dot(u, v) for u in S)]
    require(N == span(hits, m), "reported neighborhood is not N(S)")
    require(len(N) < len(S), "witness has no defect")
    require(classical is None or classical < n, "unsaturated, but the graph has a perfect matching")


def check_rado(inst, rep):
    sets, m = inst.facts["sets"], inst.facts["m"]
    if "transversal" in rep:
        ts = [oracle.parse_vec(t) for t in rep["transversal"]]
        require(len(ts) == len(sets), "transversal has the wrong length")
        require(all(t in s for t, s in zip(ts, sets)), "transversal picks a vector outside its set")
        require(rank(ts) == len(ts), "transversal is dependent")
        return
    members = rep["violating_sets"]
    require(members and len(set(members)) == len(members), "empty or repeated violating family")
    union = [v for i in members for v in sets[i]]
    require(len(span(union, m)) < len(members), "family is not violating")


def _poset_width(inst):
    return oracle.poset_width(*inst.facts["poset"])


def check_dilworth(inst, rep):
    n, _ = _dims(inst)
    pairs = inst.facts["pairs"]
    width = _poset_width(inst)
    require(rep["antichain_dim"] == width, f"antichain {rep['antichain_dim']} differs from poset width {width}")
    C = subspace_from_json(rep["antichain"], n)
    require(len(C) == width, "antichain subspace has the wrong dimension")
    require(all(not any(dot(v, c) for c in C) or not any(dot(w, c) for c in C) for v, w in pairs),
            "a pair meets the antichain on both sides")
    chains = rep["decomposition"]["chains"]
    require(rep["bichain_count"] == len(chains) == width, "bi-chain count differs from the width")
    all_v, all_w = [], []
    for ch in chains:
        ws = [oracle.parse_vec(x) for x in ch["ws"]]
        vs = [oracle.parse_vec(x) for x in ch["vs"]]
        links = ch["links"]
        require(len(ws) == len(vs) == len(links) + 1, "bi-chain with inconsistent lengths")
        require(all(dot(w, v) for w, v in zip(ws, vs)), "bi-chain step with w orthogonal to v")
        for i, idx in enumerate(links):
            require(pairs[idx] == (vs[i], ws[i + 1]), "bi-chain link is not a relation pair")
        all_v += vs
        all_w += ws
    require(len(all_v) == n and rank(all_v) == n and rank(all_w) == n, "bi-chains do not form bases")


def check_coherent(inst, rep):
    n, _ = _dims(inst)
    pairs = inst.facts["pairs"]
    width = _poset_width(inst)
    dec = rep["decomposition"]
    require(rep["antichain_dim"] == rep["coherent_count"] == len(dec["chains"]) == width,
            "coherent chain count differs from the poset width")
    A = oracle.parse_mat(dec["A"])
    require(oracle.in_matrix_span([oracle.outer(w, v) for v, w in pairs], A), "A is outside the relation's span")
    iterates = []
    for ch in dec["chains"]:
        u = oracle.parse_vec(ch["seed"])
        for _ in range(ch["length"]):
            iterates.append(u)
            u = oracle.apply(A, u)
    require(len(iterates) == n and rank(iterates) == n, "chain iterates do not form a basis")


def _check_separator(rep_sep, E, F, n, absorbs):
    Et = subspace_from_json(rep_sep["E_tilde"], n)
    Ft = subspace_from_json(rep_sep["F_tilde"], n)
    require(contains_all(Et, E) and contains_all(Ft, F), "separator does not contain E and F")
    f_perp = perp(Ft, n)
    require(contains_all(Et, f_perp), "F~^perp is not inside E~")
    absorbs(Et, Ft, f_perp)
    size = oracle.dim_intersection(Et, Ft, n)
    require(size == rep_sep["size"], "separator size field is wrong")
    return size


def check_menger(inst, rep):
    n, _ = _dims(inst)
    pairs, E, F = inst.facts["pairs"], inst.facts["E"], inst.facts["F"]

    def absorbs(Et, Ft, _):
        require(all(contains(Ft, v) or contains(Et, w) for v, w in pairs), "a pair jumps the separator")

    size = _check_separator(rep["separator"], E, F, n, absorbs)
    require(size == rep["cpc"], "separator size differs from the capacity")
    require(rep["status"] == "proved", "menger status is not proved")
    mats = oracle.integer_mats([oracle.outer(w, v) for v, w in pairs])
    lower = _bordered_lower(mats, span(E, n), span(F, n), n, _rng(inst))
    require(lower == rep["cpc"], f"sampled capacity {lower} differs from {rep['cpc']}")
    if "digraph" in inst.facts:
        require(rep["cpc"] == oracle.vertex_disjoint_paths(*inst.facts["digraph"]),
                "capacity differs from vertex-disjoint paths")


def check_lgv(inst, rep):
    f = inst.facts
    trials = inst.trials or 25
    require(rep["identity"] == "holds", "identity reported as failed")
    require(rep["points_checked"] == trials, f"checked {rep['points_checked']} points, not {trials}")
    V, W, n = f["V"], f["W"], f["n"]
    mats = [oracle.outer([W[i][c] for i in range(n)], [V[i][c] for i in range(n)]) for c in range(f["r"])]
    acyclic = oracle.is_nilpotent_space(mats, n)
    require(rep["acyclic"] == acyclic, "acyclic flag disagrees with the nilpotency test")
    require(("acyclic_value" in rep) == acyclic, "acyclic value present exactly when acyclic")


def _defect(mats, E, n):
    return len(E) - len(oracle.apply_space(mats, E, n))


def _sampled_ncrank(inst, r):
    f = inst.facts
    return oracle.sampled_blowup_rank(f["mats"], f["n"], f["n"], r, _rng(inst)) // r


def check_ncrank(inst, rep, proved=True):
    f = inst.facts
    n, mats = f["n"], f["mats"]
    E = subspace_from_json(rep["witness"]["E"], n)
    require(rep["witness"]["defect"] == rep["defect"] == _defect(mats, E, n), "defect witness is wrong")
    r = rep["element"]["r"]
    X = oracle.parse_mat(rep["element"]["matrix"])
    require(len(X) == n * r and oracle.in_blowup(mats, n, n, r, X), "element is outside the blow-up")
    require(rank(X) >= r * rep["ncrank"], "element rank is below r times the value")
    if not proved:
        return
    require(rep["status"] == "proved", "ncrank status is not proved")
    require(rank(X) == r * rep["ncrank"], "element rank differs from r times the value")
    require(rep["ncrank"] == n - rep["defect"], "value differs from n minus the defect")
    if f.get("rank_one"):
        require(rep["ncrank"] == _sampled_ncrank(inst, 1), "value differs from the Lovasz maximum rank")
    if "planted" in f:
        require(rep["ncrank"] <= n - _defect(mats, f["planted"], n), "value exceeds the planted bound")


def check_matrix_konig(inst, rep):
    f = inst.facts
    require(rep["status"] == "proved", "matrix-konig status is not proved")
    lower = _sampled_ncrank(inst, max(1, f["n"] - 1))
    require(rep["cover_size"] == lower, f"cover size {rep['cover_size']} differs from sampled ncrank {lower}")
    if "planted" in f:
        require(rep["cover_size"] <= f["n"] - _defect(f["mats"], f["planted"], f["n"]), "cover exceeds the planted bound")


def check_matrix_dilworth(inst, rep):
    n = inst.facts["n"]
    width = _poset_width(inst)
    require(rep["r"] == max(1, n - 1), "wrong blow-up order")
    require(rep["antichain_dim"] == width, "antichain differs from the poset width")
    require(rep["coherent_count"] == rep["r"] * width, "coherent count differs from r times the width")


def _route_lower(inst):
    f = inst.facts
    n = f["n"]
    E, F = span(f["E"], n), span(f["F"], n)
    gens, rows, cols = _routing_space(f["mats"], E, F, n)
    r = max(rows, cols) - 1
    return oracle.sampled_blowup_rank(gens, rows, cols, r, _rng(inst)) // r - n


def check_matrix_menger(inst, rep, proved=True):
    f = inst.facts
    n, mats = f["n"], f["mats"]

    def absorbs(Et, _, f_perp):
        require(contains_all(Et, oracle.apply_space(mats, f_perp, n)), "V[F~^perp] is not inside E~")

    size = _check_separator(rep["separator"], f["E"], f["F"], n, absorbs)
    if not proved:
        return size
    require(rep["status"] == "proved", "matrix-menger status is not proved")
    require(size == rep["mpc"], "separator size differs from the capacity")
    require(_route_lower(inst) == rep["mpc"], "sampled routing-space rank differs from the capacity")
    return size


CHECKS = {
    "konig": check_konig,
    "hall": check_hall,
    "rado": check_rado,
    "dilworth": check_dilworth,
    "coherent": check_coherent,
    "menger": check_menger,
    "lgv": check_lgv,
    "ncrank": check_ncrank,
    "matrix-konig": check_matrix_konig,
    "matrix-dilworth": check_matrix_dilworth,
    "matrix-menger": check_matrix_menger,
}


def verify(inst, rep):
    CHECKS[inst.theorem](inst, rep)


# ---------------------------------------------------------------------------
# the two faults: the run counts them as failed; their bounds must still
# bracket the true value the benchmark computes itself


def fault_truth(inst) -> int:
    f = inst.facts
    n = f["n"]
    if inst.fault == "A":
        lower = _sampled_ncrank(inst, 1)
        upper = n - _defect(f["mats"], f["planted"], n)
    else:
        lower = _route_lower(inst)
        upper = _subset_capacity(f["pairs"], span(f["E"], n), span(f["F"], n))
    require(lower == upper, f"fault instance {inst.ident} has no known value (lower {lower}, upper {upper})")
    return lower


def verify_fault(inst, rep, truth):
    if inst.fault == "A":
        check_ncrank(inst, rep, proved=False)
        low, high = rep["ncrank"], inst.facts["n"] - rep["defect"]
    else:
        high = check_matrix_menger(inst, rep, proved=False)
        low = rep["mpc"]
    require(low <= truth <= high, f"bounds [{low}, {high}] miss the true value {truth}")


# ---------------------------------------------------------------------------
# mutated certificates


def _zero_subspace(ambient):
    return [[] for _ in range(ambient)]


def _bump(key, by=1):
    def mutate(rep):
        rep[key] += by
    return mutate


def _set(path, value_fn):
    def mutate(rep):
        node = rep
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value_fn(node[path[-1]])
    return mutate


MUTATIONS = {
    "konig": [_bump("value"), _set(("cover",), lambda c: {k: _zero_subspace(len(e)) for k, e in c.items()})],
    "dilworth": [_bump("antichain_dim"),
                 _set(("decomposition", "chains"), lambda cs: cs + cs[:1])],
    "coherent": [_bump("coherent_count"), _set(("decomposition", "A"), lambda a: [[str(Fraction(a[0][0]) + 1)] + a[0][1:]] + a[1:])],
    "menger": [_bump("cpc", -1), _set(("separator", "E_tilde"), lambda e: _zero_subspace(len(e)))],
    "lgv": [_bump("points_checked", -1), _set(("acyclic",), lambda a: not a)],
    "ncrank": [_bump("ncrank"), _set(("witness", "E"), lambda e: [[str(int(i == j)) for j in range(len(e))] for i in range(len(e))])],
    "matrix-konig": [_bump("cover_size")],
    "matrix-dilworth": [_bump("antichain_dim")],
    "matrix-menger": [_bump("mpc", -1), _set(("separator", "F_tilde"), lambda e: _zero_subspace(len(e)))],
}


def _hall_mutations(rep):
    if rep["saturated"]:
        return [_set(("matching",), lambda m: m[:-1] + m[:1])]
    return [_set(("witness", "neighborhood"), lambda e: [[str(int(i == j)) for j in range(len(e))] for i in range(len(e))])]


def _rado_mutations(rep):
    if "transversal" in rep:
        return [_set(("transversal",), lambda t: t[1:2] + t[1:])]
    return [_set(("violating_sets",), lambda s: s[:1])]


def mutations(theorem, rep):
    if theorem == "hall":
        return _hall_mutations(rep)
    if theorem == "rado":
        return _rado_mutations(rep)
    return MUTATIONS[theorem]


def self_test(samples) -> int:
    """Mutate one correct report per theorem; every mutant must be rejected.

    `samples` maps theorem -> (instance, report).  Returns the number of
    mutants rejected; raises CheckFailed if one is accepted.
    """
    rejected = 0
    for theorem, (inst, rep) in sorted(samples.items()):
        for mutate in mutations(theorem, rep):
            bad = copy.deepcopy(rep)
            mutate(bad)
            try:
                verify(inst, bad)
            except (CheckFailed, KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
                rejected += 1
                continue
            raise CheckFailed(f"a mutated {theorem} certificate of {inst.ident} was accepted")
    return rejected

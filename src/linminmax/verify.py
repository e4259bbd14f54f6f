"""Certificate verification: the one place that decides whether a certificate is valid.

Solvers build certificates and do not test them; `cli` passes each
certificate that a check's exit 0 depends on to one predicate here, once.
A predicate re-derives what it needs from the instance (a relation, a
matrix space, a set family) and the certificate alone, with the kernels of
`exact_linalg` and `relation`.  It imports no solver: certificates are read
by their fields, so a solver's mistake cannot vouch for itself.
"""

from __future__ import annotations

from .exact_linalg import IntEchelon, Subspace, outer_sum
from .relation import apply_space, doubly_independent, neighborhood_span

# ---------------------------------------------------------------------------
# relations: matchings, covers, shrunk subspaces, transversals


def verify_matching(m) -> bool:
    """Distinct pair indices with independent v's and w's, whose rank-one sum has rank |m|."""
    R = m.relation
    if len(set(m.indices)) != len(m.indices):
        return False
    if not all(0 <= i < len(R.pairs) for i in m.indices):
        return False
    pairs = [R.pairs[i] for i in m.indices]
    if not doubly_independent(pairs, R.n, R.m):
        return False
    return outer_sum(pairs, R.m, R.n).rank() == len(pairs)


def verify_cover(R, c) -> bool:
    """(E, F) with v in E or w in F for every pair (v, w) of R."""
    if c.E.ambient != R.n or c.F.ambient != R.m:
        return False
    return all(c.E.contains(v) or c.F.contains(w) for v, w in R.pairs)


def verify_shrunk_witness(R, w) -> bool:
    """S spans more dimensions than its neighborhood span, recomputed from R and stored."""
    if w.S.ambient != R.n:
        return False
    neighborhood = neighborhood_span(R, w.S.vectors)
    return w.neighborhood == neighborhood and w.S.dim > neighborhood.dim


def verify_rado_report(sets, m: int, transversal, witness) -> bool:
    """A Rado transversal or violating family, re-checked from the sets alone.

    A transversal holds when each w_i is one of the vectors of set i and
    the w_i are independent; a witness, when the union of its sets spans
    fewer dimensions than there are sets.
    """
    if transversal is not None:
        ech = IntEchelon(m)
        return len(transversal) == len(sets) and all(
            w in S and ech.add(w.int_row()) for w, S in zip(transversal, sets)
        )
    members = set(witness)
    if not members <= set(range(len(sets))):
        return False
    union = Subspace.span(m, [v for i in members for v in sets[i]])
    return union.dim < len(members)


# ---------------------------------------------------------------------------
# linorders: antichains, bi-chains, coherent decompositions


def verify_antichain(R, C) -> bool:
    """Every pair of R has v or w orthogonal to C."""
    perp = C.orthocomplement()
    return all(perp.contains(v) or perp.contains(w) for v, w in R.pairs)


def _bichain_holds(R, chain) -> bool:
    """w_i never orthogonal to v_i, and (v_i, w_{i+1}) the R-pair its link names."""
    r = chain.length
    if len(chain.vs) != r or len(chain.link_pair_indices) != r - 1:
        return False
    if any(w.dot(v) == 0 for w, v in zip(chain.ws, chain.vs)):
        return False
    return all(
        0 <= idx < len(R.pairs) and R.pairs[idx] == (chain.vs[i], chain.ws[i + 1])
        for i, idx in enumerate(chain.link_pair_indices)
    )


def verify_bichain_decomposition(D) -> bool:
    """Bi-chains of D's relation whose (v, w) pairs are n doubly independent pairs."""
    R = D.relation
    if not all(_bichain_holds(R, c) for c in D.chains):
        return False
    pairs = [(v, w) for c in D.chains for v, w in zip(c.vs, c.ws)]
    return len(pairs) == R.n and doubly_independent(pairs, R.n, R.n)


def verify_pair_sum(R, indices, A) -> bool:
    """A is the plain sum of w v^T over the distinct pairs of R at `indices`."""
    if len(set(indices)) != len(indices):
        return False
    if not all(0 <= i < len(R.pairs) for i in indices):
        return False
    return A == outer_sum([R.pairs[i] for i in indices], R.m, R.n)


def verify_coherent_decomposition(D, space=None, r: int = 1) -> bool:
    """The chains (seed, A seed, ..., A^{len-1} seed) form a basis.

    With `space`, the implementing matrix A must also lie in space (x) M_r.
    """
    n = D.A.rows
    ech = IntEchelon(n)
    count = 0
    for seed, length in D.chains:
        u = seed
        for _ in range(length):
            if not ech.add(u.int_row()):
                return False
            u = D.A.apply(u)
            count += 1
    if count != n or ech.rank != n:
        return False
    return space is None or space.contains(D.A, r)


# ---------------------------------------------------------------------------
# separators and bi-paths


def _separator_holds(sep, absorbs) -> bool:
    """E inside E~, F inside F~ and F~^perp inside E~, and `absorbs(F~^perp)`."""
    f_perp = sep.F_tilde.orthocomplement()
    return (
        sep.E_tilde.contains_subspace(sep.E)
        and sep.F_tilde.contains_subspace(sep.F)
        and sep.E_tilde.contains_subspace(f_perp)
        and absorbs(f_perp)
    )


def verify_separator(R, sep) -> bool:
    """Relation sense: every pair of R has v in F~ or w in E~."""
    return _separator_holds(
        sep,
        lambda f_perp: all(
            sep.F_tilde.contains(v) or sep.E_tilde.contains(w) for v, w in R.pairs
        ),
    )


def verify_matrix_separator(V, sep) -> bool:
    """Matrix sense: V[F~^perp] inside E~."""
    return _separator_holds(
        sep, lambda f_perp: sep.E_tilde.contains_subspace(apply_space(V, f_perp))
    )


def independent_bipaths_check(R, E, F, paths) -> bool:
    """Bi-chains of R from E to F, with jointly independent v's and jointly independent w's."""
    return all(
        _bichain_holds(R, p) and E.contains(p.ws[0]) and F.contains(p.vs[-1]) for p in paths
    ) and doubly_independent(((v, w) for p in paths for v, w in zip(p.vs, p.ws)), R.n, R.n)


# ---------------------------------------------------------------------------
# matrix spaces: defects, blow-up elements, covers, antichains


def verify_defect_certificate(V, cert) -> bool:
    """cert.defect is dim E - dim V[E], recomputed from V."""
    E = cert.E
    return E.ambient == V.n and E.dim - apply_space(V, E).dim == cert.defect


def verify_blowup_element(V, r: int, element, rank: int) -> bool:
    """An element of V (x) M_r of rank `rank`."""
    return (
        (element.rows, element.cols) == (V.m * r, V.n * r)
        and V.contains(element, r)
        and element.rank() == rank
    )


def verify_matrix_cover(V, c) -> bool:
    """V[E^perp] inside F."""
    return c.F.contains_subspace(apply_space(V, c.E.orthocomplement()))


def verify_matrix_antichain(V, C) -> bool:
    """V[C] orthogonal to C, that is P A P = 0 for every A in V and P onto C."""
    return C.orthocomplement().contains_subspace(apply_space(V, C))

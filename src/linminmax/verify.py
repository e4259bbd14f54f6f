"""Certificate verification: the one place that decides whether a certificate is valid.

Solvers build certificates and do not test them; `cli` passes each
certificate that a check's exit 0 depends on to one predicate here, once,
with the instance that the check parsed.  The instance comes from the
arguments and the certificate is read by its fields alone, so no
certificate carries the data it is checked against, and no solver is
imported.  A relation R is checked as its rank-one space V_R: the image
V_R[U] is the neighborhood span N(U), which `relation.apply_space` reads
off the pairs without building the n*m-wide span.  So one predicate
serves the relation and the matrix form of each theorem.  The dual of
Kőnig, Hall, Lovász, ncrank and matrix Kőnig is one exact cover: the
shrunk subspace U with F = V[U], for a relation the span of the w's of
the pairs whose v meets U.  A separator is (E~, X) with X = F~^perp.
A blow-up element (the primal of ncrank, matrix Kőnig and Dilworth and
both path capacities) is checked by one exact sum over its space's
generators and the coefficients it carries, so a routing space needs no
echelon.  Each predicate checks its certificate by definition, by
images, memberships, sums and products, and takes no complement and no
kernel.  A certificate whose ambient dimension does not fit the
instance is invalid, never an error.
"""

from __future__ import annotations

from itertools import chain
from operator import mul

from .exact_linalg import IntEchelon, Subspace, outer_sum
from .relation import apply_space, doubly_independent


# ---------------------------------------------------------------------------
# relations and matrix spaces: matchings, covers, transversals


def verify_matching(R, m) -> bool:
    """Distinct pair indices of R with independent v's and w's.

    Independent v's and w's make both factors of the rank-one sum W V^T
    full column rank, so its rank is |m| without computing it.
    """
    if len(set(m.indices)) != len(m.indices):
        return False
    if not all(0 <= i < len(R.pairs) for i in m.indices):
        return False
    return doubly_independent([R.pairs[i] for i in m.indices], R.n, R.m)


def verify_cover(V, c) -> bool:
    """F is V[U] exactly, recomputed: on a relation, the span of the w's whose v meets U."""
    if (c.U.ambient, c.F.ambient) != (V.n, V.m):
        return False
    return apply_space(V, c.U) == c.F


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
# linorders and nilpotent algebras: antichains, bi-chains, coherent decompositions


def verify_antichain(V, C) -> bool:
    """V[C] orthogonal to C: for a relation, every pair has v or w orthogonal to C."""
    if not C.ambient == V.n == V.m:
        return False
    rows = C.int_rows()
    return not any(sum(map(mul, a, b)) for a in apply_space(V, C).int_rows() for b in rows)


def _bichain_holds(R, chain) -> bool:
    """w_i never orthogonal to v_i, and (v_i, w_{i+1}) the R-pair its link names."""
    r = chain.length
    if len(chain.vs) != r or len(chain.link_pair_indices) != r - 1:
        return False
    if any(x.dim != R.n for x in chain.ws + chain.vs):
        return False
    if any(w.is_orthogonal(v) for w, v in zip(chain.ws, chain.vs)):
        return False
    return all(
        0 <= idx < len(R.pairs) and R.pairs[idx] == (chain.vs[i], chain.ws[i + 1])
        for i, idx in enumerate(chain.link_pair_indices)
    )


def verify_bichain_decomposition(R, D) -> bool:
    """Bi-chains of R whose (v, w) pairs are n doubly independent pairs."""
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

    With `space`, the implementing matrix A must also lie in space (x) M_r,
    by the coefficients it carries (`_is_blowup_sum`).
    """
    n = D.A.rows
    if D.A.cols != n or any(seed.dim != n for seed, _ in D.chains):
        return False
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
    return space is None or _is_blowup_sum(space, r, D.A)


# ---------------------------------------------------------------------------
# separators, bi-paths and blow-up elements


def verify_separator(V, E, F, sep) -> bool:
    """E inside E~, F orthogonal to X = F~^perp, and X and V[X] inside E~.

    For a relation the last condition says that every pair has v
    orthogonal to X or w in E~.
    """
    if not sep.E_tilde.ambient == sep.X.ambient == V.n:
        return False
    xs = sep.X.int_rows()
    return (
        sep.E_tilde.contains_subspace(E)
        and not any(sum(map(mul, f, x)) for f in F.int_rows() for x in xs)
        and sep.E_tilde.contains_subspace(sep.X)
        and sep.E_tilde.contains_subspace(apply_space(V, sep.X))
    )


def independent_bipaths_check(R, E, F, paths) -> bool:
    """Bi-chains of R from E to F, with jointly independent v's and jointly independent w's."""
    return all(
        _bichain_holds(R, p) and E.contains(p.ws[0]) and F.contains(p.vs[-1]) for p in paths
    ) and doubly_independent(((v, w) for p in paths for v, w in zip(p.vs, p.ws)), R.n, R.n)


def _is_blowup_sum(V, r: int, element) -> bool:
    """element = sum_B B (x) C_B exactly, over V's generators B and the C_B it carries.

    Its slice (element[i r + k][j r + l])_{i,j} must be sum_B C_B[k][l] B,
    added up on the integer rows `V.int_basis` and compared over both
    denominators.  With no generators the sum is 0; else an element
    without one r x r coefficient matrix per generator fails.
    """
    if (element.rows, element.cols) != (V.m * r, V.n * r):
        return False
    if not V.int_basis:
        return element.is_zero()
    coeffs = getattr(element, "coeffs", ())
    shapes = {(len(c), *map(len, c)) for c in coeffs}
    if len(coeffs) != len(V.int_basis) or shapes != {(r,) * (r + 1)}:
        return False
    rows = element.int_rows()
    for k in range(r):
        for l in range(r):
            acc = [0] * (V.m * V.n)
            for b, c in zip(V.int_basis, coeffs):
                x = c[k][l] * element.den
                if x:
                    acc = [a + x * y for a, y in zip(acc, chain.from_iterable(b))]
            if acc != [x * V.den for row in rows[k::r] for x in row[l::r]]:
                return False
    return True


def verify_blowup_element(V, r: int, element, rank: int) -> bool:
    """An element of V (x) M_r, by the coefficients it carries, of rank `rank`."""
    return _is_blowup_sum(V, r, element) and element.rank() == rank

"""Linorders: linear analogues of strict posets, with chain decompositions.

A linorder is a relation on F^n x F^n that is closed under composition
through nonorthogonal middles and has v orthogonal to w in every pair; its
rank-one span is then a nilpotent operator algebra.  The maximum antichain
dimension equals n minus the minimum cover size, and is matched both by
bi-chain decompositions (alternating w, v sequences) and by coherent
decompositions (iterate chains of one matrix from the algebra).  The
antichain, the bi-chains and the coherent decomposition all read one
matroid-intersection run of the relation: the antichain is U n F^perp
of its minimum cover (U, F), and both decompositions start from its
maximum matching.  The coherent decomposition is the Jordan chains of that
matching's rank-one sum, an element of maximum rank in the span
(Lovász), so no span is built and nothing is sampled.  `verify` alone
decides the bi-chains and the coherent chains that the solvers return.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, InvariantViolation
from .exact_linalg import (
    IntEchelon,
    Mat,
    Vec,
    unit_vec,
)
from .matching_cover import Matching
from .relation import Relation


@dataclass(frozen=True)
class LinorderViolation:
    """First failing axiom instance: ("transitivity", (i, j)) or ("orthogonality", i)."""

    axiom: str
    witness: tuple


def validate_linorder(R: Relation):
    """Check both linorder axioms; returns the first violation, or None.

    They force the span to be nilpotent: transitivity shortens a cycle
    i1 -> i2 -> ... of arcs w_i . v_j != 0 through the pair (v_i1, w_i2)
    down to a loop, which orthogonality forbids.
    """
    if R.n != R.m:
        raise DimensionError("a linorder lives on F^n x F^n")
    for i, (v, w) in enumerate(R.pairs):
        if not v.is_orthogonal(w):
            return LinorderViolation("orthogonality", (i,))
    pair_set = set(R.pairs)
    for i, (v, w) in enumerate(R.pairs):
        for j, (v2, w2) in enumerate(R.pairs):
            if not w.is_orthogonal(v2) and (v, w2) not in pair_set:
                return LinorderViolation("transitivity", (i, j))
    return None


@dataclass(frozen=True)
class BiChain:
    """Alternating sequence (w_1, v_1, ..., w_r, v_r) with indexed R-links.

    w_i is never orthogonal to v_i, and (v_i, w_{i+1}) is the relation pair
    at link_pair_indices[i].
    """

    ws: tuple
    vs: tuple
    link_pair_indices: tuple

    @property
    def length(self) -> int:
        return len(self.ws)

    def to_json(self):
        return {
            "ws": [w.to_json() for w in self.ws],
            "vs": [v.to_json() for v in self.vs],
            "links": list(self.link_pair_indices),
        }


@dataclass(frozen=True)
class BiChainDecomposition:
    chains: tuple

    @property
    def size(self) -> int:
        return len(self.chains)

    def to_json(self):
        return {"size": self.size, "chains": [c.to_json() for c in self.chains]}


@dataclass(frozen=True)
class CoherentDecomposition:
    """Chains (seed, A seed, ..., A^{len-1} seed) implemented by one matrix."""

    A: Mat
    chains: tuple  # of (seed: Vec, length: int)

    @property
    def size(self) -> int:
        return len(self.chains)

    def to_json(self):
        return {
            "A": self.A.to_json(),
            "chains": [
                {"seed": seed.to_json(), "length": length}
                for seed, length in self.chains
            ],
        }


def _perfect_nonorthogonal_bijection(ws, vs):
    """phi with w_i not orthogonal to v_{phi(i)} via augmenting paths."""
    n = len(ws)
    adj = [
        [j for j in range(n) if not ws[i].is_orthogonal(vs[j])]
        for i in range(n)
    ]
    match_w = [None] * n
    match_v = [None] * n

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_v[j] is None or augment(match_v[j], seen):
                match_w[i] = j
                match_v[j] = i
                return True
        return False

    for i in range(n):
        if not augment(i, set()):
            raise InvariantViolation(
                "independent families always admit a nonorthogonal bijection"
            )
    return match_w


def _complete_to_basis(vectors, n):
    """Extend a list of independent vectors by standard basis vectors."""
    ech = IntEchelon(n)
    out = list(vectors)
    for v in out:
        if not ech.add(v.int_row()):
            raise InvariantViolation("basis completion fed dependent vectors")
    for i in range(n):
        e = unit_vec(n, i)
        if ech.add(e.int_row()):
            out.append(e)
    return out


def bichain_decomposition(matching: Matching) -> BiChainDecomposition:
    """Decompose F^n into the minimum number of bi-chains.

    Steps: a maximum matching of the linorder R; completion of its v's and
    w's to bases; a bijection phi with w_i never orthogonal to
    v_{phi(i)}; then the 2n-vertex graph with edges
    w_i -> v_{phi(i)} and v_i -> w_i (matched i) splits into maximal paths,
    each of which is a bi-chain.
    """
    R = matching.relation
    n = R.n
    s = matching.size
    matched = list(matching.indices)
    vs = [R.pairs[i][0] for i in matched]
    ws = [R.pairs[i][1] for i in matched]
    vs = _complete_to_basis(vs, n)
    ws = _complete_to_basis(ws, n)
    phi = _perfect_nonorthogonal_bijection(ws, vs)

    # Functional graph: w_i -> v_{phi(i)} always; v_j -> w_j only when j < s.
    # phi is a bijection, so every walk below ends at an index >= s.  A cycle of
    # matched indices is left out, and `verify_bichain_decomposition` counts that.
    # Maximal paths start at the w's no matched v points to (indices >= s).
    starts = [i for i in range(n) if i >= s]
    chains = []
    for start in starts:
        chain_ws = []
        chain_vs = []
        links = []
        i = start
        while True:
            chain_ws.append(ws[i])
            chain_vs.append(vs[phi[i]])
            j = phi[i]
            if j < s:
                links.append(matched[j])
                i = j
            else:
                break
        chains.append(BiChain(tuple(chain_ws), tuple(chain_vs), tuple(links)))
    return BiChainDecomposition(tuple(chains))


def w_chain_check(R: Relation, chains) -> bool:
    """Whether the given w-sequences are linked chains whose entries form a basis.

    Consecutive entries must be linked through some relation pair (v, w')
    with the current entry not orthogonal to v and w' the next entry.  This
    is the weaker single-sided notion that can undercut the antichain bound.
    """
    n = R.n
    ech = IntEchelon(n)
    total = 0
    for chain in chains:
        chain = list(chain)
        for w, w_next in zip(chain, chain[1:]):
            if not any(
                not w.is_orthogonal(v) and w2 == w_next for v, w2 in R.pairs
            ):
                return False
        for w in chain:
            if not ech.add(w.int_row()):
                return False
            total += 1
    return total == n and ech.rank == n


def nilpotent_jordan_chains(A: Mat):
    """Jordan chain seeds and lengths of a nilpotent matrix.

    Kernel filtration ker A <= ker A^2 <= ... with greedy lifting: new seeds
    at the deepest level first, then their images carried down.  The number
    of chains is dim ker A and the iterates form a basis, as `verify` and the
    checks' size equalities decide.
    """
    if not A.is_square():
        raise DimensionError("Jordan chains of a non-square matrix")
    n = A.rows
    if n == 0:
        return []
    powers = [Mat.identity(n)]
    while not powers[-1].is_zero():
        if len(powers) > n:
            raise ValueError("matrix is not nilpotent")
        powers.append(powers[-1] @ A)
    p = len(powers) - 1  # nilpotency index
    kernels = [P.kernel() for P in powers]  # kernels[0] = {0}
    chains: list[tuple[Vec, int]] = []
    carried: list[Vec] = []
    for j in range(p, 0, -1):
        ech = IntEchelon(n)
        for row in kernels[j - 1].int_rows():
            ech.add(row)
        for u in carried:
            ech.add(u.int_row())
        new = []
        for b in kernels[j].vectors:
            if ech.add(b.int_row()):
                new.append(b)
        chains.extend((seed, j) for seed in new)
        carried = [A.apply(u) for u in carried + new]
    return chains


def coherent_decomposition(matching: Matching) -> CoherentDecomposition:
    """Minimum coherent decomposition: Jordan chains of one maximum-rank element.

    The implementing matrix is the rank-one sum of a maximum matching of a
    linorder, whose rank is the matching size; its Jordan chains number
    n minus that rank, the maximum antichain dimension.  It is also the sum
    of the interior links of `bichain_decomposition(matching)`.
    """
    A = matching.rank_one_sum()
    return CoherentDecomposition(A, tuple(nilpotent_jordan_chains(A)))

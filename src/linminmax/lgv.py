"""Path determinants: the linear Lindstrom-Gessel-Viennot identity.

For source columns A, sink columns B, and pair columns (v_i, w_i) carrying
formal weights x_i, the determinant det(B^T (I - W X V^T)^{-1} A) equals a
signed subset sum of small bordered determinants divided by the matching
subset expansion of det(I - X V^T W).  When the pair family is acyclic the
denominator is identically 1 and the inverse truncates to a finite
geometric sum.  Both sides are evaluated exactly at rational points; there
is no symbolic polynomial arithmetic anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DimensionError, InvariantViolation, SingularityError
from .exact_linalg import Mat, hstack, solve_exact
from .classical_oracles import Digraph
from .relation import Relation, space_power_is_zero, to_matrix_space


@dataclass(frozen=True)
class LgvInstance:
    """Columns v_i, w_i (weighted pairs) plus source and sink columns."""

    V: Mat  # n x r
    W: Mat  # n x r
    A: Mat  # n x k
    B: Mat  # n x k

    def __post_init__(self):
        n = self.V.rows
        if self.W.rows != n or self.A.rows != n or self.B.rows != n:
            raise DimensionError("all column blocks must share the ambient dimension")
        if self.V.cols != self.W.cols:
            raise DimensionError("one w column per v column required")
        if self.A.cols != self.B.cols:
            raise DimensionError("one sink per source required")

    @property
    def n(self) -> int:
        return self.V.rows

    @property
    def r(self) -> int:
        return self.V.cols

    @property
    def k(self) -> int:
        return self.A.cols

    def relation(self) -> Relation:
        return Relation(
            self.n,
            self.n,
            [(self.V.col(i), self.W.col(i)) for i in range(self.r)],
        )

    def to_json(self):
        return {
            "V": self.V.to_json(),
            "W": self.W.to_json(),
            "A": self.A.to_json(),
            "B": self.B.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            Mat.from_json(data["V"]),
            Mat.from_json(data["W"]),
            Mat.from_json(data["A"]),
            Mat.from_json(data["B"]),
        )


def instance_from_relation(R: Relation, sources, sinks) -> LgvInstance:
    if R.n != R.m:
        raise DimensionError("path instances need a relation on F^n x F^n")
    return LgvInstance(
        Mat.from_cols([v for v, _ in R.pairs], rows=R.n),
        Mat.from_cols([w for _, w in R.pairs], rows=R.n),
        Mat.from_cols(list(sources), rows=R.n),
        Mat.from_cols(list(sinks), rows=R.n),
    )


def _coerce_point(inst: LgvInstance, xs) -> list[Fraction]:
    xs = [Fraction(x) for x in xs]
    if len(xs) != inst.r:
        raise DimensionError("one weight per pair column required")
    return xs


def _weighted_sum(inst: LgvInstance, xs) -> Mat:
    """W diag(x) V^T = sum_i x_i w_i v_i^T."""
    return inst.W @ Mat.diag(xs) @ inst.V.transpose()


def lgv_lhs(inst: LgvInstance, xs) -> Fraction:
    """det(B^T (I - W X V^T)^{-1} A), exactly, at the given point."""
    xs = _coerce_point(inst, xs)
    m = Mat.identity(inst.n) - _weighted_sum(inst, xs)
    solved = solve_exact(m, inst.A)
    if solved is None:
        raise SingularityError("I - W X V^T is singular at this point")
    return (inst.B.transpose() @ solved).det()


def _subset_table(inst: LgvInstance) -> Mat:
    """[[V^T W, V^T A], [B^T W, B^T A]]: every G_S is a principal submatrix."""
    return hstack([inst.V, inst.B]).transpose() @ hstack([inst.W, inst.A])


def gs_matrix(inst: LgvInstance, S, table=None) -> Mat:
    """The bordered subset matrix G_S = [[V_S^T W_S, V_S^T A],[B^T W_S, B^T A]]."""
    if table is None:
        table = _subset_table(inst)
    idx = sorted(S) + list(range(inst.r, inst.r + inst.k))
    return table.submatrix(idx, idx)


def lgv_rhs(inst: LgvInstance, xs) -> Fraction:
    """Subset-sum evaluation: numerator over denominator, both explicit."""
    xs = _coerce_point(inst, xs)
    num, den = lgv_rhs_parts(inst, xs)
    if den == 0:
        raise SingularityError("the subset denominator vanishes at this point")
    return num / den


def lgv_rhs_parts(inst: LgvInstance, xs):
    """(numerator, denominator) of the subset-sum side at a point."""
    xs = _coerce_point(inst, xs)
    table = _subset_table(inst)
    num = Fraction(0)
    den = Fraction(0)
    for size in range(inst.r + 1):
        sign = -1 if size % 2 else 1
        for S in combinations(range(inst.r), size):
            x_s = Fraction(1)
            for i in S:
                x_s *= xs[i]
            if x_s == 0:
                continue
            num += sign * x_s * gs_matrix(inst, S, table).det()
            den += sign * x_s * table.submatrix(S, S).det()
    return num, den


def is_acyclic(R: Relation) -> bool:
    """Whether the induced matrix space satisfies V_R^n = {0}."""
    if R.n != R.m:
        raise DimensionError("acyclicity is defined for relations on F^n x F^n")
    return space_power_is_zero(to_matrix_space(R), R.n)


def _acyclic_pair_order(vtw):
    """Topological order of pair indices so that v_i . w_j = 0 for i >= j.

    `vtw` holds the rows of V^T W, or any nonzero multiple of them.
    """
    r = len(vtw)
    succ = {i: [j for j in range(r) if vtw[i][j]] for i in range(r)}
    order = []
    state = [0] * r  # 0 unseen, 1 on stack, 2 done

    def visit(i):
        if state[i] == 1:
            raise InvariantViolation("pair graph has a cycle")
        if state[i] == 2:
            return
        state[i] = 1
        for j in succ[i]:
            visit(j)
        state[i] = 2
        order.append(i)

    for i in range(r):
        visit(i)
    order.reverse()
    return order


def lgv_acyclic(inst: LgvInstance, xs):
    """Both sides of the identity in the acyclic case; asserts equality.

    The left side uses the truncated geometric sum of W X V^T; the right
    side is the bare numerator because det(I - X V^T W) = 1, which is
    verified both by evaluation and by a strict-triangularity reordering.
    A failure of any of these is a violated identity (InvariantViolation),
    not a singular point.
    """
    xs = _coerce_point(inst, xs)
    if not is_acyclic(inst.relation()):
        raise ValueError("instance is not acyclic")
    n = inst.n
    step = _weighted_sum(inst, xs)
    total = Mat.zeros(n, n)
    power = Mat.identity(n)
    for _ in range(n):
        total = total + power
        power = power @ step
    lhs = (inst.B.transpose() @ total @ inst.A).det()

    num, den = lgv_rhs_parts(inst, xs)
    if den != 1:
        raise InvariantViolation("acyclic denominator is not identically 1")
    vtw = (inst.V.transpose() @ inst.W).int_rows()
    order = _acyclic_pair_order(vtw)  # existence certifies triangularity
    for pos_i, i in enumerate(order):
        for pos_j, j in enumerate(order):
            if pos_i >= pos_j and vtw[i][j]:
                raise InvariantViolation("triangular reordering failed")
    if lhs != num:
        raise InvariantViolation("acyclic identity failed at an exact point")
    return lhs, num


# ---------------------------------------------------------------------------
# classical reduction


def classical_lgv(G: Digraph, H, K):
    """det of the path-weight matrix vs the signed vertex-disjoint path sum.

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

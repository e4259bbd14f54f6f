"""Relations between rational vector spaces and their induced matrix spaces.

A relation is a finite list of vector pairs (v, w) in F^n x F^m.  Each pair
induces the rank-one map w v^T, and the span of those maps is the matrix
space the min-max machinery actually works with.  No check builds the
span of a relation: the image V_R[U] of a subspace is the neighborhood
span N(U), so `apply_space` and the nilpotency flag of
`space_power_is_zero` run on the relation itself, and a cover (U, V[U])
is checked with no complement.  The routing space of a path capacity
(`routing_space`) is built here too, on a relation from the border and
its rank-ones, with the basis the span would give; a check builds it
once and its solver routes in that space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import lcm
from operator import mul

from .errors import CertificationError, DimensionError
from .exact_linalg import (
    IntEchelon,
    Mat,
    Subspace,
    Vec,
    common_int_rows,
    int_kernel,
    json_int,
    json_list,
    outer,
)


# The largest blow-up side max(m, n) r that `best_sample` draws at.
BLOWUP_DIM_BUDGET = 64


class Relation:
    """Finite list of pairs (v, w) with v in F^n and w in F^m.

    Pairs are addressed by their index in the list; duplicates are allowed.
    """

    __slots__ = ("n", "m", "pairs")

    def __init__(self, n: int, m: int, pairs):
        if n < 0 or m < 0:
            raise DimensionError("relation with a negative dimension")
        pairs = tuple((v, w) for v, w in pairs)
        for v, w in pairs:
            if v.dim != n or w.dim != m:
                raise DimensionError("relation pair with wrong dimensions")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relation)
            and (self.n, self.m) == (other.n, other.m)
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.n, self.m, self.pairs))

    def __repr__(self):
        return f"Relation(n={self.n}, m={self.m}, pairs={len(self.pairs)})"

    def to_json(self):
        return {
            "n": self.n,
            "m": self.m,
            "pairs": [[v.to_json(), w.to_json()] for v, w in self.pairs],
        }

    @classmethod
    def from_json(cls, data) -> "Relation":
        return cls(
            json_int(data["n"]),
            json_int(data["m"]),
            [(Vec.from_json(v), Vec.from_json(w)) for v, w in json_list(data["pairs"])],
        )


class MatrixSpace:
    """Span of a list of m x n matrices, kept on its independent generators.

    Every space is built by `_span`: the prefix-greedy independent sub-list
    of the generators is the basis, and the integer echelon that chose it
    serves the membership tests.  `MatrixSpace(m, n, basis)` refuses a
    dependent basis; `MatrixSpace.spanned` keeps what a spanning list spans.
    The basis is also kept as integer rows over one common denominator
    (`int_basis[i]` is `den` times `basis[i]`).
    """

    __slots__ = ("m", "n", "basis", "int_basis", "den", "_echelon", "_nilpotent")

    def __init__(self, m: int, n: int, basis):
        basis = tuple(basis)
        self._span(m, n, basis)
        if len(self.basis) != len(basis):
            raise ValueError("matrix space basis is linearly dependent")

    @classmethod
    def spanned(cls, m: int, n: int, generators) -> "MatrixSpace":
        """The span of `generators`."""
        space = cls.__new__(cls)
        space._span(m, n, tuple(generators))
        return space

    def _span(self, m: int, n: int, generators: tuple):
        if m < 0 or n < 0:
            raise DimensionError("matrix space with a negative dimension")
        for g in generators:
            if (g.rows, g.cols) != (m, n):
                raise DimensionError("basis matrix with wrong shape")
        ech = IntEchelon(m * n)
        basis = tuple(g for g in generators if ech.add(g.int_flat()))
        int_basis, den = common_int_rows(basis)
        values = (m, n, basis, tuple(int_basis), den, ech, None)
        for name, value in zip(MatrixSpace.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixSpace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, a: Mat, r: int = 1) -> bool:
        """Whether a lies in V (x) M_r, the layout `sample_element` draws.

        It does exactly when each of its r^2 slices (a[i r + k][j r + l])_{i,j}
        lies in V; each slice is one reduction against the echelon of V.
        """
        if (a.rows, a.cols) != (self.m * r, self.n * r):
            raise DimensionError("membership test with wrong shape")
        rows = a.int_rows()
        return all(
            self._echelon.contains([x for row in rows[k::r] for x in row[l::r]])
            for k in range(r)
            for l in range(r)
        )

    def to_json(self):
        return {"m": self.m, "n": self.n, "basis": [b.to_json() for b in self.basis]}

    @classmethod
    def from_json(cls, data) -> "MatrixSpace":
        m, n = json_int(data["m"]), json_int(data["n"])
        return cls(m, n, [Mat.from_json(b, cols=n) for b in json_list(data["basis"])])


@dataclass
class GenericSampler:
    """Deterministic stream of integer coefficients for generic elements.

    The same seed reproduces the same stream; coefficients are uniform on
    [-coeff_bound, coeff_bound].
    """

    seed: int
    coeff_bound: int = 10**6
    trials: int = 25
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.coeff_bound <= 0 or self.trials <= 0:
            raise ValueError("coeff_bound and trials must be positive")
        self._rng = random.Random(self.seed)

    def coefficient(self) -> int:
        return self._rng.randint(-self.coeff_bound, self.coeff_bound)


# ---------------------------------------------------------------------------
# operations


def _image(V, rows, cap: int) -> IntEchelon:
    """Echelon of V[U] on integer rows, U spanned by `rows`; stops at rank cap.

    V is a matrix space, or a relation R standing for its span V_R: then
    V_R[U] is the neighborhood span N(U), the w's of the pairs whose v
    meets U, and the n*m-wide span is never built.
    """
    ech = IntEchelon(V.m)
    if isinstance(V, Relation):
        images = (
            w.int_row()
            for v, w in V.pairs
            if any(sum(map(mul, v.int_row(), u)) for u in rows)
        )
    else:
        images = ([sum(map(mul, row, u)) for row in b] for b in V.int_basis for u in rows)
    for image in images:
        ech.add(image)
        if ech.rank == cap:
            break
    return ech


def doubly_independent(pairs, n: int, m: int) -> bool:
    """Whether the v's of `pairs` are linearly independent in F^n and the w's in F^m."""
    ech_v, ech_w = IntEchelon(n), IntEchelon(m)
    return all(
        ech_v.add(v.int_row()) and ech_w.add(w.int_row())
        for v, w in pairs
    )


def apply_space(V, E: Subspace) -> Subspace:
    """V[E] = span{A e : A in V, e in E}; on a relation, the neighborhood span N(E) (see `_image`)."""
    if E.ambient != V.n:
        raise DimensionError("apply_space ambient mismatch")
    return Subspace.from_echelon(_image(V, E.int_rows(), V.m))


def wong_limit(V: MatrixSpace, r: int, A: Mat) -> tuple[Subspace, Subspace]:
    """Limit of the second Wong sequence of A in V (x) M_r, read on V.

    W_0 = 0, U_i = A^{-1}(W_i) and W_{i+1} = (V (x) M_r)[U_i], to the fixed
    point.  Since (B (x) E_kl)(x (x) e_j) = [l = j] Bx (x) e_k, the image
    of U is V[U'] (x) F^r, where U' spans the r slices (u[j r + l])_j of the
    vectors u of U; so the blow-up basis is never built.  U_i is the kernel
    of Q A, where the rows q (x) e_k of Q span W_i^perp = V[U']^perp (x) F^r.
    Returns (U', V[U']) of the limit.  Its defect bounds rank A: when the
    limit W lies in im A, dim U' - dim V[U'] >= n - rank(A) / r.
    """
    n, rows = V.n, A.int_rows()
    W = Subspace.zero(V.m)
    while True:
        q_rows = []
        for q in int_kernel(W.int_rows(), V.m):
            terms = [(x, i) for i, x in enumerate(q) if x]
            for k in range(r):
                acc = [0] * (n * r)
                for x, i in terms:
                    acc = [a + x * y for a, y in zip(acc, rows[i * r + k])]
                q_rows.append(acc)
        slices = IntEchelon(n)
        for u in int_kernel(q_rows, n * r):
            for l in range(r):
                slices.add(u[l::r])
        U = Subspace.from_echelon(slices)
        grown = apply_space(V, U)
        if grown.dim == W.dim:
            return U, grown
        W = grown


def sample_element(V: MatrixSpace, sampler: GenericSampler, r: int = 1) -> Mat:
    """Random integer element sum_B B (x) C_B of V (x) M_r, C_B drawn row by row.

    Entry (i k, j l) of the element is sum_B B[i][j] C_B[k][l]: the dot
    product of the column (B[i][j])_B of the integer basis rows with the
    coefficients (C_B[k][l])_B.  At r = 1 it is the combination
    sum_B c_B B.  Every generic element in the package is drawn here.
    """
    if V.dim == 0:
        return Mat.zeros(V.m * r, V.n * r)
    drawn = [
        [[sampler.coefficient() for _ in range(r)] for _ in range(r)]
        for _ in V.int_basis
    ]
    cells = [list(zip(*(c[k] for c in drawn))) for k in range(r)]
    rows = []
    for i in range(V.m):
        cols = list(zip(*(b[i] for b in V.int_basis)))
        for coeffs in cells:
            rows.append(tuple([sum(map(mul, col, c)) for col in cols for c in coeffs]))
    return Mat.from_int_rows(tuple(rows), V.den, V.n * r)


def best_sample(V: MatrixSpace, sampler: GenericSampler, r: int, bound) -> tuple:
    """(rank, el, bound(el)) of the first draw of largest rank in V (x) M_r.

    `bound(el)` returns (cert, b): a certificate read off a draw and the
    bound b on rank / r over all of V (x) M_r that it proves, or None.
    Each draw that beats the best so far is passed to it, and the first
    whose rank reaches r * b ends the loop; else `sampler.trials` draws
    are made.  The maximum rank of V (x) M_r is a multiple of r, so up to
    2 * trials more draws follow while the best rank is not, and a
    CertificationError if it still is not.  A blow-up side max(m, n) r
    beyond BLOWUP_DIM_BUDGET is refused, except at order 1 of a nonzero
    space, which is V itself.  The zero space draws nothing: its one
    element is the zero matrix, of rank 0.
    """
    side = max(V.m, V.n) * r
    if side > BLOWUP_DIM_BUDGET and (r > 1 or V.dim == 0):
        raise CertificationError(f"blow-up side {side} exceeds {BLOWUP_DIM_BUDGET}")
    if V.dim == 0:
        zero = Mat.zeros(V.m * r, V.n * r)
        return 0, zero, bound(zero)
    best = -1
    for i in range(3 * sampler.trials):
        if i >= sampler.trials and best % r == 0:
            break
        el = sample_element(V, sampler, r)
        rank = el.rank()
        if rank > best:
            best, best_el, found = rank, el, bound(el)
            if found[1] is not None and rank >= r * found[1]:
                break
    if best % r != 0:
        raise CertificationError(f"sampled blow-up maximum {best} is not divisible by {r}")
    return best, best_el, found


def space_power_is_zero(V) -> bool:
    """Whether V is nilpotent, V^n = {0} (V must be square); true when V = {0}.

    V is a matrix space or a relation, read through its neighborhood spans
    (see `_image`).  Runs the flag U_0 = F^n, U_{i+1} = V[U_i] on integer
    rows: U_k is V^k F^n, so V^k = 0 exactly when U_k = 0.  The U_i only
    shrink, and a step that keeps the dimension has reached a nonzero fixed
    point, so the flag decides within n steps.
    """
    if V.m != V.n:
        raise DimensionError("powers of a non-square matrix space")
    n = V.n
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        ech = _image(V, U, len(U))
        if ech.rank == 0:
            return True
        if ech.rank == len(U):
            return False
        U = ech.back_substituted()[0]


def is_nilpotent_algebra(V: MatrixSpace) -> bool:
    """V^2 contained in V and V^n = {0}; decided once per space."""
    if V._nilpotent is None:
        transposed = [list(zip(*y)) for y in V.int_basis]
        closed = V.m == V.n and all(
            V._echelon.contains([sum(map(mul, row, col)) for row in x for col in yt])
            for x in V.int_basis
            for yt in transposed
        )
        object.__setattr__(V, "_nilpotent", closed and space_power_is_zero(V))
    return V._nilpotent


# ---------------------------------------------------------------------------
# the routing space of a path capacity


def _border(E: Subspace, F: Subspace, n: int) -> Mat:
    """[[I, i],[p, 0]] with i the basis of E as columns and p that of F as rows.

    Built on integer rows over the lcm of the basis denominators.
    """
    if E.ambient != n or F.ambient != n:
        raise DimensionError("E and F must live in the space's column space")
    es, fs = E.vectors, F.vectors
    den = lcm(*(v.den for v in es + fs))
    iota = [[x * (den // v.den) for x in v.int_row()] for v in es]
    top = tuple(tuple([den * (i == j) for j in range(n)] + [c[i] for c in iota]) for i in range(n))
    pad = (0,) * len(es)
    bottom = tuple(tuple([x * (den // w.den) for x in w.int_row()]) + pad for w in fs)
    return Mat.from_int_rows(top + bottom, den, n + len(es))


def _top_left(A: Mat, like: Mat) -> Mat:
    """[[A, 0],[0, 0]] in the shape of `like`."""
    pad = (0,) * (like.cols - A.cols)
    rows = tuple(row + pad for row in A.int_rows())
    zero_rows = ((0,) * like.cols,) * (like.rows - A.rows)
    return Mat.from_int_rows(rows + zero_rows, A.den, like.cols)


def routing_space(V, E: Subspace, F: Subspace) -> MatrixSpace:
    """Span of [[I, i],[p, 0]] and every [[A, 0],[0, 0]] with A in V.

    The path capacity from E to F relative to the square space V is its
    noncommutative rank minus n.  V is a matrix space, or a relation R
    whose generators are then the border and each w v^T in pair order: a
    pair that depends on earlier pairs depends on the border and them, so
    the prefix-greedy basis is the one built on the span of the w v^T.
    """
    if V.m != V.n:
        raise DimensionError("path capacities need a square space")
    base = _border(E, F, V.n)
    gens = (outer(w, v) for v, w in V.pairs) if isinstance(V, Relation) else V.basis
    return MatrixSpace.spanned(base.rows, base.cols, [base] + [_top_left(a, base) for a in gens])

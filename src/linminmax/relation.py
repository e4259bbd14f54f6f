"""Relations between rational vector spaces and their induced matrix spaces.

A relation is a finite list of vector pairs (v, w) in F^n x F^m.  Each pair
induces the rank-one map w v^T, and the span of those maps is the matrix
space the min-max machinery actually works with.  No check builds the
span of a relation: the image V_R[U] of a subspace is the neighborhood
span N(U), so `apply_space` runs on the relation itself, and a cover
(U, V[U]) is checked with no complement.  No power V^k is iterated:
`is_nilpotent_algebra` reads nilpotency off the traces of the basis of a
space closed under products.  The routing space of a path capacity
(`routing_space`) is held as its generators, with no elimination, and a
draw carries the coefficients by which `verify` checks it.
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

    def images(self, rows):
        """The w of each pair whose v meets the span of `rows`: they span V_R[U] = N(U)."""
        return (
            w.int_row() for v, w in self.pairs if any(sum(map(mul, v.int_row(), u)) for u in rows)
        )


class MatrixSpace:
    """Span of a list of m x n matrices, kept on its independent generators.

    The prefix-greedy independent sub-list of the generators is the basis,
    and the integer echelon that chose it serves `is_nilpotent_algebra`;
    `MatrixSpace(m, n, basis)` refuses a dependent basis.  The basis is
    also kept as integer rows over one common denominator (`int_basis[i]`
    is `den` times `basis[i]`).
    """

    __slots__ = ("m", "n", "basis", "int_basis", "den", "_echelon")

    def __init__(self, m: int, n: int, basis):
        basis = tuple(basis)
        self._span(m, n, basis)
        if len(self.basis) != len(basis):
            raise ValueError("matrix space basis is linearly dependent")

    def _span(self, m: int, n: int, generators: tuple):
        if m < 0 or n < 0:
            raise DimensionError("matrix space with a negative dimension")
        for g in generators:
            if (g.rows, g.cols) != (m, n):
                raise DimensionError("basis matrix with wrong shape")
        ech = IntEchelon(m * n)
        basis = tuple(g for g in generators if ech.add(g.int_flat()))
        int_basis, den = common_int_rows(basis)
        values = (m, n, basis, tuple(int_basis), den, ech)
        for name, value in zip(MatrixSpace.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixSpace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def images(self, rows):
        """B u for each basis matrix B and each u in `rows`: they span V[U]."""
        return ([sum(map(mul, row, u)) for row in b] for b in self.int_basis for u in rows)

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


class Draw(Mat):
    """An element sum_B B (x) C_B of V (x) M_r that carries its coefficients.

    `coeffs[b]` is C_B of V's b-th generator in `int_basis`: r rows of r integers.
    """

    __slots__ = ("coeffs",)


# ---------------------------------------------------------------------------
# operations


def doubly_independent(pairs, n: int, m: int) -> bool:
    """Whether the v's of `pairs` are linearly independent in F^n and the w's in F^m."""
    ech_v, ech_w = IntEchelon(n), IntEchelon(m)
    return all(
        ech_v.add(v.int_row()) and ech_w.add(w.int_row())
        for v, w in pairs
    )


def apply_space(V, E: Subspace) -> Subspace:
    """V[E] = span{A e : A in V, e in E}, eliminated on integer rows.

    The rows that span V[E] come from `V.images`: on a relation R standing
    for its span V_R, the w's of the pairs whose v meets E (the
    neighborhood span N(E)), so the n*m-wide span is never built; on a
    routing space, the border's and V's images.
    """
    if E.ambient != V.n:
        raise DimensionError("apply_space ambient mismatch")
    ech = IntEchelon(V.m)
    for image in V.images(E.int_rows()):
        ech.add(image)
        if ech.rank == V.m:
            break
    return Subspace.from_echelon(ech)


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


def sample_element(V, sampler: GenericSampler, r: int = 1) -> Mat:
    """Random integer element sum_B B (x) C_B of V (x) M_r, C_B drawn row by row.

    Entry (i k, j l) of the element is sum_B B[i][j] C_B[k][l]: the dot
    product of the column (B[i][j])_B of the integer generator rows
    `V.int_basis` with the coefficients (C_B[k][l])_B.  At r = 1 it is the
    combination sum_B c_B B.  The `Draw` carries the C_B.  Every generic
    element in the package is drawn here.
    """
    if not V.int_basis:
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
    el = Draw.from_int_rows(tuple(rows), V.den, V.n * r)
    object.__setattr__(el, "coeffs", drawn)
    return el


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
    space, which is V itself.  The zero space, with no generators, draws
    nothing: its one element is the zero matrix, of rank 0.
    """
    side = max(V.m, V.n) * r
    if side > BLOWUP_DIM_BUDGET and (r > 1 or not V.int_basis):
        raise CertificationError(f"blow-up side {side} exceeds {BLOWUP_DIM_BUDGET}")
    if not V.int_basis:
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


def is_nilpotent_algebra(V: MatrixSpace) -> bool:
    """V^2 contained in V and V^n = {0}: V is closed under products and its basis is traceless.

    Then every power of every element of V lies in V and has trace 0, so
    over Q every element is nilpotent, and a set of nilpotent matrices
    closed under products is simultaneously strictly triangularizable
    (Levitzki; Radjavi and Rosenthal, Simultaneous Triangularization, 2000).
    Conversely, a nilpotent matrix has trace 0.
    """
    transposed = [list(zip(*y)) for y in V.int_basis]
    closed = V.m == V.n and all(
        V._echelon.contains([sum(map(mul, row, col)) for row in x for col in yt])
        for x in V.int_basis
        for yt in transposed
    )
    return closed and not any(sum(b[i][i] for i in range(V.n)) for b in V.int_basis)


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


class RoutingSpace:
    """Span of [[I, i],[p, 0]] and every [[A, 0],[0, 0]] with A in V, held as generators.

    The path capacity from E to F relative to the square space V is its
    noncommutative rank minus n.  `int_basis` holds the border, then V's
    basis or each rank-one w v^T of a relation, embedded, over one `den`:
    nothing is eliminated, and only zero generators (all of them at n = 0)
    are left out.  `images` reads V[U] off the border and V.
    """

    __slots__ = ("m", "n", "V", "int_basis", "den")

    def __init__(self, V, border: Mat):
        pad = (0,) * (border.cols - V.n)
        below = ((0,) * border.cols,) * (border.rows - V.n)

        def embedded(rows):
            return tuple(row + pad for row in rows) + below

        if isinstance(V, Relation):
            gens = [
                (embedded(tuple([x * y for y in v.int_row()]) for x in w.int_row()), v.den * w.den)
                for v, w in V.pairs
                if not (v.is_zero() or w.is_zero())
            ]
        else:
            gens = [(embedded(b), V.den) for b in V.int_basis]
        if V.n:
            gens.insert(0, (border.int_rows(), border.den))
        self.den = lcm(*(d for _, d in gens))
        self.int_basis = tuple(
            b if d == self.den else tuple(tuple([x * (self.den // d) for x in row]) for row in b)
            for b, d in gens
        )
        self.m, self.n, self.V = border.rows, border.cols, V

    def images(self, rows):
        """The border's image of each u, then V's images of the u[:n], embedded."""
        n = self.V.n
        for u in rows:  # none when n = 0, where there is no border
            yield [sum(map(mul, row, u)) for row in self.int_basis[0]]
        pad = (0,) * (self.m - n)
        for image in self.V.images([u[:n] for u in rows]):
            yield tuple(image) + pad


def routing_space(V, E: Subspace, F: Subspace) -> RoutingSpace:
    """The routing space of the square matrix space or relation V from E to F."""
    if V.m != V.n:
        raise DimensionError("path capacities need a square space")
    return RoutingSpace(V, _border(E, F, V.n))

"""Shared seeded generators for randomized property tests, and test-only references."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from linminmax.exact_linalg import IntEchelon, Mat, Subspace, Vec, hstack
from linminmax.relation import MatrixSpace, Relation
from reference import outer


def vec(*entries) -> Vec:
    return Vec(entries)


def dot(a: Vec, b: Vec) -> Fraction:
    """The dot product of two vectors of one dimension, as a Fraction."""
    assert a.dim == b.dim
    return sum((x * y for x, y in zip(a.entries, b.entries)), Fraction(0))


def as_lists(m: Mat):
    """The entries of m as lists of Fractions."""
    return [[Fraction(x, m.den) for x in row] for row in m.int_rows()]


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product: (a kron b)[(i, k), (j, l)] = a[i, j] b[k, l]."""
    rows = [[x * y for x in ra for y in rb] for ra in as_lists(a) for rb in as_lists(b)]
    return Mat(rows, a.cols * b.cols)


def rand_vec(rng, n, bound=3, nonzero=False):
    while True:
        v = Vec([rng.randint(-bound, bound) for _ in range(n)])
        if not nonzero or not v.is_zero():
            return v


def rand_mat(rng, rows, cols, bound=3):
    return Mat([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols)


def rand_relation(rng, n, m, r, bound=2):
    pairs = [
        (rand_vec(rng, n, bound, nonzero=True), rand_vec(rng, m, bound, nonzero=True))
        for _ in range(r)
    ]
    return Relation(n, m, pairs)


def planted_rado_family(rng, n, m):
    """n sets of 2 or 3 vectors in F^m, the first three inside one plane: no transversal.

    Each planted vector is a p + b q for one plane (p, q), with a and b drawn per vector.
    """
    p, q = rand_vec(rng, m), rand_vec(rng, m)
    sets = []
    for i in range(n):
        if i < 3:
            sets.append([p.scaled(rng.randint(-2, 2)) + q.scaled(rng.randint(1, 2)) for _ in range(2 + i % 2)])
        else:
            sets.append([rand_vec(rng, m) for _ in range(2 + i % 2)])
    return sets


def rand_subspace(rng, n, max_dim=None, bound=2):
    k = rng.randint(0, n if max_dim is None else max_dim)
    return Subspace.span(n, [rand_vec(rng, n, bound) for _ in range(k)])


@dataclass(frozen=True)
class BlowUp:
    base: MatrixSpace
    r: int
    basis: tuple

    @property
    def space(self) -> MatrixSpace:
        return MatrixSpace(self.base.m * self.r, self.base.n * self.r, self.basis)


def blow_up(V: MatrixSpace, r: int) -> BlowUp:
    """Basis {B (x) E_kl} of V (x) M_r: the reference for slice membership and `wong_limit`."""
    if r < 1:
        raise ValueError("blow-up order must be at least 1")
    cells = []
    for b in V.basis:
        for k in range(r):
            for l in range(r):
                unit = Mat(
                    [[1 if (i, j) == (k, l) else 0 for j in range(r)] for i in range(r)],
                    r,
                )
                cells.append(kron(b, unit))
    return BlowUp(V, r, tuple(cells))


def reduced_indices(R: Relation) -> list[int]:
    """Indices of the pairs whose rank-ones w v^T the prefix-greedy echelon keeps."""
    ech = IntEchelon(R.n * R.m)
    return [i for i, (v, w) in enumerate(R.pairs) if ech.add(outer(w, v).int_flat())]


def diag(entries) -> Mat:
    """The square diagonal matrix of `entries`."""
    n = len(entries)
    return Mat([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], n)


def submatrix(M: Mat, rows, cols) -> Mat:
    """The entries of M in the given rows and columns, in the given order."""
    cols = list(cols)
    num = M.int_rows()
    return Mat.from_int_rows(
        tuple(tuple([num[i][j] for j in cols]) for i in rows), M.den, len(cols)
    )


def gs_matrix(inst, S) -> Mat:
    """The bordered subset matrix G_S = [[V_S^T W_S, V_S^T A],[B^T W_S, B^T A]]."""
    table = hstack([inst.V, inst.B]).transpose() @ hstack([inst.W, inst.A])
    idx = sorted(S) + list(range(inst.r, inst.r + inst.k))
    return submatrix(table, idx, idx)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def echelon_widths(monkeypatch):
    """The widths of the IntEchelons built during the test, in order."""
    widths = []
    init = IntEchelon.__init__

    def counting(self, width):
        widths.append(width)
        init(self, width)

    monkeypatch.setattr(IntEchelon, "__init__", counting)
    return widths

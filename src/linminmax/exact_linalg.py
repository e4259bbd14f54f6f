"""Exact linear algebra over the rationals.

Everything downstream (relations, matchings, chain decompositions, path
capacities, blow-ups) reduces to dense rational vectors and matrices plus a
canonical subspace representation.  All arithmetic is exact: scalars are
`fractions.Fraction`, and there is no tolerance parameter anywhere.

Every elimination is fraction-free over the integers after clearing
denominators.  There are two routines: the incremental echelon `IntEchelon`
(rank, independence, spans, kernels, solving, intersection) and the Bareiss
determinant.  The only division is the final one by each pivot when the
canonical reduced rows are emitted.  Intersections are computed with the
Zassenhaus construction, one echelon of the rows [a | a] and [b | 0].

Subspaces are stored in reduced column echelon form, so two equal subspaces
are bit-identical and can be compared (and hashed) directly.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd

from .errors import DimensionError

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational_from_string(s: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; ValueError if malformed."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None


def rational_to_string(q: Fraction) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return rational_from_string(x)
    raise TypeError(f"cannot interpret {x!r} as a rational scalar")


# ---------------------------------------------------------------------------
# vectors


class Vec:
    """Immutable dense rational vector."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(_coerce(x) for x in entries))

    def __setattr__(self, name, value):
        raise AttributeError("Vec is immutable")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def dot(self, other: "Vec") -> Fraction:
        if self.dim != other.dim:
            raise DimensionError(f"dot of dim {self.dim} with dim {other.dim}")
        return sum((a * b for a, b in zip(self.entries, other.entries)), _ZERO)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def scaled(self, c) -> "Vec":
        c = _coerce(c)
        return Vec(x * c for x in self.entries)

    def __add__(self, other: "Vec") -> "Vec":
        if self.dim != other.dim:
            raise DimensionError("vector addition with mismatched dims")
        return Vec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vec") -> "Vec":
        return self + other.scaled(-1)

    def __neg__(self) -> "Vec":
        return self.scaled(-1)

    def __getitem__(self, i) -> Fraction:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vec) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "Vec(" + ", ".join(rational_to_string(x) for x in self.entries) + ")"

    def to_json(self):
        return [rational_to_string(x) for x in self.entries]

    @classmethod
    def from_json(cls, data) -> "Vec":
        return cls(data)


def vec(*entries) -> Vec:
    return Vec(entries)


def unit_vec(n: int, i: int) -> Vec:
    return Vec([1 if j == i else 0 for j in range(n)])


# ---------------------------------------------------------------------------
# integer kernels (fraction-free elimination)


def clear_denominators(entries) -> list:
    """Scale a rational row by the lcm of its denominators; returns int list."""
    l = 1
    for x in entries:
        d = x.denominator
        l = l * d // gcd(l, d)
    return [int(x.numerator) * (l // x.denominator) for x in entries]


class IntEchelon:
    """Incremental fraction-free row echelon form over the integers.

    Rows are cross-multiplied against stored pivot rows and gcd-normalized,
    so entries stay small and no Fraction is ever created.  `add` reports
    whether the candidate row increased the rank, which is exactly the
    independence test every span/matching search below needs.
    """

    __slots__ = ("width", "rows", "pivots")

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def copy(self) -> "IntEchelon":
        other = IntEchelon.__new__(IntEchelon)
        other.width = self.width
        other.rows = [r[:] for r in self.rows]
        other.pivots = self.pivots[:]
        return other

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> list[int]:
        """Eliminate `row` against the stored pivots (gcd-normalized)."""
        row = list(row)
        for r, p in zip(self.rows, self.pivots):
            if row[p]:
                a, b = r[p], row[p]
                row = [a * x - b * y for x, y in zip(row, r)]
        g = 0
        for x in row:
            g = gcd(g, x)
        if g > 1:
            row = [x // g for x in row]
        return row

    def add(self, row) -> bool:
        """Insert a row; returns True iff the rank grew."""
        row = self.reduce(row)
        p = next((i for i, x in enumerate(row) if x), None)
        if p is None:
            return False
        pos = bisect_left(self.pivots, p)
        self.rows.insert(pos, row)
        self.pivots.insert(pos, p)
        return True

    def contains(self, row) -> bool:
        return next((i for i, x in enumerate(self.reduce(row)) if x), None) is None

    def rref(self) -> list[list[Fraction]]:
        """Canonical reduced row echelon rows of the row space, in pivot order.

        Clears each pivot column above its pivot with integer row
        operations, last pivot first, then divides every row by its pivot
        entry.  The stored rows are left as they were.
        """
        rows = [r[:] for r in self.rows]
        pivots = self.pivots
        for i in range(len(rows) - 1, 0, -1):
            ri, p = rows[i], pivots[i]
            a = ri[p]
            for j in range(i):
                rj = rows[j]
                b = rj[p]
                if b:
                    rj = [a * x - b * y for x, y in zip(rj, ri)]
                    g = 0
                    for x in rj:
                        g = gcd(g, x)
                    rows[j] = [x // g for x in rj] if g > 1 else rj
        out = []
        for r, p in zip(rows, pivots):
            d = r[p]
            out.append([Fraction(x, d) if x else _ZERO for x in r])
        return out


def rank_of_int_rows(rows, width: int) -> int:
    ech = IntEchelon(width)
    for r in rows:
        ech.add(r)
    return ech.rank


def _det_bareiss(a: list[list[int]]) -> int:
    """Bareiss fraction-free determinant; `a` is consumed."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Immutable dense rational matrix (row-major)."""

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, rows_data, cols: int | None = None):
        data = tuple(tuple(_coerce(x) for x in row) for row in rows_data)
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                raise DimensionError("ragged matrix rows")
            width = widths.pop()
            if cols is not None and cols != width:
                raise DimensionError("explicit cols disagrees with row width")
            cols = width
        elif cols is None:
            cols = 0
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls([[0] * cols for _ in range(rows)], cols)

    @classmethod
    def from_cols(cls, columns, rows: int | None = None) -> "Mat":
        columns = [c.entries if isinstance(c, Vec) else tuple(c) for c in columns]
        if columns:
            rows = len(columns[0])
        elif rows is None:
            raise DimensionError("from_cols with no columns needs explicit row count")
        return cls([[col[i] for col in columns] for i in range(rows)], len(columns))

    @classmethod
    def diag(cls, entries) -> "Mat":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], n)

    # accessors ----------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row(self, i: int) -> Vec:
        return Vec(self._rows[i])

    def col(self, j: int) -> Vec:
        return Vec(r[j] for r in self._rows)

    def row_tuples(self):
        return self._rows

    def columns(self) -> list[Vec]:
        return [self.col(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # arithmetic ---------------------------------------------------------

    def transpose(self) -> "Mat":
        return Mat(
            [[self._rows[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.rows,
        )

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix addition with mismatched shapes")
        return Mat(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)],
            self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scaled(-1)

    def __neg__(self) -> "Mat":
        return self.scaled(-1)

    def scaled(self, c) -> "Mat":
        c = _coerce(c)
        return Mat([[x * c for x in r] for r in self._rows], self.cols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionError(
                f"matmul of {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        bt = other.transpose()._rows
        return Mat(
            [
                [sum((a * b for a, b in zip(row, col)), _ZERO) for col in bt]
                for row in self._rows
            ],
            other.cols,
        )

    def apply(self, v: Vec) -> Vec:
        if self.cols != v.dim:
            raise DimensionError(f"apply of {self.rows}x{self.cols} to dim {v.dim}")
        return Vec(
            sum((a * b for a, b in zip(row, v.entries)), _ZERO) for row in self._rows
        )

    def power(self, k: int) -> "Mat":
        if not self.is_square():
            raise DimensionError("power of a non-square matrix")
        result = Mat.identity(self.rows)
        for _ in range(k):
            result = result @ self
        return result

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; (B kron C)[(i,k),(j,l)] = B[i,j] * C[k,l]."""
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                out.append(
                    [
                        self._rows[i][j] * other._rows[k][l]
                        for j in range(self.cols)
                        for l in range(other.cols)
                    ]
                )
        return Mat(out, self.cols * other.cols)

    def flatten(self) -> Vec:
        return Vec(x for r in self._rows for x in r)

    # rank / determinant / kernel ---------------------------------------

    def int_rows(self) -> list[list[int]]:
        return [clear_denominators(r) for r in self._rows]

    def rank(self) -> int:
        return rank_of_int_rows(self.int_rows(), self.cols)

    def det(self) -> Fraction:
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        scale = 1
        int_rows = []
        for r in self._rows:
            # the appended 1 comes back as the factor the row was scaled by
            *row, l = clear_denominators(r + (_ONE,))
            int_rows.append(row)
            scale *= l
        return Fraction(_det_bareiss(int_rows), scale)

    def kernel(self) -> "Subspace":
        """Right kernel {v : M v = 0} as a canonical subspace of F^cols."""
        rref_rows, piv_cols = _rref(self._rows, self.cols)
        pivot_set = set(piv_cols)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [_ZERO] * self.cols
            v[f] = _ONE
            for row, p in zip(rref_rows, piv_cols):
                v[p] = -row[f]
            basis.append(Vec(v))
        return Subspace.span(self.cols, basis)

    # misc ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.cols, self._rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(rational_to_string(x) for x in r) for r in self._rows
        )
        return f"Mat[{self.rows}x{self.cols}]({body})"

    def to_json(self):
        return [[rational_to_string(x) for x in r] for r in self._rows]

    @classmethod
    def from_json(cls, data, cols: int | None = None) -> "Mat":
        return cls(data, cols)


def outer(w: Vec, v: Vec) -> Mat:
    """Rank-one matrix w v^T sending u to (v . u) w."""
    return Mat([[wi * vj for vj in v.entries] for wi in w.entries], v.dim)


def hstack(mats) -> Mat:
    mats = list(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack with mismatched row counts")
    return Mat(
        [[x for m in mats for x in m.row_tuples()[i]] for i in range(rows)],
        sum(m.cols for m in mats),
    )


def vstack(mats) -> Mat:
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack with mismatched column counts")
    return Mat([r for m in mats for r in m.row_tuples()], cols)


def block(rows_of_blocks) -> Mat:
    return vstack([hstack(row) for row in rows_of_blocks])


def solve_exact(M: Mat, B: Mat) -> Mat | None:
    """Solve M X = B exactly for square M; None when M is singular."""
    if not M.is_square():
        raise DimensionError("solve_exact needs a square system")
    if M.rows != B.rows:
        raise DimensionError("right-hand side has wrong height")
    n = M.rows
    # M is invertible exactly when the RREF of [M | B] is [I | X].
    rows, piv_cols = _rref(
        [a + b for a, b in zip(M.row_tuples(), B.row_tuples())], n + B.cols
    )
    if piv_cols[:n] != list(range(n)):
        return None
    return Mat([row[n:] for row in rows], B.cols)


# ---------------------------------------------------------------------------
# subspaces


def _echelon(rows, width: int) -> IntEchelon:
    """Integer echelon of rational rows, each row scaled to integers."""
    ech = IntEchelon(width)
    for r in rows:
        if ech.rank == width:
            break
        ech.add(clear_denominators(r))
    return ech


def _rref(rows, width: int):
    """Reduced row echelon form of rational rows; returns (nonzero rows, pivot columns)."""
    ech = _echelon(rows, width)
    return ech.rref(), ech.pivots


class Subspace:
    """Linear subspace of F^ambient in canonical (reduced column echelon) form.

    The canonical basis vectors are the RREF rows of any spanning set, so
    equal subspaces compare equal as data.
    """

    __slots__ = ("ambient", "vectors")

    def __init__(self, ambient: int, vectors: tuple):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "vectors", vectors)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ambient: int, vectors) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if v.dim != ambient:
                raise DimensionError("spanning vector with wrong ambient dimension")
        return cls.from_echelon(_echelon([v.entries for v in vectors], ambient))

    @classmethod
    def from_echelon(cls, ech: IntEchelon) -> "Subspace":
        """The row space of an integer echelon, in canonical form."""
        return cls(ech.width, tuple(Vec(r) for r in ech.rref()))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, tuple(unit_vec(ambient, i) for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> Mat:
        """Basis matrix (ambient x dim), reduced column echelon form."""
        return Mat.from_cols(list(self.vectors), rows=self.ambient)

    def contains(self, v: Vec) -> bool:
        if v.dim != self.ambient:
            raise DimensionError("membership test with wrong ambient dimension")
        ent = list(v.entries)
        for b in self.vectors:
            p = next(i for i, x in enumerate(b.entries) if x != 0)
            if ent[p] != 0:
                f = ent[p]
                ent = [a - f * c for a, c in zip(ent, b.entries)]
        return all(x == 0 for x in ent)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.vectors)

    def orthocomplement(self) -> "Subspace":
        """Orthogonal complement under the symmetric dot product."""
        if self.dim == 0:
            return Subspace.full(self.ambient)
        return Mat([v.entries for v in self.vectors], self.ambient).kernel()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash((self.ambient, self.vectors))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"

    def to_json(self):
        return self.basis.to_json()

    @classmethod
    def from_json(cls, data, ambient: int | None = None) -> "Subspace":
        if ambient is None:
            ambient = len(data)
        m = Mat.from_json(data) if data else Mat.zeros(ambient, 0)
        if m.rows != ambient:
            raise DimensionError("basis matrix has wrong ambient dimension")
        return cls.span(ambient, m.columns())


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise DimensionError("sum of subspaces in different ambient spaces")
    return Subspace.span(a.ambient, list(a.vectors) + list(b.vectors))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """A ∩ B by Zassenhaus: echelon the rows [a | a] and [b | 0].

    A row of the echelon whose left half is zero, that is whose pivot is at
    least n, is [0 | x] with x = sum c_i a_i = -sum d_j b_j, so its right
    half lies in A ∩ B; those right halves form a basis of A ∩ B.
    """
    if a.ambient != b.ambient:
        raise DimensionError("intersection of subspaces in different ambient spaces")
    n = a.ambient
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    if a.dim == n:
        return b
    if b.dim == n:
        return a
    ech = IntEchelon(2 * n)
    for v in a.vectors:
        row = clear_denominators(v.entries)
        ech.add(row + row)
    pad = [0] * n
    for v in b.vectors:
        ech.add(clear_denominators(v.entries) + pad)
    meet = IntEchelon(n)
    for row, p in zip(ech.rows, ech.pivots):
        if p >= n:
            meet.add(row[n:])
    return Subspace.from_echelon(meet)

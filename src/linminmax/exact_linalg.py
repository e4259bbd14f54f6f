"""Exact linear algebra over the rationals.

Everything downstream (relations, matchings, chain decompositions, path
capacities, blow-ups) reduces to dense rational vectors and matrices plus a
canonical subspace representation.  All arithmetic is exact, and there is no
tolerance parameter anywhere.  A vector or a matrix holds integer rows over
one positive common denominator, reduced so that the denominator shares no
factor with every entry; equal values are therefore equal data.  A subspace
holds its canonical basis as primitive integer rows.  Sums, products,
membership tests and eliminations run on those integers, and Fractions
appear only at the accessors (`entries`, indexing and `vectors`).  A JSON
row loads straight to an integer row: a row of strings -?digits and
-?digits/digits with q > 0 in one pass, by `int` on each part and one lcm
and gcd; any other row, one holding "1/-2", "1/0", "--1", " 1", "+1",
"1.5" or a JSON number, entry by entry by `Fraction`.  A report writes
each entry x / d of a row with one gcd, as `rational_to_string` writes
the Fraction x / d.

Every elimination is fraction-free over the integers, and there is one
routine: the incremental Bareiss echelon `IntEchelon` (rank, independence,
determinants, spans, sums, kernels, solving).  Its divisions are exact, so
every entry it holds is a minor of its input, and a determinant is its
last pivot.  A canonical kernel (`Mat.kernel`) is one elimination.

A subspace is stored as its reduced row echelon rows, each scaled to a
primitive integer row with a positive pivot, so two equal subspaces are
bit-identical and can be compared (and hashed) directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .errors import DimensionError


def json_int(x) -> int:
    """An integer field of a JSON instance; TypeError unless a JSON integer."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def json_list(x) -> list:
    """An array field of a JSON instance; TypeError unless a JSON array."""
    if type(x) is not list:
        raise TypeError(f"expected an array, got {type(x).__name__}")
    return x


def _json_rows(data) -> tuple[list[list[int]], int]:
    """(integer rows, l): a JSON array of rows of rationals, times l.

    l is the lcm of the entries' denominators, reduced as in `clear_scale`,
    and every row must be an array.  A row that `_plain_row` refuses is
    refused if it holds a bool, and is read entry by entry by `_pair` once
    every row has passed those checks.
    """
    rows, pending = [], []
    for entries in json_list(data):
        row = _plain_row(json_list(entries))
        if row is None:
            pending.append(len(rows))
            row = _no_bools(entries)
        rows.append(row)
    for i in pending:
        rows[i] = clear_scale([_pair(x) for x in rows[i]])
    l = lcm(*(d for _, d in rows))
    # over the lcm of reduced denominators the rows are already reduced
    return [num if d == l else [x * (l // d) for x in num] for num, d in rows], l


def _plain_row(entries) -> tuple[list[int], int] | None:
    """`clear_scale` of a row of strings -?digits and -?digits/digits, or None.

    A row whose joined strings hold decimal digits, "-" and "/" alone takes
    one `partition` and one or two `int`s per entry, one lcm and one gcd.
    There `int` succeeds exactly for -?digits, read as by `Fraction`, and a
    denominator only counts when positive: "1/-2" and "1/0" give None.
    """
    try:
        joined = "".join(entries)
        if not joined.replace("-", "").replace("/", "").isdecimal():
            return None
        if "/" not in joined:
            return list(map(int, entries)), 1
        pairs = [(int(p), int(q) if s else 1) for p, s, q in (x.partition("/") for x in entries)]
    except (TypeError, ValueError):
        return None
    return clear_scale(pairs) if min(q for _, q in pairs) > 0 else None


def _no_bools(entries):
    """`entries`, refused with TypeError if one is a bool, which `_pair` would read as an int."""
    if bool in map(type, entries):
        raise TypeError("a boolean is not a rational entry")
    return entries


def _rational_strings(row, d: int) -> list[str]:
    """The entries x / d of an integer row, as `rational_to_string` renders them."""
    if d == 1:
        return [str(x) for x in row]
    out = []
    for x in row:
        g = gcd(x, d)
        out.append(str(x // g) if g == d else f"{x // g}/{d // g}")
    return out


def rational_to_string(q: Fraction) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _pair(x) -> tuple[int, int]:
    """(p, q) with q > 0 for an int, Fraction or rational string entry p / q.

    A string is read by `Fraction`, and refused with ValueError unless
    `Fraction` accepts it; `_plain_row` reads the plain rows of an instance.
    """
    # cheap checks first: isinstance against Fraction goes through its ABC
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational {x!r}") from None
        return x.numerator, x.denominator
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    raise TypeError(f"cannot interpret {x!r} as a rational scalar")


def clear_scale(pairs) -> tuple[list[int], int]:
    """(integer row, l): the rationals p / q of (p, q) pairs, times l.

    l is the lcm of the q's, divided by the gcd of l and the scaled row, so
    that l and the row share no factor.
    """
    l = lcm(*[q for _, q in pairs])
    if l == 1:
        return [p for p, _ in pairs], 1
    num = [p * (l // q) for p, q in pairs]
    g = gcd(l, *num)
    if g != 1:
        num = [x // g for x in num]
        l //= g
    return num, l


_set = object.__setattr__


# ---------------------------------------------------------------------------
# vectors


class Vec:
    """Immutable dense rational vector: an integer row over one denominator.

    `_num` is a tuple of ints and `_den` a positive int, and entry i is
    `_num[i] / _den`.  They are reduced so that gcd(`_den`, every entry) = 1,
    which makes equal vectors equal data; `_num` is then the vector scaled
    by the lcm of its entries' denominators.  `entries`, indexing and
    `to_json` give Fractions and strings; the arithmetic and `int_row` stay
    on the integers.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, entries):
        num, den = clear_scale([_pair(x) for x in entries])
        _set(self, "_num", tuple(num))
        _set(self, "_den", den)

    @classmethod
    def _raw(cls, num: tuple, den: int) -> "Vec":
        """Vec of `num` over `den`, which must already be reduced."""
        v = cls.__new__(cls)
        _set(v, "_num", num)
        _set(v, "_den", den)
        return v

    @classmethod
    def from_ints(cls, num, den: int = 1) -> "Vec":
        """The vector num / den, for integers `num` and den > 0."""
        num = tuple(num)
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple([x // g for x in num])
                den //= g
        return cls._raw(num, den)

    def __setattr__(self, name, value):
        raise AttributeError("Vec is immutable")

    @property
    def dim(self) -> int:
        return len(self._num)

    @property
    def den(self) -> int:
        """The denominator of the integer row."""
        return self._den

    def int_row(self) -> tuple:
        """The integer row: this vector times `den`."""
        return self._num

    @property
    def entries(self) -> tuple:
        d = self._den
        return tuple(Fraction(x, d) for x in self._num)

    def is_orthogonal(self, other: "Vec") -> bool:
        """Whether the dot product with `other` is 0, decided on the integer rows."""
        if self.dim != other.dim:
            raise DimensionError(f"dot of dim {self.dim} with dim {other.dim}")
        return not sum(map(mul, self._num, other._num))

    def is_zero(self) -> bool:
        return not any(self._num)

    def scaled(self, c) -> "Vec":
        p, q = _pair(c)
        return Vec.from_ints([x * p for x in self._num], self._den * q)

    def _combine(self, other: "Vec", sign: int) -> "Vec":
        """self + sign * other on a common denominator."""
        if self.dim != other.dim:
            raise DimensionError("vector addition with mismatched dims")
        da, db = self._den, other._den
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        return Vec.from_ints(
            [x * sa + y * sb for x, y in zip(self._num, other._num)], den
        )

    def __add__(self, other: "Vec") -> "Vec":
        return self._combine(other, 1)

    def __sub__(self, other: "Vec") -> "Vec":
        return self._combine(other, -1)

    def __neg__(self) -> "Vec":
        return Vec._raw(tuple([-x for x in self._num]), self._den)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self._num[i], self._den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vec) and self._den == other._den and self._num == other._num
        )

    def __hash__(self):
        return hash((self._den, self._num))

    def __repr__(self):
        return "Vec(" + ", ".join(self.to_json()) + ")"

    def to_json(self):
        return _rational_strings(self._num, self._den)

    @classmethod
    def from_json(cls, data) -> "Vec":
        num, den = _plain_row(json_list(data)) or clear_scale([_pair(x) for x in _no_bools(data)])
        return cls._raw(tuple(num), den)


def unit_vec(n: int, i: int) -> Vec:
    return Vec._raw(tuple([int(j == i) for j in range(n)]), 1)


# ---------------------------------------------------------------------------
# integer kernels (fraction-free elimination)


class IntEchelon:
    """Incremental fraction-free (Bareiss) row echelon form over the integers.

    Rows stay in insertion order; `pivots[i]` is the first nonzero column of
    row i.  With D_i the minor of the first i rows at their pivot columns
    (D_0 = 1), a row is reduced against each stored row R_i by the Bareiss
    step row <- (D_(i+1) row - row[p_i] R_i) / D_i.  The division is exact,
    so every entry is a minor of the input and no gcd is taken; the pivot
    entry of stored row i is D_(i+1).  `add` reports whether the rank grew.
    """

    __slots__ = ("width", "rows", "pivots")

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, row) -> tuple[list[int], int]:
        """(x, d): x is `row` reduced against the k stored rows, times d / D_k.

        A step at row[p_i] = 0 would only scale by D_(i+1) / D_i, so it is
        skipped; the next division is by the last pivot d actually used.
        """
        row = list(row)
        d = 1
        for r, p in zip(self.rows, self.pivots):
            b = row[p]
            if b:
                a = r[p]
                if d == 1:
                    row = [a * x - b * y for x, y in zip(row, r)]
                else:
                    row = [(a * x - b * y) // d for x, y in zip(row, r)]
                d = a
        return row, d

    def reduce(self, row) -> list[int]:
        """`row` reduced against the stored rows, up to a nonzero factor."""
        return self._eliminate(row)[0]

    def pop(self) -> None:
        """Remove the last row added, undoing its `add`."""
        self.rows.pop()
        self.pivots.pop()

    def add(self, row) -> bool:
        """Insert a row; returns True iff the rank grew."""
        row, d = self._eliminate(row)
        lead = next(filter(None, row), 0)
        if not lead:
            return False
        last = self.rows[-1][self.pivots[-1]] if self.rows else 1
        self.pivots.append(row.index(lead))
        self.rows.append(row if d == last else [x * last // d for x in row])
        return True

    def contains(self, row) -> bool:
        return not any(self.reduce(row))

    def back_substituted(self) -> tuple[list[list[int]], list[int]]:
        """(rows, pivots) of the row space, sorted by pivot.

        Each row is primitive, positive at its pivot and zero in every other
        pivot column: the rows are cleared above each pivot with integer row
        operations, last pivot first.  The stored rows are left as they were.
        """
        order = sorted(range(self.rank), key=self.pivots.__getitem__)
        pivots = [self.pivots[i] for i in order]
        rows = [_primitive(self.rows[i]) for i in order]
        for i in range(len(rows) - 1, 0, -1):
            ri, p = rows[i], pivots[i]
            a = ri[p]
            for j in range(i):
                b = rows[j][p]
                if b:
                    rows[j] = _primitive([a * x - b * y for x, y in zip(rows[j], ri)])
        return [r if r[p] > 0 else [-x for x in r] for r, p in zip(rows, pivots)], pivots


def _primitive(row: list[int]) -> list[int]:
    """A nonzero integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def int_kernel(rows, n: int) -> list[list[int]]:
    """Primitive integer basis of the right kernel {v : r . v = 0 for every row r}.

    With the echelon rows r back-substituted, the free column f gives the
    kernel vector with l at f and -r[f] * l / r[p] at each pivot p, where l
    is the lcm of the pivot entries.
    """
    back, pivots = _echelon(rows, n).back_substituted()
    l = lcm(*(r[p] for r, p in zip(back, pivots)))
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[f] = l
        for r, p in zip(back, pivots):
            v[p] = -r[f] * (l // r[p])
        basis.append(_primitive(v))
    return basis


def det_bareiss(a: list[list[int]]) -> int:
    """Determinant of the square integer matrix with rows `a`.

    0 once a row depends on those before it; otherwise the echelon's last
    pivot, the minor at the pivot columns in their order of arrival, times
    the sign of that order.
    """
    ech = IntEchelon(len(a))
    if not all(ech.add(row) for row in a):
        return 0
    return permutation_sign(ech.pivots) * ech.rows[-1][ech.pivots[-1]] if a else 1


def permutation_sign(p) -> int:
    """(-1) to the number of inversions of the sequence p."""
    return (-1) ** sum(x > y for i, x in enumerate(p) for y in p[i + 1 :])


# ---------------------------------------------------------------------------
# matrices


def _width(rows, cols: int | None) -> int:
    """The common length of `rows`, which must agree with `cols` if given."""
    if not rows:
        return 0 if cols is None else cols
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DimensionError("ragged matrix rows")
    width = widths.pop()
    if cols is not None and cols != width:
        raise DimensionError("explicit cols disagrees with row width")
    return width


class Mat:
    """Immutable dense rational matrix: integer rows over one denominator.

    `_num` is a tuple of integer row tuples and `_den` a positive integer,
    and entry (i, j) is `_num[i][j] / _den`.  They are reduced so that
    gcd(`_den`, every entry) = 1, which makes equal matrices equal data.
    The accessors (`row`, `col`, `columns`) return Vecs, whose `entries`
    are Fractions; the arithmetic and the eliminations run on the integers.
    """

    __slots__ = ("_num", "_den", "rows", "cols")

    def __init__(self, rows_data, cols: int | None = None):
        data = [[_pair(x) for x in row] for row in rows_data]
        cols = _width(data, cols)
        flat, den = clear_scale([x for row in data for x in row])
        num = tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(len(data)))
        self._init(num, den, cols)

    def _init(self, num, den, cols):
        _set(self, "_num", num)
        _set(self, "_den", den)
        _set(self, "rows", len(num))
        _set(self, "cols", cols)

    @classmethod
    def _raw(cls, num, den: int, cols: int) -> "Mat":
        """Mat of rows `num` over `den`, which must already be reduced."""
        m = cls.__new__(cls)
        m._init(num, den, cols)
        return m

    @classmethod
    def from_int_rows(cls, num, den: int, cols: int) -> "Mat":
        """The matrix num / den, for a tuple of integer row tuples and den > 0."""
        if den != 1:
            g = den
            for row in num:
                g = gcd(g, *row)
                if g == 1:
                    break
            if g != 1:
                num = tuple(tuple([x // g for x in row]) for row in num)
                den //= g
        return cls._raw(num, den, cols)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._raw(
            tuple(tuple([int(i == j) for j in range(n)]) for i in range(n)), 1, n
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._raw(((0,) * cols,) * rows, 1, cols)

    @classmethod
    def from_cols(cls, columns, rows: int | None = None) -> "Mat":
        columns = [c if isinstance(c, Vec) else Vec(c) for c in columns]
        if columns:
            rows = columns[0].dim
        elif rows is None:
            raise DimensionError("from_cols with no columns needs explicit row count")
        if any(c.dim != rows for c in columns):
            raise DimensionError("ragged matrix columns")
        den = lcm(*(c.den for c in columns))
        scaled = [
            c.int_row() if c.den == den else [x * (den // c.den) for x in c.int_row()]
            for c in columns
        ]
        # over the lcm of reduced denominators the result is already reduced
        return cls._raw(
            tuple(zip(*scaled)) if scaled else ((),) * rows, den, len(columns)
        )

    # accessors ----------------------------------------------------------

    @property
    def den(self) -> int:
        """The common denominator of the integer rows."""
        return self._den

    def int_rows(self) -> tuple:
        """The integer rows: this matrix times `den`."""
        return self._num

    def int_flat(self) -> list[int]:
        """The integer rows joined into one row."""
        return [x for row in self._num for x in row]

    def row(self, i: int) -> Vec:
        return Vec.from_ints(self._num[i], self._den)

    def col(self, j: int) -> Vec:
        return Vec.from_ints([r[j] for r in self._num], self._den)

    def columns(self) -> list[Vec]:
        return [Vec.from_ints(c, self._den) for c in self._columns()]

    def is_zero(self) -> bool:
        return not any(any(r) for r in self._num)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # arithmetic ---------------------------------------------------------

    def _columns(self) -> tuple:
        return tuple(zip(*self._num)) if self.rows else ((),) * self.cols

    def transpose(self) -> "Mat":
        return Mat._raw(self._columns(), self._den, self.rows)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix addition with mismatched shapes")
        da, db = self._den, other._den
        den = lcm(da, db)
        if da == db:
            num = tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self._num, other._num))
        else:
            sa, sb = den // da, den // db
            num = tuple(
                tuple([x * sa + y * sb for x, y in zip(ra, rb)])
                for ra, rb in zip(self._num, other._num)
            )
        return Mat.from_int_rows(num, den, self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scaled(-1)

    def __neg__(self) -> "Mat":
        return self.scaled(-1)

    def scaled(self, c) -> "Mat":
        p, q = _pair(c)
        return Mat.from_int_rows(
            tuple(tuple([x * p for x in row]) for row in self._num),
            self._den * q,
            self.cols,
        )

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionError(
                f"matmul of {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        bt = other._columns()
        return Mat.from_int_rows(
            tuple(
                tuple([sum(map(mul, row, col)) for col in bt]) for row in self._num
            ),
            self._den * other._den,
            other.cols,
        )

    def apply(self, v: Vec) -> Vec:
        if self.cols != v.dim:
            raise DimensionError(f"apply of {self.rows}x{self.cols} to dim {v.dim}")
        u = v.int_row()
        return Vec.from_ints(
            [sum(map(mul, row, u)) for row in self._num], self._den * v.den
        )

    # rank / determinant / kernel ---------------------------------------

    def rank(self) -> int:
        return _echelon(self._num, self.cols).rank

    def det(self) -> Fraction:
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        return Fraction(det_bareiss(self._num), self._den ** self.rows)

    def kernel(self) -> "Subspace":
        """Right kernel {v : M v = 0} as a canonical subspace of F^cols, by one elimination.

        With the columns reversed, `int_kernel`'s vector of free column f ends at f, where
        no other is nonzero: reversed back, the vectors are already the canonical rows.
        """
        rows = [v[::-1] for v in reversed(int_kernel([r[::-1] for r in self._num], self.cols))]
        pivots = [next(i for i, x in enumerate(v) if x) for v in rows]
        return Subspace(self.cols, tuple(map(tuple, rows)), tuple(pivots))

    # misc ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.cols, self._den, self._num))

    def __repr__(self):
        body = "; ".join(" ".join(r) for r in self.to_json())
        return f"Mat[{self.rows}x{self.cols}]({body})"

    def to_json(self):
        return [_rational_strings(r, self._den) for r in self._num]

    @classmethod
    def from_json(cls, data, cols: int | None = None) -> "Mat":
        rows, den = _json_rows(data)
        return cls._raw(tuple(map(tuple, rows)), den, _width(rows, cols))


def outer_sum(pairs, rows: int, cols: int) -> Mat:
    """sum of w v^T over the (v, w) in `pairs`, accumulated on integers."""
    terms = []
    den = 1
    for v, w in pairs:
        d = v.den * w.den
        terms.append((v.int_row(), w.int_row(), d))
        den = lcm(den, d)
    acc = [[0] * cols for _ in range(rows)]
    for vn, wn, d in terms:
        s = den // d
        for i, x in enumerate(wn):
            if x:
                x *= s
                acc[i] = [a + x * y for a, y in zip(acc[i], vn)]
    return Mat.from_int_rows(tuple(map(tuple, acc)), den, cols)


def common_int_rows(mats):
    """(integer rows of each matrix over one denominator, that denominator)."""
    den = lcm(*(m.den for m in mats))
    out = []
    for m in mats:
        s = den // m.den
        out.append(
            m.int_rows() if s == 1 else tuple(tuple([x * s for x in r]) for r in m.int_rows())
        )
    return out, den


def hstack(mats) -> Mat:
    mats = list(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack with mismatched row counts")
    parts, den = common_int_rows(mats)
    # over the lcm of reduced denominators the result is already reduced
    return Mat._raw(
        tuple(sum((p[i] for p in parts), ()) for i in range(rows)),
        den,
        sum(m.cols for m in mats),
    )


def solve_exact(M: Mat, B: Mat) -> Mat | None:
    """Solve M X = B exactly for square M; None when M is singular.

    M is invertible exactly when the echelon of the integer rows
    [d_B M | d_M B] has a pivot at each of the columns 0..n-1; row i of X
    is then the right half of back-substituted row i over its pivot entry.
    """
    if not M.is_square():
        raise DimensionError("solve_exact needs a square system")
    if M.rows != B.rows:
        raise DimensionError("right-hand side has wrong height")
    n = M.rows
    dm, db = M.den, B.den
    ech = IntEchelon(n + B.cols)
    for a, b in zip(M.int_rows(), B.int_rows()):
        ech.add([db * x for x in a] + [dm * x for x in b])
    if sum(p < n for p in ech.pivots) < n:
        return None
    rows, _ = ech.back_substituted()
    den = lcm(*(r[i] for i, r in enumerate(rows)))
    return Mat.from_int_rows(
        tuple(tuple([x * (den // r[i]) for x in r[n:]]) for i, r in enumerate(rows)),
        den,
        B.cols,
    )


# ---------------------------------------------------------------------------
# subspaces


def _echelon(rows, width: int) -> IntEchelon:
    """Integer echelon of integer rows; stops once the rank is full."""
    ech = IntEchelon(width)
    for r in rows:
        if ech.rank == width:
            break
        ech.add(r)
    return ech


class Subspace:
    """Linear subspace of F^ambient in canonical form.

    Basis row i is the i-th RREF row of any spanning set times the lcm of
    that row's denominators: a primitive integer row with a positive pivot
    (its first nonzero entry), zero at the pivots of the other rows.  Equal
    subspaces are therefore equal data.  `vectors` gives the RREF rows as
    Vecs; membership and the subspace operations run on the integer rows.
    """

    __slots__ = ("ambient", "_rows", "_pivots")

    def __init__(self, ambient: int, rows: tuple, pivots: tuple):
        """The subspace with canonical integer `rows` pivoting at `pivots`."""
        _set(self, "ambient", ambient)
        _set(self, "_rows", rows)
        _set(self, "_pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ambient: int, vectors) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if v.dim != ambient:
                raise DimensionError("spanning vector with wrong ambient dimension")
        return cls.from_echelon(_echelon((v.int_row() for v in vectors), ambient))

    @classmethod
    def from_echelon(cls, ech: IntEchelon) -> "Subspace":
        """The row space of an integer echelon, in canonical form."""
        rows, pivots = ech.back_substituted()
        return cls(ech.width, tuple(map(tuple, rows)), tuple(pivots))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(
            ambient,
            tuple(unit_vec(ambient, i).int_row() for i in range(ambient)),
            tuple(range(ambient)),
        )

    @property
    def dim(self) -> int:
        return len(self._rows)

    def int_rows(self) -> tuple:
        """The canonical integer rows, one per basis vector."""
        return self._rows

    @property
    def vectors(self) -> tuple:
        """The canonical basis: the RREF rows, as Vecs."""
        # a primitive row over its positive pivot is already reduced
        return tuple(Vec._raw(r, r[p]) for r, p in zip(self._rows, self._pivots))

    @property
    def basis(self) -> Mat:
        """Basis matrix (ambient x dim), reduced column echelon form."""
        return Mat.from_cols(self.vectors, rows=self.ambient)

    def contains(self, v: Vec) -> bool:
        """Whether v lies in the subspace: at once for the full space, else on the integer rows."""
        if v.dim != self.ambient:
            raise DimensionError("membership test with wrong ambient dimension")
        if self.dim == self.ambient:
            return True
        # v must be the sum of v[p] / row[p] * row; l clears the denominators
        ent = v.int_row()
        terms = [(ent[p], row[p], row) for row, p in zip(self._rows, self._pivots) if ent[p]]
        l = lcm(*(a for _, a, _ in terms))
        acc = [x * l for x in ent]
        for b, a, row in terms:
            c = b * (l // a)
            acc = [x - c * y for x, y in zip(acc, row)]
        return not any(acc)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.vectors)

    def orthocomplement(self) -> "Subspace":
        """Orthogonal complement under the symmetric dot product, computed on every call.

        The zero and the full subspace take no kernel.
        """
        if self.dim == 0:
            return Subspace.full(self.ambient)
        if self.dim == self.ambient:
            return Subspace.zero(self.ambient)
        return Mat._raw(self._rows, 1, self.ambient).kernel()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient, self._rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"

    def to_json(self):
        return self.basis.to_json()

    @classmethod
    def from_json(cls, data, ambient: int | None = None) -> "Subspace":
        data = json_list(data)
        if ambient is None:
            ambient = len(data)
        m = Mat.from_json(data) if data else Mat.zeros(ambient, 0)
        if m.rows != ambient:
            raise DimensionError("basis matrix has wrong ambient dimension")
        return cls.span(ambient, m.columns())


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """A + B; with a zero or a full term, one of the terms, with no elimination."""
    if a.ambient != b.ambient:
        raise DimensionError("sum of subspaces in different ambient spaces")
    if 0 in (a.dim, b.dim) or a.ambient in (a.dim, b.dim):
        return a if a.dim == a.ambient or b.dim == 0 else b
    return Subspace.from_echelon(_echelon(a.int_rows() + b.int_rows(), a.ambient))


def meet_perp(rows, F: Subspace) -> Subspace:
    """span(rows) n F^perp for integer rows: the combinations in the kernel of their F-products."""
    rows = list(rows)
    gram = [[sum(map(mul, f, p)) for p in rows] for f in F.int_rows()]
    combos = ([sum(map(mul, c, col)) for col in zip(*rows)] for c in int_kernel(gram, len(rows)))
    return Subspace.from_echelon(_echelon(combos, F.ambient))

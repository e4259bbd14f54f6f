"""Exact rational linear algebra: examples and structural invariants."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from linminmax.errors import DimensionError
from linminmax.exact_linalg import (
    IntEchelon,
    Mat,
    Subspace,
    Vec,
    det_bareiss,
    hstack,
    json_list,
    outer_sum,
    rational_to_string,
    solve_exact,
    subspace_sum,
    unit_vec,
)
from linminmax.matching_cover import matroid_intersection
from linminmax.verify import verify_cover
from linminmax.lgv import LgvInstance
from linminmax.relation import MatrixSpace, Relation
from conftest import as_lists, dot, rand_mat, rand_vec, vec
from reference import (
    basis_matrix,
    columns,
    in_span,
    outer,
    ref_kernel_rows,
    ref_nullspace,
    ref_rref,
    subspace_intersection,
)


def cofactor_det(m: Mat) -> Fraction:
    """Independent determinant oracle by first-row cofactor expansion."""
    n = m.rows
    a = as_lists(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return a[0][0]
    total = Fraction(0)
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = Mat(
            [
                [a[i][c] for c in range(n) if c != j]
                for i in range(1, n)
            ],
            n - 1,
        )
        sign = -1 if j % 2 else 1
        total += sign * a[0][j] * cofactor_det(minor)
    return total


def minor_rank(m: Mat) -> int:
    """Exhaustive oracle: largest k with a nonzero k x k minor."""
    best = 0
    a = as_lists(m)
    for k in range(1, min(m.rows, m.cols) + 1):
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = Mat([[a[i][j] for j in cols] for i in rows], k)
                if cofactor_det(sub) != 0:
                    best = k
                    break
            else:
                continue
            break
    return best


def test_rational_strings():
    assert rational_to_string(Fraction(3, 4)) == "3/4"
    assert rational_to_string(Fraction(-5)) == "-5"
    assert Vec.from_json(["7/2", "-3"]).entries == (Fraction(7, 2), Fraction(-3))
    q = Fraction(6, -4)
    assert q.denominator > 0 and rational_to_string(q) == "-3/2"


def test_rank_examples():
    assert Mat.identity(3).rank() == 3
    assert Mat.zeros(2, 3).rank() == 0
    assert Mat([[1, 2], [2, 4]]).rank() == 1


def test_det_examples():
    assert Mat.identity(4).det() == 1
    assert Mat([[1, 1], [1, 1]]).det() == 0
    m = Mat([[2, 1], [1, 2]])
    assert m.det() == 3 == cofactor_det(m)
    with pytest.raises(DimensionError):
        Mat.zeros(2, 3).det()


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 4)
        m = Mat(
            [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ],
            n,
        )
        assert m.det() == cofactor_det(m)


def test_kernel_examples():
    assert Mat.zeros(2, 3).kernel() == Subspace.full(3)
    assert Mat.identity(3).kernel() == Subspace.zero(3)
    k = Mat([[1, 1, 0]]).kernel()
    assert k.dim == 2
    assert k.contains(vec(1, -1, 0))
    assert k.contains(vec(0, 0, 1))


def test_kernel_solves_to_zero():
    rng = random.Random(11)
    for _ in range(40):
        m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        k = m.kernel()
        assert k.dim == m.cols - m.rank()
        for b in k.vectors:
            assert m.apply(b).is_zero()


def test_orthocomplement_examples():
    s = Subspace.span(3, [unit_vec(3, 0)])
    assert s.orthocomplement() == Subspace.span(3, [unit_vec(3, 1), unit_vec(3, 2)])
    assert Subspace.full(4).orthocomplement() == Subspace.zero(4)
    assert Subspace.zero(4).orthocomplement() == Subspace.full(4)
    assert Subspace.span(2, [vec(1, 1), vec(1, -1)]).orthocomplement() == Subspace.zero(2)
    s2 = Subspace.span(2, [vec(1, 1)])
    assert s2.orthocomplement() == Subspace.span(2, [vec(1, -1)])


def test_subspace_algebra_examples():
    e1, e2, e3 = (unit_vec(3, i) for i in range(3))
    a = Subspace.span(3, [e1])
    b = Subspace.span(3, [e2])
    assert subspace_sum(a, b).dim == 2
    assert subspace_intersection(a, b) == Subspace.zero(3)
    s = Subspace.span(3, [e1, e2])
    assert subspace_sum(s, s) == s
    assert subspace_intersection(s, s) == s
    t = Subspace.span(3, [e2, e3])
    assert subspace_intersection(s, t) == Subspace.span(3, [e2])
    with pytest.raises(DimensionError):
        subspace_sum(a, Subspace.zero(2))


def test_rank_transpose_invariant():
    rng = random.Random(13)
    for _ in range(50):
        m = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert m.rank() == m.transpose().rank()


def test_rank_matches_minor_oracle():
    rng = random.Random(17)
    for _ in range(40):
        m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), bound=2)
        assert m.rank() == minor_rank(m)


def test_orthocomplement_dimension_and_positivity():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 5)
        s = Subspace.span(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        perp = s.orthocomplement()
        assert s.dim + perp.dim == n
        assert subspace_intersection(s, perp) == Subspace.zero(n)


def test_orthocomplement_involution():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        s = Subspace.span(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        assert s.orthocomplement().orthocomplement() == s


def test_grassmann_identity():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = Subspace.span(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        b = Subspace.span(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        assert a.dim + b.dim == subspace_sum(a, b).dim + subspace_intersection(a, b).dim


def test_solve_exact_round_trip():
    rng = random.Random(31)
    solved = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rand_mat(rng, n, n)
        b = rand_mat(rng, n, rng.randint(1, 3))
        x = solve_exact(m, b)
        if m.det() == 0:
            assert x is None
        else:
            assert m @ x == b
            solved += 1
    assert solved > 5


def test_matrix_json_round_trip():
    m = Mat([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert Mat.from_json(m.to_json()) == m
    s = Subspace.span(3, [vec(1, 2, 3), vec(0, 1, 1)])
    assert Subspace.from_json(s.to_json(), 3) == s
    z = Subspace.zero(3)
    assert Subspace.from_json(z.to_json(), 3) == z


def test_subspace_canonical_equality():
    s1 = Subspace.span(3, [vec(1, 1, 0), vec(0, 0, 2)])
    s2 = Subspace.span(3, [vec(2, 2, 2), vec(0, 0, 1), vec(3, 3, 5)])
    assert s1 == s2
    assert hash(s1) == hash(s2)


# ---------------------------------------------------------------------------
# the integer engine against small Fraction references


def ref_span(n, rows):
    return tuple(vec(*r) for r in ref_rref(rows)[0])


def rand_rational_rows(rng, k, n, zero_share=0.3):
    return [
        [
            Fraction(0)
            if rng.random() < zero_share
            else Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
            for _ in range(n)
        ]
        for _ in range(k)
    ]


def test_span_matches_fraction_rref():
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(0, 6)
        rows = rand_rational_rows(rng, rng.randint(0, 7), n)
        if rng.random() < 0.3 and len(rows) > 1:  # plant a dependent row
            rows.append([a + 2 * b for a, b in zip(rows[0], rows[1])])
        s = Subspace.span(n, [vec(*r) for r in rows])
        assert s.vectors == ref_span(n, rows)
        for v in s.vectors:  # reduced: pivot 1, zero elsewhere in its column
            p = next(i for i, x in enumerate(v.entries) if x)
            assert v[p] == 1
            assert sum(1 for u in s.vectors if u[p]) == 1


def test_kernel_matches_fraction_reference():
    rng = random.Random(41)
    for _ in range(100):
        rows_n, cols = rng.randint(1, 5), rng.randint(0, 6)
        rows = rand_rational_rows(rng, rows_n, cols, zero_share=0.4)
        k = Mat(rows, cols).kernel()
        assert k.vectors == ref_span(cols, ref_kernel_rows(cols, rows))


def test_intersection_matches_orthocomplement_formula():
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(1, 6)
        picks = []
        for _ in range(2):
            kind = rng.random()
            if kind < 0.1:
                picks.append(Subspace.zero(n))
            elif kind < 0.2:
                picks.append(Subspace.full(n))
            else:
                rows = rand_rational_rows(rng, rng.randint(1, n), n)
                picks.append(Subspace.span(n, [vec(*r) for r in rows]))
        a, b = picks
        meet = subspace_intersection(a, b)
        # (A ∩ B) = (A^perp + B^perp)^perp, every step by the reference RREF
        perps = ref_kernel_rows(n, [v.entries for v in a.vectors]) + ref_kernel_rows(
            n, [v.entries for v in b.vectors]
        )
        assert meet.vectors == ref_span(n, ref_kernel_rows(n, perps))
        assert a.dim + b.dim == subspace_sum(a, b).dim + meet.dim
        assert a.contains_subspace(meet) and b.contains_subspace(meet)
        assert subspace_intersection(b, a) == meet


def test_intersection_with_zero_and_full():
    s = Subspace.span(4, [vec(1, 2, 0, 0), vec(0, 0, 1, 1)])
    for t in (s, Subspace.zero(4), Subspace.full(4)):
        assert subspace_intersection(t, Subspace.zero(4)) == Subspace.zero(4)
        assert subspace_intersection(Subspace.full(4), t) == t
        assert subspace_intersection(t, Subspace.full(4)) == t
    assert Subspace.full(3) == Subspace.span(3, [vec(1, 1, 1), vec(0, 1, 2), vec(0, 0, 5)])
    assert subspace_intersection(Subspace.zero(0), Subspace.full(0)) == Subspace.zero(0)


def test_solve_exact_edge_cases():
    # n = 0, with and without right-hand columns
    x = solve_exact(Mat.zeros(0, 0), Mat.zeros(0, 2))
    assert (x.rows, x.cols) == (0, 2)
    # a right-hand side with no columns
    m = Mat([[2, 1], [1, 1]])
    x = solve_exact(m, Mat.zeros(2, 0))
    assert (x.rows, x.cols) == (2, 0) and m @ x == Mat.zeros(2, 0)
    assert solve_exact(Mat([[1, 2], [2, 4]]), Mat.zeros(2, 0)) is None
    # singular M: None whether or not M X = B happens to be consistent
    singular = Mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert solve_exact(singular, Mat([[1], [2], [0]])) is None
    assert solve_exact(singular, Mat([[1], [0], [0]])) is None
    assert solve_exact(Mat.zeros(2, 2), Mat.identity(2)) is None
    with pytest.raises(DimensionError):
        solve_exact(Mat.zeros(2, 3), Mat.zeros(2, 1))
    with pytest.raises(DimensionError):
        solve_exact(Mat.identity(2), Mat.zeros(3, 1))


def test_solve_exact_rational_entries():
    rng = random.Random(47)
    solved = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        m = Mat(rand_rational_rows(rng, n, n, zero_share=0.2), n)
        k = rng.randint(0, 3)
        b = Mat(rand_rational_rows(rng, n, k), k)
        x = solve_exact(m, b)
        if m.det() == 0:
            assert x is None
        else:
            assert (x.rows, x.cols) == (n, k)
            assert m @ x == b
            solved += 1
    assert solved > 30


def test_rational_from_string_zero_denominator():
    for bad in ("1/0", "0/0", " -3/0 "):
        with pytest.raises(ValueError):
            Vec.from_json([bad])
    with pytest.raises(ValueError):
        vec("1", "1/0")


# ---------------------------------------------------------------------------
# the integer-backed Mat against Fraction-list references


def ref_matmul(a, b, inner, cols):
    return [[sum((r[t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)] for r in a]


def ref_transpose(a, cols):
    return [[r[j] for r in a] for j in range(cols)]


def rand_shape_rows(rng, rows, cols):
    """Mixed-denominator, signed entries; one draw in five is all zeros."""
    if rng.random() < 0.2:
        return [[Fraction(0)] * cols for _ in range(rows)]
    return rand_rational_rows(rng, rows, cols)


SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (2, 3), (3, 2), (4, 4)]


def test_mat_arithmetic_matches_fraction_lists():
    rng = random.Random(53)
    for _ in range(40):
        for rows, cols in SHAPES:
            a = rand_shape_rows(rng, rows, cols)
            b = rand_shape_rows(rng, rows, cols)
            ma, mb = Mat(a, cols), Mat(b, cols)
            assert as_lists(ma) == a
            assert as_lists(ma + mb) == [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
            assert as_lists(ma - mb) == [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]
            for c in (rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 6))):
                assert as_lists(ma.scaled(c)) == [[x * c for x in r] for r in a]
            assert as_lists(ma.transpose()) == ref_transpose(a, cols)
            k = rng.randint(0, 3)
            c = rand_shape_rows(rng, cols, k)
            assert as_lists(ma @ Mat(c, k)) == ref_matmul(a, c, cols, k)
            c2 = rng.randint(0, 2)
            d = rand_shape_rows(rng, rows, c2)
            assert as_lists(hstack([ma, Mat(d, c2)])) == [r + s for r, s in zip(a, d)]
            u = [x for x in rand_shape_rows(rng, 1, cols)[0]] if cols else []
            assert list(ma.apply(vec(*u)).entries) == [
                sum((x * y for x, y in zip(r, u)), Fraction(0)) for r in a
            ]
            w = rand_shape_rows(rng, 1, rows)[0] if rows else []
            assert as_lists(outer(vec(*w), vec(*u))) == [[x * y for y in u] for x in w]


def _kernel_shape(rng, kind):
    """A row list of the given kind: 0 rows, 0 columns, full row rank, with zero rows, with
    repeated rows, or random rational entries of both signs."""
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    if kind == 0:
        return [], cols
    if kind == 1:
        return [[] for _ in range(rows)], 0
    if kind == 2:  # triangular with a nonzero diagonal, under a column shuffle
        rows = min(rows, cols)
        order = rng.sample(range(cols), cols)
        a = [
            [rng.choice((-3, -1, 1, 2)) if j == i else rng.randint(-4, 4) * (j > i) for j in range(cols)]
            for i in range(rows)
        ]
        return [[r[order[j]] for j in range(cols)] for r in a], cols
    a = [[rng.randint(-9, 9) * (rng.random() < 0.7) for _ in range(cols)] for _ in range(rows)]
    if kind == 3:
        a.insert(rng.randint(0, len(a)), [0] * cols)
    elif kind == 4 and a:
        a += [list(a[0]), [-2 * x for x in a[-1]]]
    elif kind == 5:
        a = [[Fraction(x, rng.choice((1, 2, 3, -7))) for x in r] for r in a]
    return a, cols


def test_kernel_is_the_fraction_rref_nullspace_in_one_elimination(monkeypatch):
    """Mat.kernel equals the Fraction-RREF nullspace on 1,200 seeded shapes, and each call
    builds one echelon and back-substitutes it once."""
    built, substituted = [], []
    init, back = IntEchelon.__init__, IntEchelon.back_substituted
    monkeypatch.setattr(IntEchelon, "__init__", lambda self, width: built.append(width) or init(self, width))
    monkeypatch.setattr(IntEchelon, "back_substituted", lambda self: substituted.append(1) or back(self))
    rng = random.Random(89)
    for t in range(1200):
        a, cols = _kernel_shape(rng, t % 6)
        m = Mat(a, cols)
        built.clear()
        substituted.clear()
        k = m.kernel()
        assert (len(built), len(substituted)) == (1, 1)
        assert k.ambient == cols
        assert [list(v.entries) for v in k.vectors] == ref_nullspace(cols, a)
        if t % 6 == 2:
            assert k.dim == cols - len(a)


def test_mat_eliminations_match_fraction_references():
    rng = random.Random(61)
    for _ in range(60):
        for rows, cols in SHAPES:
            a = rand_shape_rows(rng, rows, cols)
            m = Mat(a, cols)
            assert m.rank() == len(ref_rref(a)[0])
            assert m.kernel().vectors == ref_span(cols, ref_kernel_rows(cols, a))
            if rows == cols:
                assert m.det() == cofactor_det(m)
                k = rng.randint(0, 2)
                b = rand_shape_rows(rng, rows, k)
                x = solve_exact(m, Mat(b, k))
                red, piv = ref_rref([r + s for r, s in zip(a, b)]) if rows else ([], [])
                if piv[:rows] != list(range(rows)):
                    assert x is None
                else:
                    assert as_lists(x) == [r[rows:] for r in red]


def test_mat_canonical_form():
    forms = [
        Mat([["1/2", "1"]]),
        Mat([["2/4", "2/2"]]),
        Mat([[1, 2]]).scaled(Fraction(1, 2)),
        Mat([[Fraction(3, 6), Fraction(5, 5)]]),
        Mat([[1, 2]]) @ Mat([["1/2", "0"], ["0", "1/2"]]),
    ]
    for m in forms:
        assert m == forms[0] and hash(m) == hash(forms[0])
        assert (m.den, m.int_rows()) == (2, ((1, 2),))
    zero = Mat([["1/3", "2/3"]]) - Mat([["1/3", "2/3"]])
    assert zero == Mat.zeros(1, 2) and zero.den == 1
    assert Mat.zeros(0, 2) != Mat.zeros(0, 3) and Mat.zeros(2, 0) != Mat.zeros(3, 0)


def test_mat_entries_are_fractions():
    m = Mat([[1, "3/4"], [Fraction(-2, 6), True]])
    entries = [x for u in columns(m) for x in u.entries] + list(m.row(1).entries + m.col(0).entries)
    assert all(type(x) is Fraction for x in entries)
    assert type(m.row(0)[0]) is Fraction and m.row(1)[0] == Fraction(-1, 3)
    assert m.to_json() == [["1", "3/4"], ["-1/3", "1"]]
    with pytest.raises(TypeError):
        Mat([[1, 0.5]])
    with pytest.raises(ValueError):
        Mat([["1/0"]])


# ---------------------------------------------------------------------------
# the integer-backed Vec and Subspace against Fraction references


def reference_parse(s):
    """Fraction(s), with a zero denominator reported as ValueError."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(s) from None


ODD_FORMS = [
    "1_0", " 12 ", "+3", "-0", "١٢", "-٣/٤", "²", "--2", "-", "/3", "1.5", "3/-4", "3/ 4",
    "0x10", "1/0", "-7/21", "1-2", "--1", "", "-0-", " 1", "+1", "٣",
]


@pytest.mark.parametrize("text", ODD_FORMS)
def test_rational_from_string_accepts_what_fraction_accepts(text):
    """The string parser and every JSON loader built on it accept Fraction's strings."""
    loaders = [
        lambda: vec(text),
        lambda: Vec.from_json([text]),
        lambda: Mat.from_json([[text, "1"]]),
        lambda: Relation.from_json({"n": 1, "m": 2, "pairs": [[[text], ["1", text]]]}),
        lambda: Subspace.from_json([[text], ["1"]]),
    ]
    try:
        expected = reference_parse(text)
    except ValueError:
        for load in loaders:
            with pytest.raises(ValueError):
                load()
        return
    v, u, m, R, S = (load() for load in loaders)
    assert v.entries == u.entries == (expected,)
    assert as_lists(m) == [[expected, 1]]
    assert R.pairs == ((Vec([expected]), Vec([1, expected])),)
    assert S == Subspace.span(2, [Vec([expected, 1])])


def _fuzz_entry(rng):
    """A rational string: 40 digits, leading zeros, unreduced, "-0/q", "p/0" or an odd form."""
    if rng.random() < 0.15:
        return rng.choice(ODD_FORMS)
    k = rng.randint(1, 6)
    form = rng.choice(
        [
            str(rng.randrange(10**39, 10**40)),
            "0" * rng.randint(1, 3) + str(rng.randint(0, 99)),
            f"{rng.randint(0, 9) * k}/{rng.randint(1, 9) * k}",
            f"0/{rng.randint(1, 9)}",
            f"{rng.randint(0, 99)}/0{rng.randint(0, 9)}",
            f"{rng.randint(0, 9)}/{rng.randint(1, 9)}",
            str(rng.randint(0, 9)),
        ]
    )
    return rng.choice(("", "-")) + form


def test_vec_from_json_equals_the_fraction_row():
    """Seeded fuzz: a JSON row loads to the data of the row of Fraction(s)."""
    rng = random.Random(24)
    loaded = refused = 0
    for _ in range(600):
        row = [_fuzz_entry(rng) for _ in range(rng.randint(1, 5))]
        try:
            expected = Vec([reference_parse(s) for s in row])
        except ValueError:
            with pytest.raises(ValueError):
                Vec.from_json(row)
            refused += 1
            continue
        v = Vec.from_json(row)
        assert (v._num, v._den) == (expected._num, expected._den)
        assert all(type(x) is int for x in v._num) and type(v._den) is int
        loaded += 1
    assert loaded >= 400 and refused >= 20


def _reference_rows(data):
    """Every row an array holding no bool, as the per-entry loader refuses them."""
    rows = json_list(data)
    for row in rows:
        if bool in map(type, json_list(row)):
            raise TypeError("a boolean is not a rational entry")
    return rows


def _reference_mat(data, cols=None):
    """The per-entry loader: the rows checked, then `_pair` per entry."""
    return Mat(_reference_rows(data), cols)


def _outcome(load):
    """("loaded", value), or ("refused", type, message) of the exception raised."""
    try:
        return "loaded", load()
    except Exception as ex:
        return "refused", type(ex), str(ex)


def _boundary_entry(rng):
    """A plain integer string most of the time, else a form that one `int` pass must not take."""
    if rng.random() < 0.6:
        return rng.choice(("", "-")) + str(rng.choice((0, 7, 12, 10**25 + 3)))
    return rng.choice(
        ["1-2", "--1", "-", "", "-0-", "1_0", " 1", "+1", "٣", "-٣", "3/4", "-6/4", "1/0", 5, -2]
        + [True, 1.5, None, [], {"a": 1}]
    )


def _boundary_loaders(row, plain):
    """(program loader, per-entry reference) pairs that read `row` above the row `plain`."""
    w = len(row)
    data = [row, plain]

    def lgv_json(key):
        blocks = {"V": [["0"] * w] * 2, "W": [["0"] * w] * 2, "A": [["1"]] * 2, "B": [["1"]] * 2}
        return dict(blocks, **{key: data})

    key = "A" if w == 1 else "V"
    return [
        (lambda: Vec.from_json(row), lambda: Vec(_reference_rows([row])[0])),
        (lambda: Mat.from_json(data), lambda: _reference_mat(data)),
        (lambda: Mat.from_json(data, cols=w + 1), lambda: _reference_mat(data, w + 1)),
        (
            lambda: MatrixSpace.from_json({"m": 2, "n": w, "basis": [data]}).basis,
            lambda: MatrixSpace(2, w, [_reference_mat(data, w)]).basis,
        ),
        (
            lambda: Subspace.from_json(data),
            lambda: Subspace.span(2, columns(_reference_mat(data))),
        ),
        (
            lambda: LgvInstance.from_json(lgv_json(key)),
            lambda: LgvInstance(
                *(_reference_mat(lgv_json(key)[name]) for name in "VWAB")
            ),
        ),
    ]


def test_json_rows_load_as_the_per_entry_parse():
    """Seeded fuzz: every loader's value, or error type and message, is the per-entry loader's.

    The rows mix plain integers with strings that pass the digit-and-"-"
    guard but fail `int`, strings that `int` would take but the guard
    refuses, fractions, JSON numbers, bools, nulls and nested values.
    """
    rng = random.Random(25)
    seen = {"loaded": 0, "refused": 0}
    for _ in range(300):
        w = rng.randint(1, 4)
        row = [_boundary_entry(rng) for _ in range(w)]
        plain = [str(rng.randint(-9, 9)) for _ in range(w)]
        if rng.random() < 0.3:
            plain = [_boundary_entry(rng) for _ in range(w)]
        if rng.random() < 0.1:
            plain = plain[:-1]  # ragged
        for load, reference in _boundary_loaders(row, plain):
            got, expected = _outcome(load), _outcome(reference)
            assert got == expected, (row, plain)
            seen[got[0]] += 1
    assert min(seen.values()) >= 300, seen


def test_json_rows_load_plain_integers_to_integer_data():
    rows = [["-12", "0", "007", "-0"], ["٣", "-٣", "1", str(10**40)]]
    m = Mat.from_json(rows)
    assert (m.den, m.int_rows()) == (1, ((-12, 0, 7, 0), (3, -3, 1, 10**40)))
    assert all(type(x) is int for row in m.int_rows() for x in row)
    mixed = Mat.from_json([["1", "2"], ["3/4", "1"]])
    assert (mixed.den, mixed.int_rows()) == (4, ((4, 8), (3, 4)))
    assert Vec.from_json(["3", "-0"]) == vec(3, 0)
    for bad in (["1-2"], ["--1"], ["-"], [""], ["-0-"], ["1", "-0-"]):
        with pytest.raises(ValueError):
            Vec.from_json(bad)
    # every row is checked for its shape and for bools before any entry is parsed
    with pytest.raises(TypeError, match="boolean"):
        Mat.from_json([["1-2"], [True]])
    with pytest.raises(TypeError, match="array"):
        Mat.from_json([["1/0"], "12"])


PLAIN_ENTRY = re.compile(r"-?[0-9٣]+(/[0-9٣]*[1-9٣][0-9٣]*)?")


def _short_string(rng):
    """A short string from 0-9, ٣, "-", "/", "+", " " and ".": half of them -?digits(/digits)?."""
    digits = "0123456789٣"

    def part():
        return "".join(rng.choice(digits) for _ in range(rng.randint(1, 2)))

    if rng.random() < 0.5:
        return rng.choice(("", "-")) + part() + rng.choice(("", "/" + part()))
    return "".join(
        rng.choice(digits) if rng.random() < 0.6 else rng.choice("-/+ .")
        for _ in range(rng.randint(1, 4))
    )


def _fraction_or_refusal(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


def test_rows_of_short_strings_load_as_fraction_reads_each_entry():
    """Seeded fuzz: a row loads to each entry's Fraction value, or is refused where Fraction refuses an entry.

    Plain rows (every entry -?digits or -?digits/digits with a nonzero
    denominator) take the one-pass reader; mixed rows hold plain entries
    and entries that fall back to `_pair`, such as "1/-2", "1/0", "+1",
    " 1", "1.5" and "--1".
    """
    rng = random.Random(27)
    seen = {}
    for _ in range(3000):
        row = [_short_string(rng) for _ in range(rng.randint(1, 4))]
        plain = sum(PLAIN_ENTRY.fullmatch(s) is not None for s in row)
        if plain == len(row):
            kind = "p/q" if "/" in "".join(row) else "plain"
        else:
            kind = "mixed" if plain else "fallback"
        values = [_fraction_or_refusal(s) for s in row]
        if None in values:
            with pytest.raises((ValueError, TypeError)):
                Vec.from_json(row)
            kind += " refused"
        else:
            v = Vec.from_json(row)
            assert v.entries == tuple(values), row
            assert v == Vec(values)
            assert all(type(x) is int for x in v.int_row()) and type(v.den) is int
        seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"p/q", "plain", "mixed", "mixed refused", "fallback", "fallback refused"}, seen
    assert min(seen.values()) >= 50, seen


def test_plain_rational_rows_load_without_a_per_entry_parse(monkeypatch):
    """-?digits and -?digits/digits rows take no `_pair` call; "1/-2", "1/0" and "+1" do."""
    from linminmax import exact_linalg

    calls = []
    pair = exact_linalg._pair
    half_and_one = vec(Fraction(1, 2), 1)

    def counting(x):
        calls.append(x)
        return pair(x)

    monkeypatch.setattr(exact_linalg, "_pair", counting)
    v = Vec.from_json(["1/2", "-3/4", "٣", "-0/5", "6/4"])
    assert (v.int_row(), v.den) == ((2, -3, 12, 0, 6), 4)
    m = Mat.from_json([["1/2", "3"], ["-2/3", "0"]])
    assert (m.int_rows(), m.den) == (((3, 18), (-4, 0)), 6)
    assert calls == []
    assert Vec.from_json(["1/2", "+1"]) == half_and_one
    assert calls == ["1/2", "+1"]
    for bad in (["1/-2"], ["1/0"], ["1/2", "1/-2"], ["-0/0"], ["1/2/3"], ["/2"], ["1/"]):
        with pytest.raises(ValueError):
            Vec.from_json(bad)


def test_to_json_renders_each_entry_as_its_fraction():
    """Seeded Vec, Mat and Subspace rows, with negative entries and large denominators."""
    rng = random.Random(26)
    for _ in range(150):
        n = rng.randint(1, 5)
        dens = [1, 2, 6, 9, 2**61 - 1, 10**30 + 1]
        rows = [
            [
                Fraction(rng.randint(-(10**rng.randint(1, 35)), 10**rng.randint(1, 35)), rng.choice(dens))
                for _ in range(n)
            ]
            for _ in range(rng.randint(1, 4))
        ]
        v, m = Vec(rows[0]), Mat(rows, n)
        S = Subspace.span(n, [Vec(r) for r in rows])
        assert v.to_json() == [rational_to_string(Fraction(x, v.den)) for x in v.int_row()]
        for shown in (m, basis_matrix(S)):
            assert shown.to_json() == [
                [rational_to_string(Fraction(x, shown.den)) for x in row] for row in shown.int_rows()
            ]
        assert S.to_json() == basis_matrix(S).to_json()
        assert Mat.from_json(m.to_json()) == m and Vec.from_json(v.to_json()) == v


def test_vec_canonical_form():
    forms = [vec("1/2", 1), vec("2/4", "2/2"), vec(1, 2).scaled(Fraction(1, 2))]
    for v in forms:
        assert v == forms[0] and hash(v) == hash(forms[0])
        assert (v.den, v.int_row()) == (2, (1, 2))
    zero = vec("1/3", "-2/3") - vec("1/3", "-2/3")
    assert zero == vec(0, 0) and zero.den == 1 and zero.is_zero()
    assert vec() == Vec([]) and vec() != vec(0)


def test_vec_arithmetic_matches_fraction_lists():
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(0, 6)
        a, b = rand_rational_rows(rng, 2, n)
        c = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
        va, vb = vec(*a), vec(*b)
        assert (va + vb).entries == tuple(x + y for x, y in zip(a, b))
        assert (va - vb).entries == tuple(x - y for x, y in zip(a, b))
        assert (-va).entries == tuple(-x for x in a)
        assert va.scaled(c).entries == tuple(x * c for x in a)
        assert va.is_orthogonal(vb) == (sum((x * y for x, y in zip(a, b)), Fraction(0)) == 0)
        assert dot(va, vb) == sum((x * y for x, y in zip(a, b)), Fraction(0))
        assert va.is_zero() == all(x == 0 for x in a)
        assert [va[i] for i in range(n)] == a
        assert va.to_json() == [rational_to_string(x) for x in a]
        assert Vec.from_json(va.to_json()) == va
        assert Vec.from_ints(va.int_row(), va.den) == va
        m = Mat(rand_rational_rows(rng, rng.randint(0, 4), n), n)
        assert m.apply(va).entries == tuple(
            sum((x * y for x, y in zip(row, a)), Fraction(0)) for row in as_lists(m)
        )
        assert as_lists(outer(vb, va)) == [[y * x for x in a] for y in b]
        assert as_lists(outer_sum([(va, vb), (vb, va)], n, n)) == [
            [y * x + x2 * y2 for x, y2 in zip(a, b)] for y, x2 in zip(b, a)
        ]
    with pytest.raises(DimensionError):
        vec(1, 2).is_orthogonal(vec(1))


def rand_picks(rng, n, k):
    """Random subspaces of F^n, with zero and full subspaces among them."""
    out = []
    for _ in range(k):
        kind = rng.random()
        if kind < 0.15:
            out.append(Subspace.zero(n))
        elif kind < 0.3:
            out.append(Subspace.full(n))
        else:
            rows = rand_rational_rows(rng, rng.randint(1, n + 1), n)
            out.append(Subspace.span(n, [vec(*r) for r in rows]))
    return out


def test_subspace_operations_match_fraction_references():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(0, 6)
        a, b = rand_picks(rng, n, 2)
        rows_a = [list(v.entries) for v in a.vectors]
        rows_b = [list(v.entries) for v in b.vectors]
        assert a.vectors == ref_span(n, rows_a)
        assert subspace_sum(a, b).vectors == ref_span(n, rows_a + rows_b)
        perps = ref_kernel_rows(n, rows_a) + ref_kernel_rows(n, rows_b)
        assert subspace_intersection(a, b).vectors == ref_span(n, ref_kernel_rows(n, perps))
        assert a.orthocomplement().vectors == ref_span(n, ref_kernel_rows(n, rows_a))
        assert a.contains_subspace(b) == all(in_span(a, v) for v in b.vectors)
        for v in rand_rational_rows(rng, 3, n) + rows_b:
            assert a.contains(vec(*v)) == in_span(a, vec(*v))
        assert Subspace.from_json(a.to_json(), n) == a


def test_vec_and_subspace_accessors_hold_fractions():
    v = vec(1, "3/4", Fraction(-2, 6), True)
    assert all(type(x) is Fraction for x in v.entries)
    assert type(v[0]) is Fraction and v[2] == Fraction(-1, 3)
    assert v.to_json() == ["1", "3/4", "-1/3", "1"]
    s = Subspace.span(3, [vec("1/2", 1, 3), vec(0, "2/3", 1)])
    assert [u.entries for u in s.vectors] == [(1, 0, 3), (0, 1, Fraction(3, 2))]
    assert all(type(x) is Fraction for u in s.vectors for x in u.entries)
    assert s.to_json() == [["1", "0"], ["0", "1"], ["3", "3/2"]]
    with pytest.raises(TypeError):
        vec(0.5)
    with pytest.raises(AttributeError):
        v.x = 1


def test_contains_agrees_with_elimination():
    """Full, zero and proper subspaces, ambient 0 included, against the reference RREF."""
    rng = random.Random(68)
    checked = {"full": 0, "zero": 0, "proper": 0}
    for _ in range(200):
        n = rng.randint(0, 5)
        (S,) = rand_picks(rng, n, 1)
        kind = "full" if S.dim == n else "zero" if S.dim == 0 else "proper"
        checked[kind] += 1
        vectors = [vec(*r) for r in rand_rational_rows(rng, 3, n)] + list(S.vectors)
        for v in vectors:
            assert S.contains(v) == in_span(S, v)
    assert min(checked.values()) >= 20, checked
    assert Subspace.full(0).contains(Vec([])) and Subspace.zero(0).contains(Vec([]))
    with pytest.raises(DimensionError):
        Subspace.full(3).contains(vec(1, 2))


def test_membership_and_spans_build_no_fractions(monkeypatch):
    rng = random.Random(67)
    n = 5
    pairs = [
        (vec(*rand_rational_rows(rng, 1, n)[0]), vec(*rand_rational_rows(rng, 1, n)[0]))
        for _ in range(12)
    ]
    R = Relation(n, n, pairs)
    cover = matroid_intersection(R)[1]
    vectors = [v for v, _ in pairs]
    a = Subspace.span(n, vectors[:3])
    b = Subspace.span(n, vectors[2:6])
    expected = [in_span(b, v) for v in vectors]
    assert all(type(t) is int for v in vectors for t in v.int_row() + (v.den,))
    assert all(
        type(t) is int for s in (a, b, cover.U) for row in s.int_rows() for t in row
    )

    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert verify_cover(R, cover)
    assert [b.contains(v) for v in vectors] == expected
    Subspace.span(n, vectors)
    subspace_sum(a, b)
    assert made == []
    Fraction(1, 3)  # the counter is live
    assert len(made) == 1


def test_int_echelon_rows_are_primitive(rng):
    """Back-substituted rows have gcd 1; width 0 and zero rows work."""
    from math import gcd

    for _ in range(40):
        n = rng.randint(0, 5)
        rows = [[6 * rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 6))]
        ech = IntEchelon(n)
        for row in rows:
            ech.add(row)
        assert all(gcd(*row) == 1 for row in ech.back_substituted()[0])
        assert all(ech.contains(row) for row in rows)
        assert ech.reduce([0] * n) == [0] * n


def _int_rows(rng, rows, n, zero_share):
    return [
        [0 if rng.random() < zero_share else rng.randint(-4, 4) for _ in range(n)]
        for _ in range(rows)
    ]


def test_int_echelon_pivots_are_leading_minors():
    """After each add, pivot entry i is the minor of kept rows 0..i at pivot columns 0..i.

    The columns are taken in the order the pivots arrived; rows with zeros
    at earlier pivots exercise the skipped Bareiss steps.
    """
    rng = random.Random(83)
    cases = [[[0, 1, 1], [2, 0, 1], [1, 0, 0]]]
    cases += [_int_rows(rng, rng.randint(1, 8), rng.randint(1, 6), 0.4) for _ in range(80)]
    for rows in cases:
        ech = IntEchelon(len(rows[0]))
        kept = []
        for row in rows:
            if ech.add(row):
                kept.append(row)
            assert len(kept) == ech.rank
            for i, p in enumerate(ech.pivots):
                cols = ech.pivots[: i + 1]
                minor = Mat([[r[c] for c in cols] for r in kept[: i + 1]], i + 1)
                assert ech.rows[i][p] == cofactor_det(minor)
        assert all(ech.contains(row) for row in rows)


def test_det_bareiss_is_the_echelon_last_pivot(echelon_widths):
    """Out-of-order pivots, leading zeros, singular, 1x1 and 0x0 match the Fraction reference."""
    rng = random.Random(89)
    cases = [[], [[5]], [[0]], [[-3]], [[0, 1], [1, 0]], [[0, 0, 2], [0, 3, 1], [4, 1, 1]]]
    for _ in range(40):
        n = rng.randint(1, 5)
        diagonal = [rng.choice([-2, -1, 1, 3]) for _ in range(n)]
        upper = [
            [rng.randint(-4, 4) if j > i else diagonal[i] * (j == i) for j in range(n)]
            for i in range(n)
        ]
        cases.append(rng.sample(upper, n))
        rows = _int_rows(rng, n, n, 0.5)
        cases.append(rows)
        if n > 1:
            cases.append(rows[:-1] + [[2 * x - y for x, y in zip(rows[0], rows[-2])]])
    singular = 0
    for a in cases:
        before = [row[:] for row in a]
        echelon_widths.clear()
        det = det_bareiss(a)
        assert det == cofactor_det(Mat(a, len(a)))
        singular += det == 0
        assert a == before
        assert echelon_widths == [len(a)]
    assert singular > 20

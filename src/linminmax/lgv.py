"""Path determinants: the linear Lindstrom-Gessel-Viennot identity.

For source columns A, sink columns B, and pair columns (v_i, w_i) carrying
formal weights x_i, the determinant det(B^T (I - W X V^T)^{-1} A) equals a
signed subset sum of small bordered determinants divided by the matching
subset expansion of det(I - X V^T W).  When the pair family is acyclic,
which the minor table decides (`acyclic`), W X V^T is nilpotent and the
denominator is identically 1.  Both sides are evaluated exactly at
rational points; there is no symbolic polynomial arithmetic anywhere.

None of the subset determinants depends on the point, only the monomials
x_S do.  So each instance computes its minor table once (`LgvInstance.minors`):
for every subset S, the Bareiss determinants of the integer rows of G_S
and of V_S^T W_S, signed by (-1)^|S| and scaled to the common denominator
of all subsets.  A point, cleared to integers a_i over q, then costs one
integer pass: each side is the sum of its table entries times
a_S q^(r-|S|), over one integer denominator.

The left side is one bordered integer determinant per point.  With s the
product of the denominators of V, W and the point, sM = s (I - W X V^T)
is an integer matrix, and the Schur complement gives
det[[sM, A_int], [B_int^T, 0]] = det(sM) (-1)^k det(B_int^T (sM)^-1 A_int);
one fraction-free echelon of the bordered rows yields both determinants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import DimensionError, InvariantViolation, SingularityError
from .exact_linalg import IntEchelon, Mat, clear_scale, det_bareiss, hstack, permutation_sign


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

    @cached_property
    def minors(self):
        """The point-free subset minor table; see `_subset_minors`."""
        return _subset_minors(self)

    @cached_property
    def acyclic(self) -> bool:
        """Whether V_R^n = 0 for the pairs R: every e-entry of `minors` but the empty set's is 0.

        The e-entry of S is a nonzero multiple of det G_S, G = V^T W.  As
        V_R^k is spanned by the w_i1 G_i1i2 ... G_i(k-1)ik v_ik^T, V_R^n = 0
        exactly when the digraph with an arc i -> j wherever G_ij != 0 has
        no cycle.  Then G is strictly triangular in a topological order, so
        every nonempty principal minor is 0.  Else a shortest cycle C (or
        loop) is induced, so C is the one permutation of its vertices along
        arcs, and det G_C is +- the product along C, which is not 0.
        """
        return not any(self.minors[1][1:])

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


def _coerce_point(inst: LgvInstance, xs) -> list:
    """The weights as ints and Fractions, which both have a numerator and a denominator."""
    xs = [x if type(x) is int else Fraction(x) for x in xs]
    if len(xs) != inst.r:
        raise DimensionError("one weight per pair column required")
    return xs


def lgv_lhs(inst: LgvInstance, xs) -> Fraction:
    """det(B^T (I - W X V^T)^{-1} A), exactly, at the given point.

    With the point cleared to a_i / q and s = d_V d_W q, the integer matrix
    sM = s I - W_int diag(a) V_int^T is s (I - W X V^T), and by the Schur
    complement det[[sM, A_int], [B_int^T, 0]] is det(sM) (-1)^k times
    det(B_int^T (sM)^{-1} A_int) = (d_A d_B / s)^k det(B^T M^{-1} A).
    One echelon of the bordered rows gives both determinants: sM is
    invertible exactly when its n rows pivot in the first n columns, and
    the ratio is the last pivot over the n-th, times the sign of the order
    of the k last pivot columns.
    """
    xs = _coerce_point(inst, xs)
    a, q = clear_scale([(x.numerator, x.denominator) for x in xs])
    n, k = inst.n, inst.k
    s = inst.V.den * inst.W.den * q
    V = inst.V.int_rows()
    ech = IntEchelon(n + k)
    for i, (w, border) in enumerate(zip(inst.W.int_rows(), inst.A.int_rows())):
        wa = list(map(mul, w, a))
        row = [-sum(map(mul, wa, v)) for v in V]
        row[i] += s
        if not ech.add(row + list(border)) or ech.pivots[-1] >= n:
            raise SingularityError("I - W X V^T is singular at this point")
    det_m = ech.rows[-1][ech.pivots[-1]] if n else 1
    zeros = [0] * k
    for b in inst.B.transpose().int_rows():
        if not ech.add(list(b) + zeros):
            return Fraction(0)
    last = ech.rows[-1][ech.pivots[-1]] if n + k else 1
    return Fraction(
        (-1) ** k * permutation_sign(ech.pivots[n:]) * s**k * last,
        (inst.A.den * inst.B.den) ** k * det_m,
    )


def _subset_table(inst: LgvInstance) -> Mat:
    """[[V^T W, V^T A], [B^T W, B^T A]]: every G_S is a principal submatrix."""
    return hstack([inst.V, inst.B]).transpose() @ hstack([inst.W, inst.A])


def lgv_rhs(inst: LgvInstance, xs) -> Fraction:
    """Subset-sum evaluation: numerator over denominator, both explicit."""
    xs = _coerce_point(inst, xs)
    num, den = lgv_rhs_parts(inst, xs)
    if den == 0:
        raise SingularityError("the subset denominator vanishes at this point")
    return num / den


def _subset_minors(inst: LgvInstance):
    """(g, e, d): the signed subset minors of the table, over its denominator d.

    With N the integer rows of `_subset_table` (the table times d), entry
    S of g (indexed by the bitmask of S) is (-1)^|S| d^(r-|S|) det N[G_S],
    and entry S of e is (-1)^|S| d^(r-|S|) det N[V_S^T W_S].  Then
    (-1)^|S| det G_S = g_S / d^(r+k) and (-1)^|S| det(V^T W)_S = e_S / d^r.
    """
    table = _subset_table(inst)
    rows, d = table.int_rows(), table.den
    r = inst.r
    border = list(range(r, r + inst.k))
    g = []
    e = []
    for mask in range(1 << r):
        S = [i for i in range(r) if mask >> i & 1]
        scale = (-1) ** len(S) * d ** (r - len(S))
        idx = S + border
        g.append(scale * det_bareiss([[rows[i][j] for j in idx] for i in idx]))
        e.append(scale * det_bareiss([[rows[i][j] for j in S] for i in S]))
    return g, e, d


def lgv_rhs_parts(inst: LgvInstance, xs):
    """(numerator, denominator) of the subset-sum side at a point.

    sum_S (-1)^|S| x_S det G_S and sum_S (-1)^|S| x_S det (V^T W)_S, read
    off the instance's minor table: with x_i = a_i / q, the monomial x_S is
    a_S q^(r-|S|) / q^r.
    """
    xs = _coerce_point(inst, xs)
    a, q = clear_scale([(x.numerator, x.denominator) for x in xs])
    g, e, d = inst.minors
    # weights[mask] = prod over i of (a_i if bit i of mask is set else q)
    weights = [1]
    for ai in a:
        weights = [w * q for w in weights] + [w * ai for w in weights]
    scale = d ** inst.r * q ** inst.r
    num = Fraction(sum(map(mul, g, weights)), scale * d ** inst.k)
    den = Fraction(sum(map(mul, e, weights)), scale)
    return num, den


def lgv_acyclic(inst: LgvInstance, xs):
    """Both sides of the identity in the acyclic case; asserts equality.

    `LgvInstance.acyclic` alone decides acyclicity; then I - W X V^T is
    unipotent, so `lgv_lhs` meets no singular point, and the right side is
    the bare numerator because det(I - X V^T W) = 1.  A failure of either
    equality is a violated identity (InvariantViolation), not a singular
    point.
    """
    xs = _coerce_point(inst, xs)
    if not inst.acyclic:
        raise ValueError("instance is not acyclic")
    lhs = lgv_lhs(inst, xs)
    num, den = lgv_rhs_parts(inst, xs)
    if den != 1:
        raise InvariantViolation("acyclic denominator is not identically 1")
    if lhs != num:
        raise InvariantViolation("acyclic identity failed at an exact point")
    return lhs, num

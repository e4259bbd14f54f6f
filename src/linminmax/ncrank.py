"""Noncommutative rank via blow-ups, with shrunk-subspace dual certificates.

The noncommutative rank of a matrix space V in M_{m,n} is (1/r) times the
maximum rank in the blow-up V (x) M_r, attained for every r >= n-1, and it
equals n - d where d is the largest defect dim E - dim V[E].  A defect
subspace is therefore a dual certificate: it bounds every blow-up rank by
r(n - d), while a sampled blow-up element of that rank is the primal.  The
escalation below tries r = 1, 2, ... and stops as soon as the two meet; for
rank-one generated spaces the dual comes from the minimum cover of the
matroid intersection in `matching_cover`, otherwise from a candidate-pool
witness search (which can leave the status
at lower_bound_only, never at a wrong value).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add

from .errors import (
    BudgetExceededError,
    CertificationError,
    DimensionError,
    InvariantViolation,
)
from .exact_linalg import (
    IntEchelon,
    Mat,
    Subspace,
    block,
    subspace_intersection,
    subspace_sum,
    unit_vec,
)
from .dilworth import CoherentDecomposition, nilpotent_jordan_chains, verify_coherent_decomposition
from .matching_cover import (
    LOWER_BOUND_ONLY,
    PROVED,
    CertifiedValue,
    Cover,
    min_cover,
)
from .menger import DEFAULT_BUDGET, Separator, min_separator, _inclusion, _projection
from .relation import (
    GenericSampler,
    MatrixSpace,
    apply_space,
    is_nilpotent_algebra,
    sample_element,
)

BLOWUP_DIM_BUDGET = 26


@dataclass(frozen=True)
class BlowUp:
    base: MatrixSpace
    r: int
    basis: tuple

    @property
    def space(self) -> MatrixSpace:
        return MatrixSpace(self.base.m * self.r, self.base.n * self.r, self.basis)


@dataclass(frozen=True)
class DefectCertificate:
    """Subspace E with dim V[E] = dim E - defect; bounds ncrank by n - defect."""

    E: Subspace
    defect: int

    def to_json(self):
        return {"E": self.E.to_json(), "defect": self.defect}


def blow_up(V: MatrixSpace, r: int) -> BlowUp:
    """Basis {B (x) E_kl} of V (x) M_r."""
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
                cells.append(b.kron(unit))
    return BlowUp(V, r, tuple(cells))


def _sample_blowup(V: MatrixSpace, r: int, sampler: GenericSampler) -> Mat:
    """Random integer element sum_B B (x) C_B of V (x) M_r, C_B drawn row by row.

    One pass over the integer basis rows: row (i, k) of the element is the
    sum over B of the Kronecker product of row i of B with row k of C_B.
    """
    terms = [
        (b, [[sampler.coefficient() for _ in range(r)] for _ in range(r)])
        for b in V.int_basis
    ]
    rows = []
    for i in range(V.m):
        for k in range(r):
            acc = [0] * (V.n * r)
            for b, c in terms:
                acc = list(map(add, acc, [x * y for x in b[i] for y in c[k]]))
            rows.append(tuple(acc))
    return Mat.from_int_rows(tuple(rows), V.den, V.n * r)


def _check_blowup_budget(V: MatrixSpace, r: int):
    if max(V.m, V.n) * r > BLOWUP_DIM_BUDGET:
        raise BudgetExceededError(
            f"blow-up side {max(V.m, V.n) * r} exceeds {BLOWUP_DIM_BUDGET}"
        )


def max_rank_blowup(V: MatrixSpace, r: int, sampler: GenericSampler) -> int:
    """Maximum sampled rank in V (x) M_r; asserted divisible by r."""
    value, _ = _max_rank_blowup_el(V, r, sampler)
    return value


def _max_rank_blowup_el(V: MatrixSpace, r: int, sampler: GenericSampler):
    _check_blowup_budget(V, r)
    if V.dim == 0:
        return 0, Mat.zeros(V.m * r, V.n * r)
    best = -1
    best_el = None
    for _ in range(sampler.trials):
        el = _sample_blowup(V, r, sampler)
        rk = el.rank()
        if rk > best:
            best, best_el = rk, el
    extra = 0
    while best % r != 0 and extra < 2 * sampler.trials:
        el = _sample_blowup(V, r, sampler)
        rk = el.rank()
        if rk > best:
            best, best_el = rk, el
        extra += 1
    if best % r != 0:
        raise CertificationError(
            f"sampled blow-up maximum {best} is not divisible by {r}"
        )
    return best, best_el


# ---------------------------------------------------------------------------
# dual witness search


def _candidate_subspaces(V: MatrixSpace, sampler: GenericSampler):
    """Shrunk-subspace candidates: coordinate spans, kernels of samples,
    and their pairwise sums/intersections (depth 2)."""
    n = V.n
    seen = set()
    first: list[Subspace] = []

    def push(S):
        if S not in seen:
            seen.add(S)
            first.append(S)

    push(Subspace.zero(n))
    push(Subspace.full(n))
    if n <= 10:
        for size in range(1, n):
            for combo in combinations(range(n), size):
                push(Subspace.span(n, [unit_vec(n, i) for i in combo]))
    samples = [sample_element(V, sampler) for _ in range(min(sampler.trials, 8))]
    kernels = [a.kernel() for a in samples]
    for k in kernels:
        push(k)
    depth1 = list(first)
    for a, b in combinations(kernels, 2):
        push(subspace_sum(a, b))
        push(subspace_intersection(a, b))
    for k in kernels:
        for c in depth1:
            push(subspace_sum(k, c))
            push(subspace_intersection(k, c))
    return first


def _defect_search(V: MatrixSpace, sampler: GenericSampler) -> DefectCertificate:
    """Best defect certificate available.

    Exact (from the minimum cover of the matroid intersection) when the
    space records its rank-one generators; otherwise the best candidate
    from the witness pool.  Either
    way the certified defect is genuine; only maximality may be unproved.
    """
    R = V.source_relation()
    if R is not None:
        cover = min_cover(R)
        E = cover.E.orthocomplement()
        defect = E.dim - apply_space(V, E).dim
        if defect != V.n - cover.size:
            raise InvariantViolation("cover conversion produced the wrong defect")
        return DefectCertificate(E, defect)
    best = DefectCertificate(Subspace.zero(V.n), 0)
    for E in _candidate_subspaces(V, sampler):
        defect = E.dim - apply_space(V, E).dim
        if defect > best.defect:
            best = DefectCertificate(E, defect)
    return best


def cover_from_defect(V: MatrixSpace, cert: DefectCertificate) -> Cover:
    """The matrix-sense cover (E^perp, V[E]) of size n - defect."""
    E = cert.E.orthocomplement()
    F = apply_space(V, cert.E)
    return Cover(E, F)


def verify_matrix_cover(V: MatrixSpace, c: Cover) -> bool:
    """V[E^perp] inside F."""
    return c.F.contains_subspace(apply_space(V, c.E.orthocomplement()))


def ncrank(
    V: MatrixSpace,
    sampler: GenericSampler,
    r_max: int | None = None,
) -> CertifiedValue:
    """Noncommutative rank with primal blow-up element and defect dual.

    Escalates the blow-up order until the sampled rank meets r times the
    dual bound n - d; the guarantee that this happens is at r = n - 1.
    """
    n = V.n
    _check_blowup_budget(V, 1)
    dual = _defect_search(V, sampler)
    bound = n - dual.defect
    if r_max is None:
        r_max = max(1, n - 1)
    best_value = 0
    best_witness = (1, Mat.zeros(V.m, V.n))
    for r in range(1, r_max + 1):
        try:
            rank_r, el = _max_rank_blowup_el(V, r, sampler)
        except BudgetExceededError:
            break
        if rank_r == r * bound:
            return CertifiedValue(bound, (r, el), dual, PROVED)
        if rank_r // r > best_value:
            best_value = rank_r // r
            best_witness = (r, el)
    return CertifiedValue(best_value, best_witness, dual, LOWER_BOUND_ONLY)


def has_full_ncrank(V: MatrixSpace, sampler: GenericSampler):
    """(True, rank-rn blow-up element) or (False, shrunk-subspace witness)."""
    if V.m != V.n:
        raise DimensionError("full noncommutative rank is for square spaces")
    cv = ncrank(V, sampler)
    if cv.dual.defect > 0:
        return False, cv.dual
    if cv.proved and cv.value == V.n:
        return True, cv.primal
    raise CertificationError(
        "no shrunk subspace found but sampling did not reach full blow-up rank"
    )


def matrix_min_cover(V: MatrixSpace, sampler: GenericSampler) -> CertifiedValue:
    """Best cover found, proved minimal when it meets the blow-up rank."""
    cv = ncrank(V, sampler)
    dual: DefectCertificate = cv.dual
    cover = cover_from_defect(V, dual)
    if not verify_matrix_cover(V, cover):
        raise InvariantViolation("defect conversion is not a cover")
    status = PROVED if cv.proved and cover.size == cv.value else LOWER_BOUND_ONLY
    return CertifiedValue(cover.size, cover, cv.primal, status)


def matrix_antichain(
    V: MatrixSpace, sampler: GenericSampler, cov: CertifiedValue | None = None
) -> Subspace:
    """Largest subspace C with P V P = 0, for a nilpotent algebra V.

    Read off a minimum cover as (E + F)^perp; checked by apply_space(V, C)
    being orthogonal to C.  `cov`, when given, is the `matrix_min_cover` of
    V, which the caller has already checked to be a nilpotent algebra.
    """
    if cov is None:
        if not is_nilpotent_algebra(V):
            raise ValueError("matrix antichains are defined for nilpotent algebras")
        cov = matrix_min_cover(V, sampler)
    cover: Cover = cov.primal
    C = subspace_sum(cover.E, cover.F).orthocomplement()
    perp = C.orthocomplement()
    if not perp.contains_subspace(apply_space(V, C)):
        raise InvariantViolation("cover conversion is not a matrix antichain")
    if cov.proved and C.dim != V.n - cov.value:
        raise InvariantViolation("antichain dimension differs from n - cover size")
    return C


def matrix_coherent_decomposition(
    V: MatrixSpace,
    r: int,
    sampler: GenericSampler,
    cov: CertifiedValue | None = None,
) -> CoherentDecomposition:
    """Coherent decomposition of F^{rn} relative to V (x) M_r.

    Samples a maximum-rank element of the blow-up (a nilpotent algebra
    again), and extracts its Jordan chains; the size is rn minus that rank,
    proved minimal when the rank meets r times the cover bound.  `cov`,
    when given, is the `matrix_min_cover` of V, which the caller has
    already checked to be a nilpotent algebra.
    """
    if cov is None and not is_nilpotent_algebra(V):
        raise ValueError("matrix Dilworth is stated for nilpotent algebras")
    n = V.n
    _check_blowup_budget(V, r)
    if cov is None:
        cov = matrix_min_cover(V, sampler)
    target = r * cov.value
    if V.dim == 0:
        A = Mat.zeros(n * r, n * r)
        chains = tuple((unit_vec(n * r, i), 1) for i in range(n * r))
        return CoherentDecomposition(A, chains)
    A = None
    for _ in range(sampler.trials):
        cand = _sample_blowup(V, r, sampler)
        if cand.rank() == target:
            A = cand
            break
    if A is None:
        raise CertificationError(
            f"no sampled blow-up element reached the cover bound {target}"
        )
    if not A.power(n).is_zero():
        raise InvariantViolation("blow-up of a nilpotent algebra is not nilpotent")
    chains = tuple(nilpotent_jordan_chains(A))
    D = CoherentDecomposition(A, chains)
    if D.size != n * r - target:
        raise InvariantViolation("matrix coherent decomposition has the wrong size")
    if not verify_coherent_decomposition(D):
        raise InvariantViolation("matrix coherent decomposition failed verification")
    return D


# ---------------------------------------------------------------------------
# matricial path capacity


def _mpc_space(V: MatrixSpace, E: Subspace, F: Subspace) -> MatrixSpace:
    """Routing space spanned by [[I, i],[p, 0]] and the embedded [[A,0],[0,0]]."""
    n = V.n
    iota = _inclusion(E, n)
    pi = _projection(F, n)
    base = block(
        [
            [Mat.identity(n), iota],
            [pi, Mat.zeros(pi.rows, iota.cols)],
        ]
    )
    ech = IntEchelon(base.rows * base.cols)
    ech.add(base.int_flat())
    generators = [base]
    for a in V.basis:
        em = block(
            [
                [a, Mat.zeros(n, iota.cols)],
                [Mat.zeros(pi.rows, n), Mat.zeros(pi.rows, iota.cols)],
            ]
        )
        if ech.add(em.int_flat()):
            generators.append(em)
    return MatrixSpace(n + pi.rows, n + iota.cols, generators)


def _separator_witness_search(V, E, F, sampler) -> Separator:
    """Smallest separator over a candidate pool of F~ containing F.

    For each F~, the minimal admissible E~ is F~^perp + E + V[F~^perp].
    """
    n = V.n
    pool = [S for S in _candidate_subspaces(V, sampler) if S.contains_subspace(F)]
    pool.append(Subspace.full(n))
    best = None
    for f_tilde in pool:
        f_perp = f_tilde.orthocomplement()
        e_tilde = subspace_sum(subspace_sum(f_perp, E), apply_space(V, f_perp))
        sep = Separator(e_tilde, f_tilde, E, F)
        if best is None or sep.size < best.size:
            best = sep
    return best


def verify_matrix_separator(V: MatrixSpace, sep: Separator) -> bool:
    """Matrix-sense condition: V[F~^perp] inside E~ (plus the subspace axioms)."""
    if not sep.E_tilde.contains_subspace(sep.E):
        return False
    if not sep.F_tilde.contains_subspace(sep.F):
        return False
    f_perp = sep.F_tilde.orthocomplement()
    if not sep.E_tilde.contains_subspace(f_perp):
        return False
    return sep.E_tilde.contains_subspace(apply_space(V, f_perp))


def mpc(
    V: MatrixSpace,
    E: Subspace,
    F: Subspace,
    sampler: GenericSampler,
    budget: int = DEFAULT_BUDGET,
) -> CertifiedValue:
    """Matricial path capacity: ncrank of the routing space minus n.

    The dual separator is exact for rank-one generated spaces (delegating
    to the relation-level separator), otherwise a witness search; the
    primal is a blow-up element of the routing space whose rank meets
    r(n + value).
    """
    if V.m != V.n:
        raise DimensionError("matricial path capacity needs a square space")
    n = V.n
    if E.ambient != n or F.ambient != n:
        raise DimensionError("E and F must live in the space's column space")
    R = V.source_relation()
    if R is not None:
        sep = min_separator(R, E, F, budget)
    else:
        sep = _separator_witness_search(V, E, F, sampler)
    if not verify_matrix_separator(V, sep):
        raise InvariantViolation("separator fails the matrix-sense conditions")
    w_space = _mpc_space(V, E, F)
    _check_blowup_budget(w_space, 1)
    bound = n + sep.size
    r_cap = max(1, w_space.n - 1)
    best_value = 0
    for r in range(1, r_cap + 1):
        try:
            rank_r, el = _max_rank_blowup_el(w_space, r, sampler)
        except BudgetExceededError:
            break
        if rank_r == r * bound:
            return CertifiedValue(sep.size, (r, el), sep, PROVED)
        best_value = max(best_value, rank_r // r - n)
    return CertifiedValue(best_value, None, sep, LOWER_BOUND_ONLY)

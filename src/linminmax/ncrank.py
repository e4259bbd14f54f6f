"""Noncommutative rank via blow-ups, with shrunk-subspace dual certificates.

The noncommutative rank of a matrix space V in M_{m,n} is (1/r) times the
maximum rank in the blow-up V (x) M_r, attained for every r >= n-1, and it
equals n - d where d is the largest defect dim E - dim V[E].  A defect
subspace is therefore a dual certificate: it bounds every blow-up rank by
r(n - d), while a sampled blow-up element of that rank is the primal.  For
r = 1 .. n - 1, as far as the blow-up side max(m, n) r stays within
BLOWUP_DIM_BUDGET, the loop below draws blow-up elements A through
`relation.best_sample` (the one sampler of V (x) M_r).  Each draw that
beats the best so far gets its dual: the slice span U' of the limit of its
second Wong sequence (`wong_limit`), which bounds every rank by
r(n - defect(U')).  The order is proved, and drawing stops, at the first
draw with rank A = r(n - defect(U')); an order that is not proved draws
all `trials` and keeps the dual of its first maximum.  The matricial path
capacity runs the same loop on the routing space of `menger`, with the
separator read off the same limit, and matrix Dilworth takes the Jordan
chains of a blow-up element through `dilworth.coherent_from_sample`.  An
unmet bound leaves the status at lower_bound_only, never at a wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificationError, DimensionError
from .exact_linalg import Mat, Subspace, subspace_sum
from .dilworth import CoherentDecomposition, coherent_from_sample
from .matching_cover import (
    LOWER_BOUND_ONLY,
    PROVED,
    CertifiedValue,
    Cover,
)
from .menger import _border, _mpc_space, wong_separator
from .relation import (
    GenericSampler,
    MatrixSpace,
    apply_space,
    best_sample,
    is_nilpotent_algebra,
    wong_limit,
)

BLOWUP_DIM_BUDGET = 64


@dataclass(frozen=True)
class DefectCertificate:
    """Subspace E with dim V[E] = dim E - defect; bounds ncrank by n - defect."""

    E: Subspace
    defect: int

    def to_json(self):
        return {"E": self.E.to_json(), "defect": self.defect}


def _check_blowup_budget(V: MatrixSpace, r: int):
    if max(V.m, V.n) * r > BLOWUP_DIM_BUDGET:
        raise CertificationError(
            f"blow-up side {max(V.m, V.n) * r} exceeds {BLOWUP_DIM_BUDGET}"
        )


def _orders(V: MatrixSpace) -> range:
    """Blow-up orders 1 .. n - 1 whose side stays within BLOWUP_DIM_BUDGET."""
    _check_blowup_budget(V, 1)
    return range(1, min(max(1, V.n - 1), BLOWUP_DIM_BUDGET // max(V.m, V.n, 1)) + 1)


def max_rank_blowup(V: MatrixSpace, r: int, sampler: GenericSampler) -> int:
    """Maximum sampled rank in V (x) M_r; asserted divisible by r."""
    value, _, _ = _max_rank_blowup_el(V, r, sampler, _defect_dual(V, r))
    return value


def _defect_dual(V: MatrixSpace, r: int):
    """el -> (defect certificate of its Wong limit, bound r(n - defect))."""

    def dual(el: Mat):
        E, image = wong_limit(V, r, el)
        cert = DefectCertificate(E, E.dim - image.dim)
        return cert, r * (V.n - cert.defect)

    return dual


def _max_rank_blowup_el(V: MatrixSpace, r: int, sampler: GenericSampler, dual):
    """(rank, element, cert) of `best_sample` with `dual`; rank divisible by r."""
    _check_blowup_budget(V, r)
    best, best_el, cert = best_sample(V, sampler, r, dual=dual)
    if best % r != 0:
        raise CertificationError(
            f"sampled blow-up maximum {best} is not divisible by {r}"
        )
    return best, best_el, cert


def ncrank(V: MatrixSpace, sampler: GenericSampler) -> CertifiedValue:
    """Noncommutative rank with primal blow-up element and defect dual.

    For each r of `_orders(V)`: sample A in V (x) M_r until rank A meets
    r(n - defect) for the defect certificate read off its own Wong limit,
    or the trials run out.  By the Wong-sequence theorem of Ivanyos,
    Karpinski, Qiao and Santha, a sample of maximum rank meets it, at
    r = n - 1 at the latest.
    """
    n = V.n
    dual = DefectCertificate(Subspace.zero(n), 0)
    best_value = 0
    best_witness = (1, Mat.zeros(V.m, V.n))
    for r in _orders(V):
        rank_r, el, cert = _max_rank_blowup_el(V, r, sampler, _defect_dual(V, r))
        if rank_r == r * (n - cert.defect):
            return CertifiedValue(rank_r // r, (r, el), cert, PROVED)
        if cert.defect > dual.defect:
            dual = cert
        if rank_r // r > best_value:
            best_value = rank_r // r
            best_witness = (r, el)
    return CertifiedValue(best_value, best_witness, dual, LOWER_BOUND_ONLY)


def has_full_ncrank(V: MatrixSpace, sampler: GenericSampler):
    """(True, rank-rn blow-up element) or (False, shrunk-subspace witness)."""
    if V.m != V.n:
        raise DimensionError("full noncommutative rank is for square spaces")
    return full_ncrank_verdict(V, ncrank(V, sampler))


def full_ncrank_verdict(V: MatrixSpace, cv: CertifiedValue):
    """`has_full_ncrank` read off an `ncrank(V, ...)` result, for square V."""
    if cv.dual.defect > 0:
        return False, cv.dual
    if cv.proved and cv.value == V.n:
        return True, cv.primal
    raise CertificationError(
        "no shrunk subspace found but sampling did not reach full blow-up rank"
    )


def matrix_min_cover(V: MatrixSpace, sampler: GenericSampler) -> CertifiedValue:
    """The cover (E^perp, V[E]) of the defect dual; proved when it meets the blow-up rank."""
    cv = ncrank(V, sampler)
    cover = Cover(cv.dual.E.orthocomplement(), apply_space(V, cv.dual.E))
    status = PROVED if cv.proved and cover.size == cv.value else LOWER_BOUND_ONLY
    return CertifiedValue(cover.size, cover, cv.primal, status)


def matrix_antichain(
    V: MatrixSpace, sampler: GenericSampler, cov: CertifiedValue | None = None
) -> Subspace:
    """Largest subspace C with P V P = 0, for a nilpotent algebra V.

    Read off a minimum cover as (E + F)^perp.  `cov`, when given, is V's
    `matrix_min_cover`.
    """
    if not is_nilpotent_algebra(V):
        raise ValueError("matrix antichains are defined for nilpotent algebras")
    if cov is None:
        cov = matrix_min_cover(V, sampler)
    return subspace_sum(cov.primal.E, cov.primal.F).orthocomplement()


def matrix_coherent_decomposition(
    V: MatrixSpace,
    r: int,
    sampler: GenericSampler,
    cov: CertifiedValue | None = None,
) -> CoherentDecomposition:
    """Coherent decomposition of F^{rn} relative to V (x) M_r.

    The Jordan chains of a sampled element of the blow-up (a nilpotent
    algebra again) of rank r times the cover bound, built by
    `coherent_from_sample`; its size is rn minus that rank.  `cov`, when
    given, is the `matrix_min_cover` of V.
    """
    if not is_nilpotent_algebra(V):
        raise ValueError("matrix Dilworth is stated for nilpotent algebras")
    _check_blowup_budget(V, r)
    if cov is None:
        cov = matrix_min_cover(V, sampler)
    return coherent_from_sample(V, r, r * cov.value, sampler)


# ---------------------------------------------------------------------------
# matricial path capacity


def _separator_dual(V: MatrixSpace, routing: MatrixSpace, E, F, r: int):
    """el -> (Wong separator, bound r(n + size)).

    The Wong separator meets the matrix-sense conditions by construction:
    X lies in F^perp, F~ = X^perp and E~ = X + E + V[X].
    """

    def dual(el: Mat):
        sep = wong_separator(V, routing, E, F, r, el)
        return sep, r * (V.n + sep.size)

    return dual


def mpc(
    V: MatrixSpace,
    E: Subspace,
    F: Subspace,
    sampler: GenericSampler,
) -> CertifiedValue:
    """Matricial path capacity: ncrank of the routing space minus n.

    For each r of `_orders(routing)`: a sampled element of the routing
    space's blow-up is the primal, and the separator read off its Wong
    limit the dual; drawing stops, proved, once the rank of a draw is
    r(n + size) for its own separator.
    """
    if V.m != V.n:
        raise DimensionError("matricial path capacity needs a square space")
    n = V.n
    if E.ambient != n or F.ambient != n:
        raise DimensionError("E and F must live in the space's column space")
    routing = _mpc_space(V, _border(E, F, n)[2])
    best_value = 0
    best_sep = None
    for r in _orders(routing):
        dual = _separator_dual(V, routing, E, F, r)
        rank_r, el, sep = _max_rank_blowup_el(routing, r, sampler, dual)
        if rank_r == r * (n + sep.size):
            return CertifiedValue(sep.size, (r, el), sep, PROVED)
        if best_sep is None or sep.size < best_sep.size:
            best_sep = sep
        best_value = max(best_value, rank_r // r - n)
    return CertifiedValue(best_value, None, best_sep, LOWER_BOUND_ONLY)

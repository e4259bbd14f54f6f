"""The one certificate verifier: what it rejects, how often a check calls it, what it imports."""

import ast
import copy
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from linminmax import dilworth, matching_cover, menger, ncrank, verify
from linminmax.dilworth import BiChain, BiChainDecomposition, CoherentDecomposition
from linminmax.matching_cover import Cover, Matching
from linminmax.menger import Separator
from linminmax.cli import (
    CHECKS,
    EXIT_BOUNDS,
    EXIT_PARSE,
    EXIT_PROVED,
    EXIT_VIOLATION,
    build_linorder_f4,
    build_menger_f7,
    build_skew3,
    main,
)
from linminmax.exact_linalg import Mat, Subspace, outer_sum, unit_vec
from linminmax.relation import (
    GenericSampler,
    MatrixSpace,
    Relation,
    routing_space,
    sample_element,
)
from conftest import blow_up, planted_rado_family, rand_mat, rand_subspace
from reference import space_contains, spanned, to_matrix_space

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
INSTANCES = {e["theorem"]: GOLDEN / e["instance"] for e in MANIFEST}


def _check(capsys, theorem, path):
    code = main(["check", theorem, str(path), "--output", "json", "--trials", "10"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured.out


# ---------------------------------------------------------------------------
# tampered certificates exit 1


def test_check_ncrank_rejects_an_element_outside_the_blowup(tmp_path, capsys, monkeypatch):
    """The identity has rank 6 = 2 * ncrank(skew3), but is not in skew3 (x) M_2."""
    path = tmp_path / "skew3.json"
    path.write_text(json.dumps(build_skew3().to_json()))
    original = ncrank.ncrank
    assert _check(capsys, "ncrank", path)[0] == EXIT_PROVED
    identity = lambda V, sampler: replace(original(V, sampler), primal=(2, Mat.identity(6)))
    monkeypatch.setattr(ncrank, "ncrank", identity)
    assert _check(capsys, "ncrank", path)[0] == EXIT_VIOLATION


def _shift(n: int) -> Mat:
    """The cyclic coordinate shift e_i -> e_{i+1 mod n}."""
    return Mat([[int(j == (i - 1) % n) for j in range(n)] for i in range(n)], n)


def test_check_matrix_dilworth_rejects_a_decomposition_outside_the_blowup(capsys, monkeypatch):
    """Conjugating by a shift keeps the chains a basis, but moves A out of V (x) M_r."""
    original = ncrank.matrix_coherent_decomposition

    def shifted(V, r, sampler, cov=None):
        D = original(V, r, sampler, cov)
        P = _shift(D.A.rows)
        A = P @ D.A @ P.transpose()
        return dilworth.CoherentDecomposition(A, tuple((P.apply(s), l) for s, l in D.chains))

    path = INSTANCES["matrix-dilworth"]
    monkeypatch.setattr(ncrank, "matrix_coherent_decomposition", shifted)
    code, out = _check(capsys, "matrix-dilworth", path)
    assert code == EXIT_VIOLATION
    assert json.loads(out)["coherent_count"] == 6  # the chains still count


def test_check_coherent_rejects_a_matrix_that_is_not_the_pair_sum(capsys, monkeypatch):
    """Conjugating by a shift keeps the chains a basis, but A is no longer the matching's sum."""
    original = dilworth.coherent_decomposition

    def shifted(matching):
        C = original(matching)
        P = _shift(C.A.rows)
        A = P @ C.A @ P.transpose()
        return dilworth.CoherentDecomposition(A, tuple((P.apply(s), l) for s, l in C.chains))

    path = INSTANCES["coherent"]
    code, out = _check(capsys, "coherent", path)
    assert code == EXIT_PROVED
    monkeypatch.setattr(dilworth, "coherent_decomposition", shifted)
    code, tampered = _check(capsys, "coherent", path)
    assert code == EXIT_VIOLATION
    # the chains still count, and they are still a basis
    assert json.loads(tampered)["coherent_count"] == json.loads(out)["coherent_count"] == 2
    R = Relation.from_json(json.loads(path.read_text()))
    assert verify.verify_coherent_decomposition(shifted(matching_cover.matroid_intersection(R)[0]))


def test_pair_sum_needs_distinct_indices_in_range():
    e = [unit_vec(2, i) for i in range(2)]
    R = Relation(2, 2, [(e[0], e[1]), (e[1], e[1])])
    A = outer_sum(R.pairs, 2, 2)
    assert verify.verify_pair_sum(R, (0, 1), A)
    assert verify.verify_pair_sum(R, (), Mat.zeros(2, 2))
    assert not verify.verify_pair_sum(R, (0,), A)
    assert not verify.verify_pair_sum(R, (0, 0), outer_sum(R.pairs[:1] * 2, 2, 2))
    assert not verify.verify_pair_sum(R, (-1,), outer_sum(R.pairs[1:], 2, 2))
    assert not verify.verify_pair_sum(R, (0, 2), A)


def test_check_hall_recomputes_the_witness_neighborhood(tmp_path, capsys, monkeypatch):
    """e_0 and e_1 both meet only w = e_0: S = span{e_0, e_1} has a 1-dimensional neighborhood."""
    e = [unit_vec(3, i) for i in range(3)]
    path = tmp_path / "hall.json"
    path.write_text(json.dumps(Relation(3, 3, [(e[0], e[0]), (e[1], e[0]), (e[2], e[1])]).to_json()))
    original = matching_cover.matroid_intersection

    def shrunk(R):
        matching, w = original(R)
        assert w.U == Subspace.span(3, e[:2]) and w.F.dim == 1
        return matching, replace(w, F=Subspace.zero(3))

    def unshrunk(R):
        # a true image of S = span{e_0}, but of the same dimension: no defect, so no witness
        matching, w = original(R)
        return matching, replace(w, U=Subspace.span(3, e[:1]), F=Subspace.span(3, e[:1]))

    assert _check(capsys, "hall", path)[0] == EXIT_PROVED
    monkeypatch.setattr(matching_cover, "matroid_intersection", shrunk)
    assert _check(capsys, "hall", path)[0] == EXIT_VIOLATION
    monkeypatch.setattr(matching_cover, "matroid_intersection", unshrunk)
    assert _check(capsys, "hall", path)[0] == EXIT_VIOLATION


def test_a_cover_must_be_exactly_the_image():
    """U = span{e_0, e_1} meets only w = e_0: F = span{e_0} and nothing larger or smaller."""
    e = [unit_vec(3, i) for i in range(3)]
    R = Relation(3, 3, [(e[0], e[0]), (e[1], e[0]), (e[2], e[1])])
    U = Subspace.span(3, e[:2])
    for V in (R, to_matrix_space(R)):
        assert verify.verify_cover(V, Cover(U, Subspace.span(3, e[:1])))
        # a cover with a larger F, but not the image of U
        assert not verify.verify_cover(V, Cover(U, Subspace.span(3, e[:2])))
        # F misses the image vector e_0
        assert not verify.verify_cover(V, Cover(U, Subspace.span(3, e[1:2])))
        assert not verify.verify_cover(V, Cover(U, Subspace.zero(3)))


def test_an_antichain_must_be_orthogonal_to_its_image():
    """Pairs (e_0, e_1), (e_1, e_2): C = span{e_0, e_1} has the image e_1, not orthogonal to C."""
    e = [unit_vec(3, i) for i in range(3)]
    R = Relation(3, 3, [(e[0], e[1]), (e[1], e[2])])
    for V in (R, to_matrix_space(R)):
        # span{e_0, e_2} meets only v = e_0, whose w = e_1 is orthogonal to it
        assert verify.verify_antichain(V, Subspace.span(3, [e[0], e[2]]))
        # the image e_2 of e_1 is orthogonal to C, but the image e_1 of e_0 is not
        assert not verify.verify_antichain(V, Subspace.span(3, e[:2]))


def test_relation_covers_and_antichains_take_no_complement(monkeypatch):
    """A relation's cover is read off its pairs, and an antichain C is tested against V[C] by products."""
    e = [unit_vec(3, i) for i in range(3)]
    R = Relation(3, 3, [(e[0], e[0]), (e[1], e[0]), (e[2], e[1])])

    def refused(self):
        raise AssertionError("orthocomplement taken")

    monkeypatch.setattr(Subspace, "orthocomplement", refused)
    U = Subspace.span(3, e[:2])
    assert verify.verify_cover(R, Cover(U, Subspace.span(3, e[:1])))
    assert not verify.verify_cover(R, Cover(U, Subspace.span(3, e[:2])))
    for V in (R, to_matrix_space(R)):
        assert verify.verify_antichain(V, Subspace.span(3, e[2:]))
        assert not verify.verify_antichain(V, Subspace.span(3, e[:1]))


def _tampered_primal(solver, tamper):
    """`solver` with its primal (r, el) replaced by a zero el or by order r + 1."""

    def tampered(*args):
        cv = solver(*args)
        r, el = cv.primal
        primal = (r, Mat.zeros(el.rows, el.cols)) if tamper == "zero" else (r + 1, el)
        return replace(cv, primal=primal)

    return tampered


@pytest.mark.parametrize("tamper", ["zero", "wrong order"])
@pytest.mark.parametrize("theorem, key", [("menger", "cpc"), ("matrix-menger", "mpc")])
def test_path_capacity_checks_verify_their_primal(theorem, key, tamper, capsys, monkeypatch):
    """The separator still meets the value, but the element behind it does not.

    The report stays the same but for its status, which says the check failed.
    """
    code, report = _check(capsys, theorem, INSTANCES[theorem])
    assert code == EXIT_PROVED
    assert json.loads(report)[key] == json.loads(report)["separator"]["size"]
    assert report.count('"status": "proved"') == 1
    failed = report.replace('"status": "proved"', '"status": "failed"')
    monkeypatch.setattr(menger, "mpc", _tampered_primal(menger.mpc, tamper))
    assert _check(capsys, theorem, INSTANCES[theorem]) == (EXIT_VIOLATION, failed)


@pytest.mark.parametrize("tamper", ["zero", "wrong order"])
def test_demo_menger_f7_verifies_its_primal(tamper, capsys, monkeypatch):
    """The demo's separator and bi-paths still hold, but the element behind its value does not."""
    argv = ["demo", "menger-f7", "--output", "json"]
    assert main(argv) == EXIT_PROVED
    report = capsys.readouterr().out
    monkeypatch.setattr(menger, "mpc", _tampered_primal(menger.mpc, tamper))
    assert main(argv) == EXIT_VIOLATION
    assert capsys.readouterr().out == report


def test_demo_linorder_f4_checks_its_antichain(capsys, monkeypatch):
    """A 2-dimensional antichain behind the value 3 fails the demo's Dilworth check."""
    original = Cover.antichain

    def shrunk(cover):
        C = original(cover)
        return Subspace.span(C.ambient, C.vectors[:2])

    monkeypatch.setattr(Cover, "antichain", shrunk)
    assert main(["demo", "linorder-f4", "--output", "json"]) == EXIT_VIOLATION
    assert json.loads(capsys.readouterr().out)["antichain_dim"] == 3


def _unit_pairs(R: Relation, indices) -> Relation:
    """A copy of R whose pairs at `indices` are (e_k, e_k), k = 0, 1, ...: independent there."""
    pairs = list(R.pairs)
    for k, i in enumerate(indices):
        pairs[i] = (unit_vec(R.n, k), unit_vec(R.m, k))
    return Relation(R.n, R.m, pairs)


def test_check_konig_reads_the_matching_against_the_instance(capsys, monkeypatch):
    """Pairs 0, 1 and 4 of the instance have dependent v's (v_4 = 2 v_0 - v_1)."""
    original = matching_cover.matroid_intersection

    def tailored(R):
        return Matching(_unit_pairs(R, (0, 1, 4)), (0, 1, 4)), original(R)[1]

    monkeypatch.setattr(matching_cover, "matroid_intersection", tailored)
    code, out = _check(capsys, "konig", INSTANCES["konig"])
    assert code == EXIT_VIOLATION
    assert json.loads(out)["matching"] == [0, 1, 4]


def test_check_hall_reads_the_matching_against_the_instance(capsys, monkeypatch):
    """The instance has no saturated matching: every v is orthogonal to (0, 1, 1)."""
    assert _check(capsys, "hall", INSTANCES["hall"])[0] == EXIT_PROVED
    original = matching_cover.matroid_intersection
    monkeypatch.setattr(
        matching_cover,
        "matroid_intersection",
        lambda R: (Matching(_unit_pairs(R, (0, 1, 2)), (0, 1, 2)), original(R)[1]),
    )
    code, out = _check(capsys, "hall", INSTANCES["hall"])
    assert code == EXIT_VIOLATION
    assert json.loads(out)["matching"] == [0, 1, 2]


def test_check_dilworth_reads_the_bichains_against_the_instance(capsys, monkeypatch):
    """Bi-chains of the instance under a coordinate shift, a linorder with the same antichain size."""
    original = dilworth.bichain_decomposition

    def shifted(matching):
        R = matching.relation
        P = _shift(R.n)
        moved = Relation(R.n, R.n, [(P.apply(v), P.apply(w)) for v, w in R.pairs])
        return original(matching_cover.matroid_intersection(moved)[0])

    code, out = _check(capsys, "dilworth", INSTANCES["dilworth"])
    assert code == EXIT_PROVED
    monkeypatch.setattr(dilworth, "bichain_decomposition", shifted)
    code, tampered = _check(capsys, "dilworth", INSTANCES["dilworth"])
    assert code == EXIT_VIOLATION
    assert json.loads(tampered)["bichain_count"] == json.loads(out)["bichain_count"]


def test_check_dilworth_reports_a_cyclic_bijection_as_a_failed_decomposition(capsys, monkeypatch):
    """phi swapping the two matched indices leaves that cycle out of every walk.

    The walks from the unmatched starts still end, and the decomposition
    misses the cycle's vectors, so the count in `verify_bichain_decomposition`
    rejects it: exit 1 with a report, not an error.
    """
    monkeypatch.setattr(
        dilworth, "_perfect_nonorthogonal_bijection", lambda ws, vs: [1, 0, *range(2, len(ws))]
    )
    code, out = _check(capsys, "dilworth", INSTANCES["dilworth"])
    report = json.loads(out)
    assert code == EXIT_VIOLATION and "error" not in report
    assert report["antichain_dim"] == 3 and report["chain_lengths"] == [1, 1, 1]


def test_check_menger_reads_the_separator_against_the_instance(capsys, monkeypatch):
    """A minimum separator from a line of E, of the same size, that leaves the rest of E out."""
    original = menger.mpc

    def narrowed(R, E, F, routing, sampler):
        line = Subspace.span(E.ambient, E.vectors[:1])
        cv = original(R, E, F, routing, sampler)
        return replace(cv, dual=original(R, line, F, routing_space(R, line, F), sampler).dual)

    assert _check(capsys, "menger", INSTANCES["menger"])[0] == EXIT_PROVED
    monkeypatch.setattr(menger, "mpc", narrowed)
    code, out = _check(capsys, "menger", INSTANCES["menger"])
    assert code == EXIT_VIOLATION
    assert json.loads(out)["separator"]["size"] == json.loads(out)["cpc"] == 1


# ---------------------------------------------------------------------------
# a kept complement is confirmed before it is read; a verified gap exits 2


def _skew(n: int, side: int) -> MatrixSpace:
    """The n x n skew-symmetric matrices, padded with zeros to side x side."""

    def e(i, j):
        rows = [[int((a, b) == (i, j)) - int((a, b) == (j, i)) for b in range(side)] for a in range(side)]
        return Mat(rows, side)

    return MatrixSpace(side, side, [e(i, j) for i in range(n) for j in range(i + 1, n)])


def _smaller(S: Subspace) -> Subspace:
    """S without its last basis row."""
    return Subspace.span(S.ambient, S.vectors[:-1])


def _larger(S: Subspace) -> Subspace:
    """S with the first unit vector outside it, if any: then its complement loses a dimension."""
    units = (unit_vec(S.ambient, i) for i in range(S.ambient))
    return Subspace.span(S.ambient, S.vectors + tuple(u for u in units if not S.contains(u))[:1])


def _space_file(tmp_path, V: MatrixSpace):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(V.to_json()))
    return path


def test_verify_cover_rejects_a_smaller_E():
    """skew15 has ncrank 15, so no cover of size 14 exists: a larger U, a smaller E = U^perp, is refused."""
    V = _skew(15, 15)
    cover = ncrank.ncrank(V, GenericSampler(seed=0)).dual
    assert verify.verify_cover(V, cover)
    larger = replace(cover, U=_larger(cover.U))
    assert larger.size == 14
    assert not verify.verify_cover(V, larger)


def test_verify_antichain_rejects_a_larger_C():
    """Every subspace of an antichain is one; no subspace beyond a maximum antichain is."""
    R = build_linorder_f4()
    C = matching_cover.matroid_intersection(R)[1].antichain()
    outside = [u for u in (unit_vec(C.ambient, i) for i in range(C.ambient)) if not C.contains(u)]
    assert outside
    for V in (R, to_matrix_space(R)):
        assert verify.verify_antichain(V, C)
        assert verify.verify_antichain(V, _smaller(C))
        for u in outside:
            assert not verify.verify_antichain(V, Subspace.span(C.ambient, C.vectors + (u,)))


def test_verify_separator_rejects_a_smaller_F_tilde():
    """A smaller F~ = X^perp, that is a larger X, is refused."""
    R, E, _ = build_menger_f7()
    F = Subspace.span(7, [unit_vec(7, 5)])
    for V in (R, to_matrix_space(R)):
        sep = menger.mpc(V, E, F, routing_space(V, E, F), GenericSampler(seed=0)).dual
        assert verify.verify_separator(V, E, F, sep)
        assert not verify.verify_separator(V, E, F, replace(sep, X=_larger(sep.X)))


def test_verify_separator_checks_each_condition():
    """On menger-f7, each condition alone refuses a separator (E~, X) that meets the others."""
    R, E, F = build_menger_f7()
    e = [unit_vec(7, i) for i in range(7)]
    span = lambda *vs: Subspace.span(7, vs)
    for V in (R, to_matrix_space(R)):
        cases = [
            # E inside E~
            (span(*e[1:]), Subspace.zero(7), False),
            # F orthogonal to X, with E~ = F^7 for the rest
            (Subspace.full(7), span(e[0]), True),
            (Subspace.full(7), span(e[5]), False),
            # X inside E~: X = span{e_2} is orthogonal to F, and V[X] = 0
            (span(*e[:3]), span(e[2]), True),
            (E, span(e[2]), False),
            # V[X] inside E~: X = span{e_3 + e_4} meets only v = e_3 + e_4, whose w is e_5
            (span(e[0], e[1], e[3] + e[4], e[5]), span(e[3] + e[4]), True),
            (span(e[0], e[1], e[3] + e[4]), span(e[3] + e[4]), False),
        ]
        for e_tilde, X, holds in cases:
            assert verify.verify_separator(V, E, F, Separator(e_tilde, X)) == holds


@pytest.mark.parametrize("theorem", ["ncrank", "matrix-konig"])
def test_a_cover_with_a_smaller_E_exits_1(theorem, tmp_path, capsys, monkeypatch):
    """Each cover's E = U^perp loses a dimension, as U gains one.

    The value 15 outgrows a cover of 14 that is not one.
    """
    path = _space_file(tmp_path, _skew(15, 15))
    assert _check(capsys, theorem, path)[0] == EXIT_PROVED
    original = ncrank._defect_bound

    def smaller_bound(V):
        certify = original(V)

        def smaller(r, el):
            cover, _ = certify(r, el)
            cover = replace(cover, U=_larger(cover.U))
            return cover, cover.size

        return smaller

    monkeypatch.setattr(ncrank, "_defect_bound", smaller_bound)
    assert _check(capsys, theorem, path)[0] == EXIT_VIOLATION


def test_a_verified_gap_exits_2(tmp_path, capsys):
    """skew3 padded to 33 x 33: order 2 would have side 66 > 64, and order 1 reaches rank 2 < 3."""
    path = _space_file(tmp_path, _skew(3, 33))
    code, out = _check(capsys, "ncrank", path)
    report = json.loads(out)
    assert code == EXIT_BOUNDS
    assert (report["status"], report["ncrank"], report["defect"]) == ("lower_bound_only", 2, 30)
    code, out = _check(capsys, "matrix-konig", path)
    report = json.loads(out)
    assert code == EXIT_BOUNDS
    assert (report["status"], report["cover_size"]) == ("lower_bound_only", 3)


def test_check_matrix_konig_verifies_the_element_behind_a_bound(tmp_path, capsys, monkeypatch):
    path = _space_file(tmp_path, _skew(3, 33))
    original = ncrank.ncrank

    def zero_element(V, sampler):
        cv = original(V, sampler)
        r, el = cv.primal
        return replace(cv, primal=(r, Mat.zeros(el.rows, el.cols)))

    monkeypatch.setattr(ncrank, "ncrank", zero_element)
    assert _check(capsys, "matrix-konig", path)[0] == EXIT_VIOLATION


# ---------------------------------------------------------------------------
# one verification per certificate

PREDICATES = {
    name: fn
    for name, fn in vars(verify).items()
    if callable(fn) and getattr(fn, "__module__", None) == verify.__name__ and not name.startswith("_")
}

CERTIFICATES = {
    "konig": ["verify_cover", "verify_matching"],
    "hall": ["verify_cover"],
    "rado": ["verify_rado_report"],
    "dilworth": ["verify_antichain", "verify_bichain_decomposition"],
    "coherent": ["verify_antichain", "verify_coherent_decomposition", "verify_pair_sum"],
    "menger": ["verify_blowup_element", "verify_separator"],
    "lgv": [],
    "ncrank": ["verify_blowup_element", "verify_cover"],
    "matrix-konig": ["verify_blowup_element", "verify_cover"],
    "matrix-dilworth": ["verify_antichain", "verify_coherent_decomposition"],
    "matrix-menger": ["verify_blowup_element", "verify_separator"],
}


def test_every_theorem_names_its_certificates():
    assert sorted(CERTIFICATES) == sorted(CHECKS)


@pytest.mark.parametrize(
    "linear, matrix, predicate",
    [
        ("konig", "matrix-konig", "verify_cover"),
        ("dilworth", "matrix-dilworth", "verify_antichain"),
        ("menger", "matrix-menger", "verify_separator"),
        ("hall", "ncrank", "verify_cover"),
    ],
)
def test_relation_and_matrix_theorems_share_their_predicate(linear, matrix, predicate):
    assert predicate in CERTIFICATES[linear] and predicate in CERTIFICATES[matrix]


@pytest.mark.parametrize("theorem", sorted(CERTIFICATES))
def test_golden_checks_verify_each_certificate_once(theorem, capsys, monkeypatch):
    calls = []
    for name, fn in PREDICATES.items():

        def counting(*args, name=name, fn=fn, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)
    assert _check(capsys, theorem, INSTANCES[theorem])[0] == EXIT_PROVED
    assert sorted(calls) == CERTIFICATES[theorem]


# ---------------------------------------------------------------------------
# a certificate of the wrong ambient dimension is invalid, never an error


def _ambient_cases():
    """(predicate, arguments): instances on F^2, certificates one dimension too large."""
    e2, e3 = (lambda i: unit_vec(2, i)), (lambda i: unit_vec(3, i))
    R = Relation(2, 2, [(e2(0), e2(1))])
    V = to_matrix_space(R)
    zero, full3 = Subspace.zero(2), Subspace.full(3)
    stray = BiChain((e3(0),), (e3(0),), ())
    cases = [
        ("verify_cover", (Cover(full3, zero),)),
        ("verify_cover", (Cover(zero, full3),)),
        ("verify_antichain", (full3,)),
        ("verify_separator", (zero, zero, Separator(full3, full3))),
    ]
    out = [(name, (inst,) + args) for name, args in cases for inst in (R, V)]
    chains3 = CoherentDecomposition(Mat.zeros(3, 3), tuple((e3(i), 1) for i in range(3)))
    return out + [
        ("verify_bichain_decomposition", (R, BiChainDecomposition((stray, stray)))),
        ("verify_pair_sum", (R, (0,), Mat.zeros(3, 3))),
        ("verify_coherent_decomposition", (CoherentDecomposition(Mat.zeros(2, 2), ((e3(0), 2),)),)),
        ("verify_coherent_decomposition", (chains3, V, 1)),
        ("verify_blowup_element", (V, 1, Mat.zeros(3, 3), 0)),
        ("verify_rado_report", ([[e2(0)]], 2, [e3(0)], None)),
        ("independent_bipaths_check", (R, zero, zero, [stray])),
    ]


AMBIENT_CASES = _ambient_cases()


def test_ambient_cases_cover_every_predicate():
    """Each predicate is exercised, except `verify_matching`, whose certificate is indices."""
    assert {name for name, _ in AMBIENT_CASES} == set(PREDICATES) - {"verify_matching"}


@pytest.mark.parametrize("name, args", AMBIENT_CASES, ids=[n for n, _ in AMBIENT_CASES])
def test_a_wrong_ambient_dimension_is_false(name, args):
    assert getattr(verify, name)(*args) is False


# ---------------------------------------------------------------------------
# membership in a blow-up, slice by slice


def test_blowup_membership_agrees_with_the_blown_up_basis(rng):
    for r in (1, 2, 3):
        for trial in range(5):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            V = spanned(m, n, [rand_mat(rng, m, n, 2) for _ in range(rng.randint(0, 2))])
            big = blow_up(V, r).space
            A = sample_element(V, GenericSampler(seed=trial, coeff_bound=20), r)
            rows = [list(row) for row in A.int_rows()]
            rows[rng.randrange(m * r)][rng.randrange(n * r)] += 1
            for el in (A, Mat.from_int_rows(tuple(map(tuple, rows)), A.den, n * r)):
                assert space_contains(V, el, r) == space_contains(big, el)
            assert space_contains(V, A, r)


# ---------------------------------------------------------------------------
# the exit-code contract under malformed input

BAD_VALUES = ["1/0", "x", "", 1.5, None, True, [], {}, -1, -7, 10**9, [["1/0"]], "-3"]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(rng, data):
    """One change: a bad or huge value, or a deleted key, somewhere in the instance."""
    data = copy.deepcopy(data)
    path = rng.choice(list(_paths(data))[1:])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(BAD_VALUES)
    return data


def test_malformed_instances_never_exit_1(tmp_path, capsys):
    rng = random.Random(20261018)
    golden = {t: json.loads(p.read_text()) for t, p in INSTANCES.items()}
    theorems = sorted(golden)
    path = tmp_path / "instance.json"
    seen = set()
    for _ in range(150):
        source = rng.choice(theorems)
        if rng.random() < 0.15:
            theorem, data = rng.choice(theorems), golden[source]
        else:
            theorem, data = source, _mutate(rng, golden[source])
        path.write_text(json.dumps(data))
        code, out = _check(capsys, theorem, path)
        assert code in (EXIT_PROVED, EXIT_BOUNDS, EXIT_PARSE), (theorem, data, out)
        json.loads(out)
        seen.add(code)
    assert {EXIT_PROVED, EXIT_PARSE} <= seen


# ---------------------------------------------------------------------------
# the verifier depends on the kernels only


def test_verify_imports_only_the_kernels():
    tree = ast.parse(Path(verify.__file__).read_text())
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            inside.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] in sys.stdlib_module_names for a in node.names)
    assert inside <= {"exact_linalg", "relation", "errors"}


# ---------------------------------------------------------------------------
# no predicate takes a complement or a kernel


def _corpus_sample(tmp_path):
    """The argvs of seeded small checks of every theorem but lgv: relations with and without
    a saturating matching, linorders and their spaces, random matrix spaces, path
    instances on both, and Rado families with a planted plane."""
    from linminmax import cli

    out = []

    def add(theorems, data, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        out.extend(["check", t, str(path), "--trials", "10"] for t in theorems)

    for seed in range(4):
        rng = random.Random(seed)
        n = 3 + seed
        subspaces = {k: rand_subspace(rng, n, 2).to_json() for k in "EF"}
        for r in (n - 2, 2 * n):
            data = cli.gen_relation(rng, n, n, r)
            add(["konig", "hall", "menger"], dict(data, **subspaces), f"relation-{seed}-{r}")
        linorder = Relation.from_json(cli.gen_linorder(rng, n))
        add(["dilworth", "coherent"], linorder.to_json(), f"linorder-{seed}")
        add(["matrix-dilworth", "ncrank"], to_matrix_space(linorder).to_json(), f"linspace-{seed}")
        space = cli.gen_matrixspace(rng, n, n, 2)
        add(["ncrank", "matrix-konig", "matrix-menger"], dict(space, **subspaces), f"space-{seed}")
        sets = planted_rado_family(rng, n, n + 1)
        add(["rado"], {"m": n + 1, "sets": [[v.to_json() for v in s] for s in sets]}, f"rado-{seed}")
    return out


def test_no_predicate_takes_a_complement_or_a_kernel(tmp_path, capsys, monkeypatch):
    """Over the golden checks, the demos and a seeded sample, no call to a `verify` predicate
    reaches `Subspace.orthocomplement`, `Mat.kernel` or `int_kernel`, while the checks
    around them still do."""
    from linminmax import exact_linalg, relation

    inside, taken, outside, ran = [], [], [], set()

    def watched(name, fn):
        def call(*args, **kwargs):
            (taken if inside else outside).append((tuple(inside), name))
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(Subspace, "orthocomplement", watched("orthocomplement", Subspace.orthocomplement))
    monkeypatch.setattr(Mat, "kernel", watched("Mat.kernel", Mat.kernel))
    for module in (exact_linalg, relation):
        monkeypatch.setattr(module, "int_kernel", watched("int_kernel", module.int_kernel))
    for name, fn in PREDICATES.items():

        def predicate(*args, name=name, fn=fn, **kwargs):
            inside.append(name)
            ran.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(verify, name, predicate)
    runs = [["check", e["theorem"], str(GOLDEN / e["instance"])] for e in MANIFEST]
    runs += [["demo", d] for d in ("linorder-f4", "menger-f7", "skew3")]
    runs += _corpus_sample(tmp_path)
    codes = []
    for argv in runs:
        codes.append(main(argv))
        capsys.readouterr()
    assert taken == []
    assert codes == [EXIT_PROVED] * len(runs)
    assert ran == set(PREDICATES)
    assert {name for _, name in outside} == {"orthocomplement", "Mat.kernel", "int_kernel"}

"""The routing space held as its generators, against the dense padded span it stands for.

`relation.routing_space` keeps the border [[I, i],[p, 0]] and V's own
generators embedded top-left, with no elimination, and a draw on it carries
its coefficients.  `reference.dense_routing_space` is the same list padded
and eliminated.  The images, the draws and the membership by coefficients
must agree with it, on relations with repeated and zero-vector pairs, on
matrix spaces, for E = F = 0 with the border I inside V, at n = 0 and at
orders r > 1.  A tampered primal makes the path checks exit 1.
"""

import json
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from linminmax import menger, verify
from linminmax.cli import EXIT_PROVED, EXIT_VIOLATION, main
from linminmax.exact_linalg import Mat, Subspace, Vec, unit_vec
from linminmax.relation import (
    Draw,
    GenericSampler,
    MatrixSpace,
    Relation,
    apply_space,
    routing_space,
    sample_element,
)
from conftest import rand_mat, rand_relation, rand_subspace, rand_vec
from reference import dense_routing_space, space_contains, spanned, to_matrix_space, top_left

GOLDEN = Path(__file__).parent / "golden"


def _cases(rng):
    """(V, E, F): seeded relations and spaces, and the edge cases named in the module docstring."""
    e = [unit_vec(3, i) for i in range(3)]
    zero3 = Subspace.zero(3)
    units = [Mat([[int(i == j == k) for j in range(3)] for i in range(3)]) for k in range(3)]
    yield Relation(0, 0, []), Subspace.zero(0), Subspace.zero(0)
    yield Relation(0, 0, [(Vec([]), Vec([]))]), Subspace.zero(0), Subspace.zero(0)
    yield MatrixSpace(0, 0, []), Subspace.zero(0), Subspace.zero(0)
    yield Relation(3, 3, [(x, x) for x in e]), zero3, zero3  # the border I lies in V
    yield MatrixSpace(3, 3, units), zero3, zero3  # the same, as a space
    o = Vec([0] * 3)
    yield Relation(3, 3, [(e[0], e[1]), (e[0], e[1]), (o, e[2]), (e[2], o)]), zero3, zero3
    for k in range(40):
        n = rng.randint(1, 4)
        E, F = rand_subspace(rng, n, max_dim=2), rand_subspace(rng, n, max_dim=2)
        if k % 4 == 3:
            gens = [rand_mat(rng, n, n, 1) for _ in range(rng.randint(0, 3))]
            yield spanned(n, n, gens), E, F
            continue
        pairs = list(rand_relation(rng, n, n, rng.randint(0, 5), bound=1).pairs)
        if pairs and k % 2:
            pairs.append(rng.choice(pairs))  # a repeated pair
        if k % 3 == 0:
            pairs.insert(rng.randint(0, len(pairs)), (Vec([0] * n), rand_vec(rng, n)))
        yield Relation(n, n, pairs), E, F


def test_images_agree_with_the_dense_routing_space(rng):
    """V[U] read off the border and V equals the image under the eliminated span."""
    for V, E, F in _cases(rng):
        routing, dense = routing_space(V, E, F), dense_routing_space(V, E, F)
        assert (routing.m, routing.n) == (dense.m, dense.n)
        for _ in range(4):
            U = rand_subspace(rng, routing.n)
            assert apply_space(routing, U) == apply_space(dense, U)


def test_draws_lie_in_the_dense_routing_space_and_verify_by_their_coefficients(rng):
    """A draw at r = 1, 2, 3 lies in the dense space (x) M_r and passes `verify`.

    Where no generator depends on the others, it is the draw the dense space
    gives from the same seed, and the dense draw with its coefficients passes
    on the routing space too.
    """
    independent = dependent = 0
    for seed, (V, E, F) in enumerate(_cases(rng)):
        routing, dense = routing_space(V, E, F), dense_routing_space(V, E, F)
        for r in (1, 2, 3):
            el = sample_element(routing, GenericSampler(seed=seed), r)
            assert len(getattr(el, "coeffs", ())) == len(routing.int_basis)
            assert space_contains(dense, el, r)
            assert verify.verify_blowup_element(routing, r, el, el.rank())
            assert not verify.verify_blowup_element(routing, r, el, el.rank() + 1)
            ref = sample_element(dense, GenericSampler(seed=seed), r)
            assert verify.verify_blowup_element(dense, r, ref, ref.rank())
            if len(routing.int_basis) == dense.dim:
                independent += 1
                assert el == ref and getattr(el, "coeffs", ()) == getattr(ref, "coeffs", ())
                assert verify.verify_blowup_element(routing, r, ref, ref.rank())
            else:
                dependent += 1
                assert not verify.verify_blowup_element(dense, r, el, el.rank())
    assert independent >= 60 and dependent >= 20


def test_spaces_without_generators_draw_the_empty_sum():
    """At n = 0 the border and every generator are 0 x 0, and a zero space has no basis.

    Nothing is drawn, and the zero matrix, the empty sum, is the one element accepted.
    """
    zero = Subspace.zero(0)
    spaces = [routing_space(V, zero, zero) for V in (Relation(0, 0, []), MatrixSpace(0, 0, []))]
    for V in spaces + [MatrixSpace(2, 3, [])]:
        assert V.int_basis == ()
        for r in (1, 2):
            el = sample_element(V, GenericSampler(seed=r), r)
            assert el == Mat.zeros(V.m * r, V.n * r)
            assert verify.verify_blowup_element(V, r, el, 0)
            if V.m:
                corner = [[int(i == j == 0) for j in range(V.n * r)] for i in range(V.m * r)]
                assert not verify.verify_blowup_element(V, r, _redrawn(Mat(corner), ()), 1)


def test_coefficients_of_the_wrong_count_or_shape_are_refused(rng):
    """One C_B per generator, each r x r: a draw whose sum still holds but that
    carries extra zero coefficients, or a C_B short of a row or of an entry, fails
    and raises nothing."""
    for seed, (V, E, F) in enumerate(_cases(rng)):
        routing = routing_space(V, E, F)
        if not routing.int_basis:
            continue
        for r in (1, 2):
            el = sample_element(routing, GenericSampler(seed=seed), r)
            zero = [[0] * r for _ in range(r)]
            short_row = el.coeffs[0][:-1] + [el.coeffs[0][-1][:-1]]
            for coeffs in (
                el.coeffs + [zero],
                el.coeffs + [zero, zero],
                [el.coeffs[0][:-1]] + el.coeffs[1:],
                [short_row] + el.coeffs[1:],
            ):
                assert not verify.verify_blowup_element(routing, r, _redrawn(el, coeffs), el.rank())
            assert verify.verify_blowup_element(routing, r, _redrawn(el, el.coeffs), el.rank())


def _redrawn(M: Mat, coeffs) -> Draw:
    """The matrix M as a draw that carries `coeffs`."""
    out = Draw.from_int_rows(M.int_rows(), M.den, M.cols)
    object.__setattr__(out, "coeffs", coeffs)
    return out


def _tamper(kind, V, E, F, el):
    """`el`, order 1, tampered as `kind` says; the last two leave the dense routing space."""
    n = V.n
    rows = [list(row) for row in el.int_rows()]
    if kind == "entry":
        rows[0][0] += el.den
        return _redrawn(Mat.from_int_rows(tuple(map(tuple, rows)), el.den, el.cols), el.coeffs)
    if kind == "coefficient":
        return _redrawn(el, el.coeffs[:-1] + [[[el.coeffs[-1][0][0] + 1]]])
    dense = dense_routing_space(V, E, F)
    if kind == "off-block":
        rows[0][n] += el.den  # the i block of row 0
        out = _redrawn(Mat.from_int_rows(tuple(map(tuple, rows)), el.den, el.cols), el.coeffs)
    else:  # the first unit matrix outside V, added to the top-left block
        V_span = to_matrix_space(V) if isinstance(V, Relation) else V
        cells = product(range(n), repeat=2)
        units = (Mat([[int((a, b) == ij) for b in range(n)] for a in range(n)]) for ij in cells)
        outside = next(u for u in units if not space_contains(V_span, u))
        out = _redrawn(el + top_left(outside, el), el.coeffs)
    assert not space_contains(dense, out)
    return out


@pytest.mark.parametrize("kind", ["entry", "coefficient", "off-block", "top-left outside V"])
@pytest.mark.parametrize("theorem, key", [("menger", "cpc"), ("matrix-menger", "mpc")])
def test_a_tampered_primal_exits_1(theorem, key, kind, capsys, monkeypatch):
    """The separator still meets the value, but the element is not the sum of its coefficients."""
    argv = ["check", theorem, str(GOLDEN / f"{theorem}.json"), "--output", "json"]
    assert main(argv) == EXIT_PROVED
    report = json.loads(capsys.readouterr().out)
    original = menger.mpc

    def tampered(V, E, F, routing, sampler):
        cv = original(V, E, F, routing, sampler)
        r, el = cv.primal
        assert r == 1 and verify.verify_blowup_element(routing, r, el, el.rank())
        return replace(cv, primal=(r, _tamper(kind, V, E, F, el)))

    monkeypatch.setattr(menger, "mpc", tampered)
    assert main(argv) == EXIT_VIOLATION
    failed = json.loads(capsys.readouterr().out)
    assert failed == dict(report, status="failed")
    assert failed[key] == failed["separator"]["size"]

"""Command-line front end: instance generation, duality checks, demos.

A check passes every certificate its exit 0 depends on to `verify`, once.
A demo runs the checks on its worked example and compares their reports
with the paper's values.  Exit codes are a contract: 0 means every
certificate verified and primal met dual, 2 means the verified primal
stays below the verified dual, 1 means a certificate, identity or paper
value failed to hold, 3 means the command line or the instance was
malformed.  Every random draw is seeded by `--seed`, and every report
embeds the seed and configuration that reproduce it.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from operator import mul

from . import dilworth, lgv, matching_cover, menger, ncrank, verify
from .errors import CertificationError, InvariantViolation, SingularityError
from .exact_linalg import (
    IntEchelon,
    Mat,
    Subspace,
    Vec,
    json_int,
    json_list,
    rational_to_string,
    solve_exact,
    unit_vec,
)
from .relation import GenericSampler, MatrixSpace, Relation, is_nilpotent_algebra, routing_space

EXIT_PROVED = 0
EXIT_VIOLATION = 1
EXIT_BOUNDS = 2
EXIT_PARSE = 3


@dataclass
class RunConfig:
    seed: int = 0
    trials: int = 25
    coeff_bound: int = 10**6

    def sampler(self) -> GenericSampler:
        return GenericSampler(
            seed=self.seed, coeff_bound=self.coeff_bound, trials=self.trials
        )


class ParseFailure(Exception):
    """Bad input: the one error that exits 3."""


def _parse(what: str, build):
    """Run `build()`; malformed input raises ParseFailure, never a traceback."""
    try:
        return build()
    except (KeyError, TypeError, ValueError) as ex:
        raise ParseFailure(f"bad {what}: {ex}") from ex


def _require(holds: bool, why: str):
    """Reject a parsed instance that breaks a precondition of its theorem."""
    if not holds:
        raise ParseFailure(why)


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as ex:
        # ValueError covers bad JSON, undecodable bytes and over-long integers
        raise ParseFailure(str(ex)) from ex


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# generation


def _rand_vec(rng, n, bound=3) -> Vec:
    return Vec([rng.randint(-bound, bound) for _ in range(n)])


def gen_relation(rng, n, m, r) -> dict:
    pairs = []
    while len(pairs) < r:
        v, w = _rand_vec(rng, n), _rand_vec(rng, m)
        if not v.is_zero() and not w.is_zero():
            pairs.append((v, w))
    return Relation(n, m, pairs).to_json()


def gen_poset(rng, size) -> list[tuple[int, int]]:
    """The sorted, transitively closed strict order (i, j) meaning p_i > p_j."""
    rel = set()
    order = list(range(size))
    rng.shuffle(order)
    for a in range(size):
        for b in range(a + 1, size):
            if rng.random() < 0.4:
                rel.add((order[a], order[b]))
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            for k, l in list(rel):
                if j == k and (i, l) not in rel:
                    rel.add((i, l))
                    changed = True
    return sorted(rel)


def _random_invertible(rng, n) -> Mat:
    while True:
        m = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], n)
        if m.det() != 0:
            return m


def gen_linorder(rng, size) -> dict:
    """Random poset pushed through a random dual basis pair.

    Rows of an invertible M and columns of its inverse pair to the identity,
    so (row_i, col_j) for i > j in the poset satisfies both linorder axioms.
    """
    gt = gen_poset(rng, size)
    m = _random_invertible(rng, size)
    inv = solve_exact(m, Mat.identity(size))
    pairs = [(m.row(i), inv.col(j)) for i, j in gt]
    R = Relation(size, size, pairs)
    if dilworth.validate_linorder(R) is not None:
        raise InvariantViolation("generated relation failed linorder validation")
    return R.to_json()


def gen_matrixspace(rng, m, n, dim) -> dict:
    """`dim` independent random m x n matrices, each draw kept if it adds rank."""
    ech = IntEchelon(m * n)
    basis = []
    while len(basis) < dim:
        cand = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)], n)
        if ech.add(cand.int_flat()):
            basis.append(cand)
    return {"m": m, "n": n, "basis": [b.to_json() for b in basis]}


def gen_lgv(rng, n, r, k) -> dict:
    return lgv.LgvInstance(
        Mat([[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)], r),
        Mat([[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)], r),
        Mat([[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)], k),
        Mat([[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)], k),
    ).to_json()


GENERATORS = {
    "relation": (gen_relation, {"n": 3, "m": 3, "r": 5}),
    "linorder": (gen_linorder, {"size": 4}),
    "matrixspace": (gen_matrixspace, {"m": 3, "n": 3, "dim": 2}),
    "lgv": (gen_lgv, {"n": 4, "r": 4, "k": 2}),
}


def _gen_size_error(kind: str, sizes: dict) -> str | None:
    """Why no instance of these sizes can be generated, or None."""
    if min(sizes.values()) < 0:
        return "sizes must be nonnegative"
    if kind == "relation" and sizes["r"] and not sizes["n"] * sizes["m"]:
        return "pairs of nonzero vectors need n >= 1 and m >= 1"
    if kind == "matrixspace" and sizes["dim"] > sizes["m"] * sizes["n"]:
        return "dim exceeds m*n"
    if kind == "lgv" and not sizes["n"] and (sizes["r"] or sizes["k"]):
        return "r or k positive needs n >= 1"
    return None


def run_gen(args) -> int:
    rng = random.Random(args.seed)
    gen, defaults = GENERATORS[args.kind]
    try:
        p = {k: int(v) for k, v in (kv.split("=", 1) for kv in args.params)}
    except ValueError as ex:
        print(f"bad parameters (expected key=integer): {ex}", file=sys.stderr)
        return EXIT_PARSE
    unknown = sorted(set(p) - set(defaults))
    if unknown:
        print(
            f"unknown {args.kind} parameters {unknown}; allowed: {', '.join(defaults)}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    sizes = {k: p.get(k, d) for k, d in defaults.items()}
    error = _gen_size_error(args.kind, sizes)
    if error:
        print(f"bad {args.kind} sizes {sizes}: {error}", file=sys.stderr)
        return EXIT_PARSE
    data = gen(rng, **sizes)
    text = json.dumps(data, indent=2, sort_keys=True)
    if not args.out:
        print(text)
        return EXIT_PROVED
    try:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    except OSError as ex:
        print(f"cannot write {args.out}: {ex}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_PROVED


# ---------------------------------------------------------------------------
# checks


def _relation_from(data) -> Relation:
    return _parse("relation instance", lambda: Relation.from_json(data))


def _subspaces_from(data, ambient):
    """The subspaces E and F of a path instance."""
    return _parse(
        "path instance E and F",
        lambda: (
            Subspace.from_json(data["E"], ambient),
            Subspace.from_json(data["F"], ambient),
        ),
    )


def _space_from(data) -> MatrixSpace:
    return _parse("matrix space", lambda: MatrixSpace.from_json(data))


def _verdict(report: dict, verified: bool, value: int, bound: int):
    """The report with its status, and the exit code, of a primal and a dual.

    `verified` says whether `verify` accepted both certificates, and
    `value` and `bound` are their sizes.  A failed certificate, or a value
    above its bound, is a bug: status "failed", exit 1.  Otherwise the
    status is "proved" (exit 0) when the sizes meet, else
    "lower_bound_only" (exit 2).  It is placed after the report's first key.
    """
    if not verified or value > bound:
        status, code = "failed", EXIT_VIOLATION
    elif value == bound:
        status, code = "proved", EXIT_PROVED
    else:
        status, code = "lower_bound_only", EXIT_BOUNDS
    first, *rest = report.items()
    return dict([first, ("status", status), *rest]), code


def check_konig(data, config: RunConfig):
    """A maximum matching always meets its cover: a gap fails, like a certificate.

    The cover (U, F) is printed as (U^perp, F): the span E of the matched
    v's orthogonal to U, which is all of U^perp when dim E = n - dim U.
    """
    R = _relation_from(data)
    matching, cover = matching_cover.matroid_intersection(R)
    us = cover.U.int_rows()
    vs = [v for v, _ in matching.pairs() if not any(sum(map(mul, v.int_row(), u)) for u in us)]
    E = Subspace.span(R.n, vs) if us else Subspace.full(R.n)
    ok = (
        verify.verify_matching(R, matching)
        and verify.verify_cover(R, cover)
        and matching.size == cover.size
        and E.dim == R.n - len(us)
    )
    printed = {"E": E.to_json(), "F": cover.F.to_json()}
    report = {"value": cover.size, "matching": matching.to_json(), "cover": printed}
    return _verdict(report, ok, matching.size, cover.size)


def check_hall(data, config: RunConfig):
    R = _relation_from(data)
    _require(R.m >= R.n >= 1, "Hall's theorem needs m >= n >= 1")
    matching, cover = matching_cover.matroid_intersection(R)
    if matching.size == R.n:
        ok = verify.verify_matching(R, matching)
        report = {"saturated": True, "matching": matching.to_json()}
    else:
        ok = verify.verify_cover(R, cover) and cover.size < R.n
        witness = {"S": cover.U.to_json(), "neighborhood": cover.F.to_json()}
        report = {"saturated": False, "witness": witness}
    return report, (EXIT_PROVED if ok else EXIT_VIOLATION)


def check_rado(data, config: RunConfig):
    m, sets = _parse(
        "set family",
        lambda: (
            json_int(data["m"]),
            [[Vec.from_json(v) for v in json_list(s)] for s in json_list(data["sets"])],
        ),
    )
    _require(1 <= len(sets) <= m, "a family needs at least one set and at most m sets")
    _require(all(v.dim == m for s in sets for v in s), "set vectors must have dimension m")
    transversal, witness = matching_cover.rado_transversal(sets, m)
    ok = verify.verify_rado_report(sets, m, transversal, witness)
    if transversal is not None:
        report = {"transversal": [v.to_json() for v in transversal]}
    else:
        report = {"violating_sets": witness}
    return report, (EXIT_PROVED if ok else EXIT_VIOLATION)


def _linorder_from(data) -> Relation:
    R = _relation_from(data)
    _require(R.n == R.m, "a linorder lives on F^n x F^n")
    violation = dilworth.validate_linorder(R)
    if violation is not None:
        raise ParseFailure(f"relation is not a linorder: {violation}")
    return R


def check_dilworth(data, config: RunConfig):
    R = _linorder_from(data)
    matching, cover = matching_cover.matroid_intersection(R)
    C, width = cover.antichain(), R.n - cover.size
    D = dilworth.bichain_decomposition(matching)
    ok = (
        verify.verify_antichain(R, C)
        and verify.verify_bichain_decomposition(R, D)
        and width == D.size == C.dim
    )
    report = {
        "antichain_dim": width,
        "bichain_count": D.size,
        "chain_lengths": [c.length for c in D.chains],
        "antichain": C.to_json(),
        "decomposition": D.to_json(),
    }
    return report, (EXIT_PROVED if ok else EXIT_VIOLATION)


def check_coherent(data, config: RunConfig):
    R = _linorder_from(data)
    matching, cover = matching_cover.matroid_intersection(R)
    C, width = cover.antichain(), R.n - cover.size
    D = dilworth.coherent_decomposition(matching)
    pairs = matching.indices
    ok = (
        verify.verify_antichain(R, C)
        and verify.verify_pair_sum(R, pairs, D.A)
        and verify.verify_coherent_decomposition(D)
        and width == D.size == C.dim
    )
    report = {
        "antichain_dim": width,
        "coherent_count": D.size,
        "chain_lengths": [l for _, l in D.chains],
        "decomposition": D.to_json(),
        "pairs": list(pairs),
    }
    return report, (EXIT_PROVED if ok else EXIT_VIOLATION)


def _path_capacity(key: str, V, data, config: RunConfig):
    """Report and exit code of the path capacity from E to F relative to V.

    V is a square relation or matrix space.  The routing space is built
    once from the instance: the solver routes in it, and its primal (r, el)
    must be an element of rank r(n + value) there.  The separator is
    checked against V, and its size bounds the value.  The element stays
    out of the report.
    """
    E, F = _subspaces_from(data, V.n)
    routing = routing_space(V, E, F)
    cv = menger.mpc(V, E, F, routing, config.sampler())
    r, element = cv.primal
    ok = verify.verify_separator(V, E, F, cv.dual) and verify.verify_blowup_element(
        routing, r, element, r * (V.n + cv.value)
    )
    report = {key: cv.value, "separator": cv.dual.to_json()}
    return _verdict(report, ok, cv.value, cv.dual.size)


def check_menger(data, config: RunConfig):
    R = _relation_from(data)
    _require(R.n == R.m, "path capacities need a square relation")
    return _path_capacity("cpc", R, data, config)


def check_lgv(data, config: RunConfig):
    inst = _parse("path instance", lambda: lgv.LgvInstance.from_json(data))
    rng = random.Random(config.seed)

    def point():
        return [rng.randint(-config.coeff_bound, config.coeff_bound) for _ in range(inst.r)]

    checked = 0
    attempts = 0
    while checked < config.trials and attempts < 4 * config.trials:
        attempts += 1
        xs = point()
        try:
            lhs = lgv.lgv_lhs(inst, xs)
            rhs = lgv.lgv_rhs(inst, xs)
        except SingularityError:
            continue
        if lhs != rhs:
            return {"identity": "failed", "point": [str(x) for x in xs]}, EXIT_VIOLATION
        checked += 1
    if checked == 0:
        raise CertificationError(
            f"every one of {attempts} sampled points was singular; nothing was checked"
        )
    report = {"identity": "holds", "points_checked": checked}
    report["acyclic"] = inst.acyclic
    if inst.acyclic:
        lhs, rhs = lgv.lgv_acyclic(inst, point())
        report["acyclic_value"] = rational_to_string(lhs)
    return report, EXIT_PROVED


def _verified_ncrank(data, config: RunConfig):
    """(V, ncrank V, whether its element of rank r * value and its cover verified)."""
    V = _space_from(data)
    cv = ncrank.ncrank(V, config.sampler())
    r, element = cv.primal
    ok = verify.verify_blowup_element(V, r, element, r * cv.value)
    return V, cv, ok and verify.verify_cover(V, cv.dual)


def check_ncrank(data, config: RunConfig, ranks=None):
    """The ncrank report; a list `ranks` receives the run's largest sampled rank per order."""
    V, cv, ok = _verified_ncrank(data, config)
    if ranks is not None:
        ranks += cv.ranks
    r, element = cv.primal
    defect = V.n - cv.dual.size
    report = {
        "ncrank": cv.value,
        "defect": defect,
        "witness": {"E": cv.dual.U.to_json(), "defect": defect},
        "element": {"r": r, "matrix": element.to_json()},
    }
    return _verdict(report, ok, cv.value, cv.dual.size)


def check_matrix_konig(data, config: RunConfig):
    _, cv, ok = _verified_ncrank(data, config)
    return _verdict({"cover_size": cv.dual.size}, ok, cv.value, cv.dual.size)


def check_matrix_dilworth(data, config: RunConfig):
    V = _space_from(data)
    if not is_nilpotent_algebra(V):
        raise ParseFailure("matrix Dilworth needs a nilpotent algebra")
    r = max(1, V.n - 1)
    cover = ncrank.ncrank(V, config.sampler()).dual
    C = cover.antichain()
    D = ncrank.matrix_coherent_decomposition(V, r, config.sampler(), cover)
    ok = (
        verify.verify_antichain(V, C)
        and verify.verify_coherent_decomposition(D, V, r)
        and D.size == r * C.dim
    )
    report = {
        "r": r,
        "antichain_dim": C.dim,
        "coherent_count": D.size,
    }
    return report, (EXIT_PROVED if ok else EXIT_VIOLATION)


def check_matrix_menger(data, config: RunConfig):
    V = _space_from(data)
    _require(V.m == V.n, "path capacities need a square space")
    return _path_capacity("mpc", V, data, config)


CHECKS = {
    "konig": check_konig,
    "hall": check_hall,
    "rado": check_rado,
    "dilworth": check_dilworth,
    "coherent": check_coherent,
    "menger": check_menger,
    "lgv": check_lgv,
    "ncrank": check_ncrank,
    "matrix-konig": check_matrix_konig,
    "matrix-dilworth": check_matrix_dilworth,
    "matrix-menger": check_matrix_menger,
}


def _run(run, args, key: str, name: str) -> int:
    """Emit the report of `run()` with its exit code, or the error it raised.

    Bad input exits 3, a failed identity 1, and a size limit or sampling
    shortfall 2; this mapping is the same for checks and demos.  Any other
    exception is a bug and propagates: exit 1 with a traceback.
    """
    config = RunConfig(args.seed, args.trials, args.coeff_bound)
    try:
        report, code = run(config)
    except ParseFailure as ex:
        _emit({"error": f"parse: {ex}"}, args.output)
        return EXIT_PARSE
    except InvariantViolation as ex:
        _emit({"error": f"invariant: {ex}"}, args.output)
        return EXIT_VIOLATION
    except CertificationError as ex:
        _emit({"error": f"bounds: {ex}"}, args.output)
        return EXIT_BOUNDS
    report[key] = name
    report["config"] = vars(config)
    _emit(report, args.output)
    return code


def run_check(args) -> int:
    check = CHECKS[args.theorem]
    return _run(
        lambda config: check(_load(args.instance), config), args, "theorem", args.theorem
    )


# ---------------------------------------------------------------------------
# demos: the worked examples


def build_linorder_f4() -> Relation:
    e = [unit_vec(4, i) for i in range(4)]
    return Relation(4, 4, [(e[0], e[1]), (e[0], e[2]), (e[0], e[3])])


def build_menger_f7():
    e = [unit_vec(7, i) for i in range(7)]
    R = Relation(
        7,
        7,
        [
            (e[0], e[2] + e[3]),
            (e[1], e[2] - e[3]),
            (e[3] + e[4], e[5]),
            (e[3] - e[4], e[6]),
        ],
    )
    E = Subspace.span(7, [e[0], e[1]])
    F = Subspace.span(7, [e[5], e[6]])
    return R, E, F


def build_skew3() -> MatrixSpace:
    return MatrixSpace(
        3,
        3,
        [
            Mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
            Mat([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
            Mat([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
        ],
    )


def _demo_exit(codes, meets_paper: bool) -> int:
    """A violation in any check exits 1, then bounds only 2; a proved run must meet the paper."""
    worst = EXIT_VIOLATION if EXIT_VIOLATION in codes else max(codes)
    if worst == EXIT_PROVED and not meets_paper:
        return EXIT_VIOLATION
    return worst


def demo_linorder_f4(config: RunConfig):
    data = build_linorder_f4().to_json()
    dil, dil_code = check_dilworth(data, config)
    coh, coh_code = check_coherent(data, config)
    e = [unit_vec(4, i) for i in range(4)]
    w_chains = [[e[0], e[1]], [e[0] + e[2], e[3]]]
    anomaly = dilworth.w_chain_check(_linorder_from(data), w_chains)
    report = {
        "antichain_dim": dil["antichain_dim"],
        "antichain": dil["antichain"],
        "bichain_count": dil["bichain_count"],
        "coherent_count": coh["coherent_count"],
        "w_chains_span_basis": anomaly,
        "w_chain_count": len(w_chains),
    }
    meets = dil["antichain_dim"] == dil["bichain_count"] == coh["coherent_count"] == 3 and anomaly
    return report, _demo_exit([dil_code, coh_code], meets)


def demo_menger_f7(config: RunConfig):
    R, E, F = build_menger_f7()
    check, code = check_menger(dict(R.to_json(), E=E.to_json(), F=F.to_json()), config)
    separator = check["separator"]
    e = [unit_vec(7, i) for i in range(7)]
    paths = [
        dilworth.BiChain(
            (e[0], e[2] + e[3], e[5]), (e[0], e[3] + e[4], e[5]), (0, 2)
        ),
        dilworth.BiChain(
            (e[1], e[2] - e[3], e[6]), (e[1], e[3] - e[4], e[6]), (1, 3)
        ),
    ]
    independent = verify.independent_bipaths_check(R, E, F, paths)
    report = {
        "cpc": check["cpc"],
        "separator_size": separator["size"],
        "E_tilde": separator["E_tilde"],
        "F_tilde": separator["F_tilde"],
        "independent_bipaths": len(paths) if independent else 0,
    }
    meets = (
        check["cpc"] == 1
        and separator["E_tilde"] == Subspace.span(7, e[0:4]).to_json()
        and separator["F_tilde"] == Subspace.span(7, e[3:7]).to_json()
        and independent
    )
    return report, _demo_exit([code], meets)


def demo_skew3(config: RunConfig):
    V = build_skew3()
    ranks = []
    check, code = check_ncrank(V.to_json(), config, ranks)
    # the check drew every trial at order 1, which it cannot prove
    plain_rank = ranks[0]
    # the check verified its element's rank as r * ncrank: at r = 2 it is the order-2 maximum
    blow2 = 2 * check["ncrank"] if check["element"]["r"] == 2 else None
    report = {
        "max_rank": plain_rank,
        "blowup_rank_r2": blow2,
        "ncrank": check["ncrank"],
        "full_ncrank": check["ncrank"] == V.n,
        "divisible_by_r": blow2 is not None and blow2 % 2 == 0,
    }
    meets = plain_rank == 2 and blow2 == 6 and check["ncrank"] == 3
    return report, _demo_exit([code], meets)


DEMOS = {
    "linorder-f4": demo_linorder_f4,
    "menger-f7": demo_menger_f7,
    "skew3": demo_skew3,
}


def run_demo(args) -> int:
    return _run(DEMOS[args.name], args, "demo", args.name)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, like any other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=_positive_int, default=25)
    parser.add_argument("--coeff-bound", type=_positive_int, default=10**6)
    # accepted and ignored, so that old command lines still run
    parser.add_argument("--budget", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--output", choices=("json", "text"), default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(
        prog="linminmax",
        description="Exact certificates for linear and matrix min-max dualities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.add_argument(
        "kind",
        choices=tuple(GENERATORS),
    )
    p_gen.add_argument("params", nargs="*", help="key=value, e.g. n=3 m=3 r=5")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=run_gen)

    p_check = sub.add_parser("check", help="run a duality check on an instance")
    p_check.add_argument("theorem", choices=sorted(CHECKS))
    p_check.add_argument("instance")
    _add_common(p_check)
    p_check.set_defaults(func=run_check)

    p_demo = sub.add_parser("demo", help="reproduce a worked example by running the checks")
    p_demo.add_argument("name", choices=sorted(DEMOS))
    _add_common(p_demo)
    p_demo.set_defaults(func=run_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

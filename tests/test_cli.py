"""CLI contract: generation determinism, exit codes, demo reports."""

import ast
import json
import random
from pathlib import Path

import pytest

from linminmax import cli
from linminmax.cli import (
    EXIT_BOUNDS,
    EXIT_PARSE,
    EXIT_PROVED,
    EXIT_VIOLATION,
    ParseFailure,
    RunConfig,
    json_text,
    main,
)
from reference import instance_from_relation, to_matrix_space

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "relation", "n=3", "m=3", "r=5", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen", "relation", "n=3", "m=3", "r=5", "--seed", "9", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_gen_kinds_parse_back(tmp_path, capsys):
    cases = [
        (["gen", "relation", "n=2", "m=3", "r=4"], ("n", "m", "pairs")),
        (["gen", "linorder", "size=4"], ("n", "m", "pairs")),
        (["gen", "matrixspace", "m=2", "n=2", "dim=2"], ("m", "n", "basis")),
        (["gen", "lgv", "n=3", "r=3", "k=2"], ("V", "W", "A", "B")),
    ]
    for argv, keys in cases:
        code, out = run_cli(capsys, *argv, "--seed", "4")
        assert code == 0
        data = json.loads(out)
        for key in keys:
            assert key in data, (argv, key)


def test_check_konig_exit_codes(tmp_path, capsys):
    inst = tmp_path / "rel.json"
    assert main(["gen", "relation", "n=3", "m=3", "r=5", "--seed", "2", "--out", str(inst)]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "check", "konig", str(inst), "--output", "json")
    assert code == EXIT_PROVED
    report = json.loads(out)
    assert report["status"] == "proved"
    assert report["value"] == len(report["matching"])
    assert report["theorem"] == "konig"


def test_check_reports_embed_config(tmp_path, capsys):
    inst = tmp_path / "rel.json"
    main(["gen", "relation", "n=2", "m=2", "r=3", "--seed", "3", "--out", str(inst)])
    capsys.readouterr()
    code, out = run_cli(
        capsys, "check", "konig", str(inst), "--output", "json", "--seed", "77"
    )
    report = json.loads(out)
    assert report["config"] == {"seed": 77, "trials": 25, "coeff_bound": 10**6}
    assert code == EXIT_PROVED


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    code, _ = run_cli(capsys, "check", "konig", str(bad))
    assert code == EXIT_PARSE
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    code, _ = run_cli(capsys, "check", "hall", str(notjson))
    assert code == EXIT_PARSE


def test_check_all_theorems_on_generated(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    lin = tmp_path / "lin.json"
    lgv_file = tmp_path / "lgv.json"
    ms = tmp_path / "ms.json"
    main(["gen", "relation", "n=3", "m=4", "r=5", "--seed", "5", "--out", str(rel)])
    main(["gen", "linorder", "size=4", "--seed", "6", "--out", str(lin)])
    main(["gen", "lgv", "n=3", "r=3", "k=2", "--seed", "7", "--out", str(lgv_file)])
    main(["gen", "matrixspace", "m=3", "n=3", "dim=2", "--seed", "8", "--out", str(ms)])
    capsys.readouterr()

    for theorem, path in [
        ("konig", rel),
        ("hall", rel),
        ("dilworth", lin),
        ("coherent", lin),
        ("lgv", lgv_file),
        ("ncrank", ms),
        ("matrix-konig", ms),
        ("matrix-dilworth", lin),
    ]:
        if theorem == "matrix-dilworth":
            # needs a nilpotent algebra: feed the linorder's matrix space
            from linminmax.relation import Relation

            data = json.loads(lin.read_text())
            space = to_matrix_space(Relation.from_json(data))
            path = tmp_path / "nilspace.json"
            path.write_text(json.dumps(space.to_json()))
        code, out = run_cli(
            capsys, "check", theorem, str(path), "--output", "json", "--trials", "10"
        )
        assert code in (EXIT_PROVED, EXIT_BOUNDS), (theorem, out)
        assert code == EXIT_PROVED, theorem


def test_check_menger_instance(tmp_path, capsys):
    from linminmax.cli import build_menger_f7

    R, E, F = build_menger_f7()
    data = R.to_json()
    data["E"] = E.to_json()
    data["F"] = F.to_json()
    path = tmp_path / "menger.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "check", "menger", str(path), "--output", "json")
    assert code == EXIT_PROVED
    assert json.loads(out)["cpc"] == 1

    ms_data = to_matrix_space(R).to_json()
    ms_data["E"] = E.to_json()
    ms_data["F"] = F.to_json()
    path2 = tmp_path / "mmenger.json"
    path2.write_text(json.dumps(ms_data))
    code, out = run_cli(capsys, "check", "matrix-menger", str(path2), "--output", "json")
    assert code == EXIT_PROVED
    assert json.loads(out)["mpc"] == 1


def test_check_rado(tmp_path, capsys):
    inst = {
        "m": 3,
        "sets": [[["1", "0", "0"], ["0", "1", "0"]], [["0", "0", "1"]]],
    }
    path = tmp_path / "rado.json"
    path.write_text(json.dumps(inst))
    code, out = run_cli(capsys, "check", "rado", str(path), "--output", "json")
    assert code == EXIT_PROVED
    assert "transversal" in json.loads(out)

    violating = {
        "m": 3,
        "sets": [[["1", "0", "0"]], [["2", "0", "0"]], [["0", "0", "1"]]],
    }
    path.write_text(json.dumps(violating))
    code, out = run_cli(capsys, "check", "rado", str(path), "--output", "json")
    assert code == EXIT_PROVED
    witness = json.loads(out)["violating_sets"]
    assert 0 in witness and 1 in witness  # the two collinear sets


def test_demos(capsys):
    for name in ("linorder-f4", "menger-f7", "skew3"):
        code, out = run_cli(capsys, "demo", name, "--output", "json")
        assert code == EXIT_PROVED, (name, out)
        report = json.loads(out)
        assert report["demo"] == name

    code, out = run_cli(capsys, "demo", "linorder-f4", "--output", "json")
    report = json.loads(out)
    assert report["antichain_dim"] == 3
    assert report["bichain_count"] == 3
    assert report["coherent_count"] == 3
    assert report["w_chains_span_basis"] is True


def test_demo_determinism(capsys):
    _, out1 = run_cli(capsys, "demo", "skew3", "--output", "json", "--seed", "5")
    _, out2 = run_cli(capsys, "demo", "skew3", "--output", "json", "--seed", "5")
    assert out1 == out2


def test_demos_run_ncrank_at_most_once(capsys, monkeypatch):
    from linminmax import ncrank

    calls = []
    original = ncrank.ncrank

    def counting(V, sampler):
        calls.append(V)
        return original(V, sampler)

    monkeypatch.setattr(ncrank, "ncrank", counting)
    counts = {}
    for name in ("linorder-f4", "menger-f7", "skew3"):
        calls.clear()
        code, _ = run_cli(capsys, "demo", name, "--output", "json")
        assert code == EXIT_PROVED
        counts[name] = len(calls)
    assert counts == {"linorder-f4": 0, "menger-f7": 0, "skew3": 1}


def test_check_zero_denominator_is_parse_error(tmp_path, capsys):
    rel = {"n": 2, "m": 2, "pairs": [[["1/0", "0"], ["1", "0"]]]}
    space = {"m": 2, "n": 2, "basis": [[["0", "1/0"], ["0", "0"]]]}
    lgv_path = tmp_path / "lgv.json"
    main(["gen", "lgv", "n=3", "r=3", "k=2", "--seed", "7", "--out", str(lgv_path)])
    capsys.readouterr()
    path_instance = json.loads(lgv_path.read_text())
    path_instance["A"][0][0] = "3/0"
    for theorem, data in [
        ("konig", rel),
        ("ncrank", space),
        ("matrix-konig", space),
        ("lgv", path_instance),
    ]:
        path = tmp_path / f"{theorem}.json"
        path.write_text(json.dumps(data))
        code = main(["check", theorem, str(path), "--output", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE, (theorem, captured.out)
        assert "Traceback" not in captured.out + captured.err
        assert json.loads(captured.out)["error"].startswith("parse:")


def test_check_negative_dimensions_are_parse_errors(tmp_path, capsys):
    cases = [
        ("konig", {"n": -1, "m": 2, "pairs": []}),
        ("ncrank", {"m": -2, "n": 2, "basis": []}),
        ("menger", {"n": -1, "m": -1, "pairs": [], "E": [], "F": []}),
    ]
    for theorem, data in cases:
        path = tmp_path / f"{theorem}.json"
        path.write_text(json.dumps(data))
        code = main(["check", theorem, str(path), "--output", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE, (theorem, captured.out)
        assert json.loads(captured.out)["error"].startswith("parse:")


def test_check_malformed_json_types_are_parse_errors(tmp_path, capsys):
    zero = [["0", "0"], ["0", "0"]]
    number_entry = {
        "m": 2, "n": 2, "basis": [[["1", 1.5], ["0", "0"]]],
        "E": [["1"], ["0"]], "F": [["0"], ["1"]],
    }
    number_in_e = dict(number_entry, basis=[zero], E=[[1.5], ["0"]])
    cases = [
        ("matrix-menger", number_entry),
        ("matrix-menger", number_in_e),
        ("matrix-menger", [number_entry]),
        ("ncrank", [number_entry]),
        ("konig", [1, 2]),
        ("menger", {"n": 2, "m": 2, "pairs": [], "E": 1.5, "F": zero}),
        ("rado", {"m": 2, "sets": [[[1.5, "0"]]]}),
        # integer fields are JSON integers, and entries are never bools
        ("konig", {"n": 3.9, "m": 3, "pairs": []}),
        ("konig", {"n": "3", "m": 3, "pairs": []}),
        ("konig", '{"n": 1e309, "m": 3, "pairs": []}'),
        ("konig", {"n": 1, "m": 1, "pairs": [[[True], ["1"]]]}),
        ("ncrank", {"m": 2.5, "n": 2, "basis": []}),
        ("ncrank", {"m": 1, "n": 1, "basis": [[[False]]]}),
        ("rado", {"m": 2.5, "sets": [[["1", "0"]]]}),
        # arrays are JSON arrays: never read as empty, and a string is not split into entries
        *(
            ("menger", {"n": 2, "m": 2, "pairs": [], "E": bad, "F": zero})
            for bad in ({}, None, 0, False, "")
        ),
        ("konig", {"n": 2, "m": 2, "pairs": {}}),
        ("konig", {"n": 2, "m": 2, "pairs": ""}),
        ("konig", {"n": 2, "m": 2, "pairs": [["10", "01"]]}),
        ("ncrank", {"m": 2, "n": 2, "basis": {}}),
        ("rado", {"m": 2, "sets": [{}]}),
        ("lgv", dict(json.loads((GOLDEN / "lgv.json").read_text()), V={})),
    ]
    for k, (theorem, data) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        code = main(["check", theorem, str(path), "--output", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE, (theorem, data, captured.out)
        assert "Traceback" not in captured.out + captured.err
        assert json.loads(captured.out)["error"].startswith("parse:")


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 5000 + b"]" * 5000,
        b"\xff\xfe{}",
        b'{"n": ' + b"9" * 5000 + b', "m": 1, "pairs": []}',
    ],
    ids=["nested-too-deep", "not-utf-8", "integer-too-long"],
)
def test_undecodable_instance_files_are_parse_errors(content, tmp_path, capsys):
    """A file that `json.load` cannot read exits 3 with a parse report, never a traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code = main(["check", "konig", str(path), "--output", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert "Traceback" not in captured.out + captured.err
    assert json.loads(captured.out)["error"].startswith("parse: ")


def test_gen_bad_parameters_are_parse_errors(capsys, tmp_path):
    for kind, params in (
        ("relation", ["n=abc"]),
        ("relation", ["n"]),
        ("relation", ["n=3", "m=x"]),
        # sizes with no instance
        ("lgv", ["n=-1"]),
        ("relation", ["r=-3"]),
        ("linorder", ["size=-1"]),
        ("lgv", ["n=2", "r=-1", "k=1"]),
        ("relation", ["n=0", "m=3", "r=1"]),
        ("relation", ["n=-1", "m=3", "r=1"]),
        ("matrixspace", ["m=1", "n=1", "dim=2"]),
        ("lgv", ["n=0", "r=3", "k=1"]),
        ("lgv", ["n=0"]),
        # a key the kind does not take, and a file that cannot be written
        ("relation", ["size=16"]),
        ("relation", ["--out", str(tmp_path / "no-such-dir" / "x.json")]),
    ):
        code = main(["gen", kind, *params])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE, (kind, params)
        assert captured.out == ""
        assert captured.err and "Traceback" not in captured.err
    main(["gen", "relation", "size=16"])
    assert "allowed: n, m, r" in capsys.readouterr().err


def test_gen_zero_sizes_with_an_instance(capsys):
    for kind, params in (
        ("relation", ["n=0", "m=3", "r=0"]),
        ("linorder", ["size=0"]),
        ("lgv", ["n=0", "r=0", "k=0"]),
        ("matrixspace", ["m=2", "n=3", "dim=6"]),
    ):
        assert main(["gen", kind, *params]) == EXIT_PROVED, (kind, params)
        capsys.readouterr()


def test_gen_matrixspace_keeps_one_running_echelon(capsys, echelon_widths):
    assert main(["gen", "matrixspace", "m=2", "n=3", "dim=4", "--seed", "5"]) == EXIT_PROVED
    capsys.readouterr()
    assert echelon_widths == [6]


def _exit_and_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, json.loads(captured.out).get("error", "")


def test_check_lgv_exit_codes_for_failures_and_singular_points(tmp_path, capsys, monkeypatch):
    from linminmax import lgv
    from linminmax.errors import SingularityError
    from linminmax.exact_linalg import unit_vec
    from linminmax.relation import Relation

    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    R = Relation(4, 4, [(unit_vec(4, i), unit_vec(4, j)) for i, j in edges])
    inst = instance_from_relation(R, [unit_vec(4, 0)], [unit_vec(4, 3)])
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(inst.to_json()))
    argv = ["check", "lgv", str(path), "--output", "json", "--trials", "3"]
    assert _exit_and_error(capsys, argv) == (EXIT_PROVED, "")

    # an identity failure in the acyclic evaluation is a violation, exit 1:
    # the left side is off by one on the call after the 3 sampled points
    lhs = lgv.lgv_lhs
    calls = []

    def off_after_the_points(inst, xs):
        calls.append(xs)
        return lhs(inst, xs) + (len(calls) > 3)

    monkeypatch.setattr(lgv, "lgv_lhs", off_after_the_points)
    code, error = _exit_and_error(capsys, argv)
    assert code == EXIT_VIOLATION and error.startswith("invariant:")
    assert len(calls) == 4
    monkeypatch.undo()

    # every sampled point singular: nothing was checked, so only bounds, exit 2
    def singular(inst, xs):
        raise SingularityError("singular at every point")

    monkeypatch.setattr(lgv, "lgv_lhs", singular)
    code, error = _exit_and_error(capsys, argv)
    assert code == EXIT_BOUNDS and error.startswith("bounds:")


def test_check_lgv_tests_nilpotency_once(tmp_path, capsys, monkeypatch):
    """Acyclicity is read off the one minor table that the identity check builds."""
    from linminmax import lgv
    from linminmax.exact_linalg import unit_vec
    from linminmax.relation import Relation

    calls = []
    original = lgv._subset_minors

    def counting(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(lgv, "_subset_minors", counting)
    e = [unit_vec(3, i) for i in range(3)]
    dag = Relation(3, 3, [(e[0], e[1]), (e[1], e[2])])
    cycle = Relation(3, 3, [(e[0], e[1]), (e[1], e[0])])
    for R, acyclic in [(dag, True), (cycle, False)]:
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_from_relation(R, [e[0]], [e[2]]).to_json()))
        calls.clear()
        code, out = run_cli(capsys, "check", "lgv", str(path), "--output", "json")
        assert code == EXIT_PROVED
        assert json.loads(out)["acyclic"] is acyclic
        assert len(calls) == 1


def test_check_lgv_draws_the_acyclic_point_from_the_coefficient_bound(tmp_path, capsys, monkeypatch):
    """CI's chorded 12-vertex path digraph: at --seed 0 the acyclic value is not 0.

    A point drawn from [-5, 5] had a zero weight on every source-sink path
    there, so the evaluation checked nothing.
    """
    from linminmax import lgv
    from linminmax.exact_linalg import unit_vec as e
    from linminmax.relation import Relation

    n = 12
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in (0, 2, 4)]
    R = Relation(n, n, [(e(n, i), e(n, j)) for i, j in edges])
    path = tmp_path / "lgv-path-12.json"
    path.write_text(json.dumps(instance_from_relation(R, [e(n, 0)], [e(n, n - 1)]).to_json()))
    code, out = run_cli(capsys, "check", "lgv", str(path), "--output", "json", "--seed", "0")
    report = json.loads(out)
    assert code == EXIT_PROVED and report["acyclic"] is True
    assert report["acyclic_value"] != "0"

    points = []
    acyclic = lgv.lgv_acyclic

    def recording(inst, xs):
        points.append(xs)
        return acyclic(inst, xs)

    monkeypatch.setattr(lgv, "lgv_acyclic", recording)
    argv = ["check", "lgv", str(path), "--trials", "2", "--coeff-bound", "1"]
    assert run_cli(capsys, *argv)[0] == EXIT_PROVED
    assert len(points) == 1 and {abs(x) for x in points[0]} <= {0, 1}


def test_check_ncrank_sampling_shortfall_exits_2(tmp_path, capsys, monkeypatch):
    from linminmax import relation
    from linminmax.cli import build_skew3
    from linminmax.exact_linalg import Mat

    def rank_one(V, sampler, r=1):
        side = V.n * r
        return Mat([[int(i == j == 0) for j in range(side)] for i in range(V.m * r)], side)

    monkeypatch.setattr(relation, "sample_element", rank_one)
    path = tmp_path / "skew3.json"
    path.write_text(json.dumps(build_skew3().to_json()))
    code, error = _exit_and_error(capsys, ["check", "ncrank", str(path), "--output", "json"])
    assert code == EXIT_BOUNDS and error.startswith("bounds:")


def test_demo_errors_use_the_check_exit_codes(capsys, monkeypatch):
    from linminmax.errors import CertificationError, InvariantViolation

    for exc, code, prefix in [
        (InvariantViolation("x"), EXIT_VIOLATION, "invariant:"),
        (CertificationError("x"), EXIT_BOUNDS, "bounds:"),
        (ParseFailure("x"), EXIT_PARSE, "parse:"),
    ]:
        def broken(config, exc=exc):
            raise exc

        monkeypatch.setitem(cli.DEMOS, "skew3", broken)
        got, error = _exit_and_error(capsys, ["demo", "skew3", "--output", "json"])
        assert got == code and error.startswith(prefix)

    # any other error is a bug: it propagates (a traceback, exit 1), never "parse:"
    def internal(config):
        raise ValueError("x")

    monkeypatch.setitem(cli.DEMOS, "skew3", internal)
    with pytest.raises(ValueError):
        main(["demo", "skew3", "--output", "json"])
    assert "parse:" not in capsys.readouterr().out


def test_demos_verify_through_the_checks():
    """Each demo calls a check_*, and no verify predicate but the bi-path check."""
    tree = ast.parse(Path(cli.__file__).read_text())
    demos = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("demo_")]
    assert sorted(f.name for f in demos) == sorted(fn.__name__ for fn in cli.DEMOS.values())
    for fn in demos:
        nodes = list(ast.walk(fn))
        calls = {n.func.id for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert any(name.startswith("check_") for name in calls), fn.name
        verified = {
            n.attr for n in nodes
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "verify"
        }
        assert verified <= {"independent_bipaths_check"}, fn.name


_KONIG = str(GOLDEN / "konig.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["nosuch"],
        ["check", "nosuch", "x"],
        ["check", "konig", _KONIG, "--seed", "x"],
        ["check", "konig", _KONIG, "--budget", "x"],
        ["demo", "nosuch"],
        ["check", "lgv", str(GOLDEN / "lgv.json"), "--coeff-bound", "-4"],
        *(
            ["check", theorem, str(GOLDEN / f"{theorem}.json"), option, "0"]
            for theorem in ("konig", "lgv", "ncrank")
            for option in ("--trials", "--coeff-bound")
        ),
    ],
)
def test_malformed_command_lines_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    assert stop.value.code == EXIT_PARSE
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


def test_help_exits_0_and_budget_is_ignored(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["check", "--help"])
    assert stop.value.code == 0
    assert "--budget" not in capsys.readouterr().out
    code, out = run_cli(capsys, "check", "konig", _KONIG, "--budget", "30", "--output", "json")
    assert code == EXIT_PROVED and "budget" not in out


def test_theorem_preconditions_are_parse_errors(tmp_path, capsys):
    """Inputs a solver would reject with a DimensionError are rejected where they parse."""
    one, two, three = ["1"], ["1", "0"], ["1", "0", "0"]
    cases = [
        ("hall", {"n": 3, "m": 2, "pairs": [[three, two]]}),
        ("hall", {"n": 0, "m": 2, "pairs": []}),
        ("dilworth", {"n": 2, "m": 3, "pairs": [[two, three]]}),
        ("coherent", {"n": 2, "m": 3, "pairs": []}),
        ("menger", {"n": 2, "m": 3, "pairs": [], "E": [["1"], ["0"]], "F": [["0"], ["1"]]}),
        ("matrix-menger", {"m": 2, "n": 3, "basis": [], "E": [one] * 3, "F": [one] * 3}),
        # a basis matrix of E or F must have n rows
        ("menger", {"n": 2, "m": 2, "pairs": [], "E": [one] * 3, "F": [one] * 2}),
        ("matrix-menger", {"m": 2, "n": 2, "basis": [], "E": [one] * 2, "F": [two]}),
        ("rado", {"m": 2, "sets": []}),
        ("rado", {"m": 1, "sets": [[one], [one]]}),
        ("rado", {"m": 2, "sets": [[three]]}),
    ]
    for k, (theorem, data) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(data))
        code, error = _exit_and_error(capsys, ["check", theorem, str(path), "--output", "json"])
        assert code == EXIT_PARSE and error.startswith("parse:"), (theorem, data, error)


def test_check_matrix_dilworth_needs_a_space_closed_under_products(tmp_path, capsys):
    """Every element of span{e12, e23} is nilpotent, but e12 e23 = e13 is outside it."""
    e12 = [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    e23 = [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]]
    path = tmp_path / "span.json"
    path.write_text(json.dumps({"m": 3, "n": 3, "basis": [e12, e23]}))
    code, error = _exit_and_error(capsys, ["check", "matrix-dilworth", str(path), "--output", "json"])
    assert code == EXIT_PARSE and error.startswith("parse:"), error


def _linorder_space(tmp_path, capsys, size):
    """(relation, file of its matrix space) of `gen linorder size=<size> --seed 3`."""
    from linminmax.relation import Relation

    lin = tmp_path / f"lin{size}.json"
    main(["gen", "linorder", f"size={size}", "--seed", "3", "--out", str(lin)])
    capsys.readouterr()
    R = Relation.from_json(json.loads(lin.read_text()))
    space = tmp_path / f"space{size}.json"
    space.write_text(json.dumps(to_matrix_space(R).to_json()))
    return R, space


def test_matrix_dilworth_on_larger_nilpotent_algebras(tmp_path, capsys):
    from linminmax.matching_cover import matroid_intersection

    for size in (6, 7):
        R, space = _linorder_space(tmp_path, capsys, size)
        code, out = run_cli(capsys, "check", "matrix-dilworth", str(space), "--output", "json")
        report = json.loads(out)
        assert code == EXIT_PROVED, report
        assert report["r"] == size - 1
        assert report["coherent_count"] == report["r"] * report["antichain_dim"]
        assert report["antichain_dim"] == R.n - matroid_intersection(R)[1].size


def test_matrix_dilworth_at_n_9_meets_the_blowup_side_limit(tmp_path, capsys):
    """Its decomposition is drawn at r = n - 1 = 8, side 72 > 64: only bounds, exit 2."""
    _, space = _linorder_space(tmp_path, capsys, 9)
    code, out = run_cli(capsys, "check", "matrix-dilworth", str(space), "--output", "json")
    assert code == EXIT_BOUNDS
    assert json.loads(out)["error"] == "bounds: blow-up side 72 exceeds 64"


def test_check_ncrank_rechecks_defect_rank_and_membership(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    from linminmax import ncrank
    from linminmax.cli import build_skew3
    from linminmax.exact_linalg import Mat, Subspace, unit_vec
    from linminmax.relation import Draw, MatrixSpace

    original = ncrank.ncrank
    path = tmp_path / "space.json"

    def carrying(M, coeffs):
        """M as a draw that carries the coefficients `coeffs`."""
        el = Draw.from_int_rows(M.int_rows(), M.den, M.cols)
        object.__setattr__(el, "coeffs", coeffs)
        return el

    def exit_with(space, tamper):
        monkeypatch.setattr(ncrank, "ncrank", lambda V, sampler: tamper(original(V, sampler)))
        path.write_text(json.dumps(space.to_json()))
        code, _ = run_cli(capsys, "check", "ncrank", str(path), "--output", "json")
        return code

    skew = build_skew3()
    assert exit_with(skew, lambda cv: cv) == EXIT_PROVED
    # the dual claims defect 1 with U = span{e_0}, whose image skew3[U] is 2-dimensional
    e0 = Subspace.span(3, [unit_vec(3, 0)])
    wrong_defect = lambda cv: replace(cv, dual=replace(cv.dual, U=e0))
    assert exit_with(skew, wrong_defect) == EXIT_VIOLATION
    # the zero element is the sum of zero coefficients: in the blow-up, but of rank 0
    zeros = [[[0, 0], [0, 0]]] * 3
    low_rank = lambda cv: replace(cv, primal=(cv.primal[0], carrying(Mat.zeros(6, 6), zeros)))
    assert exit_with(skew, low_rank) == EXIT_VIOLATION

    diagonal = MatrixSpace(2, 2, [Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]])])
    assert exit_with(diagonal, lambda cv: cv) == EXIT_PROVED
    # no coefficients make the swap a sum of the diagonal basis; these give I
    outside = lambda cv: replace(cv, primal=(1, carrying(Mat([[0, 1], [1, 0]]), [[[1]], [[1]]])))
    assert exit_with(diagonal, outside) == EXIT_VIOLATION


def test_check_rado_rechecks_its_report(tmp_path, capsys, monkeypatch):
    from linminmax import matching_cover
    from linminmax.exact_linalg import unit_vec

    e = [unit_vec(3, i) for i in range(3)]
    inst = {"m": 3, "sets": [[v.to_json() for v in (e[0], e[1])], [v.to_json() for v in (e[0], e[2])]]}
    path = tmp_path / "rado.json"
    path.write_text(json.dumps(inst))

    def exit_with(result):
        monkeypatch.setattr(matching_cover, "rado_transversal", lambda sets, m: result)
        code, _ = run_cli(capsys, "check", "rado", str(path), "--output", "json")
        return code

    assert exit_with(([e[1], e[0]], None)) == EXIT_PROVED
    assert exit_with(([e[0], e[0]], None)) == EXIT_VIOLATION  # dependent
    assert exit_with(([e[2], e[0]], None)) == EXIT_VIOLATION  # e_2 is not in set 0
    assert exit_with(([e[1]], None)) == EXIT_VIOLATION  # set 1 unrepresented
    assert exit_with((None, [0, 1])) == EXIT_VIOLATION  # the union spans F^3
    assert exit_with((None, [2])) == EXIT_VIOLATION  # no such set


def _dumps(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


def test_json_text_writes_every_report_and_instance_as_json_dumps():
    """The golden files, the checks' and demos' own reports, and each `gen` kind's instances."""
    for path in sorted(GOLDEN.iterdir()):
        data = json.loads(path.read_text())
        assert json_text(data) == _dumps(data), path.name
    for entry in json.loads((GOLDEN / "manifest.json").read_text()):
        data = json.loads((GOLDEN / entry["instance"]).read_text())
        report, _ = cli.CHECKS[entry["theorem"]](data, RunConfig(trials=10))
        assert json_text(report) == _dumps(report), entry["theorem"]
    for name, demo in cli.DEMOS.items():
        report, _ = demo(RunConfig())
        assert json_text(report) == _dumps(report), name
    for kind, (gen, sizes) in cli.GENERATORS.items():
        for seed in range(3):
            data = gen(random.Random(seed), **sizes)
            assert json_text(data) == _dumps(data), (kind, seed)


_CHARS = 'aZ09 "\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u4e2d\u2028\ud800\U0001f600'


def _random_text(rng) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_json(rng, depth=0):
    """A nested value of the types reports hold, with empty containers, escapes and wide ints."""
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, -(2**64) - 3, 2**70 + 1, rng.randint(-(10**30), 10**30)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([{}, [], (), {"": {}}, [[]], [{}, []], {"a": []}])
    if kind == 4:
        return rng.choice([0.5, -2.5e300, 1e-7])
    if kind == 5:
        return rng.choice(["", "1/2", "-3"])
    if kind == 6:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 7:
        return tuple(_random_json(rng, depth + 1) for _ in range(rng.randrange(4)))
    return {_random_text(rng): _random_json(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_json_text_matches_json_dumps_on_random_values():
    rng = random.Random(36)
    for _ in range(600):
        x = _random_json(rng)
        assert json_text(x) == _dumps(x), x


def _outcome(capsys, run):
    try:
        code = run()
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "konig", _KONIG, "--output", "json", "--trials", "3"],
        ["check", "hall", str(GOLDEN / "hall.json"), "--seed", "2"],
        ["check", "lgv", str(GOLDEN / "lgv.json"), "--output", "json", "--coeff-bound", "9"],
        ["gen", "relation", "n=2", "m=3", "r=2", "--seed", "5"],
        ["gen", "lgv"],
        ["demo", "skew3", "--output", "json"],
        ["demo", "linorder-f4", "--seed", "1", "--budget", "4"],
        ["check", "nosuch", "f"],
        ["check", "konig", "f", "--trials", "0"],
        ["check", "lgv", "f", "--coeff-bound", "0"],
        ["check", "konig", "f", "--bogus"],
        ["check", "konig", "f", "--bogus", "x", "--seed", "1"],
        ["check", "konig"],
        ["check", "-h"],
        ["gen", "relation", "size=16"],
        ["nosuch"],
        ["-h"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_dispatch_matches_the_top_level_parser(argv, capsys):
    """`main` gives the exit code, stdout and stderr of parsing the whole line at the top level."""

    def parsed():
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    assert _outcome(capsys, lambda: main(argv)) == _outcome(capsys, parsed)

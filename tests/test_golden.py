"""Golden reports: `check --output json` must reproduce the recorded bytes.

`tests/golden/manifest.json` lists one instance per theorem, the `gen`
command it came from (and, where a theorem needs more than `gen` emits, how
the file was derived from that output), the expected exit code and the file
holding the expected stdout.  A change of exact storage or of a search order
cannot then alter a report unnoticed.  The three `demo --output json`
reports are pinned the same way, in `tests/golden/demo-<name>.out`.
"""

import json
from pathlib import Path

import pytest

from linminmax.cli import CHECKS, DEMOS, EXIT_PROVED, main
from linminmax.exact_linalg import Mat
from linminmax.relation import MatrixSpace
from conftest import blow_up
from reference import space_contains

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def _stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_manifest_covers_every_theorem():
    assert sorted(e["theorem"] for e in MANIFEST) == sorted(CHECKS)


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["theorem"] for e in MANIFEST])
def test_golden_report(entry, capsys):
    path = GOLDEN / entry["instance"]
    if entry["derived"] is None:
        _, text = _stdout(capsys, ["gen", *entry["gen"]])
        assert text == path.read_text()
    argv = ["check", entry["theorem"], str(path), "--output", "json", "--trials", "10"]
    code, out = _stdout(capsys, argv)
    assert code == entry["exit"]
    assert out == (GOLDEN / entry["report"]).read_text()


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_golden_demo(name, capsys):
    code, out = _stdout(capsys, ["demo", name, "--output", "json"])
    assert code == EXIT_PROVED
    assert out == (GOLDEN / f"demo-{name}.out").read_text()


def test_ncrank_golden_element_is_a_primal():
    """The pinned element lies in V (x) M_r and has rank r * ncrank."""
    V = MatrixSpace.from_json(json.loads((GOLDEN / "ncrank.json").read_text()))
    report = json.loads((GOLDEN / "ncrank.out").read_text())
    r = report["element"]["r"]
    element = Mat.from_json(report["element"]["matrix"])
    assert space_contains(blow_up(V, r).space, element)
    assert element.rank() == r * report["ncrank"]

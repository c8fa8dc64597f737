"""Byte-identical documents for every document command.

Each case runs one command in process on fixed inputs, with ``--out``,
and compares the SHA-256 of the written document with the digest stored
in ``tests/golden/<case>.sha256``; the kappa table is pinned in
``test_cli.py``.  The module needs no pytest, so an interpreter without
it checks every digest as a plain script:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from polyforge.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# the derived subdivision of the boundary of the tetrahedron (a flag
# 2-sphere) and of the solid tetrahedron (a 3-ball)
SPHERE = {"vertices": 14, "facets": [
    [0, 4, 10], [0, 4, 11], [0, 5, 10], [0, 5, 12], [0, 6, 11], [0, 6, 12],
    [1, 4, 10], [1, 4, 11], [1, 7, 10], [1, 7, 13], [1, 8, 11], [1, 8, 13],
    [2, 5, 10], [2, 5, 12], [2, 7, 10], [2, 7, 13], [2, 9, 12], [2, 9, 13],
    [3, 6, 11], [3, 6, 12], [3, 8, 11], [3, 8, 13], [3, 9, 12], [3, 9, 13]]}
BALL = {"vertices": 15, "facets": [f + [14] for f in SPHERE["facets"]]}
# the boundary of the ball's first tetrahedron, [0, 4, 10, 14]
TETRA = {"vertices": 15, "facets": [
    [0, 4, 10], [0, 4, 14], [0, 10, 14], [4, 10, 14]]}

# two lines and a point in the plane, with rational offsets
ARRANGEMENT = {"dim": 2, "subspaces": [
    {"basis": [["1", "1/2"]], "offset": ["0", "1/3"]},
    {"basis": [["0", "1"]], "offset": ["-2/5", "0"]},
    {"basis": [], "offset": ["3", "7/2"]}]}

PPCONFIG = {
    "format": "polyforge/1", "kind": "ppconfig", "ambient_dim": 2,
    "polytope_vertices": [
        [{"a": x, "b": "0", "c": "0", "d": "0"},
         {"a": y, "b": "0", "c": "0", "d": "0"}]
        for x, y in (("0", "0"), ("2", "0"), ("0", "1/2"), ("3/2", "1"))],
    "free_points": [
        [{"a": "5", "b": "0", "c": "0", "d": "0"},
         {"a": "-1/3", "b": "0", "c": "0", "d": "0"}]],
    "metadata": None,
}

INPUTS = {"sphere.json": SPHERE, "ball.json": BALL, "tetra.json": TETRA,
          "arr.json": ARRANGEMENT, "pp.json": PPCONFIG}

CASES = {
    "hirsch_segment": ["hirsch", "segment", "--complex", "sphere.json",
                       "--from", "0,4,10", "--to", "3,9,13"],
    "hirsch_diameter": ["hirsch", "diameter", "--complex", "sphere.json"],
    "morse_collapse": ["morse", "collapse", "--complex", "ball.json"],
    "morse_collapse_outj": ["morse", "collapse", "--complex", "ball.json",
                            "--target", "tetra.json", "--out-j", "2"],
    "arr_betti": ["arr", "betti", "--file", "arr.json", "--i", "1"],
    "proj_staudt": ["proj", "staudt", "--poly", "x^3 - 3x + 1/2"],
    "proj_lawrence": ["proj", "lawrence", "--config", "pp.json"],
    "proj_kconfig": ["proj", "k-config", "--verify"],
    "proj_pcctp": ["proj", "pcctp", "--n", "5"],
    "cct4": ["cct", "generate", "--n", "4"],
    "cct12": ["cct", "generate", "--n", "12"],
}


def check_case(case: str, workdir: Path) -> None:
    for name, doc in INPUTS.items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(workdir / a) if a in INPUTS else a for a in CASES[case]]
    out_file = workdir / f"{case}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out_file)]) == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    want = (GOLDEN_DIR / f"{case}.sha256").read_text().split()[0]
    assert digest == want, f"{case}: {digest} != {want}"


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", sorted(CASES))


def test_document_matches_golden_digest(case, tmp_path):
    check_case(case, tmp_path)


def test_every_digest_has_a_case():
    assert {p.stem for p in GOLDEN_DIR.glob("*.sha256")} == set(CASES)


if __name__ == "__main__":
    failed = 0
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            try:
                check_case(case, Path(work))
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {case}: {exc}")
            else:
                print(f"ok {case}")
    sys.exit(1 if failed else 0)

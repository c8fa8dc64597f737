"""End-to-end exercises of the command line entry point.

Every command runs in process through main(argv), so exit codes and
stdout are checked directly.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyforge
from polyforge import cct as cct_mod
from polyforge import cli, hirschpath
from polyforge.cli import main
from polyforge.cct import generate
from polyforge.complexcore import SimplicialComplex, boundary_sphere, simplex_complex
from polyforge.exactfield import FieldElem
from polyforge.morse import MorseMatching, collapse_search, validate_matching
from polyforge.projective import IncidenceProgram, evaluate_slp, proj_equal

GOLDEN = Path(__file__).parent / "golden" / "kappa10.txt"


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def tetra_file(tmp_path):
    return write_json(tmp_path / "tetra.json", boundary_sphere(3).to_json())


class TestExitDiscipline:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["hirsch", "diameter", "--complex", missing]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["cct", "generate", "--n", "1"],
        ["proj", "staudt", "--poly", "x-1"],
        ["proj", "pcctp", "--n", "2"],
    ])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, argv, where):
        target = str(tmp_path / "no" / "such.json" if where == "missing-dir"
                     else tmp_path)
        assert main(argv + ["--out", target]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write {target}: ")
        assert "wrote" not in captured.out

    @pytest.mark.parametrize("argv", [["cct", "verify", "--file"],
                                      ["hirsch", "diameter", "--complex"]])
    def test_non_utf8_input_is_usage_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "bin.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(argv + [str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{bad} is not valid JSON: 'utf-8' codec")
        assert captured.out == ""

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["hirsch", "diameter", "--complex", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", [[], ["kind"], "cct", 3, None])
    @pytest.mark.parametrize("argv", [
        ["cct", "verify", "--file"],
        ["hirsch", "diameter", "--complex"],
        ["arr", "betti", "--i", "0", "--file"],
        ["proj", "lawrence", "--config"],
    ])
    def test_non_object_json_is_usage_error(self, tmp_path, capsys, argv, value):
        doc = write_json(tmp_path / "doc.json", value)
        assert main(argv + [doc]) == 2
        captured = capsys.readouterr()
        assert "not an object" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["cct", "generate", "--n", "-3"],
        ["cct", "generate", "--n", "0"],
        ["cct", "kappa", "--upto", "-1"],
        ["proj", "pcctp", "--n", "-2"],
        ["arr", "betti", "--file", "unread.json", "--i", "-1"],
        ["morse", "collapse", "--complex", "unread.json", "--budget", "-1"],
        ["morse", "collapse", "--complex", "unread.json",
         "--target", "unread.json", "--out-j", "-1"],
    ])
    def test_out_of_range_argument_is_usage_error(self, capsys, monkeypatch, argv):
        # rejected while parsing, before any construction runs
        monkeypatch.setattr(cct_mod, "generate", None)
        monkeypatch.setattr(cct_mod, "kappa_chain", None)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "must be at least" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["cct", "kappa", "--upto", "1", "--seed", "3"],
        ["cct", "kappa", "--upto", "1", "--out", "k.json"],
        ["cct", "verify", "--file", "unread.json", "--out", "v.json"],
        ["cct", "generate", "--n", "3", "--budget", "10"],
        ["morse", "validate", "--complex", "unread.json",
         "--matching", "unread.json", "--out", "x"],
        ["morse", "validate", "--complex", "unread.json",
         "--matching", "unread.json", "--seed", "1"],
        ["morse", "collapse", "--complex", "unread.json", "--seed", "1"],
        ["hirsch", "diameter", "--complex", "unread.json", "--budget", "5"],
        ["proj", "pcctp", "--n", "2", "--seed", "1"],
    ])
    def test_flag_a_command_does_not_read_is_usage_error(self, capsys,
                                                         monkeypatch, argv):
        # rejected while parsing, before any construction runs
        monkeypatch.setattr(cct_mod, "generate", None)
        monkeypatch.setattr(cct_mod, "kappa_chain", None)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("doc", [
        {"vertices": 3, "facets": [[0, 1.5], [1.5, 2]]},
        {"vertices": 3.5, "facets": [[0, 1], [1, 2]]},
        {"vertices": 3, "facets": [[0, True], [1, 2]]},
        {"vertices": True, "facets": [[0]]},
        {"vertices": "3", "facets": [[0, 1], [1, 2]]},
    ])
    @pytest.mark.parametrize("argv", [
        ["hirsch", "segment", "--from", "0,1", "--to", "1,2", "--complex"],
        ["hirsch", "diameter", "--complex"],
        ["morse", "collapse", "--complex"],
    ])
    def test_non_integer_vertex_id_is_usage_error(self, tmp_path, capsys,
                                                  argv, doc):
        c_file = write_json(tmp_path / "c.json", doc)
        assert main(argv + [c_file]) == 2
        captured = capsys.readouterr()
        assert "is not a complex document" in captured.err
        assert "must be integers" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["hirsch", "segment", "--from", "0,1", "--to", "1,2", "--complex"],
        ["hirsch", "diameter", "--complex"],
        ["morse", "collapse", "--complex"],
    ])
    def test_negative_vertex_count_is_usage_error(self, tmp_path, capsys, argv):
        c_file = write_json(tmp_path / "neg.json", {"vertices": -3, "facets": []})
        assert main(argv + [c_file]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{c_file} is not a complex document: negative vertex count -3"]
        assert captured.out == ""

    def test_cli_import_leaves_networkx_unloaded(self):
        src = str(Path(polyforge.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c",
             "import polyforge.cli, sys; assert 'networkx' not in sys.modules"],
            env={**os.environ, "PYTHONPATH": path}, check=True)


class TestHirschCommands:
    def test_diameter(self, tetra_file, capsys):
        assert main(["hirsch", "diameter", "--complex", tetra_file]) == 0
        out = capsys.readouterr().out
        assert "diameter" in out
        assert "1" in out

    def test_segment_bundle(self, tetra_file, tmp_path, capsys):
        out_file = tmp_path / "path.json"
        rc = main([
            "hirsch", "segment", "--complex", tetra_file,
            "--from", "0,1,2", "--to", "1,2,3",
            "--out", str(out_file),
        ])
        assert rc == 0
        capsys.readouterr()
        bundle = json.loads(out_file.read_text(encoding="utf-8"))
        assert bundle["format"] == "polyforge/1"
        assert bundle["path"]["facets"][0] == [0, 1, 2]
        assert bundle["path"]["facets"][-1] == [1, 2, 3]
        checks = {c["name"]: c["pass"] for c in bundle["checks"]}
        assert checks["non-revisiting"] is True
        assert bundle["pass"] is True

    def test_segment_to_stdout(self, tetra_file, capsys):
        rc = main([
            "hirsch", "segment", "--complex", tetra_file,
            "--from", "0,1,2", "--to", "0,1,3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["kind"] == "facet-path"

    def test_segment_failed_ridge_check(self, tetra_file, tmp_path, capsys,
                                        monkeypatch):
        # a path whose two facets are one and the same fails the computed
        # check, with validate_path's message as its witness
        bad = hirschpath.FacetPath(((0, 1, 2), (0, 1, 2)), (), (1,))
        monkeypatch.setattr(hirschpath, "combinatorial_segment", lambda c, x, y: bad)
        out_file = tmp_path / "path.json"
        rc = main(["hirsch", "segment", "--complex", tetra_file,
                   "--from", "0,1,2", "--to", "1,2,3", "--out", str(out_file)])
        assert rc == 1
        capsys.readouterr()
        bundle = json.loads(out_file.read_text(encoding="utf-8"))
        assert bundle["checks"][0] == {
            "name": "ridge-adjacency", "pass": False,
            "witness": "facets (0, 1, 2) and (0, 1, 2) do not share a ridge"}
        assert bundle["pass"] is False

    def test_segment_unknown_facet(self, tetra_file, capsys):
        rc = main([
            "hirsch", "segment", "--complex", tetra_file,
            "--from", "0,1,9", "--to", "1,2,3",
        ])
        assert rc == 1
        capsys.readouterr()


class TestMorseCommands:
    def test_collapse_writes_valid_matching(self, tmp_path, capsys):
        c = simplex_complex(2)
        c_file = write_json(tmp_path / "triangle.json", c.to_json())
        m_file = tmp_path / "matching.json"
        rc = main(["morse", "collapse", "--complex", c_file,
                   "--out", str(m_file)])
        assert rc == 0
        capsys.readouterr()
        stored = json.loads(m_file.read_text(encoding="utf-8"))
        m = MorseMatching.from_json(stored)
        assert validate_matching(c, m)

    def test_collapse_budget_exhaustion_fails(self, tmp_path, capsys):
        circle = boundary_sphere(2)
        c_file = write_json(tmp_path / "circle.json", circle.to_json())
        rc = main(["morse", "collapse", "--complex", c_file,
                   "--budget", "50"])
        assert rc == 1
        capsys.readouterr()

    def test_budget_exhaustion_reports_nodes_spent(self, tmp_path, capsys):
        circle = boundary_sphere(2)
        c_file = write_json(tmp_path / "circle.json", circle.to_json())
        assert main(["morse", "collapse", "--complex", c_file,
                     "--budget", "50"]) == 1
        # no face of a circle is free: the search tried everything in
        # one node
        assert capsys.readouterr().out == (
            "FAIL: no collapse exists after 1 node\n")

    @pytest.mark.parametrize("budget, nodes", [("3", "3 nodes"), ("0", "0 nodes")])
    def test_budget_spent_reports_nodes(self, tmp_path, capsys, budget, nodes):
        c_file = write_json(tmp_path / "c.json", simplex_complex(2).to_json())
        # a triangle needs four nodes; a budget of 0 visits none
        assert main(["morse", "collapse", "--complex", c_file,
                     "--budget", budget]) == 1
        assert capsys.readouterr().out == (
            f"FAIL: collapse budget exhausted after {nodes}\n")

    def test_out_j_exhaustion_reports_nodes_spent(self, tmp_path, capsys):
        c_file = write_json(tmp_path / "c.json", boundary_sphere(2).to_json())
        # a circle onto itself needs one crossing through an edge, but no
        # face of a circle is free
        assert main(["morse", "collapse", "--complex", c_file, "--target", c_file,
                     "--out-j", "1", "--budget", "5000"]) == 1
        assert capsys.readouterr().out == (
            "FAIL: no constrained collapse exists after 1 node\n")

    def test_target_outside_complex_names_its_facets(self, tmp_path, capsys):
        from test_golden import BALL
        c_file = write_json(tmp_path / "ball.json", BALL)
        t_file = write_json(tmp_path / "far.json", {
            "vertices": 40, "facets": [[0, 4, 39]]})
        assert main(["morse", "collapse", "--complex", c_file,
                     "--target", t_file]) == 1
        assert capsys.readouterr().out == (
            "FAIL: target faces not in complex: [(0, 4, 39)]\n")

    def test_out_j_infeasible_crossing_count_fails_at_once(self, tmp_path, capsys):
        from test_golden import BALL
        c_file = write_json(tmp_path / "ball.json", BALL)
        t_file = write_json(tmp_path / "circle.json", {
            "vertices": 15, "facets": [[0, 4], [0, 10], [4, 10]]})
        # the circle of the triangle (0, 4, 10) has chi = 0, so every even
        # j needs (-1)^j (chi - 1) = -1 crossings
        for j in ("0", "2"):
            assert main(["morse", "collapse", "--complex", c_file, "--target", t_file,
                         "--out-j", j, "--budget", "1000"]) == 1
            assert capsys.readouterr().out == (
                f"FAIL: a constrained collapse needs -1 crossings of {j}-faces "
                f"and the subcomplex has {3 if j == '0' else 0}; none found "
                "after 0 nodes\n")

    def test_budget_env_variable(self, tmp_path, capsys, monkeypatch):
        circle = boundary_sphere(2)
        c_file = write_json(tmp_path / "circle.json", circle.to_json())
        monkeypatch.setenv("POLYFORGE_BUDGET", "50")
        rc = main(["morse", "collapse", "--complex", c_file])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["lots", "-5", ""])
    def test_bad_budget_env_variable_is_usage_error(self, tetra_file, capsys,
                                                    monkeypatch, value):
        monkeypatch.setenv("POLYFORGE_BUDGET", value)
        assert main(["morse", "collapse", "--complex", tetra_file]) == 2
        captured = capsys.readouterr()
        assert "POLYFORGE_BUDGET" in captured.err
        assert captured.out == ""

    def test_collapse_to_target(self, tmp_path, capsys):
        c = simplex_complex(2)
        target = SimplicialComplex(3, [(0,)])
        c_file = write_json(tmp_path / "c.json", c.to_json())
        t_file = write_json(tmp_path / "t.json", target.to_json())
        rc = main(["morse", "collapse", "--complex", c_file,
                   "--target", t_file])
        assert rc == 0
        capsys.readouterr()

    def test_out_j_ledger_reported(self, tmp_path, capsys):
        c = simplex_complex(2)
        target = SimplicialComplex(3, [(0,), (1,), (0, 1)])
        c_file = write_json(tmp_path / "c.json", c.to_json())
        t_file = write_json(tmp_path / "t.json", target.to_json())
        rc = main(["morse", "collapse", "--complex", c_file,
                   "--target", t_file, "--out-j", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ledger" in out

    def test_golden_ball_onto_its_boundary_sphere(self, tmp_path, capsys):
        from test_golden import BALL, SPHERE
        c_file = write_json(tmp_path / "ball.json", BALL)
        t_file = write_json(tmp_path / "sphere.json", SPHERE)
        assert main(["morse", "collapse", "--complex", c_file, "--target", t_file,
                     "--out-j", "2", "--out", str(tmp_path / "m.json")]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "collapse found: 74 pairs", "ledger: 1 crossing faces [[0, 4, 10]]"]

    def test_validate_good_and_tampered(self, tmp_path, capsys):
        c = simplex_complex(2)
        m = collapse_search(c)
        c_file = write_json(tmp_path / "c.json", c.to_json())
        good = write_json(tmp_path / "m.json", m.to_json())
        assert main(["morse", "validate", "--complex", c_file,
                     "--matching", good]) == 0
        doubled = {"pairs": m.to_json()["pairs"] + [m.to_json()["pairs"][0]]}
        bad = write_json(tmp_path / "bad.json", doubled)
        assert main(["morse", "validate", "--complex", c_file,
                     "--matching", bad]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("pairs,named", [
        ("x", "'x'"),
        ([[[0]]], "[[0]]"),
        ([[[0], [0, 1], [1]]], "[[0], [0, 1], [1]]"),
        ([[[0], [0, 1]], [[1], 5]], "[[1], 5]"),
        ([[[[0]], [[0], [1]]]], "[[[0]], [[0], [1]]]"),
        ([[[True], [0, 1]]], "[[True], [0, 1]]"),
        ([[[0], [0, "1"]]], "[[0], [0, '1']]"),
    ])
    def test_validate_malformed_pair_is_usage_error(self, tmp_path, capsys,
                                                    pairs, named):
        c_file = write_json(tmp_path / "c.json", simplex_complex(2).to_json())
        bad = write_json(tmp_path / "bad.json", {"pairs": pairs})
        assert main(["morse", "validate", "--complex", c_file,
                     "--matching", bad]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{bad} is not a matching document: "
                                f"pair {named} is not two faces\n")
        assert captured.out == ""


class TestArrangementCommand:
    def test_codim_two_plane_betti_one(self, tmp_path, capsys):
        arr = {
            "dim": 4,
            "subspaces": [{
                "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                "offset": ["0", "0", "0", "0"],
            }],
        }
        a_file = write_json(tmp_path / "arr.json", arr)
        rc = main(["arr", "betti", "--file", a_file, "--i", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "b_1 = 1" in out

    def test_two_planes(self, tmp_path, capsys):
        arr = {
            "dim": 4,
            "subspaces": [
                {"basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                 "offset": ["0", "0", "0", "0"]},
                {"basis": [["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                 "offset": ["0", "0", "0", "0"]},
            ],
        }
        a_file = write_json(tmp_path / "arr.json", arr)
        for i, expect in ((0, 1), (1, 2), (2, 1), (3, 0)):
            rc = main(["arr", "betti", "--file", a_file, "--i", str(i)])
            assert rc == 0
            out = capsys.readouterr().out
            assert f"b_{i} = {expect}" in out

    def test_empty_arrangement_is_usage_error(self, tmp_path, capsys):
        a_file = write_json(tmp_path / "arr.json", {"dim": 2, "subspaces": []})
        assert main(["arr", "betti", "--file", a_file, "--i", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{a_file} is not an arrangement document: "
                                "arrangement must be nonempty\n")
        assert captured.out == ""

    def test_whole_space_member_is_usage_error(self, tmp_path, capsys):
        arr = {"dim": 2, "subspaces": [
            {"basis": [["1", "0"], ["0", "1"]], "offset": ["0", "0"]}]}
        a_file = write_json(tmp_path / "arr.json", arr)
        assert main(["arr", "betti", "--file", a_file, "--i", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{a_file} is not an arrangement document: "
                                "a member is the whole space\n")
        assert captured.out == ""

    def test_zero_denominator_is_usage_error(self, tmp_path, capsys):
        arr = {
            "dim": 4,
            "subspaces": [{
                "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                "offset": ["1/0", "0", "0", "0"],
            }],
        }
        a_file = write_json(tmp_path / "arr.json", arr)
        assert main(["arr", "betti", "--file", a_file, "--i", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{a_file} is not an arrangement document: "
                                "it has a zero denominator\n")
        assert captured.out == ""

    @pytest.mark.parametrize("entry,kind", [(True, "bool"), (False, "bool"),
                                            (0.5, "float")])
    def test_offset_that_is_not_exact_is_usage_error(self, tmp_path, capsys,
                                                      entry, kind):
        # Python's True == 1, but a JSON boolean is not a coordinate
        arr = {"dim": 2, "subspaces": [{"basis": [], "offset": [entry, "0"]}]}
        a_file = write_json(tmp_path / "arr.json", arr)
        assert main(["arr", "betti", "--file", a_file, "--i", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"{a_file} is not an arrangement document: expected a FieldElem, "
            f"int, Fraction or rational string, got {kind}\n")
        assert captured.out == ""


    @pytest.mark.parametrize("dim,point", [(2.7, ["0", "0"]), (True, ["0"]),
                                           ("2", ["0", "0"]), (None, [])])
    def test_malformed_dim_is_usage_error(self, tmp_path, capsys, dim, point):
        arr = {"dim": dim, "subspaces": [{"basis": [], "offset": point}]}
        a_file = write_json(tmp_path / "arr.json", arr)
        assert main(["arr", "betti", "--file", a_file, "--i", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{a_file} is not an arrangement document: "
                                f"dim must be an integer, got {dim!r}\n")
        assert captured.out == ""


class TestCctCommands:
    def test_kappa_matches_golden_file(self, capsys):
        assert main(["cct", "kappa", "--upto", "10"]) == 0
        out = capsys.readouterr().out
        assert out == GOLDEN.read_text(encoding="utf-8")

    def test_kappa_deterministic(self, capsys):
        assert main(["cct", "kappa", "--upto", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["cct", "kappa", "--upto", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_generate_verify_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "cct3.json"
        rc = main(["cct", "generate", "--n", "3", "--out", str(out_file)])
        assert rc == 0
        capsys.readouterr()
        bundle = json.loads(out_file.read_text(encoding="utf-8"))
        assert bundle["format"] == "polyforge/1"
        assert bundle["subject"]["f0"] == 48
        assert bundle["pass"] is True
        assert all(c["pass"] for c in bundle["checks"])
        assert main(["cct", "verify", "--file", str(out_file)]) == 0
        capsys.readouterr()

    def test_verify_rejects_width_zero(self, tmp_path, capsys):
        doc = generate(1).to_json()
        doc["width"] = 0
        doc["vertices"] = doc["vertices"][:12]
        doc["kappas"] = doc["kappas"][:1]
        bad = write_json(tmp_path / "cct0.json", doc)
        assert main(["cct", "verify", "--file", bad]) == 2
        captured = capsys.readouterr()
        assert "width must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("width", [4.9, 4.0, "4", True, None])
    def test_verify_malformed_width_is_usage_error(self, tmp_path, capsys, width):
        doc = generate(4).to_json()
        doc["width"] = width
        bad = write_json(tmp_path / "bad.json", doc)
        assert main(["cct", "verify", "--file", bad]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{bad} is malformed: "
                                f"width must be an integer, got {width!r}\n")
        assert captured.out == ""

    def test_verify_detects_tampering(self, tmp_path, capsys):
        geo = generate(3)
        doc = geo.to_json()
        doc["vertices"][0][0] = FieldElem(Fraction(1, 7)).to_json()
        bad = write_json(tmp_path / "bad.json", doc)
        assert main(["cct", "verify", "--file", bad]) == 1
        capsys.readouterr()

    def test_verify_checks_symmetry_once(self, tmp_path, capsys, monkeypatch):
        out_file = tmp_path / "cct3.json"
        assert main(["cct", "generate", "--n", "3", "--out", str(out_file)]) == 0
        calls = []
        real = cct_mod.check_symmetric
        monkeypatch.setattr(cct_mod, "check_symmetric",
                            lambda geo, record=None:
                            calls.append(geo) or real(geo, record))
        assert main(["cct", "verify", "--file", str(out_file)]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_verify_rejects_broken_symmetry_bundle(self, tmp_path, capsys):
        out_file = tmp_path / "cct3.json"
        assert main(["cct", "generate", "--n", "3", "--out", str(out_file)]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        doc["cct"]["vertices"][5][1] = FieldElem(Fraction(2, 9)).to_json()
        bad = write_json(tmp_path / "bad.json", doc)
        assert main(["cct", "verify", "--file", bad]) == 1
        assert "FAIL: symmetry violation" in capsys.readouterr().out

    @pytest.mark.parametrize("field,value,message", [
        ("zero-denominator", None, "vertex 3 has a zero denominator"),
        ("four-coordinates", 4, "vertex 3 has 4 coordinates, not 5"),
        ("six-coordinates", 6, "vertex 3 has 6 coordinates, not 5"),
        ("kappa-count", None, "3 kappas for width 3, expected 4"),
    ])
    def test_verify_malformed_tube_is_usage_error(self, tmp_path, capsys,
                                                  field, value, message):
        doc = generate(3).to_json()
        if field == "zero-denominator":
            doc["vertices"][3][0]["a"] = "1/0"
        elif field == "kappa-count":
            doc["kappas"] = doc["kappas"][:3]
        else:
            doc["vertices"][3] = (doc["vertices"][3]
                                  + [FieldElem(0).to_json()])[:value]
        bad = write_json(tmp_path / "bad.json", doc)
        assert main(["cct", "verify", "--file", bad]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("width", [1, 2])
    def test_narrow_widths_pass(self, tmp_path, capsys, width):
        out_file = tmp_path / f"cct{width}.json"
        assert main(["cct", "generate", "--n", str(width),
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        bundle = json.loads(out_file.read_text(encoding="utf-8"))
        checks = {c["name"]: c for c in bundle["checks"]}
        assert bundle["pass"] is True
        assert checks["orientation"]["witness"] == "skipped: width below three"
        assert checks["convex-position"]["witness"] == "skipped: width below three"
        assert bundle["subject"]["f0"] == 12 * (width + 1)
        assert main(["cct", "verify", "--file", str(out_file)]) == 0
        assert "orientation: pass" in capsys.readouterr().out


class TestProjCommands:
    def test_staudt_emits_runnable_program(self, tmp_path, capsys):
        slp = tmp_path / "slp.json"
        rc = main(["proj", "staudt", "--poly", "x^2-2", "--at", "sqrt2",
                   "--emit", str(slp)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "root: yes" in out
        prog = IncidenceProgram.from_json(
            json.loads(slp.read_text(encoding="utf-8")))
        s2 = FieldElem.sqrt2()
        one = FieldElem(1)
        zero = FieldElem(0)
        res = evaluate_slp(prog, {"x": (s2, zero, one)})
        assert proj_equal(res[prog.outputs[0]], (zero, zero, one))

    def test_staudt_emit_is_out(self, tmp_path, capsys):
        outputs = {}
        for flag in ("--emit", "--out"):
            target = tmp_path / f"slp{flag}.json"
            assert main(["proj", "staudt", "--poly", "x^2-2", "--at", "sqrt2",
                         flag, str(target)]) == 0
            outputs[flag] = (target.read_bytes(),
                             capsys.readouterr().out.replace(str(target), "FILE"))
        assert outputs["--emit"] == outputs["--out"]
        assert outputs["--out"][1].endswith("wrote FILE\n")

    def test_staudt_non_root(self, capsys):
        rc = main(["proj", "staudt", "--poly", "x^2-2", "--at", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "root: no" in out

    def test_staudt_poly_forms(self, capsys):
        for poly, at in (("--poly=7x-3", "3/7"),
                         ("--poly=x^3 - 2*x + 1/2", "sqrt2"),
                         ("--poly=-x^2+3", "sqrt3")):
            rc = main(["proj", "staudt", poly, "--at", at])
            assert rc == 0
        out = capsys.readouterr().out
        assert out.count("root: yes") == 2
        assert out.count("root: no") == 1

    def test_staudt_rejects_garbage(self, capsys):
        assert main(["proj", "staudt", "--poly", "x^^2"]) == 2
        assert main(["proj", "staudt", "--poly", "x^2-2", "--at", "y"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv,err", [
        (["--poly", "x^2-2", "--at", "1/0"], "value '1/0'"),
        (["--poly", "1/0x-1"], "polynomial term '1/0x'"),
        (["--poly", "x^2-2", "--at", "1/0*sqrt2"], "value '1/0*sqrt2'"),
    ])
    def test_staudt_zero_denominator_is_usage_error(self, capsys, argv, err):
        assert main(["proj", "staudt"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"cannot parse {err}: zero denominator\n"
        assert captured.out == ""

    def test_lawrence_counts(self, tmp_path, capsys):
        cfg = {
            "format": "polyforge/1",
            "kind": "ppconfig",
            "ambient_dim": 2,
            "polytope_vertices": [
                [FieldElem(x).to_json(), FieldElem(y).to_json()]
                for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))
            ],
            "free_points": [
                [FieldElem(3).to_json(), FieldElem(3).to_json()],
            ],
            "metadata": None,
        }
        c_file = write_json(tmp_path / "pp.json", cfg)
        out_file = tmp_path / "lifted.json"
        rc = main(["proj", "lawrence", "--config", c_file,
                   "--out", str(out_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6" in out
        bundle = json.loads(out_file.read_text(encoding="utf-8"))
        assert bundle["subject"]["f0"] == 6
        assert bundle["subject"]["ambient_dim"] == 3
        assert bundle["pass"] is True

    def test_lawrence_invalid_config_fails(self, tmp_path, capsys):
        cfg = {
            "format": "polyforge/1",
            "kind": "ppconfig",
            "ambient_dim": 2,
            "polytope_vertices": [
                [FieldElem(x).to_json(), FieldElem(y).to_json()]
                for x, y in ((0, 0), (4, 0), (0, 4))
            ],
            "free_points": [
                [FieldElem(1).to_json(), FieldElem(1).to_json()],
            ],
            "metadata": None,
        }
        c_file = write_json(tmp_path / "pp.json", cfg)
        assert main(["proj", "lawrence", "--config", c_file]) == 1
        capsys.readouterr()

    def test_lawrence_zero_denominator_is_usage_error(self, tmp_path, capsys):
        cfg = {
            "format": "polyforge/1",
            "kind": "ppconfig",
            "ambient_dim": 2,
            "polytope_vertices": [
                [FieldElem(x).to_json(), FieldElem(y).to_json()]
                for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))
            ],
            "free_points": [
                [FieldElem(3).to_json(), FieldElem(3).to_json()],
            ],
            "metadata": None,
        }
        cfg["free_points"][0][0]["a"] = "1/0"
        c_file = write_json(tmp_path / "pp.json", cfg)
        assert main(["proj", "lawrence", "--config", c_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{c_file} is not a point configuration "
                                "document: it has a zero denominator\n")
        assert captured.out == ""

    def test_lawrence_malformed_coefficient_is_usage_error(self, tmp_path,
                                                           capsys):
        cfg = {
            "format": "polyforge/1",
            "kind": "ppconfig",
            "ambient_dim": 2,
            "polytope_vertices": [
                [FieldElem(x).to_json(), FieldElem(y).to_json()]
                for x, y in ((0, 0), (1, 0), (0, 1))
            ],
            "free_points": [],
            "metadata": None,
        }
        cfg["polytope_vertices"][1][0]["a"] = "abc"
        c_file = write_json(tmp_path / "pp.json", cfg)
        assert main(["proj", "lawrence", "--config", c_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{c_file} is not a point configuration "
                                "document: Invalid literal for Fraction: 'abc'\n")
        assert captured.out == ""

    @pytest.mark.parametrize("vertices, code, out, err", [
        ([(0, 0), (1, 0, 5), (0, 1)], 2, "",
         "{file} is not a point configuration document: "
         "point does not match the ambient dimension\n"),
        ([], 2, "", "{file} is not a point configuration document: "
                    "empty vertex list\n"),
        ([(0, 0), (2, 0), (0, 2), (1, 1)], 1,
         "FAIL: point 3 is not a vertex of the polytope\n", ""),
    ])
    def test_lawrence_shape_is_usage_error_and_geometry_a_failure(
            self, tmp_path, capsys, vertices, code, out, err):
        # a vertex of the wrong length, or no vertex at all, is a malformed
        # document; a vertex inside the hull of the others is a failed check
        cfg = {
            "format": "polyforge/1",
            "kind": "ppconfig",
            "ambient_dim": 2,
            "polytope_vertices": [[FieldElem(x).to_json() for x in v]
                                  for v in vertices],
            "free_points": [[FieldElem(3).to_json(), FieldElem(3).to_json()]],
            "metadata": None,
        }
        c_file = write_json(tmp_path / "pp.json", cfg)
        assert main(["proj", "lawrence", "--config", c_file]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err.format(file=c_file))

    @pytest.mark.parametrize("doc", [{"kind": "ppconfig", "ambient_dim": 2}, []])
    def test_lawrence_malformed_config_is_usage_error(self, tmp_path, capsys, doc):
        c_file = write_json(tmp_path / "pp.json", doc)
        assert main(["proj", "lawrence", "--config", c_file]) == 2
        captured = capsys.readouterr()
        assert "not a point configuration document" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("dim", ["x", 2.5, None, True])
    def test_lawrence_malformed_ambient_dim_is_usage_error(self, tmp_path,
                                                          capsys, dim):
        cfg = {
            "format": "polyforge/1",
            "kind": "ppconfig",
            "ambient_dim": dim,
            "polytope_vertices": [
                [FieldElem(x).to_json(), FieldElem(y).to_json()]
                for x, y in ((0, 0), (1, 0), (0, 1))
            ],
            "free_points": [],
            "metadata": None,
        }
        c_file = write_json(tmp_path / "pp.json", cfg)
        assert main(["proj", "lawrence", "--config", c_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{c_file} is not a point configuration document: "
                                f"ambient_dim must be an integer, got {dim!r}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["lawrence", None, "slp"])
    def test_lawrence_wrong_kind_is_usage_error(self, tmp_path, capsys, kind):
        cfg = {
            "format": "polyforge/1",
            "ambient_dim": 2,
            "polytope_vertices": [
                [FieldElem(x).to_json(), FieldElem(y).to_json()]
                for x, y in ((0, 0), (1, 0), (0, 1))
            ],
            "free_points": [],
            "metadata": None,
        }
        if kind is not None:
            cfg["kind"] = kind
        c_file = write_json(tmp_path / "pp.json", cfg)
        assert main(["proj", "lawrence", "--config", c_file]) == 2
        captured = capsys.readouterr()
        assert "not a point configuration document" in captured.err
        assert captured.out == ""

    def test_k_config_verify(self, tmp_path, capsys):
        out_file = tmp_path / "k.json"
        rc = main(["proj", "k-config", "--verify", "--out", str(out_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "64" in out
        bundle = json.loads(out_file.read_text(encoding="utf-8"))
        assert len(bundle["subject"]["points"]) == 64
        assert bundle["pass"] is True
        names = {c["name"] for c in bundle["checks"]}
        assert "replay" in names

    def test_pcctp_counts(self, capsys):
        rc = main(["proj", "pcctp", "--n", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "69" in out
        assert "201" in out


# ---------------------------------------------------------------------------
# oracles: the parser, the emitter and the coefficient decoder against the
# behaviour they replaced


def ref_build_parser():
    """The full argparse tree as cli._build_parser made it with every
    command registered, kept here as the oracle for its usage lines, help
    texts and errors; each level's metavar lists its choices."""
    from polyforge import cli

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE",
                        help="write the JSON artifact here")

    parser = argparse.ArgumentParser(
        prog="polyforge",
        description="exact certificates for paths, collapses, "
                    "arrangements, tubes, and incidence constructions")
    groups = parser.add_subparsers(dest="group",
                                   metavar="{hirsch,morse,arr,cct,proj}")

    hirsch = groups.add_parser("hirsch").add_subparsers(
        dest="command", metavar="{segment,diameter}")
    seg = hirsch.add_parser("segment", parents=[common])
    seg.add_argument("--complex", required=True)
    seg.add_argument("--from", dest="from_facet", required=True)
    seg.add_argument("--to", dest="to_facet", required=True)
    seg.set_defaults(handler=cli._cmd_hirsch_segment)
    dia = hirsch.add_parser("diameter", parents=[common])
    dia.add_argument("--complex", required=True)
    dia.set_defaults(handler=cli._cmd_hirsch_diameter)

    morse = groups.add_parser("morse").add_subparsers(
        dest="command", metavar="{collapse,validate}")
    col = morse.add_parser("collapse", parents=[common])
    col.add_argument("--complex", required=True)
    col.add_argument("--target")
    col.add_argument("--out-j", dest="out_j", type=int, default=None)
    col.add_argument("--budget", type=cli._int_at_least(0), default=None,
                     help="search node budget (default POLYFORGE_BUDGET "
                          f"or {cli.DEFAULT_BUDGET})")
    col.set_defaults(handler=cli._cmd_morse_collapse)
    val = morse.add_parser("validate")
    val.add_argument("--complex", required=True)
    val.add_argument("--matching", required=True)
    val.set_defaults(handler=cli._cmd_morse_validate)

    arr = groups.add_parser("arr").add_subparsers(
        dest="command", metavar="{betti}")
    betti = arr.add_parser("betti", parents=[common])
    betti.add_argument("--file", required=True)
    betti.add_argument("--i", type=cli._int_at_least(0), required=True)
    betti.set_defaults(handler=cli._cmd_arr_betti)

    cct = groups.add_parser("cct").add_subparsers(
        dest="command", metavar="{generate,verify,kappa}")
    gen = cct.add_parser("generate", parents=[common])
    gen.add_argument("--n", type=cli._int_at_least(1), required=True)
    gen.set_defaults(handler=cli._cmd_cct_generate)
    ver = cct.add_parser("verify")
    ver.add_argument("--file", required=True)
    ver.set_defaults(handler=cli._cmd_cct_verify)
    kap = cct.add_parser("kappa")
    kap.add_argument("--upto", type=cli._int_at_least(0), required=True)
    kap.set_defaults(handler=cli._cmd_cct_kappa)

    proj = groups.add_parser("proj").add_subparsers(
        dest="command", metavar="{staudt,lawrence,k-config,pcctp}")
    sta = proj.add_parser("staudt")
    sta.add_argument("--poly", required=True)
    sta.add_argument("--at")
    sta.add_argument("--out", "--emit", dest="out", metavar="FILE",
                     help="write the program here")
    sta.set_defaults(handler=cli._cmd_proj_staudt)
    law = proj.add_parser("lawrence", parents=[common])
    law.add_argument("--config", required=True)
    law.set_defaults(handler=cli._cmd_proj_lawrence)
    kcfg = proj.add_parser("k-config", parents=[common])
    kcfg.add_argument("--verify", action="store_true")
    kcfg.set_defaults(handler=cli._cmd_proj_kconfig)
    pcc = proj.add_parser("pcctp", parents=[common])
    pcc.add_argument("--n", type=cli._int_at_least(1), required=True)
    pcc.set_defaults(handler=cli._cmd_proj_pcctp)

    return parser


def ref_main(argv) -> int:
    """cli.main on the reference parser."""
    from polyforge import cli

    parser = ref_build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except cli._UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"FAIL: {exc}")
        return 1


# (group, command): (its required flags with values, a malformed tail)
COMMAND_ARGV = {
    ("hirsch", "segment"): (["--complex", "c.json", "--from", "0,1",
                             "--to", "1,2"], ["--complex"]),
    ("hirsch", "diameter"): (["--complex", "c.json"], ["--complex"]),
    ("morse", "collapse"): (["--complex", "c.json"], ["--budget", "x"]),
    ("morse", "validate"): (["--complex", "c.json", "--matching", "m.json"],
                            ["--matching"]),
    ("arr", "betti"): (["--file", "a.json", "--i", "0"], ["--i", "x"]),
    ("cct", "generate"): (["--n", "3"], ["--n", "x"]),
    ("cct", "verify"): (["--file", "t.json"], ["--file"]),
    ("cct", "kappa"): (["--upto", "1"], ["--upto", "-1"]),
    ("proj", "staudt"): (["--poly", "x-1"], ["--emit"]),
    ("proj", "lawrence"): (["--config", "p.json"], ["--config"]),
    ("proj", "k-config"): ([], ["--verify=yes"]),
    ("proj", "pcctp"): (["--n", "2"], ["--n", "2.5"]),
}


def _argv_corpus():
    cases = [[], ["-h"], ["--help"], ["cct"], ["cct", "-h"], ["frobnicate"],
             ["cct", "frobnicate"], ["-h", "cct", "generate"],
             ["--out", "x", "cct", "generate", "--n", "1"]]
    cases += [[group, "-h"] for group in dict.fromkeys(g for g, _ in COMMAND_ARGV)]
    for (group, command), (required, malformed) in COMMAND_ARGV.items():
        head = [group, command]
        cases += [head + ["-h"], head, head + required + ["--frobnicate"],
                  head + required + ["extra"], head + required + malformed]
        if required:
            cases.append(head + required[:-2])
    return cases


def _run(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestArgvCorpus:
    @pytest.mark.parametrize("argv", _argv_corpus(), ids=" ".join)
    def test_matches_reference_parser(self, argv):
        assert _run(main, argv) == _run(ref_main, argv)


    @pytest.mark.parametrize("command", COMMAND_ARGV, ids="-".join)
    def test_parsed_namespace_matches_reference(self, command):
        argv = list(command) + COMMAND_ARGV[command][0]
        got = cli._build_parser(argv).parse_args(argv)
        assert vars(got) == vars(ref_build_parser().parse_args(argv))

    def test_command_builds_only_its_path_on_every_call(self, tmp_path,
                                                        capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(1) or
                            init(self, *a, **k))
        counts = []
        for _ in range(2):
            built.clear()
            assert main(["cct", "generate", "--n", "1",
                         "--out", str(tmp_path / "t.json")]) == 0
            counts.append(len(built))
        capsys.readouterr()
        # the top parser, the group and the command, built afresh each call
        assert 0 < counts[0] == counts[1] <= 4


# JSON trees of every kind json.dumps takes, keys of every kind it coerces
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(), st.sampled_from(["", "\n", "\x00\x1f", " ", "é", "\ud800",
                                "\U0001f600", '"\\/']))
_keys = st.one_of(st.text(), st.integers(), st.floats(allow_nan=True),
                  st.booleans(), st.none())
_trees = st.recursive(_scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=3), kids, max_size=4),
    st.dictionaries(_keys, kids, max_size=4)), max_leaves=25)


class TestEmitter:
    @settings(max_examples=500, deadline=None)
    @given(_trees)
    def test_matches_json_dumps(self, doc):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(doc, None)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [{}, [], (), {"a": {}}, {"a": [[]]},
                                     [{"b": ()}], {"k": 1.5, 2: [None]}])
    def test_empty_containers_and_fallbacks(self, doc, tmp_path, capsys):
        target = tmp_path / "doc.json"
        cli._emit(doc, str(target))
        assert capsys.readouterr().out == f"wrote {target}\n"
        assert target.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"


class TestDecodeCoefficients:
    @staticmethod
    def mixed(tmp_path, last):
        """The width-3 tube with vertex 2's homogeneous "1" written as the
        integer 1 and vertex 5's as `last`."""
        doc = generate(3).to_json()
        doc["vertices"][2][4]["a"] = 1
        doc["vertices"][5][4]["a"] = last
        return write_json(tmp_path / "mixed.json", doc)

    def test_integer_coefficient_is_accepted(self, tmp_path, capsys):
        assert main(["cct", "verify", "--file", self.mixed(tmp_path, "1")]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("last,name", [(True, "bool"), (1.0, "float")])
    def test_bool_and_float_after_equal_ones_are_refused(self, tmp_path, capsys,
                                                         last, name):
        bad = self.mixed(tmp_path, last)
        assert main(["cct", "verify", "--file", bad]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{bad} is malformed: expected an exact "
                                f"number, got {name}\n")
        assert captured.out == ""

    def test_extra_coefficient_key_is_refused(self, tmp_path, capsys):
        out_file = tmp_path / "cct4.json"
        assert main(["cct", "generate", "--n", "4", "--out", str(out_file)]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        # vertex 5's homogeneous "1" repeats vertex 0's: a decoded
        # coefficient must not stand in for it
        doc["cct"]["vertices"][5][4]["e"] = "junk"
        bad = write_json(tmp_path / "bad.json", doc)
        assert main(["cct", "verify", "--file", bad]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{bad} is malformed: coefficient keys "
                                "other than a, b, c, d: 'e'\n")
        assert captured.out == ""

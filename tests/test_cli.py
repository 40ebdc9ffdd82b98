import hashlib
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from maxplus import Cone, ConvexSet, TropMatrix, TropVector, cli, render
from maxplus.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_SELF_CHECK, main

from util import fig1_set, mixed_vectors, reference_shading_rects

DATA = pathlib.Path(__file__).parent / "data"
FIG1 = str(DATA / "fig1.json")
REC = str(DATA / "rec.json")
HALFSPACE = str(DATA / "face_halfspace.json")
SETS = [str(DATA / name) for name in ("fig1.json", "face_set.json", "face_face.json")]
SRC = str(pathlib.Path(__file__).parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestMember:
    def test_cone_non_member_with_projection(self, capsys):
        doc = run_json(capsys, "member", "--cone", REC, "--x", "[3,0]")
        assert doc == {"member": False, "projection": [2, 0]}

    def test_cone_member(self, capsys):
        doc = run_json(capsys, "member", "--cone", REC, "--x", "[2,1]")
        assert doc["member"] is True

    def test_set_member(self, capsys):
        doc = run_json(capsys, "member", "--set", FIG1, "--x", "[5,2]")
        assert doc["member"] is True

    def test_set_non_member(self, capsys):
        doc = run_json(capsys, "member", "--set", FIG1, "--x", "[0,0]")
        assert doc["member"] is False

    def test_tolerance_flag(self, capsys):
        doc = run_json(
            capsys, "member", "--cone", REC, "--x", "[2.0000001,1]", "--tolerance", "1e-5"
        )
        assert doc["member"] is True

    def test_set_tolerance_flag(self, capsys):
        doc = run_json(
            capsys, "member", "--set", FIG1, "--x", "[5.0000001,2]", "--tolerance", "1e-5"
        )
        assert doc == {"member": True, "projection": [5, 2]}

    def test_set_tolerance_never_matches_a_zero_last_coordinate(self, capsys):
        # no lifted generator fits below (-inf, 3, 0): the projection's last
        # coordinate is -inf, which no tolerance matches to 0
        doc = run_json(
            capsys, "member", "--set", FIG1, "--x", '["-inf",3]', "--tolerance", "1e9"
        )
        assert doc == {"member": False, "projection": ["-inf", "-inf"]}

    def test_set_reached_by_rays_alone_is_not_a_member(self, capsys, tmp_path):
        # the ray reaches (-inf, 5) exactly, but only as (-inf, 5, -inf)
        path = tmp_path / "ray.json"
        path.write_text(json.dumps({"points": [[0, 0]], "rays": [["-inf", 0]]}))
        doc = run_json(
            capsys, "member", "--set", str(path), "--x", '["-inf",5]', "--tolerance", "1e9"
        )
        assert doc == {"member": False, "projection": ["-inf", 5]}

    def test_set_dimension_mismatch(self, capsys):
        code, out, err = run(capsys, "member", "--set", FIG1, "--x", "[1,2,3]")
        assert code == EXIT_PARSE
        assert err == "error: --x: dim 2 vs 3\n" and out == ""

    def test_requires_exactly_one_geometry(self, capsys):
        code, _, err = run(capsys, "member", "--x", "[1,2]")
        assert code == EXIT_PARSE
        assert "--cone" in err or "--set" in err

    def test_bad_vector(self, capsys):
        code, _, err = run(capsys, "member", "--cone", REC, "--x", "[1,\"nope\"]")
        assert code == EXIT_PARSE
        assert "--x" in err


class TestBasis:
    def test_normalized_basis(self, capsys):
        doc = run_json(capsys, "basis", "--cone", REC)
        assert doc == {"generators": [[-1, 0], [0, -2]]}

    def test_round_trips(self, capsys, tmp_path):
        doc = run_json(capsys, "basis", "--cone", REC)
        f = tmp_path / "basis.json"
        f.write_text(json.dumps(doc))
        again = run_json(capsys, "basis", "--cone", str(f))
        assert again == doc


class TestDecompose:
    def test_set_certificate(self, capsys):
        doc = run_json(capsys, "decompose", "--set", FIG1, "--x", "[5,5]")
        assert len(doc["point_terms"]) + len(doc["ray_terms"]) <= 3
        assert doc["target"] == [5, 5]

    def test_cone_certificate(self, capsys):
        doc = run_json(capsys, "decompose", "--cone", REC, "--x", "[3,4]")
        assert doc["terms"] == [{"index": 0, "coeff": 3}]

    def test_non_member_exit_code(self, capsys):
        code, out, _ = run(capsys, "decompose", "--set", FIG1, "--x", "[0,0]")
        assert code == EXIT_PRECONDITION
        doc = json.loads(out)
        assert doc["error"] == "not a member"
        assert "projection" in doc

    def test_set_dimension_mismatch(self, capsys):
        code, out, err = run(capsys, "decompose", "--set", FIG1, "--x", "[1,2,3]")
        assert code == EXIT_PARSE
        assert err == "error: --x: dim 2 vs 3\n" and out == ""

    def test_one_decimal_member(self, capsys, tmp_path):
        f = tmp_path / "cone.json"
        f.write_text(json.dumps({"generators": [[0.2, -0.4]]}))
        assert run_json(capsys, "member", "--cone", str(f), "--x", "[0.4, -0.2]")["member"]
        doc = run_json(capsys, "decompose", "--cone", str(f), "--x", "[0.4, -0.2]")
        assert doc == {"terms": [{"index": 0, "coeff": 0.2}], "target": [0.4, -0.2]}

    def test_coordinate_unattained_in_floats(self, capsys, tmp_path):
        # a member whose coordinate 0 only a non-extreme generator attains
        # once rounded to floats
        f = tmp_path / "cone.json"
        f.write_text(json.dumps({"generators": [[-0.2, 0.6], [-0.4, 0.7], [0.5, -0.3]]}))
        assert run_json(capsys, "member", "--cone", str(f), "--x", "[-0.3, 0.7]")["member"]
        code, out, err = run(capsys, "decompose", "--cone", str(f), "--x", "[-0.3, 0.7]")
        assert code == EXIT_SELF_CHECK
        assert out == "" and "self-verification" in err


class TestSetQueries:
    def test_extreme_points_sorted(self, capsys):
        doc = run_json(capsys, "extreme-points", "--set", FIG1)
        assert doc == {"extreme_points": [[1, 3], [2, 5], [3, 2], [4, 0], [5, 2]]}

    def test_recession(self, capsys):
        doc = run_json(capsys, "recession", "--set", FIG1)
        assert doc == {"generators": [[-1, 0], [0, -2]]}

    def test_homogenize(self, capsys):
        doc = run_json(capsys, "homogenize", "--set", FIG1)
        assert doc["generators"][0] == [5, 2, 0]
        assert doc["generators"][5] == [0, 1, "-inf"]

    def test_minkowski_verify(self, capsys):
        doc = run_json(capsys, "minkowski-verify", "--set", FIG1)
        assert doc["holds"] is True


class TestHalfspaceCheck:
    HS = str(DATA / "face_halfspace.json")
    FACE = str(DATA / "face_set.json")

    def test_vector(self, capsys):
        doc = run_json(
            capsys, "halfspace-check", "--halfspace", self.HS, "--x", "[0,-1]", "--side", "plus"
        )
        assert doc == {"contains": True}

    def test_set(self, capsys):
        doc = run_json(
            capsys, "halfspace-check", "--halfspace", self.HS, "--set", self.FACE, "--side", "plus"
        )
        assert doc == {"contains_set": True}

    def test_needs_target(self, capsys):
        code, _, err = run(capsys, "halfspace-check", "--halfspace", self.HS)
        assert code == EXIT_PARSE
        code, out, err = run(
            capsys, "halfspace-check", "--halfspace", self.HS, "--x", "[0,-1]", "--set", self.FACE
        )
        assert code == EXIT_PARSE
        assert err == "error: give either --x or --set, not both\n" and out == ""

    def test_wrong_dimension_vector_names_x(self, capsys):
        code, out, err = run(
            capsys, "halfspace-check", "--halfspace", self.HS, "--x", "[0,0,0,0,0]"
        )
        assert code == EXIT_PARSE
        assert err == "error: --x: dim 2 vs 5\n" and out == ""

    def test_wrong_dimension_set_names_set(self, capsys, tmp_path):
        path = tmp_path / "set3.json"
        path.write_text(json.dumps({"points": [[0, 1, 2]]}))
        code, out, err = run(capsys, "halfspace-check", "--halfspace", self.HS, "--set", str(path))
        assert code == EXIT_PARSE
        assert err == "error: --set: dim 2 vs 3\n" and out == ""

    @pytest.mark.parametrize("tolerance, expected", [("0", False), ("0.4", False), ("1", True)])
    def test_tolerance_relaxes_rays(self, capsys, tmp_path, tolerance, expected):
        # x1 >= x2 fails on the ray (0, 0.5) by 0.5, so a tolerance of 1 covers it
        hs = tmp_path / "hs.json"
        hs.write_text(json.dumps(
            {"plus": {"coeffs": [0, "-inf"], "const": "-inf"},
             "minus": {"coeffs": ["-inf", 0], "const": "-inf"}}
        ))
        A = tmp_path / "set.json"
        A.write_text(json.dumps({"points": [[0, 0]], "rays": [[0, 0.5]]}))
        doc = run_json(capsys, "halfspace-check", "--halfspace", str(hs), "--set", str(A),
                       "--tolerance", tolerance)
        assert doc == {"contains_set": expected}

    @pytest.mark.parametrize("target", [
        ["--x", "[1e308,0]"],
        ["--x", "[1e308,0]", "--side", "minus"],
        ["--x", "[1,0]", "--tolerance", "1.7e308"],
        ["--set", {"points": [[0, 0], [1e308, 0]]}],
        ["--set", {"points": [[0, 0]], "rays": [[1e308, 0]]}],
    ])
    def test_overflowing_form_exits_1(self, capsys, tmp_path, target):
        hs = tmp_path / "hs.json"
        hs.write_text(json.dumps(
            {"plus": {"coeffs": [1e308, 0], "const": 0},
             "minus": {"coeffs": [0, 0], "const": "-inf"}}
        ))
        if target[0] == "--set":
            (tmp_path / "set.json").write_text(json.dumps(target[1]))
            target = ["--set", str(tmp_path / "set.json")]
        code, out, err = run(capsys, "halfspace-check", "--halfspace", str(hs), *target)
        assert code == EXIT_PARSE
        assert err == "error: the half-space form overflows a float\n" and out == ""


class TestRender:
    def test_valid_svg(self, capsys, tmp_path):
        out = tmp_path / "fig1.svg"
        code, _, err = run(
            capsys, "render", "--set", FIG1, "--grid", "40", "--out", str(out)
        )
        assert code == EXIT_OK, err
        root = ET.fromstring(out.read_text())
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", "--set", FIG1, "--grid", "30", "--out", str(a))
        run(capsys, "render", "--set", FIG1, "--grid", "30", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_cone_render(self, capsys, tmp_path):
        out = tmp_path / "rec.svg"
        code, _, err = run(capsys, "render", "--cone", REC, "--grid", "20", "--out", str(out))
        assert code == EXIT_OK, err
        ET.fromstring(out.read_text())

    # sha256 of stdout; the rec.json picture was checked cell by cell against
    # the exact oracle (test_cone_rows_are_exact_runs) before it was pinned
    @pytest.mark.parametrize("argv, digest", [
        (("--set", FIG1), "76d6b6e62e1d3bb208c85614eb5bf78d830cee23ff8682653075bed10918b61b"),
        (("--cone", REC, "--grid", "20"),
         "3aeab3f3ef7264a6331c4fc093d3b03fa795928dafefbecbd287defa93c12d27"),
    ])
    def test_golden_output(self, capsys, argv, digest):
        code, out, err = run(capsys, "render", *argv)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cone_rows_are_exact_runs(self, capsys):
        """Each row of the rec.json picture at grid 20 is one gap-free run,
        cell for cell the exact oracle's: a float test of the centre
        (x - g) + g rounds above x and once left gaps inside rows."""
        code, svg, err = run(capsys, "render", "--cone", REC, "--grid", "20")
        assert code == EXIT_OK, err
        cone = Cone.from_json(json.loads(pathlib.Path(REC).read_text()))
        A = ConvexSet.from_vectors([TropVector.zero(2)], list(cone.generators))
        rows = reference_shading_rects(A, render._Frame(A), 20)
        assert all(len(row) <= 1 for row in rows) and sum(map(len, rows)) > 10
        drawn = re.findall(r'<rect [^>]*fill="#c8d8f0"/>', svg)
        assert drawn == sum(rows, [])
        # distinct rows: no row of the picture is split into two runs
        assert len({re.search(r' y="([^"]*)"', rect).group(1) for rect in drawn}) == len(drawn)

    def test_shading_matches_member_loop(self):
        """Mixed 2D sets: -inf coordinates, rays with a -inf entry and, for
        half the sets, one-decimal values.  The last 60 are near overflow:
        one axis mapped by v -> 1.7e308 + v * 2**971, which keeps max-plus
        convexity, beside a small other axis, so the renderer's scaled ints
        pass float range.  (Sets of the ``huge`` corpus span ~1e308 and
        almost all overflow the frame.)  Every row draws at most one run,
        cell for cell the exact oracle's."""
        rng = random.Random(28)
        shaded = huge_shaded = 0
        for k in range(260):
            vectors = mixed_vectors(rng, 2, tenths=rng.random() < 0.5)
            if k >= 200:
                axis = k % 2
                vectors = [
                    TropVector.of(*(1.7e308 + c * 2.0**971 if i == axis else c
                                    for i, c in enumerate(v.sort_key())))
                    for v in vectors
                ]
            p = rng.randint(1, len(vectors))
            A = ConvexSet(TropMatrix(vectors[:p], dim=2), TropMatrix(vectors[p:], dim=2))
            frame = render._Frame(A)
            grid = rng.randint(1, 25)
            rows = reference_shading_rects(A, frame, grid)
            assert all(len(row) <= 1 for row in rows)
            rects = render._shading_rects(A, frame, grid)
            assert rects == sum(rows, [])
            shaded += bool(rects)
            huge_shaded += k >= 200 and bool(rects)
        assert shaded > 150 and huge_shaded > 40

    @pytest.mark.parametrize("grid", [0, -3, 2.5, True, "4", None])
    def test_library_refuses_grid(self, grid):
        with pytest.raises(ValueError, match=re.escape(f"got {grid!r}")):
            render.render_set_svg(fig1_set(), grid=grid)

    def test_overflowing_frame_rejected(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"points": [[-1.7e308, 0], [1.7e308, 0]]}))
        code, out, err = run(capsys, "render", "--set", str(path))
        assert code == EXIT_PARSE
        assert out == "" and "too large to render" in err and "Traceback" not in err

    # finite coordinates above 2**51 in size: a point far from the origin, two
    # points whose padding rounds away (all shading 0 x 0), and the same at
    # 1e17, where both points were drawn inside the -inf band
    @pytest.mark.parametrize("doc", [
        {"points": [[1e308, 1e308]]},
        {"points": [[1e307, 1e307], [1e307, "-inf"]]},
        {"points": [[1e17, 0], [1e17, 1]]},
        {"points": [[0, 0]], "rays": [[2**51 + 2, 0]]},
    ], ids=["far-origin", "flat-frame", "1e17", "ray-past-2-51"])
    def test_coordinate_past_2_51_refused(self, capsys, tmp_path, doc):
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "render", "--set", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too large to render" in err

    def test_coordinate_of_size_2_51_renders(self, capsys, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"points": [[2**51, 0], [2**51, 1]]}))
        code, svg, err = run(capsys, "render", "--set", str(path), "--grid", "4")
        assert code == EXIT_OK, err
        ET.fromstring(svg)
        # every pixel is finite: the "-inf" band label is element text, not an attribute value
        assert re.search(r'="[^"]*inf', svg) is None
        # x0 = 2**51 - 2 and the band 1 unit wide: both points 3 units in, at 120 px
        assert svg.count('<circle cx="120" ') == 4
        assert '<path d="M -90071992547409792 120 ' in svg  # the origin cross, off the picture

    def test_grid_zero_rejected(self, capsys):
        code, out, err = run(capsys, "render", "--set", FIG1, "--grid", "0")
        assert code == EXIT_PARSE
        assert err == "error: --grid must be at least 1, got 0\n" and out == ""

    def test_negative_grid_rejected(self, capsys):
        code, out, err = run(capsys, "render", "--set", FIG1, "--grid", "-3")
        assert code == EXIT_PARSE
        assert err == "error: --grid must be at least 1, got -3\n" and out == ""


class TestTolerance:
    HS = str(DATA / "face_halfspace.json")

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e400", "abc"])
    def test_member_rejects(self, capsys, value):
        code, out, err = run(capsys, "member", "--cone", REC, "--x", "[2,1]", "--tolerance", value)
        assert code == EXIT_PARSE
        assert "--tolerance" in err and out == ""

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e400"])
    def test_halfspace_check_rejects(self, capsys, value):
        code, out, err = run(
            capsys, "halfspace-check", "--halfspace", self.HS, "--x", "[0,0]", "--tolerance", value
        )
        assert code == EXIT_PARSE
        assert "--tolerance" in err and out == ""

    def test_halfspace_check_accepts(self, capsys):
        doc = run_json(
            capsys, "halfspace-check", "--halfspace", self.HS, "--x", "[0,-1]", "--tolerance", "0.5"
        )
        assert doc == {"contains": True}

    def test_only_on_member_and_halfspace_check(self, capsys):
        code, out, err = run(capsys, "basis", "--cone", REC, "--tolerance", "0")
        assert code == EXIT_PARSE
        assert "--tolerance" in err and out == ""


class TestUsageErrors:
    def test_missing_x(self, capsys):
        code, out, err = run(capsys, "member", "--cone", REC)
        assert code == EXIT_PARSE
        assert "--x" in err and out == ""

    def test_bad_grid(self, capsys):
        code, out, err = run(capsys, "render", "--set", FIG1, "--grid", "abc")
        assert code == EXIT_PARSE
        assert "--grid" in err and out == ""

    def test_unknown_flag_and_command(self, capsys):
        assert run(capsys, "basis", "--cone", REC, "--nope")[0] == EXIT_PARSE
        assert run(capsys, "nope")[0] == EXIT_PARSE
        assert run(capsys)[0] == EXIT_PARSE

    @pytest.mark.parametrize(
        "argv",
        [["basis"], ["extreme-points"], ["recession"], ["homogenize"], ["minkowski-verify"]],
    )
    def test_missing_geometry(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_PARSE
        assert ("--cone" if argv == ["basis"] else "--set") in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["member", "--help"])
        assert exc.value.code == 0
        assert "--tolerance" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "basis", "--cone", "/nonexistent.json")
        assert code == EXIT_PARSE
        assert "cone" in err

    def test_invalid_json(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code, _, err = run(capsys, "basis", "--cone", str(f))
        assert code == EXIT_PARSE

    def test_wrong_schema_names_field(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"gens": [[0, 1]]}))
        code, _, err = run(capsys, "basis", "--cone", str(f))
        assert code == EXIT_PARSE
        assert "generators" in err

    def test_huge_integer_in_cone_file(self, capsys, tmp_path):
        f = tmp_path / "huge.json"
        f.write_text('{"generators": [[' + "9" * 400 + ", 0]]}")
        code, _, err = run(capsys, "basis", "--cone", str(f))
        assert code == EXIT_PARSE
        assert "--cone" in err

    def test_huge_integer_in_vector(self, capsys):
        code, _, err = run(capsys, "member", "--cone", REC, "--x", "[" + "9" * 400 + ", 0]")
        assert code == EXIT_PARSE
        assert "--x" in err

    def test_integer_no_float_holds(self, capsys, tmp_path):
        # 2**53 + 1 would round to 2**53, the cone's generator: a wrong "member": true
        message = "max-plus scalar 9007199254740993 is an integer that no float holds exactly\n"
        f = tmp_path / "cone.json"
        f.write_text('{"generators": [[9007199254740992, 0]]}')
        for command in ("member", "decompose"):
            code, out, err = run(capsys, command, "--cone", str(f), "--x", "[9007199254740993, 0]")
            assert (code, out, err) == (EXIT_PARSE, "", "error: --x: " + message)
        f.write_text('{"generators": [[9007199254740993, 0]]}')
        code, out, err = run(capsys, "basis", "--cone", str(f))
        assert (code, out, err) == (EXIT_PARSE, "", "error: --cone: " + message)

    @pytest.mark.parametrize("value", ["-1e400", "-Infinity"])
    def test_number_read_as_minus_inf(self, capsys, tmp_path, value):
        # json reads both as the float -inf; the zero is the string "-inf" only
        message = 'a JSON number must be finite (the zero is "-inf"), got -inf\n'
        code, out, err = run(capsys, "member", "--cone", REC, "--x", f"[{value}, 0]")
        assert (code, out, err) == (EXIT_PARSE, "", "error: --x: " + message)
        f = tmp_path / "cone.json"
        f.write_text('{"generators": [[0, %s], [2, 0]]}' % value)
        code, out, err = run(capsys, "basis", "--cone", str(f))
        assert (code, out, err) == (EXIT_PARSE, "", "error: --cone: " + message)

    @pytest.mark.parametrize("argv", [
        ["basis", "--cone"],
        ["recession", "--set"],
        ["halfspace-check", "--x", "[0,0]", "--halfspace"],
    ])
    def test_deeply_nested_file(self, capsys, tmp_path, argv):
        f = tmp_path / "deep.json"
        f.write_text("[" * 100_000)
        code, out, err = run(capsys, *argv, str(f))
        assert code == EXIT_PARSE
        assert argv[-1] in err and out == ""

    def test_deeply_nested_vector(self, capsys):
        code, out, err = run(capsys, "member", "--cone", REC, "--x", "[" * 100_000)
        assert code == EXIT_PARSE
        assert "--x" in err and out == ""

    @pytest.mark.parametrize("doc, message", [
        ({"points": []}, "a convex set needs at least one point"),
        ({"points": [[0, 1]], "rays": [[0]]}, "points dim 2 vs rays dim 1"),
    ])
    def test_set_document_refused_by_the_set_rule(self, capsys, tmp_path, doc, message):
        f = tmp_path / "set.json"
        f.write_text(json.dumps(doc))
        for argv in (["member", "--x", "[0,1]"], ["extreme-points"], ["render", "--grid", "2"]):
            code, out, err = run(capsys, *argv, "--set", str(f))
            assert (code, out, err) == (EXIT_PARSE, "", f"error: --set: {message}\n")

    @pytest.mark.parametrize("dim", ["2.5", "true"])
    def test_cone_dim_validated(self, capsys, tmp_path, dim):
        f = tmp_path / "dim.json"
        f.write_text('{"generators": [], "dim": %s}' % dim)
        for argv in (["basis"], ["render", "--grid", "2"]):
            code, out, err = run(capsys, *argv, "--cone", str(f))
            assert code == EXIT_PARSE
            assert "--cone" in err and "dim" in err and out == ""

    @pytest.mark.parametrize(
        "argv", [["basis", "--cone", REC], ["render", "--set", FIG1, "--grid", "2"]]
    )
    def test_unwritable_out(self, capsys, tmp_path, argv):
        for out_path in (tmp_path / "missing" / "x.out", tmp_path):
            code, out, err = run(capsys, *argv, "--out", str(out_path))
            assert code == EXIT_PARSE
            assert "--out" in err and out == ""


class TestWarnings:
    """A dropped zero generator or ray is one ``warning:`` line on stderr;
    stdout and the exit code are those of the document without it."""

    CASES = [
        ("basis", "--cone", {"generators": [[0, 1], ["-inf", "-inf"], [2, 0]]},
         {"generators": [[0, 1], [2, 0]]}, "dropping zero-vector generators from cone"),
        ("recession", "--set", {"points": [[0, 1]], "rays": [["-inf", "-inf"], [1, 0]]},
         {"points": [[0, 1]], "rays": [[1, 0]]}, "dropping zero-vector rays from convex set"),
    ]

    @pytest.mark.parametrize("command, flag, doc, clean, message", CASES)
    def test_one_warning_line(self, capsys, tmp_path, command, flag, doc, clean, message):
        f, g = tmp_path / "zero.json", tmp_path / "clean.json"
        f.write_text(json.dumps(doc))
        g.write_text(json.dumps(clean))
        assert run(capsys, command, flag, str(f)) == (
            EXIT_OK, run(capsys, command, flag, str(g))[1], f"warning: {message}\n"
        )
        # a fresh interpreter, even one told to turn warnings into errors
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "maxplus.cli", command, flag, str(f)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, f"warning: {message}\n")


# JSON values that are not a finite number or "-inf"; nan and inf are
# written as the NaN and Infinity tokens, which json.load reads back
ODD = [True, False, None, "x", "", "inf", [], {}, [0], {"a": 1}, math.inf, math.nan]


def _odd_scalar(rng):
    return rng.choice(ODD) if rng.random() < 0.05 else rng.choice([0, 1, -2, 1.5, "-inf"])


def _odd_vector(rng):
    """Mostly 2 scalars, else an empty or ragged array; now and then not an array."""
    if rng.random() < 0.04:
        return _odd_scalar(rng)
    n = 2 if rng.random() < 0.85 else rng.randint(0, 3)
    return [_odd_scalar(rng) for _ in range(n)]


def _odd_matrix(rng):
    if rng.random() < 0.04:
        return _odd_scalar(rng)
    return [_odd_vector(rng) for _ in range(rng.randint(0, 3))]


def _odd_object(rng, fields):
    """An object over ``fields`` (name -> maker), each field kept with
    probability 0.95, sometimes one extra field; now and then not an object."""
    if rng.random() < 0.04:
        return _odd_matrix(rng)
    doc = {name: make(rng) for name, make in fields.items() if rng.random() < 0.95}
    if rng.random() < 0.1:
        doc[rng.choice(["dim", "extra", "-inf"])] = _odd_scalar(rng)
    return doc


def _odd_cone(rng):
    return _odd_object(rng, {"generators": _odd_matrix})


def _odd_set(rng):
    return _odd_object(rng, {"points": _odd_matrix, "rays": _odd_matrix})


def _odd_halfspace(rng):
    def part(rng):
        return _odd_object(rng, {"coeffs": _odd_vector, "const": _odd_scalar})

    return _odd_object(rng, {"plus": part, "minus": part})


ODD_DOCUMENTS = {"cone": _odd_cone, "set": _odd_set, "halfspace": _odd_halfspace}


def _huge_scalar(rng):
    """-inf, or a multiple of 3.4e306 up to 1.7e308 in size."""
    return "-inf" if rng.random() < 0.2 else rng.randint(-50, 50) * 3.4e306


def _huge_vector(rng):
    return [_huge_scalar(rng) for _ in range(2)]


def _huge_matrix(rng, least):
    return [_huge_vector(rng) for _ in range(rng.randint(least, 4))]


def _huge_halfspace(rng):
    return {side: {"coeffs": _huge_vector(rng), "const": _huge_scalar(rng)}
            for side in ("plus", "minus")}


HUGE_DOCUMENTS = {
    "cone": lambda rng: {"generators": _huge_matrix(rng, 1)},
    "set": lambda rng: {"points": _huge_matrix(rng, 1), "rays": _huge_matrix(rng, 0)},
    "halfspace": _huge_halfspace,
}

# the 13 file-reading command forms: argv before the file, the kind of
# document the file holds, and whether the form takes --x
COMMANDS = [
    (["member", "--cone"], "cone", True),
    (["member", "--set"], "set", True),
    (["basis", "--cone"], "cone", False),
    (["decompose", "--cone"], "cone", True),
    (["decompose", "--set"], "set", True),
    (["extreme-points", "--set"], "set", False),
    (["recession", "--set"], "set", False),
    (["homogenize", "--set"], "set", False),
    (["minkowski-verify", "--set"], "set", False),
    (["halfspace-check", "--halfspace"], "halfspace", True),
    (["halfspace-check", "--halfspace", str(DATA / "face_halfspace.json"), "--set"], "set", False),
    (["render", "--grid", "3", "--cone"], "cone", False),
    (["render", "--grid", "3", "--set"], "set", False),
]


class TestMalformedDocuments:
    """Seeded malformed documents for each file-reading subcommand: no
    exception leaves ``main`` and the exit code is 0, 1 or 2."""

    @pytest.mark.parametrize("seed", range(len(COMMANDS)))
    def test_exit_code_without_exception(self, capsys, tmp_path, seed):
        argv, kind, takes_x = COMMANDS[seed]
        rng = random.Random(900 + seed)
        f = tmp_path / "doc.json"
        codes = set()
        for _ in range(60):
            f.write_text(json.dumps(ODD_DOCUMENTS[kind](rng)))
            x = ["--x", json.dumps(_odd_vector(rng) if rng.random() < 0.3 else [0, 1])]
            code, _, _ = run(capsys, *argv, str(f), *(x if takes_x else []))
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION)
            codes.add(code)
        # both kinds reached: documents refused, and documents read to the end
        assert {EXIT_OK, EXIT_PARSE} <= codes


class TestNearOverflowDocuments:
    """Seeded well-formed 2-dim documents and --x vectors whose finite
    entries reach +-1.7e308, with -inf entries, for each file-reading
    subcommand: no exception leaves ``main`` and the exit code is one of
    the four the CLI defines."""

    @pytest.mark.parametrize("seed", range(len(COMMANDS)))
    def test_exit_code_without_exception(self, capsys, tmp_path, seed):
        argv, kind, takes_x = COMMANDS[seed]
        rng = random.Random(950 + seed)
        f = tmp_path / "doc.json"
        codes = set()
        for _ in range(60):
            f.write_text(json.dumps(HUGE_DOCUMENTS[kind](rng)))
            x = ["--x", json.dumps(_huge_vector(rng))]
            code, _, _ = run(capsys, *argv, str(f), *(x if takes_x else []))
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_SELF_CHECK)
            codes.add(code)
        assert EXIT_OK in codes, codes


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFullStdout:
    """A write to stdout that fails exits 1 with one error line, buffered
    stdout included (the interpreter flushes it again at exit)."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [
        ["member", "--cone", REC, "--x", "[2,1]"],
        ["render", "--set", FIG1, "--grid", "5"],
    ])
    def test_exits_1_without_traceback(self, argv, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "maxplus.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        assert proc.returncode == EXIT_PARSE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write to stdout: ")


class TestRoundTrip:
    def test_emitted_documents_reparse(self, capsys):
        from maxplus import Cone

        doc = run_json(capsys, "basis", "--cone", REC)
        Cone.from_json(doc)
        doc = run_json(capsys, "homogenize", "--set", FIG1)
        Cone.from_json(doc)
        rec = run_json(capsys, "recession", "--set", FIG1)
        Cone.from_json(rec)


class TestImportFootprint:
    def test_cli_import_loads_only_what_a_call_uses(self, tmp_path):
        # -S: no site hook may import these first and hide a regression
        svg = tmp_path / "fig1.svg"
        script = "\n".join([
            "import sys",
            f"sys.path.insert(0, {SRC!r})",
            "import maxplus.cli",
            'unwanted = ("dataclasses", "inspect", "typing")',
            "print(sorted(m for m in unwanted if m in sys.modules))",
            f"argv = ['render', '--set', {FIG1!r}, '--grid', '4', '--out', {str(svg)!r}]",
            "print(maxplus.cli.main(argv))",
        ])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", str(EXIT_OK)]
        ET.parse(svg)


class TestParserReuse:
    """main builds its parser on its first call and reuses it: one call
    leaves nothing behind that changes the next one's output."""

    @staticmethod
    def calls(tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"generators": [[0, 1], ["-inf", "-inf"], [2, 0]]}))
        calls = [
            ["member", "--cone", REC],  # usage error: --x is missing
            ["nope"],  # unknown subcommand
            ["member", "--help"],
            ["member", "--cone", REC, "--x", "[3,0.5]", "--tolerance", "0.5"],
            ["member", "--cone", REC, "--x", "[3,0.5]"],  # the default tolerance again
            ["member", "--cone", REC, "--x", "[2,1]", "--tolerance", "-1"],
            ["basis", "--cone", REC, "--out", str(tmp_path / "basis.json")],
            ["basis", "--cone", REC],  # back to stdout
            ["basis", "--cone", str(zero)],  # one warning line
            ["decompose", "--cone", REC, "--x", "[2,1]"],
            ["render", "--cone", REC, "--grid", "4"],
            ["halfspace-check", "--halfspace", HALFSPACE, "--x", "[0,-1]", "--side", "minus",
             "--tolerance", "0.5"],
            ["halfspace-check", "--halfspace", HALFSPACE, "--x", "[0,-1]"],
        ]
        for s in SETS:
            calls += [
                ["member", "--set", s, "--x", "[0,-1]"],
                ["decompose", "--set", s, "--x", "[0,-1]"],
                ["extreme-points", "--set", s],
                ["recession", "--set", s],
                ["homogenize", "--set", s],
                ["minkowski-verify", "--set", s],
                ["halfspace-check", "--halfspace", HALFSPACE, "--set", s],
                ["render", "--set", s, "--grid", "4"],
            ]
        calls.append(["basis", "--cone", REC, "--out", str(tmp_path)])  # unwritable --out
        return calls

    @staticmethod
    def outcome(capsys, argv):
        try:
            return run(capsys, *argv)
        except SystemExit as exc:  # --help
            return exc.code, *capsys.readouterr()

    def test_second_pass_repeats_the_first(self, capsys, tmp_path, monkeypatch):
        # help text is wrapped to the terminal width; fix it for both processes
        monkeypatch.setenv("COLUMNS", "80")
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        calls = self.calls(tmp_path)
        first = [self.outcome(capsys, argv) for argv in calls]
        second = [self.outcome(capsys, argv) for argv in calls]
        assert second == first
        assert len(built) == 1
        assert {code for code, _, _ in first} == {EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION}
        # a fresh process, which builds its own parser, prints the same
        for argv, expected in zip(calls, first):
            if {"nope", "--help", "--tolerance", "--out"} & set(argv):
                proc = subprocess.run(
                    [sys.executable, "-m", "maxplus.cli", *argv], capture_output=True,
                    text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
                )
                assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv

    def test_import_builds_no_parser(self):
        script = "\n".join([
            "import argparse, os, sys",
            f"sys.path.insert(0, {SRC!r})",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)",
            "import maxplus.cli",
            "print(len(built))",
            "for _ in range(2):",
            f"    maxplus.cli.main(['basis', '--cone', {REC!r}, '--out', os.devnull])",
            "    print(len(built))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        imported, first, second = map(int, proc.stdout.split())
        assert imported == 0 and first == second > 0

"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import polykh.cli
import polykh.cube
import polykh.geometry
import polykh.khovanov
from polykh.cli import main
from polykh import (GeometryError, build_good_diagram, fixture_path,
                    load_fixture, parse_link, PolygonalLink)

TREFOIL = str(fixture_path("trefoil9"))
SQUARE = str(fixture_path("square"))
GOLDEN = Path(__file__).parent / "golden"
TREFOIL_DUMP = """\
# diagram
boundaries 9
vertex 2 0
vertex 1 2
vertex -1/2 1/2
vertex -1 -2
vertex 1 -2
vertex 1/2 1/2
vertex -1 2
vertex -2 0
vertex 0 -1
crossing 1 3 4 8 9 +1 -8/11 -7/11
crossing 2 6 7 2 3 +1 0 1
crossing 3 9 1 5 6 +1 8/11 -7/11
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_bounded(*argv):
    """python with argv in a subprocess that imports polykh from this
    checkout, stopped after 10 s, so that a parser that hangs fails the test
    instead of stalling the suite."""
    src = str(Path(polykh.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=10)


class TestEntryPoint:
    def test_python_m_polykh(self, capsys):
        # ``python -m polykh`` runs cli.main: same output and exit codes
        proc = run_bounded("-m", "polykh", "diagram", TREFOIL, "--dir", "0,0,1")
        assert proc.returncode == 0
        assert proc.stdout == run(capsys, "diagram", TREFOIL, "--dir", "0,0,1")[1]
        proc = run_bounded("-m", "polykh", "cube", TREFOIL, "--dir", "0,0,1",
                           "--order", "1,2")
        assert proc.returncode == 2 and "bad order" in proc.stderr

    @pytest.mark.parametrize("command", [
        "validate", "diagram", "cube", "jones", "homology", "verify",
        "deform", "svg"])
    def test_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: polykh {command}")


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", TREFOIL)
        assert code == 0 and "ok" in out

    def test_short_component(self, capsys, tmp_path):
        bad = tmp_path / "bad.link"
        bad.write_text("component 0 0 0 1 1 1\n")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1 and "needs >= 3 vertices" in out

    def test_malformed_rational(self, capsys, tmp_path):
        bad = tmp_path / "bad.link"
        bad.write_text("component 3/ 0 0 1 0 0 1 1 0\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2 and "line 1" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "validate", "/nonexistent.link")
        assert code == 2 and out == "" and err.startswith("error: ")


class TestDiagram:
    def test_trefoil_rows(self, capsys):
        code, out, _ = run(capsys, "diagram", TREFOIL, "--dir", "0,0,1")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows == [["1", "3", "4", "8", "9", "+1"],
                        ["2", "6", "7", "2", "3", "+1"],
                        ["3", "9", "1", "5", "6", "+1"]]

    def test_square_empty(self, capsys):
        code, out, _ = run(capsys, "diagram", SQUARE, "--dir", "0,0,1")
        assert code == 0 and out == ""

    def test_whitehead_five_rows(self, capsys):
        code, out, _ = run(capsys, "diagram", str(fixture_path("whitehead12")),
                           "--dir", "0,0,1")
        assert code == 0 and len(out.strip().splitlines()) == 5

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "diagram", TREFOIL, "--dir", "0,0,1",
                           "--format", "json")
        data = json.loads(out)
        assert data["crossings"][0] == [1, 3, 4, 8, 9, 1]

    def test_text_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["homology", TREFOIL, "--dir", "0,0,1", "--format", "text"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_diagram_file_round_trip(self, capsys, tmp_path):
        # the dump of the trefoil's diagram, byte for byte
        out_path = tmp_path / "t.diag"
        code, _, _ = run(capsys, "diagram", TREFOIL, "--dir", "0,0,1",
                         "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == TREFOIL_DUMP

    def test_twist12_default_direction_terminates(self, capsys):
        # along the default direction (-1,-3,2) exact refinement doubled its
        # denominators' length with each insertion and ran for minutes; with
        # the cap and each candidate vertex checked in O(E) it takes about
        # 0.3 s (in-process, 2-core Xeon)
        start = time.perf_counter()
        code, out, _ = run(capsys, "diagram", str(fixture_path("twist12")))
        assert code == 0 and len(out.splitlines()) == 58
        assert time.perf_counter() - start < 15

    def test_refinement_failure_exits_1(self, capsys, monkeypatch):
        # on a grid of halves no candidate vertex of twist12 passes the checks
        monkeypatch.setattr(polykh.geometry, "DENOMINATOR_BITS", 1)
        code, _, err = run(capsys, "diagram", str(fixture_path("twist12")))
        assert code == 1
        assert "could not place refinement vertex" in err
        assert "rounded to denominators of at most 1 bits" in err

    def test_bad_direction(self, capsys):
        code, _, err = run(capsys, "diagram", TREFOIL, "--dir", "0,0")
        assert code == 2 and "direction" in err

    @pytest.mark.parametrize("command, extra", [
        ("diagram", ()), ("cube", ()), ("verify", ()),
        ("deform", ("--remove", "2"))])
    def test_zero_direction_is_a_usage_error(self, capsys, command, extra):
        # it exited 1 with "direction (Fraction(0, 1), ...) not regular:
        # ('zero_direction', ())"
        code, out, err = run(capsys, command, TREFOIL, "--dir", "0,0,0",
                             *extra)
        assert code == 2 and out == ""
        assert err == ("error: bad direction '0,0,0': expected a nonzero "
                       "vector\n")

    @pytest.mark.parametrize("command, extra", [
        ("diagram", ()), ("cube", ()), ("verify", ()),
        ("deform", ("--remove", "2"))])
    def test_irregular_direction_names_the_witness(self, capsys, command,
                                                   extra):
        code, out, err = run(capsys, command, TREFOIL, "--dir", "2/2,0,0",
                             *extra)
        assert code == 1 and out == ""
        assert err == ("error: direction 1,0,0 is not regular: the images "
                       "of vertices 3 and 6 coincide\n")

    @pytest.mark.parametrize("witness, words", [
        (("vertex_collision", (3, 6)),
         "the images of vertices 3 and 6 coincide"),
        (("vertex_on_edge", (4, (1, 2))),
         "the image of vertex 4 lies on the image of edge (1,2)"),
        (("segment_overlap", ((1, 2), (5, 6))),
         "the images of edges (1,2) and (5,6) overlap"),
        (("adjacent_crossing", ((1, 2), (2, 3))),
         "the images of edges (1,2) and (2,3) cross beyond their common "
         "vertex"),
        (("triple_point", (((1, 2), (5, 6)), ((1, 2), (8, 9)))),
         "edges (1,2) and (5,6) cross where edges (1,2) and (8,9) do"),
        (("zero_direction", ()), "it is the zero vector"),
    ])
    def test_witness_words(self, witness, words):
        assert polykh.geometry._witness_words(witness) == words

    def test_library_words_the_witness_as_the_cli_does(self, capsys):
        direction = (Fraction(1), Fraction(0), Fraction(0))
        with pytest.raises(GeometryError) as exc:
            build_good_diagram(load_fixture("trefoil9"), direction)
        assert str(exc.value) == ("direction 1,0,0 is not regular: the "
                                  "images of vertices 3 and 6 coincide")
        _, _, err = run(capsys, "diagram", TREFOIL, "--dir", "1,0,0")
        assert err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("argv, calls", [
        (("diagram", "twist12"), 12),
        (("diagram", "trefoil9", "--dir", "1,0,0"), 1),
        (("diagram", "trefoil9", "--dir", "0,0,1"), 1),
        (("verify", "trefoil9", "--dir", "0,0,1", "--trials", "3"), 4),
    ])
    def test_projections_per_run(self, capsys, monkeypatch, argv, calls):
        # the direction search projects once per sampled direction, and
        # then each link is projected once: the refined projection is the
        # diagram, and a failure is worded where it is found
        project = polykh.geometry._project
        seen = []

        def counting(link, direction):
            seen.append(direction)
            return project(link, direction)
        monkeypatch.setattr(polykh.geometry, "_project", counting)
        run(capsys, argv[0], str(fixture_path(argv[1])), *argv[2:])
        assert len(seen) == calls


@pytest.mark.parametrize("token", ["1e100000000", "1.5", "nan"])
class TestNumberTokens:
    """Only integers and a/b are numbers; an exponent such as 1e100000000
    made Fraction build a hundred-million-digit power of ten."""

    def test_link_file(self, token, tmp_path):
        path = tmp_path / "bad.link"
        path.write_text(f"component 0 0 0  1 0 0  {token} 1 0\n")
        proc = run_bounded("-m", "polykh.cli", "validate", str(path))
        assert proc.returncode == 2
        assert f"line 1: bad rational {token!r}" in proc.stderr

    def test_direction(self, token):
        proc = run_bounded("-m", "polykh.cli", "diagram", TREFOIL,
                           "--dir", f"0,{token},1")
        assert proc.returncode == 2
        assert f"bad direction '0,{token},1': bad rational" in proc.stderr

    def test_deform_point(self, token):
        proc = run_bounded("-m", "polykh.cli", "deform", TREFOIL, "--dir",
                           "0,0,1", "--add", f"0,2,{token},2,3/2")
        assert proc.returncode == 2
        assert f"bad rational {token!r}" in proc.stderr


class TestCube:
    def test_trefoil_matches_golden(self, capsys):
        code, out, _ = run(capsys, "cube", TREFOIL, "--dir", "0,0,1")
        assert code == 0
        assert out == (GOLDEN / "trefoil9_cube.txt").read_text()

    @pytest.mark.parametrize("name, extra, golden", [
        ("whitehead12", (), "whitehead12_cube.txt"),
        ("whitehead12", ("--order", "8,7,6,5,4,3,2,1"),
         "whitehead12_cube_reversed.txt"),
        ("riii", (), "riii_cube.txt"),
        ("kink5", (), "kink5_cube.txt"),
    ])
    def test_fixture_matches_golden(self, capsys, name, extra, golden):
        # default projection direction, so whitehead12 has 8 crossings
        code, out, _ = run(capsys, "cube", str(fixture_path(name)), *extra)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_custom_order(self, capsys):
        code, out, _ = run(capsys, "cube", TREFOIL, "--dir", "0,0,1",
                           "--order", "3,1,2")
        assert code == 0 and out.count("vertex") == 8

    def test_bad_order(self, capsys):
        # a repeat, a wrong length, an index out of range and a non-integer
        # are usage errors, found before the cube is built
        for order in ("1,1,3", "1,2", "1,2,4", "1,x,3"):
            code, _, err = run(capsys, "cube", TREFOIL, "--dir", "0,0,1",
                               "--order", order)
            assert code == 2
            assert f"bad order {order!r}" in err


class TestPolynomials:
    def test_jones_lines(self, capsys):
        code, out, _ = run(capsys, "jones", TREFOIL, "--dir", "0,0,1")
        assert code == 0
        assert "J-hat = 1*q^1 + 1*q^3 + 1*q^5 - 1*q^9" in out
        assert "J = 1*q^2 + 1*q^6 - 1*q^8" in out

    def test_unknot_homology_rows(self, capsys):
        code, out, _ = run(capsys, "homology", SQUARE, "--dir", "0,0,1")
        assert code == 0
        assert out == "0\t-1\t1\n0\t1\t1\n"

    @pytest.mark.parametrize("command", ["homology", "verify"])
    def test_generator_budget(self, capsys, command):
        # the trefoil's complex has 4 + 6 + 12 + 8 = 30 generators
        code, _, err = run(capsys, command, TREFOIL, "--dir", "0,0,1",
                           "--max-generators", "29")
        assert code == 1
        assert "30 generators" in err and "budget of 29" in err
        code, _, _ = run(capsys, command, TREFOIL, "--dir", "0,0,1",
                         "--max-generators", "30", *(
                             ("--trials", "1") if command == "verify" else ()))
        assert code == 0

    @pytest.mark.parametrize("command", ["homology", "verify"])
    def test_over_budget_fails_before_the_cube(self, capsys, monkeypatch,
                                               command):
        # twist12 has 58 crossings along the default direction: every
        # smoothing has a circle, so its complex has at least 2^59
        # generators, and the 2^58-vertex cube must not be built
        def refused(*args, **kwargs):
            raise AssertionError("the cube was built")
        monkeypatch.setattr(polykh.cli, "build_cube", refused)
        code, out, err = run(capsys, command, str(fixture_path("twist12")))
        assert code == 1 and out == ""
        assert err == (f"error: the chain complex would have at least "
                       f"{2 ** 59} generators, more than the budget of "
                       "10000000 (--max-generators)\n")

    def test_negative_budget_is_a_usage_error(self, capsys):
        # a negative budget exited 1 as if the complex were too large
        with pytest.raises(SystemExit) as exc:
            main(["homology", TREFOIL, "--dir", "0,0,1",
                  "--max-generators", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: polykh homology")
        assert "argument --max-generators: expected an integer >= 0, " \
            "got '-1'" in err

    @pytest.mark.parametrize("command", ["cube", "jones", "verify", "svg",
                                         "deform"])
    def test_format_only_where_it_does_something(self, capsys, command):
        # these commands accepted --format and ignored it
        with pytest.raises(SystemExit) as exc:
            main([command, TREFOIL, "--dir", "0,0,1", "--format", "json"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --format json"
                in capsys.readouterr().err)

    def test_homology_json(self, capsys):
        code, out, _ = run(capsys, "homology", SQUARE, "--dir", "0,0,1",
                           "--format", "json")
        assert json.loads(out) == [[0, -1, 1], [0, 1, 1]]


class TestVerify:
    def test_trefoil_passes(self, capsys):
        code, out, _ = run(capsys, "verify", TREFOIL, "--dir", "0,0,1",
                           "--trials", "25", "--seed", "3")
        assert code == 0
        for name in ("theorem-trace", "path-independence", "d-squared",
                     "euler-identity", "move-invariance"):
            assert f"PASS {name}" in out

    def test_negative_trials_is_a_usage_error(self, capsys):
        # --trials -3 printed "PASS move-invariance: 0 deformation round
        # trips" and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", TREFOIL, "--dir", "0,0,1", "--trials", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: polykh verify")
        assert "argument --trials: expected an integer >= 0, got '-3'" in err

    def test_homology_computed_once(self, capsys, monkeypatch):
        # the Euler check and the move-invariance base share one table
        real = polykh.cli.homology
        calls = []

        def counting(complex_):
            calls.append(complex_)
            return real(complex_)

        monkeypatch.setattr(polykh.cli, "homology", counting)
        code, out, _ = run(capsys, "verify", TREFOIL, "--dir", "0,0,1",
                           "--trials", "2", "--seed", "3")
        assert code == 0 and "PASS move-invariance" in out
        assert len(calls) == 1

    def test_zero_crossing_vacuous(self, capsys):
        code, out, _ = run(capsys, "verify", SQUARE, "--dir", "0,0,1",
                           "--trials", "2")
        assert code == 0 and "vacuous" in out

    def test_mutant_comultiplication_flagged(self, capsys, monkeypatch):
        # negative control: a label-mangling comultiplication breaks the
        # grading bookkeeping and must be reported as an euler failure
        real = polykh.khovanov._edge_images

        def mutant(kind, n, a, b, c):
            # flip the label of head circle a: bit n - a of an (n+1)-circle mask
            flip = 1 << (n - a) if kind == "split" else 0
            return [(t, h ^ flip) for t, h in real(kind, n, a, b, c)]

        monkeypatch.setattr(polykh.khovanov, "_edge_images", mutant)
        code, out, _ = run(capsys, "verify", TREFOIL, "--dir", "0,0,1",
                           "--trials", "2")
        assert code == 1
        assert "FAIL euler-identity" in out


    def test_theorem_trace_failure_is_the_only_check(self, capsys,
                                                     monkeypatch):
        # a formula that swaps two images on choice 1 disagrees with the
        # trace oracle, so there is no cube for the later checks
        real = polykh.cube._formula_images

        def mutant(crossing, s, choice):
            res = real(crossing, s, choice)
            if choice == 1:
                res[1], res[2] = res[2], res[1]
            return res

        monkeypatch.setattr(polykh.cube, "_formula_images", mutant)
        code, out, _ = run(capsys, "verify", TREFOIL, "--dir", "0,0,1",
                           "--trials", "2")
        assert code == 1
        assert out == ("FAIL theorem-trace: word (0, 0, 2), crossing 3, "
                       "choice 1\n"
                       "FAILED (0/1 checks)\n")

    def test_path_independence_failure_flagged(self, capsys, monkeypatch):
        # a reordered cube whose vertex 111 has the circles of 000
        real = polykh.cli.build_cube

        def mutant(diagram, order=None):
            cube = real(diagram, order=order)
            if order is not None:
                cube.vertices[(1, 1, 1)] = cube.vertices[(0, 0, 0)]
            return cube

        monkeypatch.setattr(polykh.cli, "build_cube", mutant)
        code, out, _ = run(capsys, "verify", TREFOIL, "--dir", "0,0,1",
                           "--trials", "2", "--seed", "3")
        assert code == 1
        assert out == ("PASS theorem-trace: k=3\n"
                       "FAIL path-independence: order [2, 3, 1], "
                       "word (1, 1, 1)\n"
                       "PASS d-squared\n"
                       "PASS euler-identity\n"
                       "PASS move-invariance: 2 deformation round trips\n"
                       "FAILED (4/5 checks)\n")

    def test_d_squared_failure_flagged(self, capsys, monkeypatch):
        monkeypatch.setattr(polykh.khovanov, "_cancels", lambda *a: False)
        code, out, _ = run(capsys, "verify", TREFOIL, "--dir", "0,0,1",
                           "--trials", "2")
        assert code == 1
        assert out == ("PASS theorem-trace: k=3\n"
                       "PASS path-independence\n"
                       "FAIL d-squared: d^2 != 0 from (0, 0, 0) to "
                       "(0, 1, 1)\n"
                       "FAILED (2/3 checks)\n")

    def test_removal_not_restoring_link_flagged(self, capsys, monkeypatch):
        # negative control: a removal that returns another link, here the
        # same curve run backwards, whose homology table is the same, must
        # fail the round trip
        real = polykh.cli.deform_remove_vertex

        def mutant(link, gp):
            back = real(link, gp)
            comps = (tuple(reversed(back.components[0])),) + back.components[1:]
            return PolygonalLink(comps)

        monkeypatch.setattr(polykh.cli, "deform_remove_vertex", mutant)
        code, out, _ = run(capsys, "verify", TREFOIL, "--dir", "0,0,1",
                           "--trials", "2", "--seed", "3")
        assert code == 1
        assert "FAIL move-invariance: removal at" in out
        assert "did not restore the link" in out


class TestSvg:
    def test_square_segments_no_gaps(self, capsys):
        code, out, _ = run(capsys, "svg", SQUARE, "--dir", "0,0,1")
        assert code == 0
        assert out.count("<line") == 4
        assert "gaps: 0" in out

    def test_trefoil_gaps(self, capsys):
        code, out, _ = run(capsys, "svg", TREFOIL, "--dir", "0,0,1")
        assert "gaps: 3" in out
        assert out.count("<line") == 12   # 9 edges, 3 split once each

    def test_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "svg", TREFOIL, "--dir", "0,0,1", "-o", str(a))
        run(capsys, "svg", TREFOIL, "--dir", "0,0,1", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestDeform:
    def test_remove_kink(self, capsys, tmp_path):
        out_path = tmp_path / "unkinked.link"
        code, out, _ = run(capsys, "deform", str(fixture_path("kink5")),
                           "--dir", "0,0,1", "--remove", "2",
                           "-o", str(out_path))
        assert code == 0
        assert out.strip() == "C2 1 2 3 [4]"
        assert parse_link(out_path.read_text()).n == load_fixture("kink5").n - 1

    def test_add_vertex(self, capsys, tmp_path):
        out_path = tmp_path / "bigger.link"
        code, out, _ = run(capsys, "deform", TREFOIL, "--dir", "0,0,1",
                           "--add", "0,2,-1,2,3/2", "-o", str(out_path))
        assert code == 0 and "added vertex" in out

    @pytest.mark.parametrize("fields, message", [
        ("x,2,0,0,0", "bad integer 'x'"),
        ("0,2.5,0,0,0", "bad integer '2.5'"),
        ("0, 2,0,0,0", "bad integer ' 2'"),
        ("1,2,0,0,0", "no component 1"),
        ("-1,2,0,0,0", "no component -1"),
        ("0,9,0,0,0", "no position 9")])
    def test_add_bad_index(self, capsys, fields, message):
        # component and position are checked integers: a bad one is a
        # LinkFileError with exit 2, not a traceback
        code, out, err = run(capsys, "deform", TREFOIL, "--dir", "0,0,1",
                             f"--add={fields}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("extra, message", [
        ((), "deform needs --remove or --add"),
        (("--add", "0,2,1"), "--add expects ci,pos,x,y,z")])
    def test_usage_errors(self, capsys, extra, message):
        code, out, err = run(capsys, "deform", TREFOIL, "--dir", "0,0,1",
                             *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("p", ["999", "10", "0", "-1"])
    def test_remove_bad_index(self, capsys, p):
        # "no vertex 999" exited 1, as if the move were refused
        code, out, err = run(capsys, "deform", TREFOIL, "--dir", "0,0,1",
                             f"--remove={p}")
        assert code == 2 and out == ""
        assert err == f"error: --remove: no vertex {p} in a 9-vertex link\n"

    def test_blocked_removal(self, capsys):
        code, _, err = run(capsys, "deform", TREFOIL, "--dir", "0,0,1",
                           "--remove", "1")
        assert code == 1

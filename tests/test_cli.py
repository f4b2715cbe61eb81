"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import polykh.cli
import polykh.geometry
import polykh.khovanov
from polykh.cli import main, parse_diagram, dump_diagram
from polykh import (fixture_path, load_fixture, build_good_diagram, parse_link,
                    LinkFileError, PolygonalLink)

from conftest import DIR_Z, TEXTS, TOKENS, parses_or_rejects

TREFOIL = str(fixture_path("trefoil9"))
SQUARE = str(fixture_path("square"))
GOLDEN = Path(__file__).parent / "golden"
TREFOIL_DUMP = dump_diagram(build_good_diagram(load_fixture("trefoil9"), DIR_Z))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run(capsys, "validate", "/nonexistent.link")
        assert code == 2


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
        out_path = tmp_path / "t.diag"
        code, _, _ = run(capsys, "diagram", TREFOIL, "--dir", "0,0,1",
                         "-o", str(out_path))
        assert code == 0
        parsed = parse_diagram(out_path.read_text())
        original = build_good_diagram(load_fixture("trefoil9"), DIR_Z)
        assert parsed == original
        assert parse_diagram(dump_diagram(parsed)) == parsed

    @pytest.mark.parametrize("mutate, message", [
        # one mutation of the trefoil's dump per consistency rule
        (lambda lines: [x for x in lines if x != "vertex 0 -1"],
         "line 2: boundaries"),
        (lambda lines: [x.replace("crossing 2 6 7 2 3", "crossing 2 6 7 2 30")
                        for x in lines], "line 13: crossing 2: vertex index"),
        (lambda lines: [x.replace("crossing 1 3 4", "crossing 1 3 5")
                        for x in lines], "line 12: crossing 1: .* successor"),
        (lambda lines: [x.replace("crossing 3 9 1 5 6 +1", "crossing 3 9 1 5 6 -1")
                        for x in lines], "line 14: crossing 3: sign -1"),
        (lambda lines: lines + lines[-1:],
         "line 15: crossing 3: expected index 4"),
        (lambda lines: [x.replace("crossing 3 9 1", "crossing 7 9 1")
                        for x in lines], "line 14: crossing 7: expected index 3"),
        (lambda lines: lines[:11] + ["crossing 1 6 7 2 3 +1 0 1",
                                     "crossing 2 3 4 8 9 +1 -8/11 -7/11"]
         + lines[13:],
         "line 13: crossing 2: overcrossing edge \\(3,4\\) comes before"),
        (lambda lines: [x.replace("crossing 3 9 1 5 6", "crossing 3 9 1 2 3")
                        for x in lines],
         "line 14: crossing 3: edge \\(2,3\\) already carries crossing 2"),
        (lambda lines: [x.replace("crossing 2 6 7 2 3", "crossing 2 6 7 3 4")
                        for x in lines],
         "line 13: crossing 2: edge \\(3,4\\) already carries crossing 1"),
        (lambda lines: [x.replace("crossing 1 3 4 8 9", "crossing 1 1 2 2 3")
                        for x in lines],
         "line 12: crossing 1: edges \\(1,2\\) and \\(2,3\\) share a vertex"),
    ])
    def test_inconsistent_diagram_rejected(self, mutate, message):
        text = TREFOIL_DUMP
        lines = text.splitlines()
        assert parse_diagram(text) is not None
        with pytest.raises(LinkFileError, match=message):
            parse_diagram("\n".join(mutate(lines)) + "\n")

    @given(TEXTS)
    def test_parse_fuzz(self, text):
        parses_or_rejects(parse_diagram, text)

    @given(st.data())
    def test_parse_mutated_dump_fuzz(self, data):
        # a few line edits of the trefoil's dump: deleted, repeated, swapped
        # or retyped lines and tokens
        lines = TREFOIL_DUMP.splitlines()
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(lines) - 1))
            edit = data.draw(st.sampled_from(
                ("delete", "repeat", "swap", "token")))
            if edit == "delete":
                del lines[at]
            elif edit == "repeat":
                lines.insert(at, lines[at])
            elif edit == "swap":
                other = data.draw(st.integers(0, len(lines) - 1))
                lines[at], lines[other] = lines[other], lines[at]
            else:
                fields = lines[at].split() or [""]
                fields[data.draw(st.integers(0, len(fields) - 1))] = \
                    data.draw(TOKENS)
                lines[at] = " ".join(fields)
            if not lines:
                break
        parses_or_rejects(parse_diagram, "\n".join(lines))

    def test_twist12_default_direction_terminates(self, capsys):
        # along the default direction (-1,-3,2) exact refinement doubled its
        # denominators' length with each insertion and ran for minutes; with
        # the cap it takes about ten seconds
        start = time.perf_counter()
        code, out, _ = run(capsys, "diagram", str(fixture_path("twist12")))
        assert code == 0 and len(out.splitlines()) == 58
        assert time.perf_counter() - start < 60

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
        code, _, err = run(capsys, "cube", TREFOIL, "--dir", "0,0,1",
                           "--order", "1,1,3")
        assert code == 1


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

    def test_blocked_removal(self, capsys):
        code, _, err = run(capsys, "deform", TREFOIL, "--dir", "0,0,1",
                           "--remove", "1")
        assert code == 1

"""Command line interface, driven through main(argv)."""

import json

import pytest

import helpers
import ldpsurf.cli as cli
import ldpsurf.fans as fans
from ldpsurf import (EmbeddingData, LatticePolygon, TableRow, canonical_polygon,
                     format_polygon_text, mirror_quad, parse_ideal)

SQUARE = LatticePolygon(((1, 1), (-1, 1), (-1, -1), (1, -1)))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_polygon(tmp_path, polygon, name="poly.txt"):
    path = tmp_path / name
    path.write_text(format_polygon_text(polygon))
    return str(path)


def test_analyze_canonical_text(capsys):
    code, out, err = run(capsys, "analyze", "--canonical", "1", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "vertices: (-1,0) (1,-1) (1,1)"
    assert "picard rank: 1" in lines
    assert "index: 1" in lines
    assert "K^2: 8" in lines
    assert "singular cones: 1" in lines
    assert ("  cone 2: rays (1,-1),(1,1)  type (1,2)  "
            "singularity 1/2(1,1)  local index 1") in lines
    assert "graph: [2] - [0] -(1,2)- [0] -" in lines
    assert "polar vertices: (-1/1, 0/1) (1/1, -2/1) (1/1, 2/1)" in lines
    assert ("embedding: ambient dimension 8, degree 8, boundary points 8, "
            "sectional genus 1") in lines
    assert "quadrics: 20" in lines
    assert "classification: k=1 p=1 (standard form, mu=3)" in lines
    assert any(line.startswith("  transform: [[") for line in lines)


def test_analyze_fractional_k2(capsys):
    code, out, _ = run(capsys, "analyze", "--canonical", "1", "2")
    assert code == 0
    assert "K^2: 25/3" in out.splitlines()
    assert "index: 3" in out.splitlines()


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--canonical", "1", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["picard"] == 1
    assert payload["k2"] == "8/1"
    assert payload["embedding"]["quadrics"] == 20
    assert payload["embedding"]["ambient_dim"] == 8
    assert payload["classification"]["k"] == 1
    assert payload["classification"]["normal_form"] == "standard"
    assert payload["singularities"][0]["type"] == "1/2(1,1)"
    assert payload["vertices"] == [[-1, 0], [1, -1], [1, 1]]


def test_analyze_from_file(capsys, tmp_path):
    path = write_polygon(tmp_path, canonical_polygon(3, 2))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "picard rank: 3" in out.splitlines()
    assert "classification: k=3 p=2 (standard form, mu=4)" in out


def test_analyze_multi_singularity_reports_none(capsys, tmp_path):
    path = write_polygon(tmp_path, SQUARE)
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "singular cones: 4" in out.splitlines()
    assert "classification: not a one-singularity polygon" in out.splitlines()


def test_classify_file(capsys, tmp_path):
    path = write_polygon(tmp_path, mirror_quad(3))
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert out.splitlines()[0] == "k=2 p=3 (mirror form, mu=3)"
    assert out.splitlines()[1].startswith("transform: [[")


def test_classify_json(capsys, tmp_path):
    path = write_polygon(tmp_path, canonical_polygon(2, 5))
    code, out, _ = run(capsys, "classify", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2 and payload["p"] == 5
    assert payload["normal_form"] == "standard"
    assert isinstance(payload["transform"], list)


def test_classify_wrong_count_exits_3(capsys, tmp_path):
    path = write_polygon(tmp_path, SQUARE)
    code, out, err = run(capsys, "classify", path)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_bad_inputs_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("hello world\n")
    assert run(capsys, "analyze", str(bad))[0] == 2
    assert run(capsys, "analyze", str(tmp_path / "missing.txt"))[0] == 2
    assert run(capsys, "analyze")[0] == 2  # no file, no --canonical
    code, _, err = run(capsys, "analyze", "--canonical", "9", "1")
    assert code == 2 and err.startswith("error:")
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"\xff\xfe1 0\n")
    for command in ("analyze", "classify"):
        code, _, err = run(capsys, command, str(undecodable))
        assert code == 2 and err.startswith("error:")
    good = write_polygon(tmp_path, canonical_polygon(1, 1))
    for command in ("analyze", "quadrics"):
        code, out, err = run(capsys, command, good, "--canonical", "1", "1")
        assert code == 2 and out == "" and err.startswith("error:")
    for name, text in (("nested.json", helpers.DEEP_NESTING),
                       ("digits.json", helpers.LONG_INTEGER)):
        hostile = tmp_path / name
        hostile.write_text(text)
        for command in ("analyze", "classify", "quadrics"):
            code, out, err = run(capsys, command, str(hostile))
            assert code == 2 and out == "" and err.startswith("error:")
    for pmax in ("0", "-4"):
        code, out, err = run(capsys, "tables", "--pmax", pmax)
        assert code == 2 and out == "" and err.startswith("error:")


def test_analyze_computes_each_cone_once(capsys, monkeypatch):
    calls = []
    cone_invariants = fans.cone_invariants

    def counting(cone):
        calls.append(cone)
        return cone_invariants(cone)

    monkeypatch.setattr(fans, "cone_invariants", counting)
    reads = helpers.count_derived_reads(monkeypatch)
    code, _, _ = run(capsys, "analyze", "--canonical", "3", "9", "--json")
    assert code == 0
    assert len(calls) == 5  # one per cone of the five-vertex polygon
    assert reads == {"k2": 1}  # K^2 is printed; no desingularization is built


def test_analyze_sweeps_once_and_tables_sweeps_2p(capsys, monkeypatch):
    calls = helpers.count_calls(monkeypatch, "lattice_points",
                                "count_lattice_points", "minkowski_double")
    points = EmbeddingData.points

    def reading(self):
        calls["points"] += 1
        return points.__get__(self, EmbeddingData)

    monkeypatch.setattr(EmbeddingData, "points", property(reading))
    code, _, _ = run(capsys, "analyze", "--canonical", "3", "9", "--json")
    assert code == 0
    # one sweep of P gives the counts; |2P| comes from Ehrhart and the
    # point tuple is never built
    assert calls == {"lattice_points": 1}
    calls.clear()
    code, _, _ = run(capsys, "tables", "--pmax", "1")
    assert code == 0
    assert calls["minkowski_double"] == 3  # the measured route sweeps 2P


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(data):
        raise MemoryError

    monkeypatch.setattr(cli, "embedding_data", exhausted)
    for command in ("analyze", "quadrics"):
        code, out, err = run(capsys, command, "--canonical", "1", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory")


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "enumerate_one_singularity", interrupted)
    monkeypatch.setattr(cli, "format_ideal", interrupted)
    for argv in (("enumerate", "--bound", "7"),
                 ("quadrics", "--canonical", "3", "15")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (130, "", "error: interrupted\n")


def test_quadrics_stdout(capsys):
    code, out, _ = run(capsys, "quadrics", "--canonical", "2", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# minimal quadric generating system"
    assert lines[1] == ("# ambient_dim=7 degree=7 generators=14 "
                        "sectional_genus=1")
    assert len(lines) == 16
    assert len(parse_ideal(out)) == 14


def test_quadrics_out_file(capsys, tmp_path):
    dest = tmp_path / "ideal.txt"
    code, out, _ = run(capsys, "quadrics", "--canonical", "2", "1",
                       "--out", str(dest))
    assert code == 0
    assert out.strip() == f"14 generators written to {dest}"
    assert len(parse_ideal(dest.read_text())) == 14


def test_quadrics_from_file(capsys, tmp_path):
    path = write_polygon(tmp_path, canonical_polygon(3, 1))
    code, out, _ = run(capsys, "quadrics", path)
    assert code == 0
    assert len(parse_ideal(out)) == 9


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "--pmax", "3")
    assert code == 0
    assert out.strip() == "54 checks passed"


def test_tables_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "table_formulas",
                        lambda k, p: TableRow(0, 0, 0, 0, 0, 0))
    code, out, err = run(capsys, "tables", "--pmax", "1")
    assert code == 4
    assert "MISMATCH" in out
    assert err.startswith("internal error:")


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--bound", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bound=1: 16 polygons in 3 isomorphism classes"
    assert "  k=1 p=1: 1 class(es)" in lines
    assert "  k=2 p=1: 1 class(es)" in lines
    assert "  k=3 p=1: 1 class(es)" in lines


def test_parser_is_built_once_and_reused_safely(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "analyze", "--canonical", "1", "1", "--json")
    assert code == 0 and json.loads(out)["index"] == 1
    code, out, _ = run(capsys, "analyze", "--canonical", "1", "1")
    assert code == 0 and out.startswith("vertices: ")
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--canonical", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    dest = tmp_path / "ideal.txt"
    code, out, _ = run(capsys, "quadrics", "--canonical", "2", "1",
                       "--out", str(dest))
    assert code == 0 and out == f"14 generators written to {dest}\n"
    dest.unlink()
    code, out, _ = run(capsys, "quadrics", "--canonical", "2", "1")
    assert code == 0 and out.startswith("# minimal quadric generating system\n")
    assert not dest.exists()


def test_argparse_errors():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--bogus"])

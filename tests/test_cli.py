"""Command line interface, driven through main(argv)."""

import contextlib
import gc
import hashlib
import inspect
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import time
import types
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
import ldpsurf.cli as cli
import ldpsurf.delpezzo as delpezzo
import ldpsurf.embedding as embedding
import ldpsurf.lattice as lattice
from helpers import parse_ideal
from ldpsurf import (LatticePolygon, TableRow, UnimodularMap, apply_map,
                     canonical_polygon, format_polygon_text, mirror_quad,
                     table_formulas)

SQUARE = LatticePolygon(((1, 1), (-1, 1), (-1, -1), (1, -1)))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_polygon(tmp_path, polygon, name="poly.txt"):
    path = tmp_path / name
    path.write_text(format_polygon_text(polygon))
    return str(path)


@settings(max_examples=100, deadline=None)
@given(helpers.ldp_presentations())
def test_printed_polar_and_k2_match_the_polar_from_facet_lines(poly):
    payload = cli._analyze_payload(poly)
    polar, area2 = helpers.polar_oracle(poly)
    assert payload["polar_vertices"] == [
        [f"{c.numerator}/{c.denominator}" for c in v] for v in polar]
    assert payload["k2"] == f"{area2.numerator}/{area2.denominator}"


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


@pytest.mark.parametrize("text", ["1 -1\n3 1\n-1 0\n",
                                  "[[1,-1],[3,1],[-1,0]]"],
                         ids=["vertex-lines", "json-array"])
def test_classify_ignores_byte_order_mark(capsys, tmp_path, text):
    # some editors save UTF-8 text with a leading byte-order mark
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    expected = run(capsys, "classify", str(plain))
    assert expected[0] == 0 and expected[1].startswith("k=1 p=3 ")
    assert run(capsys, "classify", str(marked)) == expected


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
    # int() alone reads "1_0" as 10 and the Arabic-Indic digit three as 3,
    # which would make both files canonical_polygon(1, p); JSON takes neither
    for vertex in ("1_0 1", "\u0663 1"):
        loose = tmp_path / "loose.txt"
        loose.write_text(f"1 -1\n{vertex}\n-1 0\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", str(loose))
        assert (code, out) == (2, "")
        assert err == f"error: line 2: expected two integers, got {vertex!r}\n"


@pytest.mark.parametrize("vertices, names_origin", [
    (((1, 0), (2, 1), (1, 1)), True),  # origin outside
    (((1, 1), (-1, 1), (1, -1)), True),  # origin on an edge
    (((0, 0), (1, 0), (0, 1)), False),  # origin at a vertex
    (((2, 0), (0, 1), (-1, -1)), False),  # a non-primitive vertex
])
def test_non_ldp_polygon_files_exit_2(capsys, tmp_path, vertices,
                                      names_origin):
    path = write_polygon(tmp_path, LatticePolygon(vertices))
    for command in ("analyze", "classify"):
        code, out, err = run(capsys, command, path)
        assert code == 2 and out == "" and err.startswith("error:")
        assert ("error: origin is not strictly inside: " if names_origin
                else "error: ray ") in err
        assert names_origin or err.endswith(" is not primitive\n")


def test_analyze_reads_the_input_facet_lines_once(capsys, monkeypatch):
    calls = helpers.count_calls(monkeypatch, "edge_lines", by_argument=True)
    code, _, _ = run(capsys, "analyze", "--canonical", "3", "9")
    assert code == 0
    assert calls[("edge_lines", canonical_polygon(3, 9))] == 1


def test_analyze_computes_each_cone_once(capsys, monkeypatch):
    calls = helpers.count_cone_computations(monkeypatch)
    reads = helpers.count_derived_reads(monkeypatch)
    code, _, _ = run(capsys, "analyze", "--canonical", "3", "9", "--json")
    assert code == 0
    # one per cone of the five-vertex polygon, each once
    cones = helpers.ray_pairs([canonical_polygon(3, 9)])
    assert len(calls) == len(cones) == 5 and set(calls) == cones
    assert reads == {"k2": 1}  # K^2 is printed, and computed once
    code, _, _ = run(capsys, "analyze", "--canonical", "3", "9", "--json")
    assert code == 0 and len(calls) == 10  # no cache: a second run, 5 more


def test_analyze_sweeps_once_and_tables_sweeps_2p(capsys, monkeypatch):
    calls = helpers.count_calls(monkeypatch, "lattice_points",
                                "count_lattice_points", "minkowski_double",
                                "embedding_data")
    code, _, _ = run(capsys, "analyze", "--canonical", "3", "9", "--json")
    assert code == 0
    # one sweep of P gives the counts, and |2P| comes from Ehrhart
    assert calls == {"lattice_points": 1, "embedding_data": 1}
    calls.clear()
    code, _, _ = run(capsys, "tables", "--pmax", "1")
    assert code == 0
    # the measured route counts the points of P and 2P and builds none
    assert calls == {"count_lattice_points": 6, "minkowski_double": 3}


def test_cli_import_loads_no_dataclasses_machinery():
    # start-up: importing the CLI loads neither dataclasses nor the modules
    # it imports, which cost about 12 ms of start-up on one Intel Xeon core
    # under Python 3.11; -S keeps site hooks out, so only ldpsurf's own
    # imports count
    src = os.path.dirname(os.path.dirname(cli.__file__))
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    run = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, ldpsurf.cli; "
         f"print(*[m for m in {heavy!r} if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "\n", "")


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

    monkeypatch.setattr(cli, "count_one_singularity", interrupted)
    monkeypatch.setattr(cli, "write_ideal", interrupted)
    for argv in (("enumerate", "--bound", "7"),
                 ("quadrics", "--canonical", "3", "15")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (130, "", "error: interrupted\n")


@pytest.mark.parametrize("argv", [("quadrics", "--canonical", "3", "9"),
                                  ("enumerate", "--bound", "7")])
def test_closed_pipe_exits_141_quietly(argv):
    # stdout's reader is gone before the first write, as when `| head -1`
    # has exited; buffered, the flush meets the closed pipe, unbuffered the
    # first print does, and either way the run ends as a shell reports
    # SIGPIPE, with nothing on stderr
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "ldpsurf.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, timeout=60,
                env={**env, **unbuffered})
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (141, b"")


def _search_states(walks):
    """The states of the enumerate search's walk generators alive in the
    process."""
    return [inspect.getgeneratorstate(g) for g in gc.get_objects()
            if isinstance(g, types.GeneratorType)
            and g.gi_code is walks.__code__]


def test_interrupt_mid_stream_prints_no_table(capsys, monkeypatch):
    # the interrupt arrives while the count reads the 100th walked polygon
    live, calls, real = [], [0], delpezzo._one_singularity_walks

    def counted(found):
        for pair in found:
            calls[0] += 1
            if calls[0] == 100:
                live.extend(_search_states(real))
                raise KeyboardInterrupt
            yield pair

    def interrupted(bound):
        for found in real(bound):
            yield counted(found)

    monkeypatch.setattr(delpezzo, "_one_singularity_walks", interrupted)
    gc.collect()
    gc.disable()  # only reference counting may free the search's walk
    try:
        code, out, err = run(capsys, "enumerate", "--bound", "7")
        left = _search_states(real)
    finally:
        gc.enable()
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert calls[0] == 100  # the search stopped where it was interrupted
    assert live == [inspect.GEN_SUSPENDED]
    assert left == []


def test_misclassified_polygon_mid_stream_exits_4(capsys, monkeypatch):
    real, calls = delpezzo._normal_form, [0]

    def certify(verts, kappa, lam, q):
        calls[0] += 1  # the 100th polygon gets its third vertex moved
        if calls[0] == 100:
            (ax, ay), (bx, by) = verts[1], verts[2]
            verts = verts[:2] + ((ax + bx, ay + by),) + verts[3:]
        return real(verts, kappa, lam, q)

    monkeypatch.setattr(delpezzo, "_normal_form", certify)
    code, out, err = run(capsys, "enumerate", "--bound", "7")
    assert (code, out) == (4, "")
    first, check = err.splitlines()
    assert first.startswith("internal error: normalized polygon ")
    assert check.startswith("  check normalized vertices == "
                            "canonical_polygon(k, p): expected ")
    assert calls[0] == 100  # checked as it was found, not after the search


class _InterruptedFile:
    """A file that lets the header and the first fiber through, then raises
    KeyboardInterrupt on the next write."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 2:
            raise KeyboardInterrupt
        return self.fh.write(text)


def test_interrupted_out_leaves_no_file(capsys, monkeypatch, tmp_path):
    real = cli.write_ideal
    monkeypatch.setattr(cli, "write_ideal",
                        lambda report, fh: real(report, _InterruptedFile(fh)))
    dest = tmp_path / "ideal.txt"
    code, out, err = run(capsys, "quadrics", "--canonical", "2", "5",
                         "--out", str(dest))
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert list(tmp_path.iterdir()) == []
    # a file already at --out is left as it was
    dest.write_text("kept\n")
    code, _, _ = run(capsys, "quadrics", "--canonical", "2", "5",
                     "--out", str(dest))
    assert code == 130 and dest.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [dest]


def test_quadrics_stdout(capsys):
    code, out, _ = run(capsys, "quadrics", "--canonical", "2", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# minimal quadric generating system"
    assert lines[1] == ("# ambient_dim=7 degree=7 generators=14 "
                        "sectional_genus=1")
    assert len(lines) == 16
    assert len(parse_ideal(out)) == 14


def test_quadrics_empty_out_is_refused(capsys, tmp_path, monkeypatch):
    # an empty path names no file; it must not fall back to stdout
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "quadrics", "--canonical", "2", "1",
                         "--out", "")
    assert (code, out) == (2, "") and err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


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


def test_quadrics_out_file_matches_stdout_bytes(capsys, tmp_path):
    # a sheared member, so the output has negative coordinates
    poly = apply_map(UnimodularMap(1, 2, 0, 1), canonical_polygon(3, 11))
    path = write_polygon(tmp_path, poly)
    code, out, err = run(capsys, "quadrics", path)
    assert (code, err) == (0, "") and "z(-" in out
    dest = tmp_path / "ideal.txt"
    code, printed, _ = run(capsys, "quadrics", path, "--out", str(dest))
    assert code == 0 and printed.endswith(f" written to {dest}\n")
    assert dest.read_bytes() == out.encode()


def test_quadrics_out_through_a_symlink_or_into_a_pipe(capsys, tmp_path):
    code, expect, _ = run(capsys, "quadrics", "--canonical", "2", "1")
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old\n")
    link.symlink_to(real)
    code, _, _ = run(capsys, "quadrics", "--canonical", "2", "1",
                     "--out", str(link))
    assert code == 0 and link.is_symlink()
    assert real.read_text() == expect
    # a pipe is written in place, never replaced by a regular file
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    code, _, _ = run(capsys, "quadrics", "--canonical", "2", "1",
                     "--out", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [expect]
    assert code == 0 and stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fifo", "link.txt", "real.txt"]


def test_quadrics_out_keeps_the_mode_of_a_replaced_file(capsys, tmp_path):
    old_umask = os.umask(0o022)
    try:
        private, fresh = tmp_path / "private.txt", tmp_path / "fresh.txt"
        private.write_text("old\n")
        private.chmod(0o600)
        for dest in (private, fresh):
            code, _, _ = run(capsys, "quadrics", "--canonical", "2", "1",
                             "--out", str(dest))
            assert code == 0
    finally:
        os.umask(old_umask)
    assert len(parse_ideal(private.read_text())) == 14
    assert stat.S_IMODE(private.stat().st_mode) == 0o600
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o644  # the umask default


def test_quadrics_out_into_a_missing_directory_names_the_given_path(
        capsys, tmp_path):
    dest = tmp_path / "missing" / "ideal.txt"
    code, out, err = run(capsys, "quadrics", "--canonical", "2", "1",
                         "--out", str(dest))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{dest}'\n"
    assert list(tmp_path.iterdir()) == []


def test_quadrics_out_to_a_directory_link_names_the_given_path(
        capsys, tmp_path, monkeypatch):
    (tmp_path / "realdir").mkdir()
    (tmp_path / "linkdir").symlink_to("realdir")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "quadrics", "--canonical", "2", "1",
                         "--out", "linkdir")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 21] Is a directory: 'linkdir'\n"
    assert list((tmp_path / "realdir").iterdir()) == []


def test_quadrics_out_memory_stays_small(capsys, tmp_path):
    dest = tmp_path / "ideal.txt"

    def peak_per_point(p, *source):
        source = source or ("--canonical", "3", str(p))
        codes = []
        traced = helpers.peak_traced_bytes(lambda: codes.append(cli.main(
            ["quadrics", *source, "--out", str(dest)])))
        capsys.readouterr()
        assert codes == [0]
        return traced, traced / (table_formulas(3, p).ambient_dim + 1)

    _, small = peak_per_point(13)  # 457 points, 102,942 generators
    peak, large = peak_per_point(25)  # 2,563 points, 3,275,883 generators
    assert dest.stat().st_size > 100_000_000
    # P's column table, one root per sum fiber and one fiber's text at a
    # time: the peak follows the points, not the generators (a list slot per
    # point pair traced 28.8 MB, 11 KB a point)
    assert peak < 4 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"
    assert large < 1.5 * small, f"{small:.0f} and {large:.0f} bytes a point"
    # the canonical members are swept in the x frame and written from slice
    # runs; a shear's fibers are sorted, under the same bounds
    path = write_polygon(tmp_path, apply_map(UnimodularMap(1, 0, 9, 1),
                                             canonical_polygon(3, 13)))
    peak, sheared = peak_per_point(13, path)
    assert peak < 4 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"
    assert sheared < 1.5 * small, f"{small:.0f}, {sheared:.0f} bytes a point"


def test_enumerate_memory_follows_the_box(capsys):
    # the first run builds the normal forms, which are memoized; the second
    # then holds the box's det = 1 lines, one first vertex's polygons and
    # the class counts, not the 14,000 polygons, which as one list trace
    # 7.8 MB
    argv = ["enumerate", "--bound", "12"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    codes = []
    peak = helpers.peak_traced_bytes(lambda: codes.append(cli.main(argv)))
    assert codes == [0] and capsys.readouterr().out == expected
    assert expected.startswith("bound=12: 14000 polygons in ")
    assert peak < 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MB"


# sha256 of stdout, by test id: `quadrics --canonical K P` at benchmark
# size, where the fixtures (14, 9 and 182 generators) do not reach, and the
# other commands on a few inputs; a polygon argument is written to a file
MULTI = LatticePolygon(((2, 1), (-1, 2), (-1, -1), (1, -2)))  # index 15
STDOUT_SHA256 = {
    "3-15": (("quadrics", "--canonical", "3", "15"),
             "ff6974198b4a57ffc72d0d5a24b4e86c07e8364656f43870f8e613322d52a539"),
    "1-13": (("quadrics", "--canonical", "1", "13"),
             "81ed4cac8c0d2142a92e40a158d7e77b6add662c1421d0a657c8639ef42ad016"),
    "2-7": (("quadrics", "--canonical", "2", "7"),
            "801c2d42cf3e78136ced4d9baf7a9a0427fece405313561cc89271b579fde6e9"),
    "analyze-1-1": (
        ("analyze", "--canonical", "1", "1"),
        "b4f47e7251da3aad6163321df1a37e91aaf6f36a2b3440e64b7c2b07fd2a127d"),
    "analyze-3-15-json": (
        ("analyze", "--canonical", "3", "15", "--json"),
        "ea98bcfaaedb6ffe8194e8d0753294d59fb9209605f12ffce02af12eeb258591"),
    "analyze-multi": (
        ("analyze", MULTI),
        "0224e19ae38b7785c9e0e7aaa7ccd907eb8e01f6409fd10285b566cae535338f"),
    # sheared inputs, whose dilated polar polygons are swept in an edge
    # normal's frame rather than the x frame
    "analyze-2-17-sheared-json": (
        ("analyze",
         apply_map(UnimodularMap(1, 0, 9, 1), canonical_polygon(2, 17)),
         "--json"),
        "81605b9708349b1e4cbd8991dc07735c26ea7eca798e63e3f423552510a59cfe"),
    "analyze-multi-sheared": (
        ("analyze", apply_map(UnimodularMap(1, 0, 6, 1), MULTI)),
        "110fde3a7520797e0abf94c4b55a3fb01cac568c355936b002418b107fda37e5"),
    "quadrics-3-9-sheared": (
        ("quadrics",
         apply_map(UnimodularMap(1, 0, 9, 1), canonical_polygon(3, 9))),
        "68f0b3de0464a748174cd8ff91b98446ef5eb2aa2ef0bbd998ee3c9c39f38eb4"),
    "quadrics-multi-sheared": (
        ("quadrics", apply_map(UnimodularMap(1, 0, 6, 1), MULTI)),
        "1ec07f45135ba44350804f9657553c10e3e547487d55d2f212710c36b8a60266"),
    "classify-mirror-json": (
        ("classify", mirror_quad(4), "--json"),
        "0869859cfde9c71cffed90f105d126af955f64ae545f030c3bbbe73f93fb11f8"),
    "enumerate-3": (
        ("enumerate", "--bound", "3"),
        "b0f31992cec3b1e6b3748d5f5cf26f7259abc4a6aeabb1fd740d7258b07bb8af"),
    "tables-3": (
        ("tables", "--pmax", "3"),
        "67545abb364bd270a20fa94094b60ca1c7582af5f1c760d8316b1959aea94328"),
}


def assert_stdout_pinned(capsys, tmp_path, case):
    argv, digest = STDOUT_SHA256[case]
    code, out, err = run(capsys, *(
        write_polygon(tmp_path, arg) if isinstance(arg, LatticePolygon)
        else arg for arg in argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(STDOUT_SHA256))
def test_quadrics_output_is_byte_stable(capsys, tmp_path, case):
    assert_stdout_pinned(capsys, tmp_path, case)


def test_quadrics_writes_x_frame_fibers_from_runs_and_sorts_the_rest(
        capsys, tmp_path, monkeypatch):
    # a canonical member's P is swept in the x frame, where each fiber's
    # lines are slice runs of P's column-major order and no fiber is sorted
    def sorted_fibers(report):
        raise AssertionError("an x-frame fiber was sorted")

    with monkeypatch.context() as patch:
        patch.setattr(embedding, "_fibers", sorted_fibers)
        assert_stdout_pinned(capsys, tmp_path, "3-15")
    # a shear's P is swept in an edge normal's frame, and its fibers sorted
    calls = helpers.count_calls(monkeypatch, "_fibers")
    assert_stdout_pinned(capsys, tmp_path, "quadrics-3-9-sheared")
    assert calls["_fibers"] == 1


def test_fiber_count_failure_exits_4(capsys, monkeypatch):
    # the degree is skewed where the pair walk reads it: skewed in
    # embedding_data's result, the count check before the walk stops it
    real = cli.minimal_system

    def skewed(e):  # no valid input reaches the check through the CLI
        return real(e._replace(degree=e.degree + 1))

    monkeypatch.setattr(cli, "minimal_system", skewed)
    code, out, err = run(capsys, "quadrics", "--canonical", "3", "3")
    assert (code, out) == (4, "")
    assert err == ("internal error: 71 sum fibers but 73 lattice points in "
                   "the doubled polygon\n"
                   "  check sum fibers == L_P(2): expected 73, got 71\n")


def test_line_count_failure_exits_4_and_leaves_no_file(capsys, monkeypatch,
                                                       tmp_path):
    real = cli.minimal_system

    def overcounted(e):  # no valid input reaches the check through the CLI
        report = real(e)
        return report._replace(count=report.count + 1)

    monkeypatch.setattr(cli, "minimal_system", overcounted)
    code, out, err = run(capsys, "quadrics", "--canonical", "3", "3",
                         "--out", str(tmp_path / "ideal.txt"))
    assert (code, out) == (4, "")
    assert err == ("internal error: 182 generators written but 183 in the "
                   "header\n  check lines written == header count: "
                   "expected 183, got 182\n")
    assert list(tmp_path.iterdir()) == []


def test_swept_count_differs_from_vertex_count_exits_4(capsys, monkeypatch):
    real = cli.embedding_data

    def skewed(data):  # no valid input reaches the check through the CLI
        e = real(data)
        return e._replace(degree=e.degree + 1)

    monkeypatch.setattr(cli, "embedding_data", skewed)
    monkeypatch.setattr(cli, "minimal_system", None)  # not reached
    count = table_formulas(3, 3).quadric_count
    code, out, err = run(capsys, "quadrics", "--canonical", "3", "3")
    assert (code, out) == (4, "")
    assert err == (f"internal error: {count - 2} generators by the sweep, "
                   f"{count} by the vertices\n  check swept == Pick count: "
                   f"expected {count}, got {count - 2}\n")


def test_pick_failure_exits_4_with_both_values(capsys, monkeypatch):
    helpers.lose_one_interior_point(monkeypatch)
    code, out, err = run(capsys, "analyze", "--canonical", "3", "3")
    assert (code, out) == (4, "")
    assert err == ("internal error: point count violates the Pick identity\n"
                   "  check Pick: 2·delta == 2A + B: expected 42, got 40\n")


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "--pmax", "3")
    assert code == 0
    assert out.strip() == "54 checks passed"


def test_tables_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "table_formulas",
                        lambda k, p: TableRow(0, 0, 0, 0, 0, 0))
    code, out, err = run(capsys, "tables", "--pmax", "1")
    assert code == 4
    failed = out.count("MISMATCH")
    assert failed == len(out.splitlines()) > 0
    assert err == (f"internal error: {failed} of 18 checks failed\n"
                   "  check tables closed form == measured: "
                   f"expected 0, got {failed}\n")


def test_oversized_tables_pmax_exits_2_before_any_row(capsys, monkeypatch):
    def unbuilt(k, p):
        raise AssertionError(f"row k={k} p={p} built")

    monkeypatch.setattr(cli, "enumerated_row", unbuilt)
    limit = cli.MAX_PMAX
    for pmax in (limit + 1, 10**9):
        code, out, err = run(capsys, "tables", "--pmax", str(pmax))
        assert (code, out) == (2, "")
        assert err == f"error: --pmax must be between 1 and {limit}\n"
    # the limit itself is checked row by row; rows read off the closed
    # forms keep the test fast
    monkeypatch.setattr(cli, "enumerated_row", cli.table_formulas)
    code, out, err = run(capsys, "tables", "--pmax", str(limit))
    assert (code, out, err) == (0, f"{18 * limit} checks passed\n", "")


def test_oversized_enumerate_bound_exits_2_at_once(capsys, monkeypatch):
    helpers.forbid_enumeration_box(monkeypatch)
    limit = cli.MAX_BOUND
    for bound in (limit + 1, 10**6):
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--bound", str(bound))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: bound must be between 1 and {limit}\n"
    # the limit itself is searched; a stand-in search keeps the test fast
    monkeypatch.setattr(delpezzo, "_one_singularity_walks", lambda bound: [])
    code, out, err = run(capsys, "enumerate", "--bound", str(limit))
    assert (code, out, err) == (
        0, f"bound={limit}: 0 polygons in 0 isomorphism classes\n", "")


# runs `ldpsurf quadrics --canonical 3 P --out F` under a 2 GB address-space
# cap, or the inherited hard limit if lower, with the lattice point sweep
# replaced by one that fails the run
_CAPPED_QUADRICS = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import ldpsurf.embedding
from ldpsurf.cli import main

def unswept(polygon):
    raise AssertionError("lattice_points ran")

ldpsurf.embedding.lattice_points = unswept
sys.exit(main(["quadrics", "--canonical", "3", sys.argv[1], "--out",
               sys.argv[2]]))
"""


def test_oversized_quadrics_exits_2_before_the_pair_walk(capsys, monkeypatch,
                                                         tmp_path):
    def pair_walk(e):
        raise AssertionError("minimal_system ran")

    walk = cli.minimal_system
    monkeypatch.setattr(cli, "minimal_system", pair_walk)
    dest = tmp_path / "ideal.txt"
    start = time.perf_counter()
    code, out, err = run(capsys, "quadrics", "--canonical", "3", "63",
                         "--out", str(dest))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: 608256992 generators, more than "
                   f"{cli.MAX_GENERATORS}\n")
    assert list(tmp_path.iterdir()) == []  # nothing written, not even a temp
    # refused from P's vertices, before its lattice points are swept
    root = os.path.dirname(os.path.dirname(cli.__file__))
    for p in (1001, 10**6):
        start = time.perf_counter()
        capped = subprocess.run(
            [sys.executable, "-c", _CAPPED_QUADRICS, str(p), str(dest)],
            env={**os.environ, "PYTHONPATH": root}, capture_output=True,
            text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert (capped.returncode, capped.stdout) == (2, "")
        assert capped.stderr == (
            f"error: {table_formulas(3, p).quadric_count} generators, more "
            f"than {cli.MAX_GENERATORS}\n")
    assert list(tmp_path.iterdir()) == []
    # a system of exactly the limit is written; one past it is refused
    monkeypatch.setattr(cli, "minimal_system", walk)
    count = table_formulas(3, 3).quadric_count
    for limit, expected in ((count, 0), (count - 1, 2)):
        monkeypatch.setattr(cli, "MAX_GENERATORS", limit)
        assert run(capsys, "quadrics", "--canonical", "3", "3")[0] == expected


def test_large_shear_runs_as_fast_as_its_unsheared_form(capsys, tmp_path):
    # the shear (x, y) -> (x, 10^9·x + y) widens P's x frame to 18·10^9 + 3
    # columns; every sweep runs in the narrowest frame, so both commands
    # finish at once under a 2 GB cap
    root = os.path.dirname(os.path.dirname(cli.__file__))
    path = write_polygon(tmp_path, apply_map(UnimodularMap(1, 0, 10**9, 1),
                                             canonical_polygon(3, 5)))
    dest = tmp_path / "ideal.txt"
    quadrics = helpers.capped_cli(root, 2 << 30, "quadrics", path, "--out",
                                  str(dest), timeout=30)
    analyze = helpers.capped_cli(root, 2 << 30, "analyze", path, "--json",
                                 timeout=30)
    assert (quadrics.returncode, analyze.returncode) == (0, 0)
    assert quadrics.stdout == f"1248 generators written to {dest}\n"
    code, out, _ = run(capsys, "quadrics", "--canonical", "3", "5")
    header = dest.read_text(encoding="utf-8").splitlines()[:2]
    assert code == 0 and header == out.splitlines()[:2]
    assert header[1] == ("# ambient_dim=52 degree=78 generators=1248 "
                         "sectional_genus=27")
    code, out, _ = run(capsys, "analyze", "--canonical", "3", "5", "--json")
    assert code == 0
    assert (json.loads(analyze.stdout)["embedding"]
            == json.loads(out)["embedding"])


def test_classify_refuses_a_huge_two_singularity_triangle_at_once(tmp_path):
    # the cones of (1, 0), (1 - N, N), (0, -1) have determinants N, N - 1
    # and 1: two points of type A, each read from closed forms in O(log N)
    # steps, so classify finds two singular cones at once under a 2 GB cap
    root = os.path.dirname(os.path.dirname(cli.__file__))
    big = 10 ** 9
    path = write_polygon(tmp_path, LatticePolygon(((1, 0), (1 - big, big),
                                                   (0, -1))))
    start = time.perf_counter()
    capped = helpers.capped_cli(root, 2 << 30, "classify", path, timeout=30)
    assert time.perf_counter() - start < 1
    assert (capped.returncode, capped.stdout) == (3, "")
    assert capped.stderr == \
        "error: polygon has 2 singular cones, need exactly 1\n"


@st.composite
def large_maps(draw):
    """A map of determinant +-1 with entries up to 10^9: a coprime first
    column (a, c), completed by d = a^-1 mod |c| and b = (a·d - 1) / c, so
    |b| <= |a| and |d| <= |c|; det -1 swaps the rows."""
    a, c = (draw(st.integers(-10**9, 10**9)) for _ in range(2))
    assume(math.gcd(a, c) == 1)
    d = pow(a, -1, abs(c)) if c else a
    b = (a * d - 1) // c if c else 0
    return UnimodularMap(c, d, a, b) if draw(st.booleans()) else \
        UnimodularMap(a, b, c, d)


def least_edge_width(p: LatticePolygon) -> int:
    """The least width of p along the primitive normals of its edges, a
    GL2(Z) invariant of p."""
    verts, widths = p.vertices, []
    for (vx, vy), (wx, wy) in zip(verts, verts[1:] + verts[:1]):
        g = math.gcd(wx - vx, wy - vy)
        a, b = (vy - wy) // g, (wx - vx) // g
        widths.append(max(a * (x - vx) + b * (y - vy) for x, y in verts))
    return min(widths)


def printed_work(q: LatticePolygon) -> tuple:
    """What analyze --json and quadrics print about q that no GL2(Z) map
    changes, and the number of columns each lattice sweep they run visits:
    the x-range of the frame image it is handed, empty columns included.
    A sweep of more than its polygon's least edge width plus 1 columns
    fails before it starts."""
    real, columns = lattice._columns, []

    def bounded(p):
        xs = [x for x, _ in p.vertices]
        columns.append(max(xs) - min(xs) + 1)
        assert columns[-1] <= least_edge_width(p) + 1, \
            f"a sweep of {columns[-1]} columns over {p}"
        return real(p)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(lattice, "_columns", bounded):
        path = os.path.join(tmp, "poly.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_polygon_text(q))
        outputs = []
        for argv in (("analyze", path, "--json"), ("quadrics", path)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(list(argv)) == 0
            outputs.append(out.getvalue())
    payload = json.loads(outputs[0])
    cls = payload["classification"]
    numbers = ({key: payload[key] for key in (
        "picard", "index", "k2", "singular_count", "embedding")},
        sorted((s["q"], s["local_index"]) for s in payload["singularities"]),
        cls and (cls["k"], cls["p"]))
    return numbers, outputs[1].splitlines()[:2], columns


# ldp_presentations keeps the index at most 6 and p at most 9: the largest
# draws write about 2·10^5 generators, and 100 draws take about 2 s
@settings(max_examples=100, deadline=None)
@given(helpers.ldp_presentations(), large_maps())
@example(canonical_polygon(3, 5), UnimodularMap(10**9, 1, 10**9 - 1, 1))
@example(canonical_polygon(2, 9), UnimodularMap(10**9 - 1, 1, 10**9, 1))
def test_commands_do_the_same_work_on_a_gl2z_image(poly, m):
    numbers, header, columns = printed_work(poly)
    image_numbers, image_header, image_columns = printed_work(apply_map(m, poly))
    assert (image_numbers, image_header) == (numbers, header)
    assert len(image_columns) == len(columns) > 0


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

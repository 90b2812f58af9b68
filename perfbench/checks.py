"""Output checks, independent of the measured code path.

Each check takes a generated item, the exit code and captured standard
output of its invocation (and the output file, where the item writes one) and
returns None when the output is right, or a one-line reason.  Family members
are held to the closed forms of `ldpsurf.table_formulas`, which never sweep
lattice points; the other polygons to the benchmark's own facet arithmetic
in gen.py.
"""

from __future__ import annotations

import json
import re

from ldpsurf import table_formulas

_NUMBERS = ("index", "ambient_dim", "degree", "quadrics", "sectional_genus",
            "boundary_points")


def family_expect(k: int, p: int) -> dict:
    row = table_formulas(k, p)
    return {"index": row.index, "ambient_dim": row.ambient_dim,
            "degree": row.degree, "quadrics": row.quadric_count,
            "sectional_genus": row.genus, "boundary_points": row.boundary_count}


def check_analyze(item: dict, code, stdout: str, out_dir: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if sorted(map(tuple, payload["vertices"])) != sorted(map(tuple, item["verts"])):
        return "reported vertices differ from the input polygon"
    emb = payload["embedding"]
    got = {name: payload["index"] if name == "index" else emb[name]
           for name in _NUMBERS}
    cls = payload["classification"]
    if item["kind"] == "family":
        if cls is None or (cls["k"], cls["p"]) != (item["k"], item["p"]):
            return f"classification {cls} is not k={item['k']} p={item['p']}"
        expect = family_expect(item["k"], item["p"])
    else:
        if cls is not None:
            return "multi-singularity polygon was classified"
        expect = item["expect"]
        if payload["singular_count"] != expect["singular_count"]:
            return (f"singular_count {payload['singular_count']}, expected "
                    f"{expect['singular_count']}")
        # Pick's identity on the dilated polar polygon
        if 2 * emb["ambient_dim"] != emb["degree"] + emb["boundary_points"]:
            return "embedding numbers violate Pick's identity"
    for name in _NUMBERS:
        if got[name] != expect[name]:
            return f"{name} {got[name]}, expected {expect[name]}"
    return None


_FACTOR = r"z\((-?\d+),(-?\d+)\)"
_BINOMIAL = re.compile(rf"{_FACTOR}\*{_FACTOR} - {_FACTOR}\*{_FACTOR}")


def check_quadrics(item: dict, code, stdout: str, out_dir: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    expect = table_formulas(item["k"], item["p"]).quadric_count
    path = f"{out_dir}/{item['out']}"
    if stdout != f"{expect} generators written to {path}\n":
        return f"unexpected standard output {stdout[:80]!r}"
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            m = _BINOMIAL.fullmatch(line)
            if m is None:
                return f"line {lineno} does not parse: {line[:80]!r}"
            x1, y1, x2, y2, x3, y3, x4, y4 = map(int, m.groups())
            if (x1 + x2, y1 + y2) != (x3 + x4, y3 + y4):
                return f"line {lineno}: monomial exponent sums differ"
            if line in seen:
                return f"line {lineno} repeats an earlier generator"
            seen.add(line)
    if len(seen) != expect:
        return f"{len(seen)} generators, closed form gives {expect}"
    return None


_ENUM_HEAD = re.compile(r"bound=(\d+): (\d+) polygons in (\d+) isomorphism classes")
_ENUM_ROW = re.compile(r"  k=(\d+) p=(\d+): (\d+) class\(es\)")

# Counts of the exhaustive search at bound 7 (acceptance criterion 7).
ENUMERATE_EXPECT = {7: (4144, 39, {(k, p) for k in (1, 2, 3) for p in range(1, 14)})}


def enumerated_polygons(stdout: str) -> int:
    m = _ENUM_HEAD.match(stdout)
    return int(m.group(2)) if m else 0


def check_enumerate(item: dict, code, stdout: str, out_dir: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    head = _ENUM_HEAD.fullmatch(lines[0]) if lines else None
    if head is None:
        return f"unexpected first line {stdout[:80]!r}"
    polygons, classes, pairs = ENUMERATE_EXPECT[item["bound"]]
    if int(head.group(1)) != item["bound"]:
        return f"bound {head.group(1)} reported for {item['bound']}"
    if (int(head.group(2)), int(head.group(3))) != (polygons, classes):
        return (f"{head.group(2)} polygons in {head.group(3)} classes, "
                f"expected {polygons} in {classes}")
    rows = [_ENUM_ROW.fullmatch(line) for line in lines[1:]]
    if None in rows:
        return "unparsable class summary line"
    got = {(int(m.group(1)), int(m.group(2))) for m in rows}
    if got != pairs or len(rows) != len(pairs):
        return "(k, p) set differs from {1,2,3} x {1..13}"
    if sum(int(m.group(3)) for m in rows) != classes:
        return "class counts do not add up"
    return None


CHECKS = {"analyze": check_analyze, "quadrics": check_quadrics,
          "enumerate": check_enumerate}

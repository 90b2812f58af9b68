"""Shared randomized-instance generators for the test suite."""

import collections
import itertools
import math
import random
import sys
from fractions import Fraction

from ldpsurf import (EmbeddingData, FanAnalysis, LatticePolygon, UnimodularMap,
                     analyze_fan, embedding_data, fan_from_polygon, is_ldp,
                     ldp_analyze)


def analysis_of(poly: LatticePolygon) -> FanAnalysis:
    """The analysis of a polygon's face fan, as the library builds it."""
    return analyze_fan(fan_from_polygon(poly))


def embedding_of(poly: LatticePolygon) -> EmbeddingData:
    """The embedding data of a log del Pezzo polygon."""
    return embedding_data(ldp_analyze(poly))


def count_derived_reads(monkeypatch) -> collections.Counter:
    """Count, for the rest of the test, the reads of the FanAnalysis values
    that are derived on read: k2, resolution and exceptional."""
    reads = collections.Counter()
    for name in ("k2", "resolution", "exceptional"):
        getter = getattr(FanAnalysis, name).fget

        def counting(self, name=name, getter=getter):
            reads[name] += 1
            return getter(self)

        monkeypatch.setattr(FanAnalysis, name, property(counting))
    return reads


def count_calls(monkeypatch, *names) -> collections.Counter:
    """Count, for the rest of the test, the calls of the named ldpsurf
    functions, in every module of the package that binds them."""
    calls = collections.Counter()
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "ldpsurf" or key.startswith("ldpsurf.")]
    for name in names:
        fn = next(getattr(mod, name) for mod in modules if hasattr(mod, name))

        def counting(*args, name=name, fn=fn, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
    return calls


def random_primitive(rng: random.Random, bound: int) -> tuple[int, int]:
    """Uniformish primitive lattice point in [-bound, bound]^2, never zero."""
    while True:
        x = rng.randint(-bound, bound)
        y = rng.randint(-bound, bound)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1:
            return (x, y)


def random_unimodular(rng: random.Random, shears: int = 4,
                      det: int | None = None) -> UnimodularMap:
    """Random product of elementary shears, optionally reflected to det -1."""
    m = UnimodularMap.identity()
    for _ in range(shears):
        s = rng.randint(-3, 3)
        if rng.random() < 0.5:
            step = UnimodularMap(1, s, 0, 1)
        else:
            step = UnimodularMap(1, 0, s, 1)
        m = step.compose(m)
    want = det if det is not None else rng.choice((1, -1))
    if m.det != want:
        m = UnimodularMap(0, 1, 1, 0).compose(m)
    return m


def convex_hull(points):
    """Andrew monotone chain with strict turns: vertices only, anticlockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


def one_singularity_polygons(bound: int) -> list[tuple]:
    """Vertex cycles, sorted, of every polygon whose vertices are primitive
    points of [-bound, bound]^2 with the origin strictly inside and exactly
    one non-basic cone over an edge, found by trying every subset of those
    points: a test-only oracle for the library's enumeration search."""
    pts = [(x, y) for x in range(-bound, bound + 1)
           for y in range(-bound, bound + 1) if math.gcd(x, y) == 1]
    found = []
    for size in range(3, len(pts) + 1):
        for subset in itertools.combinations(pts, size):
            hull = convex_hull(subset)
            if len(hull) != size:
                continue  # not in convex position
            dets = [ax * by - ay * bx for (ax, ay), (bx, by)
                    in zip(hull, hull[1:] + hull[:1])]
            if min(dets) > 0 and sum(d > 1 for d in dets) == 1:
                found.append(tuple(hull))
    return sorted(found)


def random_lattice_polygon(rng: random.Random, bound: int = 6,
                           tries: int = 200) -> LatticePolygon:
    """Hull of a handful of random lattice points; arbitrary position."""
    for _ in range(tries):
        sample = [(rng.randint(-bound, bound), rng.randint(-bound, bound))
                  for _ in range(rng.randint(3, 9))]
        hull = convex_hull(sample)
        if len(hull) >= 3:
            return LatticePolygon(tuple(hull))
    raise AssertionError("could not sample a polygon")


def random_ldp_polygon(rng: random.Random, bound: int = 4,
                       tries: int = 2000) -> LatticePolygon:
    """Random polygon with primitive vertices and the origin strictly inside."""
    for _ in range(tries):
        sample = [random_primitive(rng, bound) for _ in range(rng.randint(3, 8))]
        hull = convex_hull(sample)
        if len(hull) < 3:
            continue
        poly = LatticePolygon(tuple(hull))
        if is_ldp(poly):
            return poly
    raise AssertionError("could not sample an LDP polygon")


# Polygon files that once escaped the parser with a traceback: nesting past
# the recursion limit, and an integer past the int-digits limit.
DEEP_NESTING = "[" * 5000
LONG_INTEGER = "[[1" + "0" * 5000 + ", 1], [0, 1], [-1, -1]]"


def dense_rank(binomials) -> int:
    """Rank over the rationals of binomial relations by dense Gaussian
    elimination, one column per point pair that occurs: a test-only oracle
    for the library's graph-connectivity rank."""
    pairs = sorted({pair for b in binomials for pair in (b.plus, b.minus)})
    col = {pair: i for i, pair in enumerate(pairs)}
    rows = []
    for b in binomials:
        row = [Fraction(0)] * len(pairs)
        row[col[b.plus]] = Fraction(1)
        row[col[b.minus]] = Fraction(-1)
        rows.append(row)
    rank = 0
    for c in range(len(pairs)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                factor = rows[i][c] / rows[rank][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def brute_force_points(vertices) -> tuple[set, set]:
    """Lattice points of a convex polygon given by its vertex cycle, split as
    (boundary, interior): every integer point of the bounding box is
    classified by exact cross products against the edges. A test-only oracle
    for the library's column sweep."""
    n = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    area2 = sum(vx * wy - vy * wx for (vx, vy), (wx, wy) in edges)
    sign = 1 if area2 > 0 else -1
    xs = [x for x, _ in vertices]
    ys = [y for _, y in vertices]
    boundary, interior = set(), set()
    for x in range(math.floor(min(xs)), math.ceil(max(xs)) + 1):
        for y in range(math.floor(min(ys)), math.ceil(max(ys)) + 1):
            sides = [sign * ((wx - vx) * (y - vy) - (wy - vy) * (x - vx))
                     for (vx, vy), (wx, wy) in edges]
            if min(sides) < 0:
                continue
            (boundary if 0 in sides else interior).add((x, y))
    return boundary, interior

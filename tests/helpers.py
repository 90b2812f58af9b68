"""Shared randomized-instance generators and test-only oracles for the
test suite."""

import collections
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

from hypothesis import strategies as st

import ldpsurf.cli
from ldpsurf import (ConsistencyError, DomainError, EmbeddingData,
                     FanAnalysis, LatticePolygon, UnimodularMap, analyze_fan, apply_map, canonical_polygon,
                     embedding_data, enumerate_one_singularity,
                     fan_from_polygon, is_primitive, ldp_analyze)
from ldpsurf.lattice import cone_normalizer, edge_lines


def analysis_of(poly: LatticePolygon) -> FanAnalysis:
    """The analysis of a polygon's face fan, as the library builds it."""
    return analyze_fan(fan_from_polygon(poly))


def embedding_of(poly: LatticePolygon) -> EmbeddingData:
    """The embedding data of a log del Pezzo polygon."""
    return embedding_data(ldp_analyze(poly))


def enumerated(bound: int) -> list:
    """The (vertices, classification) pairs of
    enumerate_one_singularity(bound), which streams them in search order,
    as a list in vertex order."""
    return sorted(enumerate_one_singularity(bound), key=lambda pair: pair[0])


def class_counts(pairs) -> collections.Counter:
    """The number of (vertices, classification) pairs per (k, p), the
    mapping group_classes reads."""
    return collections.Counter((c.k, c.p) for _, c in pairs)


def peak_traced_bytes(fn) -> int:
    """The peak of the memory traced by tracemalloc during one call fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_derived_reads(monkeypatch) -> collections.Counter:
    """Count, for the rest of the test, the reads of the one FanAnalysis
    value derived on read, k2."""
    reads = collections.Counter()
    getter = FanAnalysis.k2.fget

    def counting(self):
        reads["k2"] += 1
        return getter(self)

    monkeypatch.setattr(FanAnalysis, "k2", property(counting))
    return reads


def lose_one_interior_point(monkeypatch) -> None:
    """For the rest of the test, make `analyze`'s lattice point sweep drop
    its smallest interior point, so its check against Pick's count fails;
    no valid input reaches that check otherwise."""
    real = ldpsurf.cli.lattice_points

    def one_interior_point_lost(polygon):
        boundary, interior = real(polygon)
        return boundary, set(sorted(interior)[1:])

    monkeypatch.setattr(ldpsurf.cli, "lattice_points",
                        one_interior_point_lost)


def forbid_enumeration_box(monkeypatch) -> None:
    """For the rest of the test, fail at once if enumeration builds its box
    of primitive points, so a bound the library should refuse fails the test
    fast instead of searching a huge box."""
    def unbuilt(bound):
        raise AssertionError(f"box of bound {bound} built")

    monkeypatch.setattr(sys.modules["ldpsurf.delpezzo"],
                        "_primitive_box_points", unbuilt)


def count_cone_computations(monkeypatch) -> list:
    """Record, for the rest of the test, each cone (n, n2) whose invariants
    analyze_fan computes."""
    fans = sys.modules["ldpsurf.fans"]
    calls = []
    real = fans.cone_invariants

    def counting(n, n2):
        calls.append((n, n2))
        return real(n, n2)

    monkeypatch.setattr(fans, "cone_invariants", counting)
    return calls


def ray_pairs(polygons) -> set:
    """The distinct cones (ray, next ray) of the polygons' face fans."""
    return {(v, w) for poly in polygons
            for v, w in zip(poly.vertices, poly.vertices[1:] + poly.vertices[:1])}


def count_calls(monkeypatch, *names, by_argument=False) -> collections.Counter:
    """Count, for the rest of the test, the calls of the named ldpsurf
    functions, in every module of the package that binds them.  A call is
    counted under the function's name, or with by_argument under the pair
    (name, first argument)."""
    calls = collections.Counter()
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "ldpsurf" or key.startswith("ldpsurf.")]
    for name in names:
        fn = next(getattr(mod, name) for mod in modules if hasattr(mod, name))

        def counting(*args, name=name, fn=fn, **kwargs):
            calls[(name, args[0]) if by_argument else name] += 1
            return fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
    return calls


# runs the CLI on the arguments after the cap under an address-space cap of
# that many bytes, or the inherited hard limit if lower, so a run that grows
# without end dies of MemoryError (exit 2) instead of taking the machine's
# memory
_CAPPED_MAIN = """
import resource, sys
cap, hard = int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]
cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from ldpsurf.cli import main
sys.exit(main(sys.argv[2:]))
"""


def capped_cli(root, cap: int, *argv: str,
               timeout: float = 60) -> subprocess.CompletedProcess:
    """`ldpsurf *argv` in a subprocess that imports the package from root,
    with its address space capped at cap bytes and its run at timeout
    seconds."""
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, str(cap), *argv], cwd=root,
        env={**os.environ, "PYTHONPATH": str(root)}, capture_output=True,
        text=True, timeout=timeout)


def random_primitive(rng: random.Random, bound: int) -> tuple[int, int]:
    """Uniformish primitive lattice point in [-bound, bound]^2, never zero."""
    while True:
        x = rng.randint(-bound, bound)
        y = rng.randint(-bound, bound)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1:
            return (x, y)


def compose(m: UnimodularMap, n: UnimodularMap) -> UnimodularMap:
    """The matrix product m · n: n acts first."""
    return UnimodularMap(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                         m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


def random_unimodular(rng: random.Random, shears: int = 4,
                      det: int | None = None) -> UnimodularMap:
    """Random product of elementary shears, optionally reflected to det -1."""
    m = UnimodularMap(1, 0, 0, 1)
    for _ in range(shears):
        s = rng.randint(-3, 3)
        if rng.random() < 0.5:
            step = UnimodularMap(1, s, 0, 1)
        else:
            step = UnimodularMap(1, 0, s, 1)
        m = compose(step, m)
    want = det if det is not None else rng.choice((1, -1))
    if m.det != want:
        m = compose(UnimodularMap(0, 1, 1, 0), m)
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


def cyclic_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    doubled = tuple(a) + tuple(a)
    return any(doubled[i: i + len(b)] == tuple(b) for i in range(len(a)))


def is_convex_vertex_cycle(vs) -> bool:
    """Distinct integer points, all vertices of their convex hull, listed
    once around in either direction: a test-only oracle for LatticePolygon."""
    if len(vs) < 3 or len(set(vs)) != len(vs):
        return False
    if not all(isinstance(c, int) and not isinstance(c, bool)
               for v in vs for c in v):
        return False
    hull = convex_hull(vs)
    return len(hull) == len(vs) and (cyclic_equal(hull, vs)
                                     or cyclic_equal(hull, vs[::-1]))


PRIMITIVE = [(x, y) for x in range(-4, 5) for y in range(-4, 5)
             if math.gcd(x, y) == 1]


@st.composite
def point_lists(draw):
    """3 to 6 points of [-4, 4]^2, most drawn primitive, the origin
    and repeats allowed; as drawn, in angular order or as their hull's
    vertices, so that many wind once around the origin."""
    coord = st.integers(-4, 4)
    primitive = st.sampled_from(PRIMITIVE)
    point = st.one_of(primitive, primitive, primitive, st.tuples(coord, coord))
    points = draw(st.lists(point, min_size=3, max_size=6,
                           unique=draw(st.booleans())))
    order = draw(st.sampled_from(("drawn", "angular", "hull")))
    if order == "angular":
        points.sort(key=lambda v: math.atan2(v[1], v[0]))
    elif order == "hull" and len(convex_hull(points)) >= 3:
        points = convex_hull(points)
    if draw(st.booleans()):
        points.reverse()
    shift = draw(st.integers(0, len(points) - 1))
    return tuple(points[shift:] + points[:shift])


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


def contains_origin_interior(q: LatticePolygon) -> bool:
    """The origin lies strictly inside q: every inner facet line a*x + b*y
    >= c has c < 0.  A test-only oracle for the fan's anticlockwise steps."""
    return all(c < 0 for _, _, c in edge_lines(q))


def is_ldp(q: LatticePolygon) -> bool:
    """Log del Pezzo polygon: primitive vertices, origin strictly inside."""
    return (all(is_primitive(v) for v in q.vertices)
            and contains_origin_interior(q))


def random_ldp_polygon(rng: random.Random, bound: int = 4, tries: int = 2000,
                       max_index: int | None = None) -> LatticePolygon:
    """Random polygon with primitive vertices and the origin strictly inside,
    of index at most max_index when that is given.  A rejected polygon costs
    one try and draws nothing more, so the draws do not depend on max_index."""
    for _ in range(tries):
        sample = [random_primitive(rng, bound) for _ in range(rng.randint(3, 8))]
        hull = convex_hull(sample)
        if len(hull) < 3:
            continue
        poly = LatticePolygon(tuple(hull))
        if is_ldp(poly) and (max_index is None
                             or ldp_analyze(poly).index <= max_index):
            return poly
    raise AssertionError("could not sample an LDP polygon")


@st.composite
def ldp_presentations(draw):
    """Random LDP polygons of index at most 6 (larger ones dilate to millions
    of points), or family members in a random GL2(Z) presentation."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return random_ldp_polygon(rng, max_index=6)
    m = random_unimodular(rng, shears=draw(st.integers(0, 4)))
    return apply_map(m, canonical_polygon(draw(st.integers(1, 3)),
                                          draw(st.integers(1, 9))))


def polar_oracle(q: LatticePolygon) -> tuple[tuple, Fraction]:
    """The polar polygon of a log del Pezzo polygon and twice its area.  The
    facet line a*x + b*y >= -level gives the vertex (a/level, b/level), as
    Fractions; the vertices are ordered by convex_hull (anticlockwise from
    the smallest) and the area is the shoelace sum.  A test-only oracle for
    the integral dilated polar that ldp_analyze builds."""
    polar = convex_hull([(Fraction(a, -c), Fraction(b, -c))
                         for a, b, c in edge_lines(q)])
    assert len(polar) == len(q.vertices)  # one vertex per facet
    area2 = sum(ux * vy - uy * vx
                for (ux, uy), (vx, vy) in zip(polar, polar[1:] + polar[:1]))
    return tuple(polar), area2


def hj_expansion(p: int, q: int) -> list[int]:
    """Digits of the negative-regular continued fraction of q/(q-p),
    q/(q-p) = b_1 - 1/(b_2 - 1/(... - 1/b_s)) with every b_j >= 2, one
    Euclidean step per digit: a test-only oracle for ConeData.excess."""
    if q < 2 or not 1 <= p < q or math.gcd(p, q) != 1:
        raise DomainError(f"({p}, {q}) does not describe a non-basic cone")
    digits = []
    a, b = q, q - p
    while b > 0:
        d = -(-a // b)  # ceil(a / b)
        digits.append(d)
        a, b = b, d * b - a
    return digits


def refinement_chain(n, n2) -> list:
    """The rays (n, u_1, ..., u_s, n2) of the minimal resolution of the cone
    (n, n2), built one digit at a time by u_j+1 = b_j·u_j - u_j-1 from
    u_1 = ((q - p)·n + n2)/q; just (n, n2) for a basic cone.  A test-only
    oracle for ConeData's after (u_1) and before (u_s) rays."""
    p, q, _ = cone_normalizer(n, n2)
    if q == 1:
        return [n, n2]
    num = ((q - p) * n[0] + n2[0], (q - p) * n[1] + n2[1])
    rem = (num[0] % q, num[1] % q)
    if rem != (0, 0):
        raise ConsistencyError(
            f"refinement point of cone {n}, {n2} is not integral",
            check="q | (q - p)·n + n2", expected=(0, 0), got=rem)
    chain = [n, (num[0] // q, num[1] // q)]
    for b_j in hj_expansion(p, q):
        u, v = chain[-2], chain[-1]
        chain.append((b_j * v[0] - u[0], b_j * v[1] - u[1]))
    if chain[-1] != n2:
        raise ConsistencyError(
            f"refinement chain of cone {n}, {n2} misses its endpoint",
            check="refinement chain ends at n2", expected=n2, got=chain[-1])
    return chain


# Polygon files that once escaped the parser with a traceback: nesting past
# the recursion limit, and an integer past the int-digits limit.
DEEP_NESTING = "[" * 5000
LONG_INTEGER = "[[1" + "0" * 5000 + ", 1], [0, 1], [-1, -1]]"


def graphs_isomorphic(a: tuple, b: tuple) -> bool:
    """True when some rotation aligns all node and edge weights: a test-only
    oracle for the library's canonical key.

    Reflections are deliberately not tried here; compare against
    reverse_graph(b) to test the orientation-reversing case.
    """
    if len(a) != len(b):
        return False
    n = len(a)
    doubled = a + a
    return any(doubled[i: i + n] == b for i in range(n))


_FACTOR = r"\s*z\((-?\d+),(-?\d+)\)\s*"
_LINE = re.compile(rf"{_FACTOR}\*{_FACTOR}-{_FACTOR}\*{_FACTOR}")


def parse_ideal(text: str) -> list:
    """The binomials of a written ideal, one per line outside comments, as
    ((a, b), (c, d)) with each pair sorted and (a, b) < (c, d).  Each line
    must parse, have equal sums on both sides, and not be zero."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _LINE.fullmatch(line)
        assert m, f"line {lineno}: not a binomial line: {raw!r}"
        ax, ay, bx, by, cx, cy, dx, dy = map(int, m.groups())
        assert (ax + bx, ay + by) == (cx + dx, cy + dy), \
            f"line {lineno}: exponent sums differ: {raw!r}"
        plus = tuple(sorted([(ax, ay), (bx, by)]))
        minus = tuple(sorted([(cx, cy), (dx, dy)]))
        assert plus != minus, f"line {lineno}: zero binomial: {raw!r}"
        out.append((plus, minus) if plus < minus else (minus, plus))
    return out


def connect(binomials):
    """Union the two point pairs of every binomial.

    Returns the root finder and the number of unions that merged two
    components.  That number is the rank over the rationals of the binomials
    (the rank of a graph's edge set is |vertices| - |components|), and
    e_u - e_v lies in their span exactly when u and v share a root
    (Sturmfels, Gröbner Bases and Convex Polytopes, ch. 5).
    """
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rank = 0
    for plus, minus in binomials:
        u, v = find(plus), find(minus)
        if u != v:
            parent[u] = v
            rank += 1
    return find, rank


def relation_rank(binomials) -> int:
    """Exact rank over the rationals of a set of binomial relations."""
    return connect(binomials)[1]


def span_membership(generators, binomials) -> bool:
    """True when every binomial lies in the rational span of the
    generators; one union-find serves all of them."""
    find, _ = connect(generators)
    return all(find(plus) == find(minus) for plus, minus in binomials)


def koelman_quadrics(e: EmbeddingData) -> list:
    """The full relation set, sorted: every binomial z_a z_b - z_c z_d with
    a + b = c + d over the embedding points, as ((a, b), (c, d)), grouped by
    sum here without the library's sum_fibers.  A test-only oracle; it grows
    quadratically in the fiber sizes."""
    fibers = collections.defaultdict(list)
    for a, b in itertools.combinations_with_replacement(ordered_points(e), 2):
        fibers[(a[0] + b[0], a[1] + b[1])].append((a, b))
    return sorted(itertools.chain.from_iterable(
        itertools.combinations(pairs, 2) for pairs in fibers.values()))


def dense_rank(binomials) -> int:
    """Rank over the rationals of binomial relations by dense Gaussian
    elimination, one column per point pair that occurs: a test-only oracle
    for the graph-connectivity rank of `connect`."""
    pairs = sorted({pair for b in binomials for pair in b})
    col = {pair: i for i, pair in enumerate(pairs)}
    rows = []
    for plus, minus in binomials:
        row = [Fraction(0)] * len(pairs)
        row[col[plus]] = Fraction(1)
        row[col[minus]] = Fraction(-1)
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


def ordered_points(e: EmbeddingData) -> tuple:
    """P's lattice points in lexicographic order, the exponents of the
    embedding monomials.  A test-only oracle for the library's sweep: each
    column of P's bounding box is cut by every edge, by exact cross
    products against the vertex cycle; a vertical edge bounds none of
    the box's columns."""
    verts = e.polygon.vertices  # anticlockwise
    edges = list(zip(verts, verts[1:] + verts[:1]))
    points = []
    for x in range(min(x for x, _ in verts), max(x for x, _ in verts) + 1):
        lo, hi = -math.inf, math.inf
        for (vx, vy), (wx, wy) in edges:
            # the inner side: (wx - vx)(y - vy) >= (wy - vy)(x - vx)
            dx, t = wx - vx, (wy - vy) * (x - vx)
            if dx > 0:
                lo = max(lo, vy - (-t // dx))
            elif dx < 0:
                hi = min(hi, vy + t // dx)
        points.extend((x, y) for y in range(lo, hi + 1))
    return tuple(points)


def brute_force_points(vertices) -> tuple[set, set]:
    """Lattice points of a lattice polygon given by its vertex cycle, split as
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
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            sides = [sign * ((wx - vx) * (y - vy) - (wy - vy) * (x - vx))
                     for (vx, vy), (wx, wy) in edges]
            if min(sides) < 0:
                continue
            (boundary if 0 in sides else interior).add((x, y))
    return boundary, interior

"""Exact plane lattice geometry: points, unimodular maps, convex polygons.

All arithmetic is in integers.  Polygons have integer vertices (a log del
Pezzo polygon's polar is held as its dilation by the index, which is
integral), are immutable and are stored in a canonical form (anticlockwise,
lexicographically smallest vertex first), so two polygons are equal exactly
when their canonical vertex tuples are equal.  Lattice point sets and counts
come from one integer sweep over the columns of a lattice polygon, which
tests for the boundary only at the ends of each column.  The sweep runs in
the polygon's narrowest frame, its unimodular image with the fewest columns
among the x-axis and the edge normals.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from typing import NamedTuple, Sequence

from .errors import DomainError, ParseError

Point = tuple[int, int]


def cross(u: Sequence[int], v: Sequence[int]) -> int:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def is_primitive(v: Sequence[int]) -> bool:
    return math.gcd(v[0], v[1]) == 1


def bezout(a: int, b: int) -> tuple[int, int]:
    """(kappa, lam) with kappa*a - lam*b = 1 for primitive (a, b): rows
    (a, b) and (lam, kappa) make a determinant 1 map."""
    kappa = pow(a, -1, abs(b)) if b else a
    return kappa, (kappa * a - 1) // b if b else 0


def cone_normalizer(n: Point, n2: Point) -> tuple[int, int, tuple[int, ...]]:
    """(p, q, (a, b, c, d)) for primitive n, n2 with q = det(n, n2) > 0: the
    determinant 1 matrix [[a, b], [c, d]] sends n to (1, 0) and n2 to
    (p, q), with 0 <= p < q."""
    return pair_normalizer(n, n2, *bezout(*n), cross(n, n2))


def pair_normalizer(n: Point, n2: Point, kappa: int, lam: int,
                    q: int) -> tuple[int, int, tuple[int, ...]]:
    """cone_normalizer(n, n2) from (kappa, lam) = bezout(*n) and q."""
    (x, y), (u, v) = n, n2
    # the base change (kappa, -lam; -y, x) sends n to (1, 0) and n2 to
    # (t, q); the shear (1, s; 0, 1) after it keeps (1, 0) and moves t to p
    t = kappa * u - lam * v
    s = -(t // q)
    return t + s * q, q, (kappa - s * y, s * x - lam, -y, x)


def _orientation_area2(vertices: Sequence[Sequence[int]]) -> int:
    return sum(x * v - y * u for (x, y), (u, v)
               in zip(vertices, vertices[1:] + vertices[:1]))


def _winding(vectors: Sequence[Sequence[int]]) -> int:
    """Winding number of a cyclic list of directions whose steps all turn
    strictly anticlockwise by under a half turn, counted as the entries into
    the half-open upper half plane: such a step can skip neither half, so it
    enters the upper half exactly when it passes the positive x-axis."""
    upper = [y > 0 or (y == 0 and x > 0) for x, y in vectors]
    return sum(b > a for a, b in zip(upper, upper[1:] + upper[:1]))


def int_pair(v) -> Point | None:
    """v as (x, y) if it is a pair of ints, else None; bool is no int here."""
    try:
        x, y = v
    except (TypeError, ValueError):  # not a pair
        return None
    ints = isinstance(x, int) and isinstance(y, int)
    return (x, y) if ints and bool not in (type(x), type(y)) else None


class _Frozen:
    """Base of the validating value types: the fields are a subclass's
    __slots__, checked and set by its __init__; instances are immutable,
    equal and hashed by __reduce__, which copy and pickle rebuild from."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return (self.__reduce__() == other.__reduce__()
                if type(other) is type(self) else NotImplemented)

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class UnimodularMap(_Frozen):
    """Integer 2x2 matrix [[a, b], [c, d]] with determinant +1 or -1."""

    __slots__ = ("a", "b", "c", "d")
    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        # exact ints only: bool is no int here
        if not (type(a) is int and type(b) is int
                and type(c) is int and type(d) is int):
            raise DomainError(f"non-integer entry in {self.matrix()}")
        if self.det not in (1, -1):
            raise DomainError(f"determinant {self.det} is not +-1")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, p: Point) -> Point:
        return (self.a * p[0] + self.b * p[1], self.c * p[0] + self.d * p[1])

    def matrix(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


class LatticePolygon(_Frozen):
    """Convex polygon with integer vertices, canonically stored; strictly
    convex turns that wind once make its vertices distinct."""

    __slots__ = ("vertices",)
    vertices: tuple[Point, ...]

    def __init__(self, vertices: tuple[Point, ...]):
        given, vertices = vertices, []
        for v in given:
            if (pair := int_pair(v)) is None:
                raise DomainError(f"non-integer vertex {v!r}")
            vertices.append(pair)
        n = len(vertices)
        if n < 3:
            raise DomainError("a polygon needs at least 3 vertices")
        area2 = _orientation_area2(vertices)
        if area2 == 0:
            raise DomainError("degenerate polygon (zero area)")
        if area2 < 0:
            vertices = vertices[::-1]
        edges = [(wx - vx, wy - vy) for (vx, vy), (wx, wy)
                 in zip(vertices, vertices[1:] + vertices[:1])]
        for e, f in zip(edges, edges[1:] + edges[:1]):
            if cross(e, f) <= 0:
                raise DomainError(
                    "vertices are not in strictly convex position "
                    "(collinear or reflex vertex)"
                )
        if _winding(edges) != 1:
            raise DomainError("vertex cycle winds around more than once")
        start = vertices.index(min(vertices))
        object.__setattr__(self, "vertices",
                           tuple(vertices[start:] + vertices[:start]))


def polygon_area2(p: LatticePolygon) -> int:
    """Twice the enclosed area (exact shoelace sum; positive)."""
    return _orientation_area2(p.vertices)


def apply_map(m: UnimodularMap, p: LatticePolygon) -> LatticePolygon:
    """Image polygon under a unimodular map; canonical storage reorients
    automatically when det = -1."""
    return LatticePolygon(tuple(m.apply(v) for v in p.vertices))


def dilate(p: LatticePolygon, factor: int) -> LatticePolygon:
    """Scale about the origin by a positive integer factor."""
    if not isinstance(factor, int) or factor <= 0:
        raise DomainError("dilation factor must be a positive integer")
    return LatticePolygon(tuple((factor * x, factor * y) for x, y in p.vertices))


def edge_lines(p: LatticePolygon) -> list[tuple[int, int, int]]:
    """Inner half-plane presentation: integer triples (a, b, c) with
    gcd(a, b) = 1 and a*x + b*y >= c on the polygon, equality exactly on the
    edge."""
    out = []
    verts = p.vertices
    for (vx, vy), (wx, wy) in zip(verts, verts[1:] + verts[:1]):
        # left (inner) normal of an anticlockwise edge
        a, b = vy - wy, wx - vx
        g = math.gcd(a, b)
        a, b = a // g, b // g
        out.append((a, b, a * vx + b * vy))
    return out


class PointCounts(NamedTuple):
    total: int
    boundary: int
    interior: int


def _columns(p: LatticePolygon):
    """Integer column sweep: yield (x, lo, hi, edge) for every abscissa x of
    the polygon's x-range, in order, where lo..hi is the slice's y-range and
    `edge` holds the y values of the slice that lie on the boundary.

    The edges with b > 0 form the lower chain and those with b < 0 the upper
    one.  Each such edge fills its side's entry of every column its x-range
    spans with (q, r) = divmod(a*x - c, B) for B = |b|, so no active edge
    is tracked; a vertex column gets the same exact pair from both of its
    edges.  The slice's lower and upper ends are then -q and q, and an end
    lies on the boundary exactly when r = 0: a convex polygon's other edges
    bound the column no more tightly there, so none of them passes through
    an end that the column's own edge misses.  The two per-column lists cost
    O(columns) memory.
    An empty slice has lo = hi + 1 and an empty `edge`, for an end with
    r = 0 would be a point of it.  A point strictly between lo and hi lies
    on no edge with b != 0 (such an edge bounds the slice at that point),
    and vertical edges sit only at the first and last columns, which lie on
    supporting lines: `edge` is the whole column there, and otherwise the
    ends that lie on an edge.  Its callers pass it a narrowest-frame image.
    """
    verts = p.vertices
    first = verts[0][0]  # the lexicographically smallest vertex is leftmost
    last = max(x for x, _ in verts)
    lower, upper = [None] * (last - first + 1), [None] * (last - first + 1)
    for (a, b, c), (vx, _), (wx, _) in zip(edge_lines(p), verts,
                                           verts[1:] + verts[:1]):
        # anticlockwise, the lower chain runs left to right and the upper
        # chain right to left
        if b > 0:
            for x in range(vx, wx + 1):
                lower[x - first] = divmod(a * x - c, b)
        elif b < 0:
            for x in range(wx, vx + 1):
                upper[x - first] = divmod(a * x - c, -b)
    for x, (low, low_r), (hi, high_r) in zip(range(first, last + 1),
                                             lower, upper):
        lo = -low
        if x == first or x == last:
            edge = range(lo, hi + 1)
        else:
            edge = {y for y, r in ((lo, low_r), (hi, high_r)) if r == 0}
        yield x, lo, hi, edge


def frame_columns(p: LatticePolygon):
    """(frame, columns): p's narrowest frame (a, b, kappa, lam), the map
    (x, y) -> (a*x + b*y, lam*x + kappa*y) of determinant 1 for (a, b) the
    x-axis or, if strictly narrower, the inner edge normal with the fewest
    columns, negated if b > 0, and `_columns` of p's image there.  Column u
    maps back to (kappa*u, -lam*u) + v·(-b, a), ascending lexicographically."""
    verts = p.vertices
    xs = [x for x, _ in verts]
    width, a, b = max(xs) - min(xs), 1, 0
    # rotating calipers: the vertex farthest from edge i moves anticlockwise
    # with i, so j walks the doubled vertex cycle once in all
    ring, j = verts * 2, 2
    for ea, eb, c in edge_lines(p):
        while ea * (ring[j + 1][0] - ring[j][0]) + \
                eb * (ring[j + 1][1] - ring[j][1]) > 0:
            j += 1
        w = ea * ring[j][0] + eb * ring[j][1] - c
        if w < width:
            width, a, b = w, ea, eb
    if b > 0:  # a column's step (-b, a) goes down the lexicographic order
        a, b = -a, -b
    kappa, lam = bezout(a, b)
    if b:  # b = 0 only for the x-axis itself
        p = LatticePolygon(tuple((a * x + b * y, lam * x + kappa * y)
                                 for x, y in verts))
    return (a, b, kappa, lam), _columns(p)


def lattice_points(p: LatticePolygon) -> tuple[set[Point], set[Point]]:
    """Exact lattice point sets of a polygon, split as (boundary, interior),
    materialized from the column sweep of its narrowest frame, one C-level
    set update per column (`frame_columns` maps a column back)."""
    (a, b, kappa, lam), columns = frame_columns(p)
    boundary: set[Point] = set()
    interior: set[Point] = set()
    for u, lo, hi, edge in columns:
        x, y = kappa * u, -lam * u
        if isinstance(edge, set):
            boundary.update((x - b * v, y + a * v) for v in edge)
            lo, hi, points = lo + (lo in edge), hi - (hi in edge), interior
        else:  # an end column is all boundary
            points = boundary
        n = hi - lo + 1
        points.update(zip(
            range(x - b * lo, x - b * (hi + 1), -b) if b else repeat(x, n),
            range(y + a * lo, y + a * (hi + 1), a) if a else repeat(y, n)))
    return boundary, interior


def count_lattice_points(p: LatticePolygon) -> PointCounts:
    """Lattice point counts summed over the column sweep of the narrowest
    frame, without materializing a point; a unimodular map is a bijection
    of Z^2 that keeps the boundary, so the counts are p's own."""
    total = boundary = 0
    for _, lo, hi, edge in frame_columns(p)[1]:
        total += hi - lo + 1
        boundary += len(edge)
    return PointCounts(total, boundary, total - boundary)


def minkowski_double(p: LatticePolygon) -> int:
    """Number of lattice points of 2P."""
    return count_lattice_points(dilate(p, 2)).total


# ---------------------------------------------------------------------------
# serialization

def parse_polygon_text(text: str) -> LatticePolygon:
    """Parse the plain vertex format: one `x y` pair per line, `#` comments."""
    verts: dict[Point, int] = {}  # vertex -> line number, in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        # int() alone would also read "1_0" as 10 and non-ASCII digits
        if len(tokens) != 2 or "_" in line or not line.isascii():
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            x, y = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if (x, y) in verts:
            raise ParseError(f"line {lineno}: duplicate vertex ({x}, {y})")
        verts[(x, y)] = lineno
    if len(verts) < 3:
        raise ParseError("fewer than 3 vertices")
    return LatticePolygon(tuple(verts))


def polygon_from_array(arr) -> LatticePolygon:
    """Build a polygon from the machine form [[x, y], ...]."""
    verts: dict[Point, None] = {}  # a set in insertion order
    for entry in arr:
        if (pair := int_pair(entry)) is None:
            raise ParseError(f"bad vertex entry {entry!r}")
        if pair in verts:
            raise ParseError(f"duplicate vertex {pair}")
        verts[pair] = None
    if len(verts) < 3:
        raise ParseError("fewer than 3 vertices")
    return LatticePolygon(tuple(verts))


def load_polygon(text: str) -> LatticePolygon:
    """Parse either serialization, chosen by the leading character."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            arr = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno}: invalid vertex array: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:  # int-digits limit, nesting
            raise ParseError(f"invalid vertex array: {exc}") from None
        return polygon_from_array(arr)
    return parse_polygon_text(text)


def read_polygon_file(path) -> LatticePolygon:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return load_polygon(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def format_polygon_text(p: LatticePolygon) -> str:
    return "".join(f"{x} {y}\n" for x, y in p.vertices)


def polygon_to_array(p: LatticePolygon) -> list[list[int]]:
    return [[x, y] for x, y in p.vertices]

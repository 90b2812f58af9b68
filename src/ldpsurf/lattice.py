"""Exact plane lattice geometry: points, unimodular maps, convex polygons.

All arithmetic is exact: integer coordinates for lattice data and
`fractions.Fraction` for rational data. Polygons are immutable and stored in
a canonical form (anticlockwise, lexicographically smallest vertex first), so
two polygons are equal exactly when their canonical vertex tuples are equal.
Lattice point sets and counts come from one integer sweep over the columns of
a polygon, which tests for the boundary only at the ends of each column.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DomainError, ParseError

Point = tuple[int, int]
RatPoint = tuple[Fraction, Fraction]
Coord = Union[int, Fraction]


def cross(u: Sequence[Coord], v: Sequence[Coord]) -> Coord:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, kappa, lam) with g = gcd(a, b) > 0 and kappa*a - lam*b = g."""
    if a == 0 and b == 0:
        raise DomainError("gcd certificate of (0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    g, x, y = old_r, old_s, old_t
    if g < 0:
        g, x, y = -g, -x, -y
    # x*a + y*b = g, so kappa = x and lam = -y.
    return g, x, -y


def is_primitive(v: Sequence[int]) -> bool:
    return math.gcd(v[0], v[1]) == 1


def _orientation_area2(vertices: Sequence[Sequence[Coord]]) -> Coord:
    n = len(vertices)
    return sum(cross(vertices[i], vertices[(i + 1) % n]) for i in range(n))


def _angular_half(v: Sequence[Coord]) -> int:
    # 0 on the half-open upper half plane (positive x-axis included),
    # 1 on the lower one; gives a total angular order together with cross.
    return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1


def _angular_before(u: Sequence[Coord], v: Sequence[Coord]) -> bool:
    hu, hv = _angular_half(u), _angular_half(v)
    if hu != hv:
        return hu < hv
    return cross(u, v) > 0


def _wraps_once(vectors: Sequence[Sequence[Coord]]) -> bool:
    """True if a cyclic sequence of directions with positive consecutive
    cross products sweeps the full circle exactly once.

    The number of positions where the absolute angular order decreases equals
    the winding number, so a convex cycle has exactly one such descent while a
    star-shaped double cover has two.
    """
    n = len(vectors)
    descents = sum(
        0 if _angular_before(vectors[i], vectors[(i + 1) % n]) else 1
        for i in range(n)
    )
    return descents == 1


def _canonical_cycle(vertices: list) -> tuple:
    n = len(vertices)
    if n < 3:
        raise DomainError("a polygon needs at least 3 vertices")
    if len(set(vertices)) != n:
        raise DomainError("duplicate vertex")
    area2 = _orientation_area2(vertices)
    if area2 == 0:
        raise DomainError("degenerate polygon (zero area)")
    if area2 < 0:
        vertices = vertices[::-1]
    edges = [
        (vertices[(i + 1) % n][0] - vertices[i][0],
         vertices[(i + 1) % n][1] - vertices[i][1])
        for i in range(n)
    ]
    for i in range(n):
        if cross(edges[i], edges[(i + 1) % n]) <= 0:
            raise DomainError(
                "vertices are not in strictly convex position "
                "(collinear or reflex vertex)"
            )
    if not _wraps_once(edges):
        raise DomainError("vertex cycle winds around more than once")
    start = min(range(n), key=lambda i: vertices[i])
    return tuple(vertices[start:] + vertices[:start])


@dataclass(frozen=True)
class UnimodularMap:
    """Integer 2x2 matrix [[a, b], [c, d]] with determinant +1 or -1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.det not in (1, -1):
            raise DomainError(f"determinant {self.det} is not +-1")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "UnimodularMap":
        return cls(1, 0, 0, 1)

    def apply(self, p: Sequence[Coord]):
        return (self.a * p[0] + self.b * p[1], self.c * p[0] + self.d * p[1])

    def compose(self, other: "UnimodularMap") -> "UnimodularMap":
        """Matrix product self * other (other acts first)."""
        return UnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "UnimodularMap":
        s = self.det
        return UnimodularMap(s * self.d, -s * self.b, -s * self.c, s * self.a)

    def matrix(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


@dataclass(frozen=True)
class LatticePolygon:
    """Convex polygon with integer vertices, canonically stored."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        verts = []
        for v in self.vertices:
            x, y = v
            if not isinstance(x, int) or not isinstance(y, int):
                raise DomainError(f"non-integer vertex {v!r}")
            verts.append((x, y))
        object.__setattr__(self, "vertices", _canonical_cycle(verts))

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class RationalPolygon:
    """Convex polygon with rational vertices, canonically stored."""

    vertices: tuple[RatPoint, ...]

    def __post_init__(self):
        verts = []
        for v in self.vertices:
            x, y = Fraction(v[0]), Fraction(v[1])
            verts.append((x, y))
        object.__setattr__(self, "vertices", _canonical_cycle(verts))

    def __len__(self) -> int:
        return len(self.vertices)


AnyPolygon = Union[LatticePolygon, RationalPolygon]


def polygon_area2(p: AnyPolygon) -> Coord:
    """Twice the enclosed area (exact shoelace sum; positive)."""
    return _orientation_area2(p.vertices)


def apply_map(m: UnimodularMap, p: AnyPolygon) -> AnyPolygon:
    """Image polygon under a unimodular map; canonical storage reorients
    automatically when det = -1."""
    return type(p)(tuple(m.apply(v) for v in p.vertices))


def dilate(p: AnyPolygon, factor: Coord) -> AnyPolygon:
    """Scale about the origin by a positive factor."""
    if factor <= 0:
        raise DomainError("dilation factor must be positive")
    verts = tuple((factor * x, factor * y) for x, y in p.vertices)
    if isinstance(p, LatticePolygon) and isinstance(factor, int):
        return LatticePolygon(verts)
    return RationalPolygon(verts)


def to_lattice(p: AnyPolygon) -> LatticePolygon:
    """Reinterpret a polygon with integral vertices as a lattice polygon."""
    if isinstance(p, LatticePolygon):
        return p
    verts = []
    for x, y in p.vertices:
        if x.denominator != 1 or y.denominator != 1:
            raise DomainError(f"vertex ({x}, {y}) is not integral")
        verts.append((int(x), int(y)))
    return LatticePolygon(tuple(verts))


def edge_lines(p: AnyPolygon) -> list[tuple[int, int, Coord]]:
    """Inner half-plane presentation: triples (a, b, c) with gcd(a, b) = 1 and
    a*x + b*y >= c on the polygon, equality exactly on the edge.

    c is an int for a lattice polygon and a Fraction for a rational one.
    """
    out = []
    verts = p.vertices
    n = len(verts)
    for i in range(n):
        vx, vy = verts[i]
        wx, wy = verts[(i + 1) % n]
        ex, ey = wx - vx, wy - vy
        # left (inner) normal of an anticlockwise edge
        a, b = -ey, ex
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            den = math.lcm(Fraction(a).denominator, Fraction(b).denominator)
            a, b = int(a * den), int(b * den)
        g = math.gcd(a, b)
        a, b = a // g, b // g
        out.append((a, b, a * vx + b * vy))
    return out


def contains_origin_interior(p: AnyPolygon) -> bool:
    return all(c < 0 for _, _, c in edge_lines(p))


class PointCounts(NamedTuple):
    total: int
    boundary: int
    interior: int


def _columns(p: AnyPolygon):
    """Integer column sweep: yield (x, lo, hi, edge) for every abscissa x
    whose slice holds a lattice point, where lo..hi is the slice's y-range and
    `edge` holds the y values of the slice that lie on the boundary.

    Each half-plane a*x + b*y >= n/d is scaled by d once, so no Fraction is
    built per column: with B = |b*d|, the slice's lower (b > 0) and upper
    (b < 0) ends are -q and q for the least pair (q, r) = divmod(a*d*x - n, B)
    over the edges on that side. Among edges giving the same q the least r is
    0 if any of them passes through the end, so the end lies on an edge
    exactly when r = 0.
    A point strictly between lo and hi lies on no edge with b != 0 (such an
    edge bounds the slice at that point), so it can only lie on a vertical
    edge: `edge` is the whole column when a vertical edge sits at x, and
    otherwise the ends that lie on an edge.
    """
    lower, upper, walls = [], [], set()
    for a, b, c in edge_lines(p):
        a, b, n = a * c.denominator, b * c.denominator, c.numerator
        if b:
            (lower if b > 0 else upper).append((a, abs(b), n))
        elif n % a == 0:
            walls.add(n // a)
    xs = [x for x, _ in p.vertices]
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        low = high = None
        for a, b, n in lower:
            qr = divmod(a * x - n, b)
            if low is None or qr < low:
                low = qr
        for a, b, n in upper:
            qr = divmod(a * x - n, b)
            if high is None or qr < high:
                high = qr
        lo, hi = -low[0], high[0]
        if lo > hi:
            continue
        if x in walls:
            edge = range(lo, hi + 1)
        else:
            edge = {y for y, r in ((lo, low[1]), (hi, high[1])) if r == 0}
        yield x, lo, hi, edge


def lattice_points(p: AnyPolygon) -> tuple[set[Point], set[Point]]:
    """Exact lattice point sets of a polygon, split as (boundary, interior),
    materialized from the column sweep."""
    boundary: set[Point] = set()
    interior: set[Point] = set()
    for x, lo, hi, edge in _columns(p):
        boundary.update((x, y) for y in edge)
        interior.update((x, y) for y in range(lo, hi + 1) if y not in edge)
    return boundary, interior


def count_lattice_points(p: AnyPolygon) -> PointCounts:
    """Lattice point counts summed over the column sweep, without
    materializing a point; the same route for lattice and rational polygons."""
    total = boundary = 0
    for _, lo, hi, edge in _columns(p):
        total += hi - lo + 1
        boundary += len(edge)
    return PointCounts(total, boundary, total - boundary)


def minkowski_double(p: AnyPolygon) -> int:
    """Number of lattice points of 2P, for a polygon P with integral vertices."""
    q = to_lattice(p)
    return count_lattice_points(dilate(q, 2)).total


# ---------------------------------------------------------------------------
# serialization

def parse_polygon_text(text: str) -> LatticePolygon:
    """Parse the plain vertex format: one `x y` pair per line, `#` comments."""
    verts: list[Point] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            x, y = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if (x, y) in verts:
            raise ParseError(f"line {lineno}: duplicate vertex ({x}, {y})")
        verts.append((x, y))
    if len(verts) < 3:
        raise ParseError("fewer than 3 vertices")
    return LatticePolygon(tuple(verts))


def polygon_from_array(arr) -> LatticePolygon:
    """Build a polygon from the machine form [[x, y], ...]."""
    verts: list[Point] = []
    for entry in arr:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ParseError(f"bad vertex entry {entry!r}")
        x, y = entry
        if isinstance(x, bool) or isinstance(y, bool) or \
                not isinstance(x, int) or not isinstance(y, int):
            raise ParseError(f"bad vertex entry {entry!r}")
        if (x, y) in verts:
            raise ParseError(f"duplicate vertex ({x}, {y})")
        verts.append((x, y))
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
        with open(path, "r", encoding="utf-8") as fh:
            return load_polygon(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def format_polygon_text(p: LatticePolygon) -> str:
    return "".join(f"{x} {y}\n" for x, y in p.vertices)


def polygon_to_array(p: LatticePolygon) -> list[list[int]]:
    return [[x, y] for x, y in p.vertices]

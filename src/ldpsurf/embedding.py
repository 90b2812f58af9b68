"""Anticanonical quadric embeddings of one-singularity log del Pezzo surfaces.

Dilating the polar polygon by the index gives a lattice polygon P whose
lattice points, read off the column sweep in lexicographic order, are the
exponents of the embedding monomials.  The defining ideal is generated by
quadratic binomials z_a z_b - z_c z_d with a + b = c + d; a minimal
generating system takes, inside the fiber of each sum point, the differences
against the lexicographically smallest point pair.  Its generators are the
fiber pairs themselves, (root, other) tuples emitted in the order the fibers
were built, which is already sorted; the number of fibers is checked against
|2P ∩ Z²| = 2·(2A) + B + 1 (Ehrhart, for area A and B boundary points).
Ranks and span membership of binomial sets are computed as graph
connectivity on point pairs.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple

from .delpezzo import LdpData, canonical_polygon, ldp_analyze
from .errors import ConsistencyError, DomainError, ParseError
from .lattice import (LatticePolygon, Point, _columns, dilate, lattice_points,
                      minkowski_double, polygon_area2, to_lattice)


@dataclass(frozen=True)
class EmbeddingData:
    """The dilated polar polygon and its embedding numerology."""

    polygon: LatticePolygon          # index * polar, integral by construction
    ambient_dim: int                 # one less than the number of points
    degree: int                      # twice the polygon area
    boundary_count: int
    interior_count: int

    @functools.cached_property
    def points(self) -> tuple[Point, ...]:
        """Lattice points, lexicographic: the sweep runs x up, columns lo to hi."""
        return tuple((x, y) for x, lo, hi, _ in _columns(self.polygon)
                     for y in range(lo, hi + 1))


Pair = tuple[Point, Point]


class Binomial(NamedTuple("_Binomial", [("plus", Pair), ("minus", Pair)])):
    """z_a z_b - z_c z_d with a + b = c + d, stored with sorted pairs and
    plus < minus.  A plain (plus, minus) tuple in that form compares equal."""

    __slots__ = ()

    def __new__(cls, plus, minus):
        plus = tuple(sorted(tuple(pt) for pt in plus))
        minus = tuple(sorted(tuple(pt) for pt in minus))
        if plus == minus:
            raise DomainError("binomial with equal monomials is zero")
        sum_plus = (plus[0][0] + plus[1][0], plus[0][1] + plus[1][1])
        sum_minus = (minus[0][0] + minus[1][0], minus[0][1] + minus[1][1])
        if sum_plus != sum_minus:
            raise DomainError(
                f"monomial exponent sums differ: {sum_plus} vs {sum_minus}"
            )
        if minus < plus:
            plus, minus = minus, plus
        return super().__new__(cls, plus, minus)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make too
        return cls(*iterable)

    @property
    def sum_point(self) -> Point:
        return (self.plus[0][0] + self.plus[1][0],
                self.plus[0][1] + self.plus[1][1])


@dataclass(frozen=True)
class QuadricIdealReport:
    """A minimal generating system: (plus, minus) pairs of point pairs."""

    points: tuple[Point, ...]
    ambient_dim: int
    degree: int
    genus: int
    generators: tuple[tuple[Pair, Pair], ...]

    @property
    def count(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class TableRow:
    """Closed-form row of embedding numerology for a family member."""

    ambient_dim: int
    degree: int
    quadric_count: int
    genus: int
    boundary_count: int
    index: int

    def astuple(self) -> tuple[int, ...]:
        return dataclasses.astuple(self)


def embedding_data(data: LdpData) -> EmbeddingData:
    """Lattice data of the index-dilated polar polygon.

    Counts come from one column sweep, the degree from the shoelace sum, and
    the points are derived on read.  Pick's identity is asserted, so a
    failure here means a counting bug rather than unusual input.
    """
    dilated = to_lattice(dilate(data.polar, data.index))
    boundary, interior = lattice_points(dilated)
    degree = polygon_area2(dilated)
    delta = len(boundary) + len(interior) - 1
    if 2 * delta != degree + len(boundary):
        raise ConsistencyError("point count violates the Pick identity")
    return EmbeddingData(
        polygon=dilated,
        ambient_dim=delta,
        degree=degree,
        boundary_count=len(boundary),
        interior_count=len(interior),
    )


def sum_fibers(e: EmbeddingData) -> dict[Point, list[Pair]]:
    """Unordered point pairs grouped by their coordinate sum.

    The points are lexicographic and pairs (a, b) with a <= b arrive in
    lexicographic order, so each fiber is inserted at its smallest pair and
    filled in sorted order: fibers iterate in the order of their smallest
    pairs, and each fiber's list is sorted.
    """
    fibers: dict[Point, list[Pair]] = {}
    for a, b in itertools.combinations_with_replacement(e.points, 2):
        fibers.setdefault((a[0] + b[0], a[1] + b[1]), []).append((a, b))
    return fibers


def koelman_quadrics(e: EmbeddingData) -> list[Binomial]:
    """The full relation set: every binomial with matching monomial sums.

    Grows quadratically in the fiber sizes; intended for moderate polygons.
    """
    out = []
    for pairs in sum_fibers(e).values():
        for pair_a, pair_b in itertools.combinations(pairs, 2):
            out.append(Binomial(pair_a, pair_b))
    out.sort()
    return out


def _connect(binomials):
    """Union the two point pairs of every binomial.

    Returns the root finder and the number of unions that merged two
    components.  That number is the rank over the rationals of the binomials
    (the rank of a graph's edge set is |vertices| - |components|), and
    e_u - e_v lies in their span exactly when u and v share a root.
    """
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    unions = 0
    for plus, minus in binomials:
        u, v = find(plus), find(minus)
        if u != v:
            parent[u] = v
            unions += 1
    return find, unions


def relation_rank(binomials) -> int:
    """Exact rank over the rationals of a set of binomial relations."""
    return _connect(binomials)[1]


def quadric_count_by_counting(e: EmbeddingData) -> int:
    """Minimal system size from lattice point counting alone: C(delta + 2, 2)
    point pairs minus |2P ∩ Z²| = L_P(2), which Ehrhart gives from the degree
    and the boundary count."""
    delta, doubled = e.ambient_dim, 2 * e.degree + e.boundary_count + 1
    return (delta + 1) * (delta + 2) // 2 - doubled


def minimal_system(e: EmbeddingData) -> QuadricIdealReport:
    """Minimal generating system of the embedding ideal.

    In each sum-point fiber the smallest pair is the root and one generator
    (root, other) is emitted per remaining pair; by the order of
    `sum_fibers` the generators come out sorted.  The number of fibers must
    equal |2P ∩ Z²|, which Ehrhart gives from the degree and boundary count.
    """
    fibers = sum_fibers(e)
    doubled = 2 * e.degree + e.boundary_count + 1  # L_P(2), Ehrhart
    if len(fibers) != doubled:
        raise ConsistencyError(
            f"{len(fibers)} sum fibers but {doubled} lattice points in the "
            "doubled polygon"
        )
    return QuadricIdealReport(
        points=e.points,
        ambient_dim=e.ambient_dim,
        degree=e.degree,
        genus=e.interior_count,
        generators=tuple((root, other) for root, *rest in fibers.values()
                         for other in rest),
    )


def span_membership(report: QuadricIdealReport, b: Binomial) -> bool:
    """True when b lies in the rational span of the report's generators."""
    plus, minus = b
    point_set = set(report.points)
    for pt in plus + minus:
        if pt not in point_set:
            raise DomainError(f"point {pt} is not an embedding monomial")
    find = _connect(report.generators)[0]
    return find(plus) == find(minus)


def _exact_div(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:
        raise ConsistencyError(f"{n} is not divisible by {d}")
    return q


def table_formulas(k: int, p: int) -> TableRow:
    """Closed-form embedding numerology of canonical_polygon(k, p)."""
    if k not in (1, 2, 3):
        raise DomainError("k must be 1, 2 or 3")
    if p < 1:
        raise DomainError("p must be >= 1")
    s = {1: (p + 3) ** 2, 2: p * p + 5 * p + 8, 3: p * p + 4 * p + 7}[k]
    if p % 2 == 1:
        index = _exact_div(p + 1, 2)
        boundary = _exact_div(s, 2)
        degree = _exact_div((p + 1) * s, 4)
        delta = _exact_div((p + 3) * s, 8)
        cubic = {
            1: p ** 3 + 11 * p * p + 43 * p + 25,
            2: p ** 3 + 10 * p * p + 37 * p + 16,
            3: p ** 3 + 9 * p * p + 31 * p + 7,
        }[k]
        beta = _exact_div((p + 1) * s * cubic, 128)
        genus = {
            1: _exact_div((p + 1) * (p * p + 4 * p - 1), 8),
            2: _exact_div(p * (p + 1) * (p + 3), 8),
            3: _exact_div((p + 1) ** 3, 8),
        }[k]
    else:
        index = p + 1
        boundary = s
        degree = (p + 1) * s
        delta = _exact_div((p + 2) * s, 2)
        quartic = {
            1: p ** 4 + 10 * p ** 3 + 37 * p * p + 50 * p + 24,
            2: p ** 4 + 9 * p ** 3 + 32 * p * p + 42 * p + 20,
            3: p ** 4 + 8 * p ** 3 + 27 * p * p + 34 * p + 16,
        }[k]
        beta = _exact_div(s * quartic, 8)
        genus = {
            1: _exact_div((p + 2) * (p * p + 4 * p + 1), 2),
            2: _exact_div(p ** 3 + 5 * p * p + 8 * p + 2, 2),
            3: _exact_div(p ** 3 + 4 * p * p + 7 * p + 2, 2),
        }[k]
    return TableRow(ambient_dim=delta, degree=degree, quadric_count=beta,
                    genus=genus, boundary_count=boundary, index=index)


def enumerated_row(k: int, p: int) -> TableRow:
    """The same numerology measured directly: analyze the polygon, sweep its
    lattice points and sweep 2P.  No closed forms, no Ehrhart."""
    data = ldp_analyze(canonical_polygon(k, p))
    e = embedding_data(data)
    n = e.ambient_dim + 1
    return TableRow(
        ambient_dim=e.ambient_dim,
        degree=e.degree,
        quadric_count=n * (n + 1) // 2 - minkowski_double(e.polygon),
        genus=e.interior_count,
        boundary_count=e.boundary_count,
        index=data.index,
    )


# ---------------------------------------------------------------------------
# ideal file format

def format_binomial(b: Binomial) -> str:
    (a1, a2), (m1, m2) = b
    return (f"z({a1[0]},{a1[1]})*z({a2[0]},{a2[1]}) - "
            f"z({m1[0]},{m1[1]})*z({m2[0]},{m2[1]})")


def format_ideal(report: QuadricIdealReport) -> str:
    """Deterministic text form: a header with the numerology, then one
    generator per line in tuple-lexicographic order."""
    lines = [
        "# minimal quadric generating system",
        (f"# ambient_dim={report.ambient_dim} degree={report.degree} "
         f"generators={report.count} sectional_genus={report.genus}"),
    ]
    z = {pt: f"z({pt[0]},{pt[1]})" for pt in report.points}
    lines.extend(f"{z[a1]}*{z[a2]} - {z[m1]}*{z[m2]}"
                 for (a1, a2), (m1, m2) in report.generators)
    return "\n".join(lines) + "\n"


_FACTOR = r"z\((-?\d+),(-?\d+)\)"
_LINE = re.compile(
    rf"^\s*{_FACTOR}\s*\*\s*{_FACTOR}\s*-\s*{_FACTOR}\s*\*\s*{_FACTOR}\s*$"
)


def parse_binomial_line(line: str) -> Binomial:
    m = _LINE.match(line)
    if not m:
        raise ParseError(f"not a binomial line: {line!r}")
    try:
        nums = [int(g) for g in m.groups()]
    except ValueError as exc:  # beyond the interpreter's int-digits limit
        raise ParseError(f"not a binomial line: {exc}") from None
    return Binomial(
        ((nums[0], nums[1]), (nums[2], nums[3])),
        ((nums[4], nums[5]), (nums[6], nums[7])),
    )


def parse_ideal(text: str) -> list[Binomial]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_binomial_line(line))
        except ParseError:
            raise ParseError(f"line {lineno}: not a binomial line: {raw!r}") from None
    return out

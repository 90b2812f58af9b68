"""Anticanonical quadric embeddings of one-singularity log del Pezzo surfaces.

The polar polygon dilated by the index is the lattice polygon P that
`ldp_analyze` builds in integers; its lattice points, swept in its narrowest
frame and sorted lexicographically, are the exponents of the embedding
monomials.
The defining ideal is generated by quadratic binomials z_a z_b - z_c z_d
with a + b = c + d; a minimal generating system takes, inside the fiber of
each sum point, the differences against the lexicographically smallest point
pair.  The report holds those fibers in index form, root first and already
sorted, and the text form is streamed fiber by fiber with each root rendered
once; the number of fibers is checked against |2P ∩ Z²| = 2·(2A) + B + 1
(Ehrhart, for area A and B boundary points) before any text is written.
"""

from __future__ import annotations

import collections
import io
import math
from typing import NamedTuple, Sequence, TextIO

from .delpezzo import LdpData, canonical_polygon, ldp_analyze
from .errors import ConsistencyError, DomainError
from .lattice import (LatticePolygon, Point, count_lattice_points,
                      lattice_points, minkowski_double, polygon_area2)


class EmbeddingData(NamedTuple):
    """The dilated polar polygon and its embedding numerology."""

    polygon: LatticePolygon          # LdpData.dilated_polar, index · polar
    ambient_dim: int                 # one less than the number of points
    degree: int                      # twice the polygon area
    boundary_count: int
    interior_count: int

    @property
    def points(self) -> tuple[Point, ...]:
        """Lattice points in lexicographic order, swept on each read in the
        narrowest frame and sorted once."""
        return tuple(sorted(set().union(*lattice_points(self.polygon))))


class QuadricIdealReport(NamedTuple):
    """A minimal generating system as sum fibers in index form over the
    embedding's points and their keys x·w + y, w > the spread of y_a + y_b,
    so a key sum fixes a sum point.  A fiber is (s, firsts): its key sum s
    and the indices into `points` of the first points of its pairs, root
    first; the pair of index c is (points[c], the point keyed s − keys[c]).
    Each non-root pair gives one generator (root, other)."""

    embedding: EmbeddingData
    fibers: tuple[tuple[int, Sequence[int]], ...]
    points: tuple[Point, ...]
    keys: list[int]

    @property
    def count(self) -> int:
        return sum(len(firsts) for _, firsts in self.fibers) - len(self.fibers)


class TableRow(NamedTuple):
    """Closed-form row of embedding numerology for a family member."""

    ambient_dim: int
    degree: int
    quadric_count: int
    genus: int
    boundary_count: int
    index: int

    def astuple(self) -> tuple[int, ...]:
        return tuple(self)


def embedding_data(data: LdpData) -> EmbeddingData:
    """Lattice data of P = index · polar, the polygon `ldp_analyze` built.

    Counts come from the column sweep of the narrowest frame, the degree
    from the shoelace sum, and the points are derived on read.  Pick's
    identity is asserted, so a failure here means a counting bug rather
    than unusual input.
    """
    dilated = data.dilated_polar
    boundary, interior = lattice_points(dilated)
    degree = polygon_area2(dilated)
    delta = len(boundary) + len(interior) - 1
    if 2 * delta != degree + len(boundary):
        raise ConsistencyError("point count violates the Pick identity",
                               check="Pick: 2·delta == 2A + B",
                               expected=degree + len(boundary), got=2 * delta)
    return EmbeddingData(
        polygon=dilated,
        ambient_dim=delta,
        degree=degree,
        boundary_count=len(boundary),
        interior_count=len(interior),
    )


def sum_fibers(e: EmbeddingData) -> dict[Point, list[tuple[Point, Point]]]:
    """Unordered point pairs fibers by their coordinate sum, fibers and
    pairs sorted: the fibers of `minimal_system` read as point pairs."""
    _, index_fibers, pts, keys = minimal_system(e)
    at = dict(zip(keys, pts))
    fibers = {}
    for s, firsts in index_fibers:
        pairs = [(pts[c], at[s - keys[c]]) for c in firsts]
        (ax, ay), (bx, by) = pairs[0]
        fibers[(ax + bx, ay + by)] = pairs
    return fibers


def quadric_count_by_counting(e: EmbeddingData) -> int:
    """Minimal system size from lattice point counting alone: C(delta + 2, 2)
    point pairs minus |2P ∩ Z²| = L_P(2), which Ehrhart gives from the degree
    and the boundary count."""
    delta, doubled = e.ambient_dim, 2 * e.degree + e.boundary_count + 1
    return (delta + 1) * (delta + 2) // 2 - doubled


def quadric_count_from_vertices(polygon: LatticePolygon) -> int:
    """quadric_count_by_counting before any sweep: B by edge gcds, 2A by
    shoelace, n = (2A + B)/2 + 1 points by Pick, L_P(2) = 2·2A + B + 1."""
    verts, area2 = polygon.vertices, polygon_area2(polygon)
    b = sum(math.gcd(wx - vx, wy - vy)
            for (vx, vy), (wx, wy) in zip(verts, verts[1:] + verts[:1]))
    n = (area2 + b) // 2 + 1
    return n * (n + 1) // 2 - (2 * area2 + b + 1)


def minimal_system(e: EmbeddingData) -> QuadricIdealReport:
    """Minimal generating system of the embedding ideal.

    One walk groups the pairs (a, b), a <= b, by key sum.  The points are
    lexicographic and the pairs arrive in lexicographic order, so each fiber
    starts at its smallest pair, the root of one generator (root, other) per
    later pair, and the generators come out sorted.  A pair costs one key
    addition and one list slot; no pair tuple is built.  The number of
    fibers must equal |2P ∩ Z²|, which Ehrhart gives from the degree and
    boundary count.  The report hands on the points and keys built here.
    """
    points = e.points
    w = 4 * max(abs(y) for _, y in points) + 1
    keys = [x * w + y for x, y in points]
    fibers: dict[int, list[int]] = collections.defaultdict(list)
    for i, ka in enumerate(keys):
        for kb in keys[i:]:
            fibers[ka + kb].append(i)
    doubled = 2 * e.degree + e.boundary_count + 1  # L_P(2), Ehrhart
    if len(fibers) != doubled:
        raise ConsistencyError(
            f"{len(fibers)} sum fibers but {doubled} lattice points in the "
            "doubled polygon", check="sum fibers == L_P(2)",
            expected=doubled, got=len(fibers))
    return QuadricIdealReport(e, tuple(fibers.items()), points, keys)


def _exact_div(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:
        raise ConsistencyError(f"{n} is not divisible by {d}",
                               check="d | n", expected=0, got=r)
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
    """The same numerology measured directly: analyze the polygon and count
    the points of P and 2P by column sweeps.  No closed forms, no Ehrhart."""
    data = ldp_analyze(canonical_polygon(k, p))
    dilated = data.dilated_polar
    counts = count_lattice_points(dilated)
    n = counts.total
    return TableRow(
        ambient_dim=n - 1,
        degree=polygon_area2(dilated),
        quadric_count=n * (n + 1) // 2 - minkowski_double(dilated),
        genus=counts.interior,
        boundary_count=counts.boundary,
        index=data.index,
    )


# ---------------------------------------------------------------------------
# ideal file format

def write_ideal(report: QuadricIdealReport, fh: TextIO) -> None:
    """Stream the deterministic text form to fh, one write per fiber: a
    header with the numerology, then one generator per line in
    tuple-lexicographic order.  Factors are rendered once per point, and
    each fiber's root monomial prefixes the lines of its fiber."""
    e = report.embedding
    fh.write("# minimal quadric generating system\n"
             f"# ambient_dim={e.ambient_dim} degree={e.degree} "
             f"generators={report.count} sectional_genus={e.interior_count}\n")
    keys = report.keys
    z = [f"z({x},{y})" for x, y in report.points]
    at = dict(zip(keys, z))
    for s, (r, *rest) in report.fibers:
        if rest:
            pre = f"{z[r]}*{at[s - keys[r]]} - "
            fh.write("".join([f"{pre}{z[c]}*{at[s - keys[c]]}\n"
                              for c in rest]))


def format_ideal(report: QuadricIdealReport) -> str:
    """The text form of `write_ideal` as one string."""
    buf = io.StringIO()
    write_ideal(report, buf)
    return buf.getvalue()

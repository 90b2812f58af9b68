"""Anticanonical quadric embeddings of one-singularity log del Pezzo surfaces.

The polar polygon dilated by the index is the lattice polygon P that
`ldp_analyze` builds in integers; its lattice points, in lexicographic
order, are the exponents of the embedding monomials.  The defining ideal is
generated by quadratic binomials z_a z_b - z_c z_d with a + b = c + d; a
minimal generating system takes, inside the fiber of each sum point, the
differences against its lexicographically smallest pair.  The numbers of
the embedding come from P's vertices alone: area A by shoelace, B boundary
points by edge gcds, the point count by Pick and |2P ∩ Z²| = 2·(2A) + B + 1
by Ehrhart.  One sweep of P builds its column table, whose point count is
checked against Pick's; the fibers are read off it and streamed as text one
by one, once their number is checked against Ehrhart's.  When P is swept
in the x frame, its lexicographic order is column-major and each fiber's
lines are written from slice runs of the column table; in any other frame
each fiber's members are sorted first.
"""

from __future__ import annotations

import io
import math
from operator import itemgetter
from typing import NamedTuple, TextIO

from .delpezzo import LdpData, canonical_polygon, ldp_analyze
from .errors import ConsistencyError, DomainError
from .lattice import (LatticePolygon, Point, count_lattice_points, dilate,
                      frame_columns, minkowski_double, polygon_area2)


class EmbeddingData(NamedTuple):
    """The dilated polar polygon and its embedding numerology."""

    polygon: LatticePolygon          # LdpData.dilated_polar, index · polar
    ambient_dim: int                 # one less than the number of points
    degree: int                      # twice the polygon area
    boundary_count: int
    interior_count: int


class QuadricIdealReport(NamedTuple):
    """A minimal generating system as P's column table in its narrowest
    frame (a, b, kappa, lam), as `frame_columns` gives it, and one root per
    sum fiber.  P's i-th point in lexicographic order is `points[i]`, at
    height v of column j for `cells[i]` = (j, v); `pairs[sj]` holds (lo, hi,
    indices) of j and (lo, hi) of sj − j, an empty column as (lo, lo − 1)."""

    embedding: EmbeddingData
    count: int
    frame: tuple[int, int, int, int]
    points: tuple[Point, ...]
    cells: tuple[Point, ...]
    pairs: list[list[tuple]]
    roots: list[int]


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
    """Lattice data of P = index · polar, the polygon `ldp_analyze` built,
    from its vertices alone: B by edge gcds, 2A by shoelace, and n =
    (2A + B)/2 + 1 points by Pick.  No point is swept here; each sweep of P
    checks these numbers (`minimal_system` n, `analyze` B and I)."""
    dilated = data.dilated_polar
    verts, area2 = dilated.vertices, polygon_area2(dilated)
    b = sum(math.gcd(wx - vx, wy - vy)
            for (vx, vy), (wx, wy) in zip(verts, verts[1:] + verts[:1]))
    return EmbeddingData(dilated, (area2 + b) // 2, area2, b,
                         (area2 - b) // 2 + 1)


def sum_fibers(e: EmbeddingData) -> dict[Point, list[tuple[Point, Point]]]:
    """Unordered point pairs fibers by their coordinate sum, fibers and
    pairs sorted: the fibers of `minimal_system` read as point pairs."""
    report, fibers = minimal_system(e), {}
    for members in _fibers(report):
        pairs = [(report.points[c], report.points[d]) for c, d
                 in zip(members[:(len(members) + 1) // 2], members[::-1])]
        (ax, ay), (bx, by) = pairs[0]
        fibers[(ax + bx, ay + by)] = pairs
    return fibers


def quadric_count_by_counting(e: EmbeddingData) -> int:
    """Minimal system size from P's vertex numbers alone, before any sweep:
    C(delta + 2, 2) point pairs minus |2P ∩ Z²| = L_P(2), which Ehrhart
    gives from the degree and the boundary count; `minimal_system` checks
    it against its sweeps of P and 2P."""
    delta, doubled = e.ambient_dim, 2 * e.degree + e.boundary_count + 1
    return (delta + 1) * (delta + 2) // 2 - doubled


def minimal_system(e: EmbeddingData) -> QuadricIdealReport:
    """Minimal generating system of the embedding ideal, no pair stored.
    One sweep of P's narrowest frame gives the column table, whose cells
    are mapped to P's points once and sorted by them; they must number
    ambient_dim + 1, read off P's vertices.  The fiber {c in P : s − c in
    P} of each point s of 2P, swept in the same frame (dilation keeps it),
    is a slice per column pair (j, s_j − j), ascending up each column; its
    least member l and greatest s − l (c ↦ s − c reverses the order) root
    it.  No fiber may be empty (P is normal); they number Ehrhart's L_P(2)."""
    (a, b, kappa, lam), sweep = frame_columns(e.polygon)
    table, mapped = [], []
    for j, (u, lo, hi, _) in enumerate(sweep):  # every column, in order
        table.append((lo, hi, [0] * (hi - lo + 1)))
        mapped += [((kappa * u - b * v, a * v - lam * u), (j, v))
                   for v in range(lo, hi + 1)]
    points, cells = zip(*sorted(mapped))  # P's points are distinct
    for i, (j, v) in enumerate(cells):
        table[j][2][v - table[j][0]] = i
    n, roots, width = len(cells), [], len(table)
    if n != e.ambient_dim + 1:
        raise ConsistencyError(f"{n} points in P's column table but "
                               f"{e.ambient_dim + 1} by Pick",
                               check="swept points == Pick count",
                               expected=e.ambient_dim + 1, got=n)
    pairs = [[(*table[j], *table[sj - j][:2]) for j in range(width)
              if 0 <= sj - j < width] for sj in range(2 * width - 1)]
    for sj, (su, lo2, hi2, _) in enumerate(  # 2P starts at twice P
            frame_columns(dilate(e.polygon, 2))[1]):
        for sv in range(lo2, hi2 + 1):
            least = n
            for lo, hi, column, wlo, whi in pairs[sj]:
                vlo = lo if lo > sv - whi else sv - whi
                vhi = hi if hi < sv - wlo else sv - wlo
                if vlo <= vhi and column[vlo - lo] < least:
                    least = column[vlo - lo]
            if least == n:
                raise ConsistencyError(f"no pair of P sums to ({su}, {sv}) in "
                                       "2P's frame", check="fiber size >= 1",
                                       expected=1, got=0)
            lj, lv = cells[least]
            wlo, _, column = table[sj - lj]
            roots.append(least * n + column[sv - lv - wlo])
    doubled = 2 * e.degree + e.boundary_count + 1  # L_P(2), Ehrhart
    if len(roots) != doubled:
        raise ConsistencyError(f"{len(roots)} sum fibers but {doubled} "
                               "lattice points in the doubled polygon",
                               check="sum fibers == L_P(2)",
                               expected=doubled, got=len(roots))
    roots.sort()
    return QuadricIdealReport(e, n * (n + 1) // 2 - len(roots),
                              (a, b, kappa, lam), points, cells, pairs, roots)


def _fibers(report: QuadricIdealReport):
    """Each fiber's sorted members in root order; timsort merges its slices."""
    cells, pairs, n = report.cells, report.pairs, len(report.cells)
    for root in report.roots:
        (lj, lv), (gj, gv) = cells[root // n], cells[root % n]
        sv, members = lv + gv, []
        for lo, hi, column, wlo, whi in pairs[lj + gj]:
            vlo = lo if lo > sv - whi else sv - whi
            vhi = hi if hi < sv - wlo else sv - wlo
            if vlo <= vhi:
                members += column[vlo - lo:vhi - lo + 1]
        members.sort()
        yield members


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
    """Stream the text form to fh, one write per fiber: a header with the
    numerology, then one generator per line in tuple-lexicographic order.
    Fiber members c_0 < ... < c_{K−1} pair as (c_i, c_{K−1−i}), and each
    pair after the root (c_0, c_{K−1}) is one line of the header's count.
    In the x frame (b = 0) the lines come from slice runs (`_run_texts`);
    in any other frame from each fiber's sorted members (`_sorted_texts`),
    with each point of P rendered once as a left and as a right factor."""
    e, count = report.embedding, report.count
    fh.write("# minimal quadric generating system\n"
             f"# ambient_dim={e.ambient_dim} degree={e.degree} "
             f"generators={count} sectional_genus={e.interior_count}\n")
    lefts = [f"z({x},{y})*" for x, y in report.points]
    rights = [f"z({x},{y})\n" for x, y in report.points]
    texts = _run_texts if report.frame[1] == 0 else _sorted_texts
    written = 0
    for text, lines in texts(report, lefts, rights):
        fh.write(text)
        written += lines
    if written != count:
        raise ConsistencyError(f"{written} generators written but {count} in "
                               "the header", expected=count, got=written,
                               check="lines written == header count")


def _run_texts(report: QuadricIdealReport, lefts: list[str],
               rights: list[str]):
    """Each fiber's lines and their number, in root order, from slice runs.
    In the x frame a point's lexicographic index is its column-major index,
    so the fiber members c of column j <= sj − j are one slice of `lefts`,
    and their partners s − c, down column sj − j, one slice of `rights`
    taken in reverse.  The middle column j = sj − j is the pair that is its
    own partner, and it takes only its rows v <= sv // 2, the square
    z(c)·z(c) included.  Runs of increasing j concatenate to c_0, c_1, ...
    and their partners to c_{K−1}, c_{K−2}, ...: the root comes first, and
    nothing is sorted."""
    cells, pairs, n = report.cells, report.pairs, len(report.cells)
    rights_reversed = rights[::-1]  # so a partner run is a forward slice
    for root in report.roots:
        (lj, lv), (gj, gv) = cells[root // n], cells[root % n]
        sv, row, left, right = lv + gv, pairs[lj + gj], [], []
        for pair, partner in zip(row[:(len(row) + 1) // 2], row[::-1]):
            lo, hi, column, wlo, whi = pair
            vlo = lo if lo > sv - whi else sv - whi
            vhi = hi if hi < sv - wlo else sv - wlo
            if pair is partner:  # the middle column: rows v <= sv - v
                vhi = min(vhi, sv // 2)
            if vlo <= vhi:  # an empty column (lo, lo - 1) never is
                i = column[0] - lo  # row v of column j is index i + v
                w = n - 1 - partner[2][0] + wlo - sv  # its partner, reversed
                left += lefts[i + vlo:i + vhi + 1]
                right += rights_reversed[w + vlo:w + vhi + 1]
        if (lines := len(left) - 1) > 0:
            text = [f"{left[0]}{right[0][:-1]} - "] * (3 * lines + 3)
            text[1::3], text[2::3] = left, right
            del text[:3]  # the root against itself
            yield "".join(text), lines


def _sorted_texts(report: QuadricIdealReport, lefts: list[str],
                  rights: list[str]):
    """Each fiber's lines and their number, in root order, from its sorted
    members (`_fibers`) and the factors `write_ideal` rendered: any frame,
    where a sheared P's lexicographic order splits a slice into short runs."""
    for members in _fibers(report):
        if lines := (len(members) + 1) // 2 - 1:  # so each pick takes 2+
            left = itemgetter(*members[:lines + 1])(lefts)
            right = itemgetter(*members[-lines - 1:])(rights)
            text = [f"{left[0]}{right[-1][:-1]} - "] * (3 * lines)
            text[1::3], text[2::3] = left[1:], right[-2::-1]
            yield "".join(text), lines


def format_ideal(report: QuadricIdealReport) -> str:
    """The text form of `write_ideal` as one string."""
    buf = io.StringIO()
    write_ideal(report, buf)
    return buf.getvalue()

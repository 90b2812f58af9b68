"""Log del Pezzo data of lattice polygons and the one-singularity
classification.

A polygon with primitive vertices and the origin strictly inside encodes a
toric log del Pezzo surface.  When exactly one cone over a facet is
non-basic, the surface is isomorphic to a member of three explicit families
of polygons with 3, 4 and 5 vertices (plus a mirrored presentation of the
4-vertex family).  The normalizer of the singular cone, composed with one
fixed shear in integers, maps the polygon onto its family member, checked
by one tuple comparison; classify_one_singularity reads the cone from a fan
analysis, and the enumeration search from the walk that found the polygon.
Enumeration is a depth-first search from the vertex after each polygon's
one non-basic cone, along det = 1 lines, walked from one quadrant of those
vertices; the quarter turn of the box hands on the other three, which
count_one_singularity counts without building them (bound 64: 656,560
polygons in about 1 s).  group_classes checks that the normal forms
present have distinct graph keys.
"""

from __future__ import annotations

import collections
import functools
import math
from collections.abc import Iterator, Mapping
from typing import NamedTuple

from .errors import ConsistencyError, DomainError, SingularityCountError
from .fans import FanAnalysis, analyze_fan, fan_from_polygon
from .graphs import canonical_key, graph_of
from .lattice import (LatticePolygon, Point, UnimodularMap, apply_map,
                      bezout, edge_lines, pair_normalizer)


class LdpData(NamedTuple):
    """Invariants attached to a log del Pezzo polygon."""

    analysis: FanAnalysis
    index: int
    dilated_polar: LatticePolygon  # index · polar, in integers


class Classification(NamedTuple):
    """Result of the one-singularity normal form computation.

    transform, the map [[a, b], [c, d]] of entries (a, b, c, d), maps the
    input polygon onto canonical_polygon(k, p) exactly; each read builds it
    as a checked UnimodularMap.  normal_form records which 4-gon
    presentation appeared before the final mirror step ("standard" or
    "mirror"), and mu is the 1-based position of the vertex sent to (-1, 0),
    counted from the singular cone."""

    k: int
    p: int
    entries: tuple[int, int, int, int]
    normal_form: str
    mu: int

    @property
    def transform(self) -> UnimodularMap:
        return UnimodularMap(*self.entries)


@functools.cache
def canonical_polygon(k: int, p: int) -> LatticePolygon:
    """Representative polygon of the family with 3 <= k+2 <= 5 vertices.
    Memoized: the polygon is immutable, and a classifying run asks for each
    (k, p) present twice, in `_seen_from_cone` and in `group_classes`."""
    if k not in (1, 2, 3):
        raise DomainError("k must be 1, 2 or 3")
    if p < 1:
        raise DomainError("p must be >= 1")
    if k == 1:
        verts = ((1, -1), (p, 1), (-1, 0))
    elif k == 2:
        verts = ((1, -1), (p, 1), (p - 1, 1), (-1, 0))
    else:
        verts = ((1, -1), (p, 1), (p - 1, 1), (-1, 0), (0, -1))
    return LatticePolygon(verts)


@functools.cache
def mirror_quad(p: int) -> LatticePolygon:
    """The second 4-vertex presentation, image of canonical_polygon(2, p)
    under mirror_quad_map(p), memoized like canonical_polygon."""
    return apply_map(mirror_quad_map(p), canonical_polygon(2, p))


def mirror_quad_map(p: int) -> UnimodularMap:
    """Determinant -1 involution exchanging the two 4-vertex presentations."""
    return UnimodularMap(1, 1 - p, 0, -1)


def ldp_analyze(q: LatticePolygon) -> LdpData:
    """Fan invariants, facet local indices, index and dilated polar polygon.

    Each facet's level, the value of its primitive outer normal on it, must
    equal the local index of the cone over it; the index is their least
    common multiple, which is also the smallest dilation making the polar
    polygon integral, since every normal is primitive.  The facet with inner
    normal (a, b) gives the polar vertex (a, b) / level, so P = index · polar
    has the vertex (index // level) · (a, b), an integer point because every
    level divides the index: P is built in integers alone.
    """
    analysis = analyze_fan(fan_from_polygon(q))
    lines = edge_lines(q)
    locals_ = []
    for i, (_, _, c) in enumerate(lines):
        level = -c  # value of the primitive outer normal on the facet
        local_index = analysis.cone_data[i].local_index
        if level != local_index:
            raise ConsistencyError(
                f"facet level {level} differs from cone local index "
                f"{local_index}", check="facet level == cone local index",
                expected=local_index, got=level)
        locals_.append(level)
    ell = math.lcm(*locals_)
    return LdpData(
        analysis=analysis,
        index=ell,
        dilated_polar=LatticePolygon(tuple(
            (ell // level * a, ell // level * b)
            for (a, b, _), level in zip(lines, locals_))),
    )


# shear fixing the singular cone's normal form onto the canonical families:
# (1,0) -> (1,-1), (p,p+1) -> (p,1), (-1,-1) -> (-1,0)
_TILT = UnimodularMap(1, 0, -1, 1)


def classify_one_singularity(a: FanAnalysis) -> Classification:
    """Map a one-singularity log del Pezzo polygon, given by the analysis of
    its face fan, onto its normal form."""
    singular = a.singular_indices
    if len(singular) != 1:
        raise SingularityCountError(f"polygon has {len(singular)} singular "
                                    "cones, need exactly 1")
    j = singular[0]
    verts = a.rays[j:] + a.rays[:j]
    return _normal_form(verts, *bezout(*verts[0]), a.cone_data[j].q)


def _normal_form(verts: tuple[Point, ...], kappa: int, lam: int,
                 q: int) -> Classification:
    """Classify the polygon with these anticlockwise vertices, its singular
    cone (verts[0], verts[1]) of det q > 1, (kappa, lam) = bezout(*verts[0])
    and every other cone basic, by one det +1 map onto its normal form; a
    map onto the normal form proves the polygon convex, log del Pezzo and
    isomorphic to it.  In integers, with no object but the returned tuple;
    enumerate runs it for a quarter of the polygons, at bound 64 about
    0.4 of its 1.0 s."""
    p, q, (na, nb, nc, nd) = pair_normalizer(verts[0], verts[1], kappa,
                                             lam, q)
    if q != p + 1:
        raise ConsistencyError(
            f"one-singularity polygon with cone type ({p}, {q}); "
            "the non-adjacent parameter pair should be impossible",
            check="cone type q == p + 1", expected=p + 1, got=q)
    k = len(verts) - 2
    if k not in (1, 2, 3):
        raise ConsistencyError(f"one-singularity polygon with {k + 2} "
                               "vertices", check="vertex count",
                               expected="3, 4 or 5", got=k + 2)
    ua, ub = _TILT.a * na + _TILT.b * nc, _TILT.a * nb + _TILT.b * nd
    uc, ud = _TILT.c * na + _TILT.d * nc, _TILT.c * nb + _TILT.d * nd
    image = []  # a loop, not a comprehension, keeps ua..ud fast locals
    for x, y in verts:
        image.append((ua * x + ub * y, uc * x + ud * y))
    seen, form, mu, (ma, mb, mc, md), target = _seen_from_cone(k, p, False)
    if image != seen and k == 2:
        seen, form, mu, (ma, mb, mc, md), _ = _seen_from_cone(2, p, True)
    if image != seen:
        start = image.index(min(image))  # as LatticePolygon stores it
        got = tuple(image[start:] + image[:start])
        raise ConsistencyError(
            f"normalized polygon {got} matches no family member",
            check="normalized vertices == canonical_polygon(k, p)",
            expected=target, got=got)
    return Classification(k, p, (
        ma * ua + mb * uc, ma * ub + mb * ud, mc * ua + md * uc,
        mc * ub + md * ud), form, mu)


@functools.cache
def _seen_from_cone(k: int, p: int, mirror: bool):
    """canonical_polygon(k, p), or mirror_quad(p), as _normal_form's image
    meets it, from (1, -1): its vertices, form and mu, the entries of the
    map applied last, and the target vertices; a lookup hashes no point."""
    target = canonical_polygon(k, p).vertices
    vertices = mirror_quad(p).vertices if mirror else target
    start = vertices.index((1, -1))
    seen = list(vertices[start:] + vertices[:start])
    m = mirror_quad_map(p) if mirror else UnimodularMap(1, 0, 0, 1)
    return (seen, "mirror" if mirror else "standard",
            seen.index((-1, 0)) + 1, (m.a, m.b, m.c, m.d), target)


def index_parity_check(index: int) -> set[tuple[int, int]]:
    """Which (k, p) pairs of the one-singularity families have this index."""
    if index < 1:
        raise DomainError("index must be >= 1")
    if index == 1 or index % 2 == 0:
        ps = [2 * index - 1]
    else:
        ps = [index - 1, 2 * index - 1]
    return {(k, p) for k in (1, 2, 3) for p in ps}


def _primitive_box_points(bound: int) -> list[Point]:
    return [(x, y) for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1) if math.gcd(x, y) == 1]


Enumerated = tuple[tuple[Point, ...], Classification]

# largest enumerate bound, set by time: bound 64 (656,560 polygons) takes
# about 1.0 s and 18.9 MB max RSS on one Intel Xeon core under Python 3.11
MAX_BOUND = 64


def _check_bound(bound: int) -> None:
    if type(bound) is not int or not 1 <= bound <= MAX_BOUND:
        raise DomainError(f"bound must be between 1 and {MAX_BOUND}")


def _one_singularity_walks(bound: int) -> Iterator[list]:
    """Each walked first vertex's closed (chain, classification) pairs."""
    # line[l] = (lam, kappa, lo, hi): the box points c with det(l, c) = 1
    # are c0 + t·l for lo <= t <= hi, with c0 = (lam, kappa)
    line: dict[Point, tuple[int, int, int, int]] = {}
    for a, b in _primitive_box_points(bound):
        kappa, lam = bezout(a, b)
        lo, hi = -bound - 1, bound + 1  # |lam| <= |a| and |kappa| <= |b|
        for c, e in ((lam, a), (kappa, b)):
            if e:  # |c + t·e| <= bound
                c, e = (c, e) if e > 0 else (-c, -e)
                lo, hi = max(lo, -((bound + c) // e)), min(hi, (bound - c) // e)
        line[a, b] = lam, kappa, lo, hi
    longest = 4 * bound + 2  # vertices of a strictly convex chain in the box
    for (fx, fy), (lam, kappa, lo, hi) in line.items():
        if fx < 0 or fy >= 0:  # the quarter turns hand on the other three
            continue
        # vertex chains from first; a step's candidates go on in increasing
        # t, so the walk takes them in decreasing t
        stack = [((fx, fy), (lam + t * fx, kappa + t * fy))
                 for t in range(lo, hi + 1)]
        found = []  # handed on once first's walk is done: one switch for all
        while stack:
            chain = stack.pop()
            if len(chain) > longest:
                raise ConsistencyError(f"search chain {chain} is not convex",
                                       check="chain length <= 4 * bound + 2",
                                       expected=longest, got=len(chain))
            # the t-range gave last's turn; closing checks det and first's turn
            (sx, sy), (px, py), (lx, ly) = chain[1], chain[-2], chain[-1]
            d = lx * fy - ly * fx
            lam, kappa, lo, hi = line[lx, ly]
            if d > 1 and (fx - lx) * (sy - fy) - (fy - ly) * (sx - fx) > 0:
                found.append((chain, _normal_form(
                    chain[-1:] + chain[:-1], kappa, lam, d)))
            turn = 1 - px * kappa + py * lam  # strict left turn at last
            if d > 0:  # first strictly left of last -> cand
                left = 1 - (lam * fy - kappa * fx) // d
                lo = left if left > lo else lo  # no max(): this is the hot loop
            for t in range(lo, (turn if turn < hi else hi) + 1):
                stack.append(chain + ((lam + t * lx, kappa + t * ly),))
        yield found


def _turned_pairs(walks: Iterator[list]) -> Iterator[Enumerated]:
    for found in walks:
        for turn in range(4):  # R: (x, y) -> (-y, x) maps T to T·R⁻¹
            for i, (verts, cls) in enumerate(found):
                if turn:
                    verts = [(-y, x) for x, y in verts]
                    k, p, (a, b, c, d), form, mu = cls
                    cls = Classification(k, p, (-b, a, -d, c), form, mu)
                start = verts.index(min(verts))
                found[i] = pair = (tuple(verts[start:] + verts[:start]), cls)
                yield pair


def enumerate_one_singularity(bound: int) -> Iterator[Enumerated]:
    """Exhaustively enumerate one-singularity log del Pezzo polygons whose
    vertex coordinates lie in [-bound, bound]^2, for 1 <= bound <= MAX_BOUND.

    Such a polygon has exactly one cone of det > 1.  A depth-first search
    grows it from f = first, the vertex after that cone.  No prune drops a
    polygon: every other cone is basic, so each vertex after first is on
    the det = 1 line of the one before, and a strictly convex polygon turns
    strictly left at every vertex and has first strictly left of every edge
    not containing it.  So a step from l = last, after p with det(p, l) = 1,
    takes cand = c0 + t·l, with c0 from bezout and det(l, c0) = 1, for t in
    one range: the box clip, by two floor divisions, and two bounds.
    - Strict left turn at l: t <= 1 - det(p, c0).
    - f strictly left of l -> cand: det(c0, f) + 1 + (t - 1)·d > 0, with
      d = det(l, f); for d > 0 it reads t >= 1 - floor(det(c0, f) / d).
      For d = 0, f = -l and the left side is 2.  For d < 0 the turn bound
      implies it: with a(v) = det(v, c0), the step onto l gave
      a(f) < 1 + (1 - a(p))·d, so a(f) < 1 - a(p)·d <= 1 + (t - 1)·d.  At
      the first step p = f, and the two tests are one.
    No t in the range passes first: for d >= 1 the bound gives
    det(f, cand) < 1 - d <= 0, and for d <= 0 first is at least a half
    turn ahead of a step that turns by less than one.  The walk closes when
    det(last, first) > 1 and the turn at first is strict.  A bound that is
    not an int from 1 to MAX_BOUND raises DomainError at the call itself.
    A vertical line meets at most two vertices of a strictly convex arc, so
    a chain has at most 4·bound + 2, two per column (6 at bounds 1-12); a
    longer one means a broken t-bound and raises ConsistencyError at once.

    Only first vertices with x >= 0 and y < 0 are walked.  The quarter turn
    R: (x, y) -> (-y, x) has det 1, keeps the box and fixes no nonzero
    point, and this quadrant and its three turns cover each nonzero point
    once, so R^j maps the polygons walked from f onto those found from
    R^j(f): each walk's polygons are followed by their three turns.  The
    cone normalizer is the unique det +1 map with its defining property,
    so R(P) has the transform T·R^-1, of entries (-b, a, -d, c) for T's
    (a, b, c, d), and the same k, p, normal_form and mu, so
    count_one_singularity adds 4 per walked polygon and builds no turn.

    When a walk closes, _normal_form certifies the chain, started at last,
    from the singular cone (last, first), with last's Bezout pair from its
    line and q = d, or raises ConsistencyError.  Yields (vertices,
    classification) pairs in search order, the vertices anticlockwise from
    the smallest, as LatticePolygon stores them, one batch at a time.
    """
    _check_bound(bound)
    return _turned_pairs(_one_singularity_walks(bound))


def count_one_singularity(bound: int) -> collections.Counter:
    """enumerate_one_singularity(bound)'s polygons counted per (k, p) from
    the walks alone: each walked polygon counts 4, for it and its turns."""
    _check_bound(bound)
    counts = collections.Counter()
    for found in _one_singularity_walks(bound):
        for _, cls in found:
            counts[cls.k, cls.p] += 4
    return counts


def group_classes(counts: Mapping[tuple[int, int], int]) -> dict[tuple, dict]:
    """Key polygon counts per (k, p), as count_one_singularity gives them,
    by the graph key of canonical_polygon(k, p), computed once per (k, p)
    present; two (k, p) sharing a key raise ConsistencyError."""
    classes: dict[tuple, dict] = {}
    for (k, p), count in counts.items():
        key = canonical_key(graph_of(analyze_fan(fan_from_polygon(
            canonical_polygon(k, p)))))
        entry = classes.setdefault(key, {"k": k, "p": p, "count": 0})
        if (entry["k"], entry["p"]) != (k, p):
            raise ConsistencyError(
                "two normal forms have one graph class",
                check="one (k, p) per graph class",
                expected=(entry["k"], entry["p"]), got=(k, p))
        entry["count"] += count
    return classes

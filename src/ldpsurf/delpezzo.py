"""Log del Pezzo data of lattice polygons and the one-singularity
classification.

A polygon with primitive vertices and the origin strictly inside encodes a
toric log del Pezzo surface.  When exactly one cone over a facet is
non-basic, the surface is isomorphic to a member of three explicit families
of polygons with 3, 4 and 5 vertices (plus a mirrored presentation of the
4-vertex family); classify_one_singularity computes the family parameters
and the unimodular map realizing the normal form from the fan analysis, and
group_classes checks that each surface is isomorphic to its normal form's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DomainError, SingularityCountError
from .fans import FanAnalysis, analyze_fan, fan_from_polygon
from .graphs import canonical_key, graph_of
from .lattice import (LatticePolygon, Point, RationalPolygon, UnimodularMap,
                      _angular_before, contains_origin_interior,
                      cross, edge_lines, is_primitive)


@dataclass(frozen=True)
class LdpData:
    """Invariants attached to a log del Pezzo polygon."""

    polygon: LatticePolygon
    analysis: FanAnalysis
    local_indices: tuple[int, ...]
    index: int
    polar: RationalPolygon
    singular_count: int


@dataclass(frozen=True)
class Classification:
    """Result of the one-singularity normal form computation.

    transform maps the input polygon onto canonical_polygon(k, p) exactly.
    normal_form records which 4-gon presentation appeared before the final
    mirror step ("standard" or "mirror"), and mu is the 1-based position of
    the vertex sent to (-1, 0), counted from the singular cone.
    """

    k: int
    p: int
    transform: UnimodularMap
    normal_form: str
    mu: int


def canonical_polygon(k: int, p: int) -> LatticePolygon:
    """Representative polygon of the family with 3 <= k+2 <= 5 vertices."""
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


def mirror_quad(p: int) -> LatticePolygon:
    """The second 4-vertex presentation, image of canonical_polygon(2, p)
    under mirror_quad_map(p)."""
    if p < 1:
        raise DomainError("p must be >= 1")
    return LatticePolygon(((1, -1), (p, 1), (-1, 0), (0, -1)))


def mirror_quad_map(p: int) -> UnimodularMap:
    """Determinant -1 involution exchanging the two 4-vertex presentations."""
    return UnimodularMap(1, 1 - p, 0, -1)


def is_ldp(q: LatticePolygon) -> bool:
    """Log del Pezzo polygon: primitive vertices, origin strictly inside."""
    return all(is_primitive(v) for v in q.vertices) and contains_origin_interior(q)


def ldp_analyze(q: LatticePolygon) -> LdpData:
    """Fan invariants, facet local indices, index and polar polygon.

    The index is computed twice (least common multiple of the facet local
    indices, and the smallest dilation making the polar polygon integral) and
    the two values are required to agree.
    """
    analysis = analyze_fan(fan_from_polygon(q))
    locals_ = []
    polar_verts = []
    for i, (a, b, c) in enumerate(edge_lines(q)):
        level = -c  # value of the primitive outer normal on the facet
        if level != analysis.cone_data[i].local_index:
            raise ConsistencyError(
                f"facet level {level} differs from cone local index "
                f"{analysis.cone_data[i].local_index}"
            )
        locals_.append(level)
        polar_verts.append((Fraction(a, level), Fraction(b, level)))
    index = math.lcm(*locals_)
    denom_lcm = math.lcm(*(
        math.lcm(x.denominator, y.denominator) for x, y in polar_verts
    ))
    if denom_lcm != index:
        raise ConsistencyError(
            f"polar denominators give index {denom_lcm}, local indices give {index}"
        )
    polar = RationalPolygon(tuple(polar_verts))
    return LdpData(
        polygon=q,
        analysis=analysis,
        local_indices=tuple(locals_),
        index=index,
        polar=polar,
        singular_count=len(analysis.singular_indices),
    )


# shear fixing the singular cone's normal form onto the canonical families:
# (1,0) -> (1,-1), (p,p+1) -> (p,1), (-1,-1) -> (-1,0)
_TILT = UnimodularMap(1, 0, -1, 1)


def classify_one_singularity(a: FanAnalysis) -> Classification:
    """Map a one-singularity log del Pezzo polygon, given by the analysis of
    its face fan, onto its normal form."""
    singular = a.singular_indices
    if len(singular) != 1:
        raise SingularityCountError(
            f"polygon has {len(singular)} singular cones, need exactly 1"
        )
    j = singular[0]
    cd = a.cone_data[j]
    p = cd.p
    if cd.q != p + 1:
        raise ConsistencyError(
            f"one-singularity polygon with cone type ({cd.p}, {cd.q}); "
            "the non-adjacent parameter pair should be impossible"
        )
    fan = a.fan
    nu = fan.nu
    if nu - 2 not in (1, 2, 3):
        raise ConsistencyError(f"one-singularity polygon with {nu} vertices")
    k = nu - 2
    rotated = fan.rays[j:] + fan.rays[:j]
    upsilon = _TILT.compose(cd.normalizer)
    image_verts = tuple(upsilon.apply(v) for v in rotated)
    mu_hits = [i for i, v in enumerate(image_verts) if v == (-1, 0)]
    if len(mu_hits) != 1:
        raise ConsistencyError(
            f"expected exactly one vertex at (-1, 0), found {len(mu_hits)}"
        )
    mu = mu_hits[0] + 1
    image = LatticePolygon(image_verts)
    target = canonical_polygon(k, p)
    if image == target:
        transform, form = upsilon, "standard"
    elif k == 2 and image == mirror_quad(p):
        transform, form = mirror_quad_map(p).compose(upsilon), "mirror"
    else:
        raise ConsistencyError(
            f"normalized polygon {image.vertices} matches no family member"
        )
    return Classification(k=k, p=p, transform=transform, normal_form=form, mu=mu)


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
    pts = [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    ]
    pts.sort(key=functools.cmp_to_key(
        lambda u, v: -1 if _angular_before(u, v) else 1))
    return pts


def enumerate_one_singularity(
    bound: int
) -> list[tuple[LatticePolygon, Classification]]:
    """Exhaustively enumerate one-singularity log del Pezzo polygons whose
    vertex coordinates lie in [-bound, bound]^2, classifying each.

    Every found polygon is required to classify successfully; a violation
    raises ConsistencyError.  That each gives a surface isomorphic to its
    normal form's is checked by group_classes.
    """
    if bound < 1:
        raise DomainError("bound must be >= 1")
    cands = _primitive_box_points(bound)
    found: list[LatticePolygon] = []

    def close_and_emit(chain: list[Point], nonbasic: int) -> None:
        if len(chain) < 3:
            return
        first, last = chain[0], chain[-1]
        det = cross(last, first)
        if det <= 0 or nonbasic + (1 if det > 1 else 0) != 1:
            return
        prev = chain[-2]
        second = chain[1]
        if cross((last[0] - prev[0], last[1] - prev[1]),
                 (first[0] - last[0], first[1] - last[1])) <= 0:
            return
        if cross((first[0] - last[0], first[1] - last[1]),
                 (second[0] - first[0], second[1] - first[1])) <= 0:
            return
        found.append(LatticePolygon(tuple(chain)))

    def extend(chain: list[Point], nonbasic: int, succ: list[Point], pos: int) -> None:
        close_and_emit(chain, nonbasic)
        last = chain[-1]
        for idx in range(pos, len(succ)):
            cand = succ[idx]
            if cand <= chain[0]:
                continue
            det = cross(last, cand)
            if det <= 0:
                continue
            nb = nonbasic + (1 if det > 1 else 0)
            if nb > 1:
                continue
            if len(chain) >= 2:
                prev = chain[-2]
                if cross((last[0] - prev[0], last[1] - prev[1]),
                         (cand[0] - last[0], cand[1] - last[1])) <= 0:
                    continue
            chain.append(cand)
            extend(chain, nb, succ, idx + 1)
            chain.pop()

    for si, start in enumerate(cands):
        successors = cands[si + 1:] + cands[:si]
        extend([start], 0, successors, 0)

    return [
        (poly, classify_one_singularity(analyze_fan(fan_from_polygon(poly))))
        for poly in sorted(found, key=lambda q: q.vertices)
    ]


def _graph_key(q: LatticePolygon) -> tuple:
    return canonical_key(graph_of(analyze_fan(fan_from_polygon(q))))


def group_classes(
    results: list[tuple[LatticePolygon, Classification]]
) -> dict[tuple, dict]:
    """Group enumeration output into isomorphism classes keyed by the
    canonical graph key.  Each polygon's key must equal the key of its normal
    form canonical_polygon(k, p); a violation raises ConsistencyError."""
    classes: dict[tuple, dict] = {}
    target_keys: dict[tuple[int, int], tuple] = {}
    for poly, cls in results:
        key = _graph_key(poly)
        kp = (cls.k, cls.p)
        if kp not in target_keys:
            target_keys[kp] = _graph_key(canonical_polygon(*kp))
        if key != target_keys[kp]:
            raise ConsistencyError(
                f"polygon {poly.vertices} is not isomorphic to its normal "
                f"form ({cls.k}, {cls.p})"
            )
        entry = classes.setdefault(
            key, {"k": cls.k, "p": cls.p, "count": 0, "representative": poly}
        )
        if (entry["k"], entry["p"]) != kp:
            raise ConsistencyError(
                "polygons in one graph class classified differently"
            )
        entry["count"] += 1
    return classes

"""Complete fans in the plane and surface-level invariants derived from them.

A complete fan is a cyclic anticlockwise list of primitive rays; cone i is
spanned by rays i and i+1 (indices wrap around).  analyze_fan computes the
per-cone data once and derives from it the integer weight attached to each
ray, the self-intersection formula for the canonical divisor, and the minimal
desingularization obtained by inserting every refinement chain.  Graphs and
the classification read this FanAnalysis rather than recompute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import Cone2, ConeData, cone_invariants
from .errors import ConsistencyError, DomainError
from .lattice import (LatticePolygon, Point, contains_origin_interior, cross,
                      is_primitive, _wraps_once)


@dataclass(frozen=True)
class CompleteFan:
    """Anticlockwise cyclic ray list covering the plane exactly once."""

    rays: tuple[Point, ...]

    def __post_init__(self):
        rays = tuple(tuple(r) for r in self.rays)
        object.__setattr__(self, "rays", rays)
        n = len(rays)
        if n < 3:
            raise DomainError("a complete fan needs at least 3 rays")
        if len(set(rays)) != n:
            raise DomainError("duplicate ray")
        for r in rays:
            if r == (0, 0) or not is_primitive(r):
                raise DomainError(f"ray {r} is not primitive")
        for i in range(n):
            if cross(rays[i], rays[(i + 1) % n]) <= 0:
                raise DomainError(
                    f"rays {rays[i]}, {rays[(i + 1) % n]} are not in strict "
                    "anticlockwise order"
                )
        if not _wraps_once(rays):
            raise DomainError("rays wind around the origin more than once")

    @property
    def nu(self) -> int:
        return len(self.rays)

    def cone(self, i: int) -> Cone2:
        n = self.nu
        return Cone2(self.rays[i % n], self.rays[(i + 1) % n])


@dataclass(frozen=True)
class FanAnalysis:
    """Per-cone invariants plus the derived surface data of a complete fan."""

    fan: CompleteFan
    cone_data: tuple[ConeData, ...]
    singular_indices: tuple[int, ...]
    basic_indices: tuple[int, ...]
    weights: tuple[int, ...]
    picard: int
    k2: Fraction
    resolution: CompleteFan
    exceptional: tuple[tuple[Point, int], ...]


def fan_from_polygon(q: LatticePolygon) -> CompleteFan:
    """Face fan of a polygon: rays through its vertices.

    Requires the origin strictly inside and primitive vertices, otherwise the
    cones over the facets do not form a complete fan of the right shape.
    """
    if not contains_origin_interior(q):
        raise DomainError("origin is not strictly inside the polygon")
    for v in q.vertices:
        if not is_primitive(v):
            raise DomainError(f"vertex {v} is not primitive")
    return CompleteFan(q.vertices)


def picard_number(f: CompleteFan) -> int:
    return f.nu - 2


def _ray_weights(f: CompleteFan, data: tuple[ConeData, ...]) -> tuple[int, ...]:
    """Integer weight r at each ray, from r * n = left + right where left and
    right are the neighbouring rays of n in the minimal desingularization.

    -r is the self-intersection number of the invariant curve attached to the
    ray on the desingularized surface.
    """
    n = f.nu
    weights = []
    for i in range(n):
        ray = f.rays[i]
        left = data[(i - 1) % n].chain[-2]
        right = data[i].chain[1]
        s = (left[0] + right[0], left[1] + right[1])
        if ray[0] != 0:
            r, rem = divmod(s[0], ray[0])
        else:
            r, rem = divmod(s[1], ray[1])
        if rem or (r * ray[0], r * ray[1]) != s:
            raise ConsistencyError(
                f"neighbour sum {s} of ray {ray} is not an integer multiple of it"
            )
        weights.append(r)
    return tuple(weights)


def _canonical_k2(f: CompleteFan, data: tuple[ConeData, ...]) -> Fraction:
    """Self-intersection of the canonical divisor, as an exact rational."""
    total = Fraction(12 - f.nu)
    for cd in data:
        if cd.q == 1:
            continue
        total += (
            Fraction(cd.q - cd.p + 1, cd.q)
            + Fraction(cd.q - cd.socius + 1, cd.q)
            - 2
            + sum(b - 3 for b in cd.hj)
        )
    return total


def _minimal_desingularization(
    f: CompleteFan, data: tuple[ConeData, ...]
) -> tuple[CompleteFan, tuple[tuple[Point, int], ...]]:
    """Refine every non-basic cone along its chain.

    Returns the refined (all basic) fan and the exceptional curves as pairs
    (inserted ray, self-intersection -b).
    """
    rays: list[Point] = []
    exceptional: list[tuple[Point, int]] = []
    for i in range(f.nu):
        rays.append(f.rays[i])
        interior = data[i].chain[1:-1]
        rays.extend(interior)
        exceptional.extend((u, -b) for u, b in zip(interior, data[i].hj))
    return CompleteFan(tuple(rays)), tuple(exceptional)


def star_subdivide(f: CompleteFan, ray: Point) -> CompleteFan:
    """Insert a primitive ray into the unique cone strictly containing it."""
    ray = tuple(ray)
    if ray == (0, 0) or not is_primitive(ray):
        raise DomainError(f"ray {ray} is not primitive")
    n = f.nu
    for i in range(n):
        d1 = cross(f.rays[i], ray)
        d2 = cross(ray, f.rays[(i + 1) % n])
        if d1 == 0 and f.rays[i] == ray:
            raise DomainError(f"ray {ray} already belongs to the fan")
        if d1 > 0 and d2 > 0:
            return CompleteFan(f.rays[: i + 1] + (ray,) + f.rays[i + 1:])
    raise DomainError(f"ray {ray} lies on an existing ray")


def hirzebruch_fan(p: int) -> CompleteFan:
    """The four-ray basic fan whose surface is the Hirzebruch surface of
    parameter p + 1."""
    if p < 1:
        raise DomainError("parameter must be >= 1")
    return CompleteFan(((1, -1), (1, 0), (p, 1), (-1, 0)))


def analyze_fan(f: CompleteFan) -> FanAnalysis:
    """Cone invariants of every cone of f, computed once, and the surface
    data derived from them."""
    data = tuple(cone_invariants(f.cone(i)) for i in range(f.nu))
    resolution, exceptional = _minimal_desingularization(f, data)
    return FanAnalysis(
        fan=f,
        cone_data=data,
        singular_indices=tuple(i for i, cd in enumerate(data) if cd.q > 1),
        basic_indices=tuple(i for i, cd in enumerate(data) if cd.q == 1),
        weights=_ray_weights(f, data),
        picard=picard_number(f),
        k2=_canonical_k2(f, data),
        resolution=resolution,
        exceptional=exceptional,
    )

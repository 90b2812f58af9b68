"""The face fan of a polygon and the surface invariants derived from it.

A face fan has one ray through each vertex of a polygon; cone i is spanned
by rays i and i+1 (indices wrap around).  LatticePolygon checks convexity,
orientation and one winding; fan_from_polygon is the one place the fan is
checked.  It adds primitive vertices and steps with cross(v_i, v_i+1) > 0,
which for a strictly convex anticlockwise polygon hold exactly when the
origin is strictly inside, and hands on the vertex tuple as the rays.
analyze_fan takes those rays as checked, computes the data of each of the
fan's cones once and derives from it the integer weight attached to each
ray, from the two rays the minimal resolution puts next to it.  The
self-intersection of the canonical divisor is derived from the cones'
parameters and excesses on read.  Graphs and the classification read this
FanAnalysis rather than recompute it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cones import ConeData, cone_invariants
from .errors import ConsistencyError, DomainError
from .lattice import LatticePolygon, Point, cross, is_primitive


class FanAnalysis(NamedTuple):
    """Per-cone invariants plus the derived surface data of a complete fan.

    k2 is not stored: each read derives it from rays and cone_data.
    """

    rays: tuple[Point, ...]
    cone_data: tuple[ConeData, ...]
    singular_indices: tuple[int, ...]
    weights: tuple[int, ...]
    picard: int

    @property
    def k2(self) -> Fraction:
        """Self-intersection of the canonical divisor, as an exact rational."""
        total = Fraction(12 - len(self.rays))
        for cd in self.cone_data:
            if cd.q > 1:
                total += (Fraction(cd.q - cd.p + 1, cd.q)
                          + Fraction(cd.q - cd.socius + 1, cd.q)
                          - 2 + cd.excess)
        return total


def fan_from_polygon(q: LatticePolygon) -> tuple[Point, ...]:
    """Rays of a polygon's face fan, its vertices, once checked to be
    primitive with the origin strictly inside; raises DomainError
    otherwise."""
    rays = q.vertices
    for v in rays:
        if not is_primitive(v):
            raise DomainError(f"ray {v} is not primitive")
    for u, v in zip(rays, rays[1:] + rays[:1]):
        if cross(u, v) <= 0:
            raise DomainError(f"origin is not strictly inside: rays {u}, {v} "
                              "do not turn strictly anticlockwise")
    return rays


def _ray_weights(rays: tuple[Point, ...],
                 data: tuple[ConeData, ...]) -> tuple[int, ...]:
    """Integer weight r at each ray, from r * n = left + right where left and
    right are the neighbouring rays of n in the minimal resolution, read
    from the cones ending and starting at n.

    -r is the self-intersection number of the invariant curve attached to the
    ray on the desingularized surface.
    """
    weights = []
    for ray, prev, cd in zip(rays, data[-1:] + data[:-1], data):
        (lx, ly), (rx, ry) = prev.before, cd.after
        s = (lx + rx, ly + ry)
        r = s[0] // ray[0] if ray[0] != 0 else s[1] // ray[1]
        multiple = (r * ray[0], r * ray[1])
        if multiple != s:
            raise ConsistencyError(
                f"neighbour sum {s} of ray {ray} is not an integer multiple of it",
                check="neighbour sum == r·ray", expected=multiple, got=s)
        weights.append(r)
    return tuple(weights)


def analyze_fan(rays: tuple[Point, ...]) -> FanAnalysis:
    """Cone invariants of every cone of the complete fan with these
    anticlockwise rays, as fan_from_polygon hands them on, and the weights,
    Picard rank and singular cones derived from them."""
    data = tuple(cone_invariants(n, n2)
                 for n, n2 in zip(rays, rays[1:] + rays[:1]))
    return FanAnalysis(
        rays=rays,
        cone_data=data,
        singular_indices=tuple(i for i, cd in enumerate(data) if cd.q > 1),
        weights=_ray_weights(rays, data),
        picard=len(rays) - 2,
    )

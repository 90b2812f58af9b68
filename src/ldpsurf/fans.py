"""Complete fans in the plane and surface-level invariants derived from them.

A complete fan is a cyclic anticlockwise list of primitive rays; cone i is
spanned by rays i and i+1 (indices wrap around).  LatticePolygon checks
convexity, orientation and one winding; CompleteFan checks primitive
integer rays and steps with cross(v_i, v_i+1) > 0, which for a convex
polygon's vertices say the origin is strictly inside, so fan_from_polygon
checks nothing.
analyze_fan computes the data of each of the fan's cones once and derives
from it the integer weight attached to each ray.  The self-intersection of
the canonical divisor is derived from the same data on read.  The
refinement chains of the cone data are the minimal desingularization.
Graphs and the classification read this FanAnalysis rather than recompute
it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .cones import Cone2, ConeData, cone_invariants
from .errors import ConsistencyError, DomainError
from .lattice import LatticePolygon, Point, _Frozen, _winding, int_pair


class CompleteFan(_Frozen):
    """Anticlockwise cyclic ray list covering the plane exactly once: it
    checks primitive rays of two ints (not bool), steps with cross > 0 and
    one winding, which make the angles strictly increase, so no ray repeats."""

    __slots__ = ("rays",)
    rays: tuple[Point, ...]

    def __init__(self, rays: tuple[Point, ...]):
        given = tuple(rays)
        rays = tuple(map(int_pair, given))
        object.__setattr__(self, "rays", rays)
        if len(rays) < 3:
            raise DomainError("a complete fan needs at least 3 rays")
        if None in rays:
            bad = given[rays.index(None)]
            raise DomainError(f"ray {bad!r} is not two integers")
        for x, y in rays:  # gcd and cross, inlined: a hot path
            if math.gcd(x, y) != 1:
                raise DomainError(f"ray {(x, y)} is not primitive")
        for (ux, uy), (vx, vy) in zip(rays, rays[1:] + rays[:1]):
            if ux * vy - uy * vx <= 0:
                raise DomainError(
                    f"origin is not strictly inside: rays {(ux, uy)}, "
                    f"{(vx, vy)} do not turn strictly anticlockwise")
        if _winding(rays) != 1:
            raise DomainError("rays wind around the origin more than once")

    @property
    def nu(self) -> int:
        return len(self.rays)


class FanAnalysis(NamedTuple):
    """Per-cone invariants plus the derived surface data of a complete fan.

    k2 is not stored: each read derives it from fan and cone_data.
    """

    fan: CompleteFan
    cone_data: tuple[ConeData, ...]
    singular_indices: tuple[int, ...]
    weights: tuple[int, ...]
    picard: int

    @property
    def k2(self) -> Fraction:
        """Self-intersection of the canonical divisor, as an exact rational."""
        total = Fraction(12 - self.fan.nu)
        for cd in self.cone_data:
            if cd.q > 1:
                total += (Fraction(cd.q - cd.p + 1, cd.q)
                          + Fraction(cd.q - cd.socius + 1, cd.q)
                          - 2 + sum(b - 3 for b in cd.hj))
        return total


def fan_from_polygon(q: LatticePolygon) -> CompleteFan:
    """Face fan of a polygon: rays through its vertices.  CompleteFan checks
    that the vertices are primitive and the origin strictly inside, and
    raises DomainError otherwise."""
    return CompleteFan(q.vertices)


def _ray_weights(f: CompleteFan, data: tuple[ConeData, ...]) -> tuple[int, ...]:
    """Integer weight r at each ray, from r * n = left + right where left and
    right are the neighbouring rays of n in the minimal desingularization.

    -r is the self-intersection number of the invariant curve attached to the
    ray on the desingularized surface.
    """
    weights = []
    for ray, before, after in zip(f.rays, data[-1:] + data[:-1], data):
        (lx, ly), (rx, ry) = before.chain[-2], after.chain[1]
        s = (lx + rx, ly + ry)
        r = s[0] // ray[0] if ray[0] != 0 else s[1] // ray[1]
        multiple = (r * ray[0], r * ray[1])
        if multiple != s:
            raise ConsistencyError(
                f"neighbour sum {s} of ray {ray} is not an integer multiple of it",
                check="neighbour sum == r·ray", expected=multiple, got=s)
        weights.append(r)
    return tuple(weights)


def analyze_fan(f: CompleteFan) -> FanAnalysis:
    """Cone invariants of every cone of f, and the weights, Picard rank and
    singular cones derived from them."""
    rays = f.rays
    data = tuple(cone_invariants(Cone2(n, n2))
                 for n, n2 in zip(rays, rays[1:] + rays[:1]))
    return FanAnalysis(
        fan=f,
        cone_data=data,
        singular_indices=tuple(i for i, cd in enumerate(data) if cd.q > 1),
        weights=_ray_weights(f, data),
        picard=f.nu - 2,
    )

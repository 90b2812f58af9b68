"""Two-dimensional rational cones and their singularity invariants.

A cone is given by a pair of primitive generators with positive determinant
(anticlockwise order), taken as checked: fans.fan_from_polygon checks the
cones of a face fan once.  Every such cone is unimodularly equivalent to the
cone spanned by (1, 0) and (p, q) with 0 <= p < q and gcd(p, q) = 1.  The
pair (p, q), its socius, the excess of the continued fraction of q/(q-p) and
the two resolution rays next to the generators carry everything downstream
code needs about the cyclic quotient singularity, each in O(log q) steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConsistencyError, DomainError
from .lattice import Point, cone_normalizer


class ConeData(NamedTuple):
    """Normal form and singularity invariants of a cone (n, n2).

    The determinant +1 map of lattice.cone_normalizer sends the generators
    to (1, 0) and (p, q).  The minimal resolution refines the cone by rays
    u_1, ..., u_s with self-intersections -b_j, where q/(q-p) = b_1 -
    1/(b_2 - ... - 1/b_s) and every b_j >= 2.  excess is the sum of the
    b_j - 3; after = u_1 is the ray next to n and before = u_s the ray next
    to n2.  A basic cone (q = 1) has p = 0, excess 0, after = n2, before =
    n and an empty singularity descriptor.
    """

    p: int
    q: int
    socius: int
    local_index: int
    excess: int
    after: Point
    before: Point
    singularity: str


def socius(p: int, q: int) -> int:
    """The partner parameter p^ with p * p^ == 1 (mod q), 0 <= p^ < q."""
    if q < 1 or not 0 <= p < q or math.gcd(p, q) != 1:
        raise DomainError(f"({p}, {q}) is not a normalized cone parameter pair")
    if q == 1:
        return 0
    return pow(p, -1, q)


def cone_invariants(n: Point, n2: Point) -> ConeData:
    p, q, _ = cone_normalizer(n, n2)
    if q == 1:
        return ConeData(p=0, q=1, socius=0, local_index=1, excess=0,
                        after=n2, before=n, singularity="")
    # the digits of q/(q-p): a digit c = ceil(a/b) takes (a, b) to
    # (b, c·b - a), and a run of m = b // (a - b) twos keeps a - b fixed
    excess, a, b = 0, q, q - p
    while b:
        d = a - b
        m = b // d
        a, b, excess = b - (m - 1) * d, b - m * d, excess - m
        if b:
            c = -(-a // b)
            a, b, excess = b, c * b - a, excess + c - 3
    ph = socius(p, q)
    return ConeData(p=p, q=q, socius=ph, local_index=q // math.gcd(q, p - 1),
                    excess=excess, after=_neighbour(n, n2, q - p, q),
                    before=_neighbour(n2, n, q - ph, q),
                    singularity=f"1/{q}({q - p},1)")


def _neighbour(u: Point, v: Point, m: int, q: int) -> Point:
    """The ray (m·u + v)/q next to u in the minimal resolution of the cone
    of u and v, of determinant q; raises ConsistencyError unless it is a
    lattice point."""
    x, y = m * u[0] + v[0], m * u[1] + v[1]
    if x % q or y % q:
        raise ConsistencyError(
            f"resolution ray next to {u} towards {v} is not integral",
            check="q | m·u + v", expected=(0, 0), got=(x % q, y % q))
    return x // q, y // q

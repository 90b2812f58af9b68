"""Two-dimensional rational cones and their singularity invariants.

A cone is given by a pair of primitive generators with positive determinant
(anticlockwise order).  Every such cone is unimodularly equivalent to the cone
spanned by (1, 0) and (p, q) with 0 <= p < q and gcd(p, q) = 1; the pair
(p, q) together with its modular-inverse partner, the negative-regular
continued fraction of q/(q-p) and the associated refinement chain of lattice
points carries everything downstream code needs about the corresponding
cyclic quotient singularity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConsistencyError, DomainError
from .lattice import Point, _Frozen, cone_normalizer, cross, is_primitive


class Cone2(_Frozen):
    """Cone spanned by two primitive generators in anticlockwise order."""

    __slots__ = ("n", "n2")
    n: Point
    n2: Point

    def __init__(self, n: Point, n2: Point):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "n2", n2)
        for v in (n, n2):
            if not is_primitive(v):
                raise DomainError(f"generator {v} is not primitive")
        if cross(n, n2) <= 0:
            raise DomainError(
                f"generators {n}, {n2} are not in anticlockwise "
                "order spanning a strongly convex cone"
            )


class ConeData(NamedTuple):
    """Normal form and singularity invariants of a cone.

    The determinant +1 map of lattice.cone_normalizer sends the generators
    to (1, 0) and (p, q).  For a basic cone (q = 1) the parameter p is 0, hj
    and the singularity descriptor are empty, and the chain is just the
    generator pair.  Otherwise chain = (n, u_1, ..., u_s, n2) lists the
    lattice points of the bounded part of the refinement, with hj the
    self-intersection digits b_j >= 2 attached to the interior points.
    """

    p: int
    q: int
    socius: int
    local_index: int
    hj: tuple[int, ...]
    chain: tuple[Point, ...]
    singularity: str


def socius(p: int, q: int) -> int:
    """The partner parameter p^ with p * p^ == 1 (mod q), 0 <= p^ < q."""
    if q < 1 or not 0 <= p < q or math.gcd(p, q) != 1:
        raise DomainError(f"({p}, {q}) is not a normalized cone parameter pair")
    if q == 1:
        return 0
    return pow(p, -1, q)


def hj_expansion(p: int, q: int) -> list[int]:
    """Digits of the negative-regular continued fraction of q/(q-p).

    q/(q-p) = b_1 - 1/(b_2 - 1/(... - 1/b_s)) with every b_j >= 2.
    """
    if q < 2 or not 1 <= p < q or math.gcd(p, q) != 1:
        raise DomainError(f"({p}, {q}) does not describe a non-basic cone")
    digits = []
    a, b = q, q - p
    while b > 0:
        d = -(-a // b)  # ceil(a / b)
        digits.append(d)
        a, b = b, d * b - a
    return digits


def cone_invariants(c: Cone2) -> ConeData:
    p, q, _ = cone_normalizer(c.n, c.n2)
    local_index = q // math.gcd(q, p - 1)
    if q == 1:
        return ConeData(p=0, q=1, socius=0, local_index=1, hj=(),
                        chain=(c.n, c.n2), singularity="")
    hj = tuple(hj_expansion(p, q))
    chain = tuple(_refinement_chain(c, p, q, hj))
    descriptor = f"1/{q}({q - p},1)"
    return ConeData(p=p, q=q, socius=socius(p, q), local_index=local_index,
                    hj=hj, chain=chain, singularity=descriptor)


def _refinement_chain(c: Cone2, p: int, q: int, hj: tuple[int, ...]) -> list[Point]:
    num = ((q - p) * c.n[0] + c.n2[0], (q - p) * c.n[1] + c.n2[1])
    rem = (num[0] % q, num[1] % q)
    if rem != (0, 0):
        raise ConsistencyError(f"refinement point of {c} is not integral",
                               check="q | (q - p)·n + n2", expected=(0, 0),
                               got=rem)
    chain = [c.n, (num[0] // q, num[1] // q)]
    for b_j in hj:
        u, v = chain[-2], chain[-1]
        chain.append((b_j * v[0] - u[0], b_j * v[1] - u[1]))
    if chain[-1] != c.n2:
        raise ConsistencyError(f"refinement chain of {c} misses its endpoint",
                               check="refinement chain ends at n2",
                               expected=c.n2, got=chain[-1])
    return chain

"""Two-dimensional rational cones and their singularity invariants.

A cone is given by a pair of primitive generators with positive determinant
(anticlockwise order), taken as checked: fans.fan_from_polygon checks the
cones of a face fan once.  Every such cone is unimodularly equivalent to the
cone spanned by (1, 0) and (p, q) with 0 <= p < q and gcd(p, q) = 1; the pair
(p, q) together with its modular-inverse partner, the negative-regular
continued fraction of q/(q-p) and the associated refinement chain of lattice
points carries everything downstream code needs about the corresponding
cyclic quotient singularity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConsistencyError, DomainError
from .lattice import Point, cone_normalizer


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


def cone_invariants(n: Point, n2: Point) -> ConeData:
    p, q, _ = cone_normalizer(n, n2)
    local_index = q // math.gcd(q, p - 1)
    if q == 1:
        return ConeData(p=0, q=1, socius=0, local_index=1, hj=(),
                        chain=(n, n2), singularity="")
    hj = tuple(hj_expansion(p, q))
    chain = tuple(_refinement_chain(n, n2, p, q, hj))
    descriptor = f"1/{q}({q - p},1)"
    return ConeData(p=p, q=q, socius=socius(p, q), local_index=local_index,
                    hj=hj, chain=chain, singularity=descriptor)


def _refinement_chain(n: Point, n2: Point, p: int, q: int,
                      hj: tuple[int, ...]) -> list[Point]:
    num = ((q - p) * n[0] + n2[0], (q - p) * n[1] + n2[1])
    rem = (num[0] % q, num[1] % q)
    if rem != (0, 0):
        raise ConsistencyError(
            f"refinement point of cone {n}, {n2} is not integral",
            check="q | (q - p)·n + n2", expected=(0, 0), got=rem)
    chain = [n, (num[0] // q, num[1] // q)]
    for b_j in hj:
        u, v = chain[-2], chain[-1]
        chain.append((b_j * v[0] - u[0], b_j * v[1] - u[1]))
    if chain[-1] != n2:
        raise ConsistencyError(
            f"refinement chain of cone {n}, {n2} misses its endpoint",
            check="refinement chain ends at n2", expected=n2, got=chain[-1])
    return chain

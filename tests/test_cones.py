"""Cone normal forms, continued fractions and refinement chains."""

import math
import random
from fractions import Fraction

import pytest

import helpers
import ldpsurf.cones as cones
from ldpsurf import (ConsistencyError, DomainError, LatticePolygon,
                     UnimodularMap, cone_invariants, count_lattice_points,
                     cross, fan_from_polygon, hj_expansion, socius)
from ldpsurf.lattice import cone_normalizer


def random_cone(rng: random.Random, bound: int = 6) -> tuple:
    """Primitive generators (n, n2) in anticlockwise order."""
    while True:
        n = helpers.random_primitive(rng, bound)
        n2 = helpers.random_primitive(rng, bound)
        if cross(n, n2) > 0:
            return n, n2


def test_cone_validation():
    # a face fan's cones are checked once, where fan_from_polygon builds the
    # fan; each polygon has the named cone (v_i, v_i+1) as it is stored
    outside = "origin is not strictly inside: rays {}, {} do not turn " \
              "strictly anticlockwise"
    for vertices, message in (
            (((2, 0), (0, 1), (-1, -1)), "ray (2, 0) is not primitive"),
            # clockwise generators: the origin lies outside the polygon
            (((0, 1), (1, 0), (1, 1)), outside.format((0, 1), (1, 0))),
            # antiparallel, zero determinant: the origin is on an edge
            (((1, 0), (0, 1), (-1, 0)), outside.format((-1, 0), (1, 0)))):
        with pytest.raises(DomainError) as exc:
            fan_from_polygon(LatticePolygon(vertices))
        assert str(exc.value) == message


def test_socius_known_values():
    assert socius(0, 1) == 0
    assert socius(1, 2) == 1
    assert socius(2, 5) == 3
    assert socius(3, 5) == 2
    assert socius(3, 7) == 5
    with pytest.raises(DomainError):
        socius(2, 4)
    with pytest.raises(DomainError):
        socius(5, 3)
    with pytest.raises(DomainError):
        socius(1, 0)


def test_socius_involution_and_bruteforce():
    rng = random.Random(201)
    for _ in range(500):
        q = rng.randint(2, 400)
        p = rng.choice([x for x in range(1, q) if math.gcd(x, q) == 1])
        ph = socius(p, q)
        assert socius(ph, q) == p
        assert (p * ph) % q == 1
        # independent oracle: exhaustive search for the inverse
        assert ph == next(x for x in range(q) if (p * x) % q == 1)


def test_hj_expansion_known_values():
    assert hj_expansion(1, 2) == [2]
    assert hj_expansion(2, 3) == [3]
    assert hj_expansion(1, 3) == [2, 2]
    assert hj_expansion(2, 5) == [2, 3]
    assert hj_expansion(3, 5) == [3, 2]
    assert hj_expansion(4, 5) == [5]
    for p in range(1, 12):
        assert hj_expansion(p, p + 1) == [p + 1]
    with pytest.raises(DomainError):
        hj_expansion(0, 1)
    with pytest.raises(DomainError):
        hj_expansion(2, 4)


def test_hj_expansion_reconstructs_fraction():
    rng = random.Random(202)
    for _ in range(500):
        q = rng.randint(2, 300)
        p = rng.choice([x for x in range(1, q) if math.gcd(x, q) == 1])
        digits = hj_expansion(p, q)
        assert all(b >= 2 for b in digits)
        value = Fraction(digits[-1])
        for b in reversed(digits[:-1]):
            value = b - 1 / value
        assert value == Fraction(q, q - p)


def test_basicness_tests_agree():
    assert cone_invariants((1, 0), (0, 1)).q == 1
    assert cone_invariants((1, -1), (1, 1)).q != 1
    rng = random.Random(203)
    for _ in range(300):
        cone = random_cone(rng, bound=5)
        # the triangle on the origin and the generators holds no other point
        triangle = LatticePolygon(((0, 0), *cone))
        assert (cone_invariants(*cone).q == 1) == \
            (count_lattice_points(triangle).total == 3)


def test_cone_invariants_normal_form():
    data = cone_invariants((1, 0), (3, 7))
    assert (data.p, data.q) == (3, 7)
    assert data.socius == 5
    assert cone_normalizer((1, 0), (3, 7)) == (3, 7, (1, 0, 0, 1))

    data = cone_invariants((1, -1), (1, 1))
    assert (data.p, data.q) == (1, 2)
    assert data.singularity == "1/2(1,1)"
    assert data.local_index == 1

    basic = cone_invariants((2, 1), (1, 1))
    assert (basic.p, basic.q) == (0, 1)
    assert basic.hj == ()
    assert basic.singularity == ""
    assert basic.local_index == 1
    assert basic.chain == ((2, 1), (1, 1))


def test_cone_invariants_unimodular_invariance():
    rng = random.Random(204)
    for _ in range(300):
        n, n2 = random_cone(rng)
        m = helpers.random_unimodular(rng, det=1)
        a, b = cone_invariants(n, n2), cone_invariants(m.apply(n), m.apply(n2))
        assert (a.p, a.q) == (b.p, b.q)
        assert a.hj == b.hj
        assert a.singularity == b.singularity


def test_normalizer_contract():
    rng = random.Random(205)
    # generators on the axes (b = 0 or a = 0) and with |b| = 1, where the
    # Bezout pair comes from no modular inverse or from one modulo 1
    axis = [
        ((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)),
        ((0, -1), (1, 0)), ((1, 0), (3, 7)), ((-1, 0), (4, -9)),
        ((0, 1), (-5, 2)), ((0, -1), (2, 3)), ((3, 1), (0, 1)),
        ((2, -5), (1, 0)), ((5, 1), (0, 1)), ((4, -1), (1, 0))]
    for n, n2 in axis + [random_cone(rng) for _ in range(300)]:
        data = cone_invariants(n, n2)
        p, q, entries = cone_normalizer(n, n2)
        psi = UnimodularMap(*entries)
        assert (p, q) == (data.p, data.q)
        assert psi.det == 1
        assert psi.apply(n) == (1, 0)
        assert psi.apply(n2) == (data.p, data.q)


def test_orientation_reversal_gives_socius():
    # reflecting a cone and swapping its generators conjugates p into socius(p)
    flip = helpers.random_unimodular(random.Random(0), shears=0, det=-1)
    assert flip.det == -1
    rng = random.Random(206)
    for _ in range(300):
        n, n2 = random_cone(rng)
        a = cone_invariants(n, n2)
        b = cone_invariants(flip.apply(n2), flip.apply(n))
        assert b.q == a.q
        assert b.p == a.socius
        assert b.hj == tuple(reversed(a.hj))


def test_refinement_chain_known_values():
    def chain(n, n2):
        return cone_invariants(n, n2).chain

    assert chain((1, 0), (1, 2)) == ((1, 0), (1, 1), (1, 2))
    assert chain((1, 0), (1, 3)) == ((1, 0), (1, 1), (1, 2), (1, 3))
    assert chain((1, -1), (2, 1)) == ((1, -1), (1, 0), (2, 1))
    # a basic cone needs no refinement: its chain is the generator pair
    assert chain((1, 0), (0, 1)) == ((1, 0), (0, 1))


def test_refinement_chain_failures_name_check_and_values():
    cone = (1, 0), (1, 2)  # p = 1, q = 2, hj = (2,)
    assert cones._refinement_chain(*cone, 1, 2, (2,)) == [(1, 0), (1, 1), (1, 2)]
    with pytest.raises(ConsistencyError) as exc:
        cones._refinement_chain(*cone, 2, 2, (2,))  # wrong p
    err = exc.value
    assert (err.check, err.expected, err.got) == (
        "q | (q - p)·n + n2", (0, 0), (1, 0))
    assert str(err) == "refinement point of cone (1, 0), (1, 2) is not integral"
    with pytest.raises(ConsistencyError) as exc:
        cones._refinement_chain(*cone, 1, 2, (3,))  # wrong expansion
    err = exc.value
    assert (err.check, err.expected, err.got) == (
        "refinement chain ends at n2", (1, 2), (2, 3))
    assert str(err) == \
        "refinement chain of cone (1, 0), (1, 2) misses its endpoint"


def test_refinement_chain_properties():
    rng = random.Random(207)
    checked = 0
    while checked < 300:
        n, n2 = random_cone(rng)
        data = cone_invariants(n, n2)
        if data.q == 1:
            continue
        checked += 1
        chain = data.chain
        assert chain[0] == n and chain[-1] == n2
        assert len(chain) == len(data.hj) + 2
        for i in range(len(chain) - 1):
            assert cross(chain[i], chain[i + 1]) == 1
        for u in chain[1:-1]:
            assert cross(n, u) > 0 and cross(u, n2) > 0
        for j, b in enumerate(data.hj):
            u0, u1, u2 = chain[j], chain[j + 1], chain[j + 2]
            assert (b * u1[0] - u0[0], b * u1[1] - u0[1]) == u2


def test_local_index_of_vertex_adjacent_types():
    for p in range(1, 20):
        data = cone_invariants((1, 0), (p, p + 1))
        expected = (p + 1) // 2 if p % 2 else p + 1
        assert data.local_index == expected

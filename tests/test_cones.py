"""Cone normal forms, the excess and resolution rays of ConeData, and the
continued-fraction and refinement-chain oracles they are checked against."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import ldpsurf.cones as cones
from ldpsurf import (ConsistencyError, DomainError, LatticePolygon,
                     UnimodularMap, cone_invariants, count_lattice_points,
                     cross, fan_from_polygon, socius)
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
    hj_expansion = helpers.hj_expansion
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
        digits = helpers.hj_expansion(p, q)
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
    # q/(q-p) = 2: one ray, (1, 0), of self-intersection -2
    assert (data.excess, data.after, data.before) == (-1, (1, 0), (1, 0))

    basic = cone_invariants((2, 1), (1, 1))
    assert (basic.p, basic.q) == (0, 1)
    assert basic.excess == 0
    assert basic.singularity == ""
    assert basic.local_index == 1
    # a basic cone needs no resolution: each generator is the other's
    # neighbour
    assert (basic.after, basic.before) == ((1, 1), (2, 1))


def test_cone_invariants_unimodular_invariance():
    rng = random.Random(204)
    for _ in range(300):
        n, n2 = random_cone(rng)
        m = helpers.random_unimodular(rng, det=1)
        a, b = cone_invariants(n, n2), cone_invariants(m.apply(n), m.apply(n2))
        assert (a.p, a.q) == (b.p, b.q)
        assert a.excess == b.excess
        assert a.singularity == b.singularity
        # the map sends the resolution of the cone onto its image's
        assert (m.apply(a.after), m.apply(a.before)) == (b.after, b.before)


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
        assert b.excess == a.excess
        # the reflection reverses the resolution: its ends swap
        assert (b.after, b.before) == (flip.apply(a.before),
                                       flip.apply(a.after))
        if a.q > 1:
            assert helpers.hj_expansion(b.p, b.q) == \
                helpers.hj_expansion(a.p, a.q)[::-1]


def test_refinement_chain_known_values():
    for n, n2, chain in (
            ((1, 0), (1, 2), [(1, 0), (1, 1), (1, 2)]),
            ((1, 0), (1, 3), [(1, 0), (1, 1), (1, 2), (1, 3)]),
            ((1, -1), (2, 1), [(1, -1), (1, 0), (2, 1)]),
            # a basic cone needs no refinement: its chain is the generator pair
            ((1, 0), (0, 1), [(1, 0), (0, 1)])):
        assert helpers.refinement_chain(n, n2) == chain
        data = cone_invariants(n, n2)
        assert (data.after, data.before) == (chain[1], chain[-2])


def test_refinement_chain_failures_name_check_and_values():
    # the library computes two refinement points of a cone, the rays next to
    # its generators, each checked to be integral; a wrong multiplier fails
    # that check, for either ray
    assert cones._neighbour((1, 0), (1, 2), 1, 2) == (1, 1)  # after
    assert cones._neighbour((1, 2), (1, 0), 1, 2) == (1, 1)  # before
    assert cones._neighbour((1, 0), (3, 7), 4, 7) == (1, 1)  # q - p = 4
    assert cones._neighbour((3, 7), (1, 0), 2, 7) == (1, 2)  # q - p^ = 2
    for u, v, m, q, got in (((1, 0), (1, 2), 2, 2, (1, 0)),
                            ((1, 2), (1, 0), 2, 2, (1, 0)),
                            ((1, 0), (3, 7), 3, 7, (6, 0)),
                            ((3, 7), (1, 0), 4, 7, (6, 0))):
        with pytest.raises(ConsistencyError) as exc:
            cones._neighbour(u, v, m, q)
        err = exc.value
        assert (err.check, err.expected, err.got) == (
            "q | m·u + v", (0, 0), got)
        assert str(err) == \
            f"resolution ray next to {u} towards {v} is not integral"


def test_refinement_chain_properties():
    rng = random.Random(207)
    checked = 0
    while checked < 300:
        n, n2 = random_cone(rng)
        data = cone_invariants(n, n2)
        if data.q == 1:
            continue
        checked += 1
        chain = helpers.refinement_chain(n, n2)
        digits = helpers.hj_expansion(data.p, data.q)
        assert chain[0] == n and chain[-1] == n2
        assert len(chain) == len(digits) + 2
        for i in range(len(chain) - 1):
            assert cross(chain[i], chain[i + 1]) == 1
        for u in chain[1:-1]:
            assert cross(n, u) > 0 and cross(u, n2) > 0
        for j, b in enumerate(digits):
            u0, u1, u2 = chain[j], chain[j + 1], chain[j + 2]
            assert (b * u1[0] - u0[0], b * u1[1] - u0[1]) == u2
        assert (data.after, data.before) == (chain[1], chain[-2])


def _matches_oracle(n, n2) -> bool:
    """ConeData's excess and resolution rays equal the oracle's digit sum
    and the inner ends of its chain."""
    data = cone_invariants(n, n2)
    chain = helpers.refinement_chain(n, n2)
    excess = (sum(b - 3 for b in helpers.hj_expansion(data.p, data.q))
              if data.q > 1 else 0)
    return (data.excess, data.after, data.before) == (excess, chain[1],
                                                      chain[-2])


def test_closed_forms_match_oracle_on_every_small_cone():
    # every coprime 1 <= p < q < 400, the cone (1, 0), (p, q) moved by a
    # fixed det 1 map so that the normalizer has work to do
    m = UnimodularMap(2, 1, 1, 1)
    start = time.perf_counter()
    bad = [(p, q) for q in range(2, 400) for p in range(1, q)
           if math.gcd(p, q) == 1
           and not _matches_oracle(m.apply((1, 0)), m.apply((p, q)))]
    assert time.perf_counter() - start < 2
    assert bad == []


@st.composite
def cones_in_normal_form_moved(draw):
    """A cone (1, 0), (p, q) with q <= 5000, basic or not, moved by a det 1
    map of up to six shears."""
    q = draw(st.integers(1, 5000))
    p = draw(st.integers(0, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    m = helpers.random_unimodular(draw(st.randoms(use_true_random=False)),
                                  shears=draw(st.integers(0, 6)), det=1)
    return m.apply((1, 0)), m.apply((p, q))


@settings(max_examples=200, deadline=None)
@given(cones_in_normal_form_moved())
def test_closed_forms_match_oracle_on_random_cones(cone):
    assert _matches_oracle(*cone)


def test_excess_of_a_long_run_of_twos_is_immediate():
    # q/(q-1) = [2, ..., 2] (q - 1 twos) and q/1 = [q]: the loop takes the
    # run in one division, where the oracle would take q - 1 steps
    q = 10 ** 18 + 9
    assert cone_invariants((1, 0), (1, q)).excess == -(q - 1)
    assert cone_invariants((1, 0), (q - 1, q)).excess == q - 3


def test_local_index_of_vertex_adjacent_types():
    for p in range(1, 20):
        data = cone_invariants((1, 0), (p, p + 1))
        expected = (p + 1) // 2 if p % 2 else p + 1
        assert data.local_index == expected

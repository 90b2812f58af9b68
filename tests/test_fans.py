"""Complete fans, their cone data, ray weights, canonical
self-intersection, resolutions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from ldpsurf import (DomainError, FanAnalysis, LatticePolygon, analyze_fan,
                     apply_map, canonical_polygon, cone_invariants, cross,
                     fan_from_polygon, surfaces_isomorphic)

# Fans that are not face fans are anticlockwise tuples of primitive rays,
# passed to analyze_fan as they are.
P2_FAN = ((1, 0), (0, 1), (-1, -1))


def hirzebruch_fan(p: int) -> tuple:
    """The four-ray basic fan whose surface is the Hirzebruch surface of
    parameter p + 1."""
    return (1, -1), (1, 0), (p, 1), (-1, 0)


def resolution(analysis: FanAnalysis) -> tuple:
    """The minimal desingularization: every non-basic cone refined along
    its oracle chain, so all cones are basic."""
    rays = analysis.rays
    return tuple(ray for r, r2 in zip(rays, rays[1:] + rays[:1])
                 for ray in helpers.refinement_chain(r, r2)[:-1])


def exceptional(analysis: FanAnalysis) -> tuple:
    """Curves the resolution inserts, as (ray, self-intersection -b)."""
    rays = analysis.rays
    return tuple((u, -b) for r, r2, cd in zip(rays, rays[1:] + rays[:1],
                                              analysis.cone_data)
                 if cd.q > 1
                 for u, b in zip(helpers.refinement_chain(r, r2)[1:-1],
                                 helpers.hj_expansion(cd.p, cd.q)))


def star_subdivide(fan: tuple, ray) -> tuple:
    """Insert a ray into the cone strictly containing it: an oracle for
    resolution."""
    n = len(fan)
    i = next(i for i in range(n) if cross(fan[i], ray) > 0
             and cross(ray, fan[(i + 1) % n]) > 0)
    return fan[: i + 1] + (ray,) + fan[i + 1:]


def test_fan_validation():
    # the fan is checked once, where fan_from_polygon builds it from a
    # polygon; each message names the fault as it is stored
    outside = "origin is not strictly inside: rays {}, {} do not turn " \
              "strictly anticlockwise"
    for vertices, message in (
            (((2, 0), (0, 1), (-1, -1)), "ray (2, 0) is not primitive"),
            (((0, 0), (1, 0), (0, 1)), "ray (0, 0) is not primitive"),
            # a clockwise step: the origin lies outside
            (((1, 0), (2, 1), (1, 1)), outside.format((1, 1), (1, 0))),
            # a step of half a turn: the origin is on an edge
            (((1, 0), (-1, 0), (0, -1)), outside.format((1, 0), (-1, 0)))):
        with pytest.raises(DomainError) as exc:
            fan_from_polygon(LatticePolygon(vertices))
        assert str(exc.value) == message


def is_ldp_vertex_list(vs) -> bool:
    """Distinct integer points in strictly convex position, listed once
    around in either direction, primitive, with the origin strictly inside:
    a test-only oracle for LatticePolygon followed by fan_from_polygon."""
    return helpers.is_convex_vertex_cycle(vs) and helpers.is_ldp(
        LatticePolygon(tuple(helpers.convex_hull(vs))))


@settings(max_examples=500, deadline=None)
@given(helpers.point_lists())
@example(((0, 0), (1, 0)))
@example(((0, 0), (1, 0), (0, 0)))
@example(((0, 0), (1, 1), (2, 2)))
@example(((0, 0), (1, 0), (2, 0), (0, 1)))
@example(((0, 0), (4, 0), (1, 1), (0, 4)))
@example(((0, 0), (1, 0), (0, 1.5)))
@example(((5, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)))
@example(((0, 0), (1, 0), (0, 1)))
@example(((2, 0), (0, 2), (-1, -1)))
@example(((1, 0), (2, 1), (1, 1)))
@example(((1, 1), (-1, 1), (1, -1)))
@example(((1, 1), (-1, 1), (-1, -1), (1, -1)))
@example(((1, -1), (True, 1), (-1, 0)))
@example(((1, 0), (-1, 0), (0, -1)))  # a step of half a turn
@example(((1, 0), (-1, 1), (0, -1), (1, 0), (-1, 1), (0, -1)))  # twice round
@example(((-1, 0), (0, -1), (1, 0), (0, 1)))
def test_face_fan_accepts_exactly_ldp_vertex_lists(vs):
    try:
        rays = fan_from_polygon(LatticePolygon(vs))
    except DomainError:
        assert not is_ldp_vertex_list(vs)
    else:
        assert is_ldp_vertex_list(vs)
        assert set(rays) == set(vs)


def test_fan_cones_wrap():
    assert len(analyze_fan(P2_FAN).cone_data) == 3


def test_fan_from_polygon():
    poly = canonical_polygon(1, 2)
    assert fan_from_polygon(poly) == poly.vertices
    with pytest.raises(DomainError):
        fan_from_polygon(LatticePolygon(((0, 0), (1, 0), (0, 1))))
    with pytest.raises(DomainError):
        fan_from_polygon(LatticePolygon(((2, 0), (0, 2), (-1, -1))))


def test_picard_number():
    assert analyze_fan(P2_FAN).picard == 1
    assert analyze_fan(hirzebruch_fan(3)).picard == 2
    for k, expected in ((1, 1), (2, 2), (3, 3)):
        fan = fan_from_polygon(canonical_polygon(k, 5))
        assert analyze_fan(fan).picard == expected


def test_ray_weights_hirzebruch():
    for p in range(1, 9):
        assert analyze_fan(hirzebruch_fan(p)).weights == (0, p + 1, 0, -(p + 1))


def test_ray_weights_families():
    for p in range(1, 9):
        expected = {
            1: (0, 0, -(p + 1)),
            2: (0, 1, 1, -p),
            3: (1, 1, 1, -(p - 1), 1),
        }
        for k in (1, 2, 3):
            weights = helpers.analysis_of(canonical_polygon(k, p)).weights
            assert helpers.cyclic_equal(weights, expected[k]), (k, p)


def test_ray_weights_p2():
    # every invariant line in the plane has self-intersection -r = +1
    assert analyze_fan(P2_FAN).weights == (-1, -1, -1)


def test_canonical_k2_known_values():
    assert analyze_fan(P2_FAN).k2 == 9
    for p in range(1, 6):
        assert analyze_fan(hirzebruch_fan(p)).k2 == 8
    assert helpers.analysis_of(canonical_polygon(1, 1)).k2 == 8
    assert helpers.analysis_of(canonical_polygon(2, 1)).k2 == 7
    assert helpers.analysis_of(canonical_polygon(3, 1)).k2 == 6
    assert helpers.analysis_of(canonical_polygon(1, 2)).k2 == Fraction(25, 3)


def test_k2_unimodular_invariance():
    rng = random.Random(301)
    for _ in range(100):
        poly = helpers.random_ldp_polygon(rng)
        m = helpers.random_unimodular(rng)
        a = helpers.analysis_of(poly).k2
        b = helpers.analysis_of(apply_map(m, poly)).k2
        assert a == b


def test_minimal_desingularization_family():
    for p in range(1, 7):
        analysis = helpers.analysis_of(canonical_polygon(1, p))
        assert exceptional(analysis) == (((1, 0), -(p + 1)),)
        assert len(resolution(analysis)) == 4
        assert surfaces_isomorphic(analyze_fan(resolution(analysis)),
                                   analyze_fan(hirzebruch_fan(p)))


def test_minimal_desingularization_basic_fan_is_identity():
    fan = hirzebruch_fan(4)
    analysis = analyze_fan(fan)
    assert resolution(analysis) == fan
    assert exceptional(analysis) == ()


def test_minimal_desingularization_properties():
    rng = random.Random(302)
    for _ in range(60):
        poly = helpers.random_ldp_polygon(rng)
        fan = fan_from_polygon(poly)
        analysis = analyze_fan(fan)
        refined, inserted = resolution(analysis), exceptional(analysis)
        n = len(refined)
        for i in range(n):
            assert cross(refined[i], refined[(i + 1) % n]) == 1
        assert set(fan) <= set(refined)
        assert len(inserted) == len(refined) - len(fan)
        for ray, weight in inserted:
            assert weight <= -2
        # weights of the refined fan restricted to exceptional rays match
        refined_weights = analyze_fan(refined).weights
        for ray, weight in inserted:
            assert -refined_weights[refined.index(ray)] == weight


def test_star_subdivide():
    fan = fan_from_polygon(canonical_polygon(1, 3))
    assert star_subdivide(fan, (1, 0)) == resolution(analyze_fan(fan))
    rng = random.Random(304)
    for _ in range(30):
        analysis = helpers.analysis_of(helpers.random_ldp_polygon(rng))
        fan = analysis.rays
        for ray, _ in exceptional(analysis):
            fan = star_subdivide(fan, ray)
        assert fan == resolution(analysis)


def test_analyze_fan_consistency():
    rng = random.Random(303)
    for _ in range(40):
        poly = helpers.random_ldp_polygon(rng)
        fan = fan_from_polygon(poly)
        analysis = analyze_fan(fan)
        assert analysis.rays == fan == poly.vertices
        assert len(analysis.cone_data) == len(fan)
        assert analysis.singular_indices == tuple(
            i for i in range(len(fan)) if analysis.cone_data[i].q > 1)
        assert len(analysis.weights) == len(fan)
        assert analysis.picard == len(fan) - 2
        # K^2 of a toric log del Pezzo surface is the normalized area of the
        # polar polygon, which is built from the facet lines, not the cones
        assert analysis.k2 == helpers.polar_oracle(poly)[1]


@st.composite
def anticlockwise_pairs(draw):
    """Primitive (n, n2) in anticlockwise order, coordinates in [-12, 12]."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        n, n2 = (helpers.random_primitive(rng, 12) for _ in range(2))
        if cross(n, n2) > 0:
            return n, n2


@settings(max_examples=200, deadline=None)
@given(anticlockwise_pairs())
def test_analysis_cone_data_equals_fresh_invariants(pair):
    # the fan (n, n2, m), with m the primitive ray along -(n + n2), has the
    # cone (n, n2)
    n, n2 = pair
    x, y = -n[0] - n2[0], -n[1] - n2[1]
    g = math.gcd(x, y)
    fan = (n, n2, (x // g, y // g))
    first, second = analyze_fan(fan), analyze_fan(fan)
    assert first.cone_data[0] == cone_invariants(n, n2)
    assert first == second

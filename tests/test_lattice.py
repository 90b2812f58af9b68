"""Plane lattice primitives: exact arithmetic, canonical polygons, counting."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from ldpsurf import (DomainError, LatticePolygon, ParseError, RationalPolygon,
                     UnimodularMap, apply_map, contains_origin_interior,
                     count_lattice_points, cross, dilate, extended_gcd,
                     format_polygon_text, is_primitive, lattice_points,
                     load_polygon, minkowski_double, parse_polygon_text,
                     polygon_area2, polygon_from_array, polygon_to_array,
                     read_polygon_file, to_lattice)

TRIANGLE = LatticePolygon(((0, 0), (3, 0), (0, 3)))
SQUARE = LatticePolygon(((1, 1), (-1, 1), (-1, -1), (1, -1)))


def test_cross_and_primitive():
    assert cross((1, 0), (0, 1)) == 1
    assert cross((2, 3), (4, 6)) == 0
    assert cross((0, 1), (1, 0)) == -1
    assert is_primitive((3, 5))
    assert is_primitive((0, 1))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 2))


def test_extended_gcd_certificate():
    g, kappa, lam = extended_gcd(12, 18)
    assert g == 6 and kappa * 12 - lam * 18 == 6
    g, kappa, lam = extended_gcd(0, 5)
    assert g == 5 and kappa * 0 - lam * 5 == 5
    with pytest.raises(DomainError):
        extended_gcd(0, 0)
    rng = random.Random(101)
    for _ in range(500):
        a = rng.randint(-200, 200)
        b = rng.randint(-200, 200)
        if a == 0 and b == 0:
            continue
        g, kappa, lam = extended_gcd(a, b)
        assert g == math.gcd(a, b)
        assert kappa * a - lam * b == g


def test_unimodular_map_validation():
    with pytest.raises(DomainError):
        UnimodularMap(2, 0, 0, 1)
    with pytest.raises(DomainError):
        UnimodularMap(1, 1, 1, 1)
    assert UnimodularMap(0, 1, 1, 0).det == -1
    assert UnimodularMap.identity().matrix() == [[1, 0], [0, 1]]


def test_unimodular_map_algebra():
    rng = random.Random(102)
    ident = UnimodularMap.identity()
    for _ in range(200):
        m = helpers.random_unimodular(rng)
        n = helpers.random_unimodular(rng)
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert m.compose(m.inverse()) == ident
        assert m.inverse().compose(m) == ident
        assert m.compose(n).apply(v) == m.apply(n.apply(v))
        assert m.compose(n).det == m.det * n.det


def test_polygon_canonical_storage():
    assert TRIANGLE.vertices == ((0, 0), (3, 0), (0, 3))
    assert LatticePolygon(((3, 0), (0, 3), (0, 0))) == TRIANGLE
    assert LatticePolygon(((0, 3), (3, 0), (0, 0))) == TRIANGLE  # clockwise input
    assert SQUARE.vertices[0] == (-1, -1)
    assert len(SQUARE) == 4


def test_polygon_rejects_bad_input():
    with pytest.raises(DomainError):
        LatticePolygon(((0, 0), (1, 0)))
    with pytest.raises(DomainError):
        LatticePolygon(((0, 0), (1, 0), (0, 0)))
    with pytest.raises(DomainError):
        LatticePolygon(((0, 0), (1, 1), (2, 2)))
    with pytest.raises(DomainError):
        LatticePolygon(((0, 0), (1, 0), (2, 0), (0, 1)))  # collinear vertex
    with pytest.raises(DomainError):
        LatticePolygon(((0, 0), (4, 0), (1, 1), (0, 4)))  # reflex vertex
    with pytest.raises(DomainError):
        LatticePolygon(((0, 0), (1, 0), (0, 1.5)))
    # pentagram: strictly convex turns everywhere but winds around twice
    with pytest.raises(DomainError):
        LatticePolygon(((5, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)))


def test_rational_polygon():
    half = Fraction(1, 2)
    p = RationalPolygon(((half, half), (-half, half), (0, -half)))
    assert polygon_area2(p) == Fraction(1)
    with pytest.raises(DomainError):
        to_lattice(p)
    assert to_lattice(RationalPolygon(((1, 0), (0, 1), (-1, -1)))) == \
        LatticePolygon(((1, 0), (0, 1), (-1, -1)))


def test_area_and_map_invariance():
    assert polygon_area2(TRIANGLE) == 9
    assert polygon_area2(SQUARE) == 8
    rng = random.Random(103)
    for _ in range(200):
        poly = helpers.random_lattice_polygon(rng)
        m = helpers.random_unimodular(rng)
        image = apply_map(m, poly)
        assert polygon_area2(image) == polygon_area2(poly)
        assert isinstance(image, LatticePolygon)


def test_dilate():
    assert polygon_area2(dilate(TRIANGLE, 2)) == 36
    assert isinstance(dilate(TRIANGLE, 2), LatticePolygon)
    r = dilate(TRIANGLE, Fraction(1, 3))
    assert isinstance(r, RationalPolygon)
    assert polygon_area2(r) == 1
    with pytest.raises(DomainError):
        dilate(TRIANGLE, 0)
    with pytest.raises(DomainError):
        dilate(TRIANGLE, Fraction(-1, 2))


def test_contains_origin_interior():
    assert contains_origin_interior(SQUARE)
    assert not contains_origin_interior(TRIANGLE)  # origin is a vertex
    assert not contains_origin_interior(
        LatticePolygon(((1, 1), (-1, 1), (1, -1))))  # origin on an edge


def test_lattice_points_small_cases():
    boundary, interior = lattice_points(SQUARE)
    assert boundary == {(1, 1), (1, 0), (1, -1), (0, 1), (0, -1),
                        (-1, 1), (-1, 0), (-1, -1)}
    assert interior == {(0, 0)}
    counts = count_lattice_points(SQUARE)
    assert (counts.total, counts.boundary, counts.interior) == (9, 8, 1)


def test_counts_match_sets_and_pick():
    rng = random.Random(104)
    for _ in range(200):
        poly = helpers.random_lattice_polygon(rng)
        boundary, interior = lattice_points(poly)
        counts = count_lattice_points(poly)
        assert counts.boundary == len(boundary)
        assert counts.interior == len(interior)
        assert counts.total == len(boundary) + len(interior)
        # Pick: area2 = 2*interior + boundary - 2
        assert polygon_area2(poly) == 2 * counts.interior + counts.boundary - 2


def test_boundary_points_lie_on_edges():
    rng = random.Random(105)
    for _ in range(50):
        poly = helpers.random_lattice_polygon(rng)
        boundary, interior = lattice_points(poly)
        n = len(poly.vertices)
        on_edge = set()
        for i in range(n):
            v, w = poly.vertices[i], poly.vertices[(i + 1) % n]
            g = math.gcd(w[0] - v[0], w[1] - v[1])
            step = ((w[0] - v[0]) // g, (w[1] - v[1]) // g)
            on_edge.update((v[0] + t * step[0], v[1] + t * step[1])
                           for t in range(g))
        assert boundary == on_edge
        assert not (interior & on_edge)


def test_rational_polygon_counting():
    small = dilate(SQUARE, Fraction(1, 2))
    counts = count_lattice_points(small)
    assert (counts.total, counts.boundary, counts.interior) == (1, 0, 1)


@st.composite
def polygons(draw):
    """Lattice polygons, rational polygons with denominators 2-7, and rational
    polygons with vertical edges at both integral ends of their x-range."""
    kind = draw(st.sampled_from(("lattice", "rational", "vertical")))
    if kind == "lattice":
        coord = st.integers(-6, 6)
    else:
        den = draw(st.integers(2, 7))
        coord = st.builds(Fraction, st.integers(-6 * den, 6 * den), st.just(den))
    points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8))
    if kind == "vertical":
        left = draw(st.integers(-6, 5))
        right = draw(st.integers(left + 1, 6))
        points = [(min(max(x, left), right), y) for x, y in points]
        points += [(x, draw(coord)) for x in (left, left, right, right)]
    hull = helpers.convex_hull(points)
    assume(len(hull) >= 3)
    return (LatticePolygon if kind == "lattice" else RationalPolygon)(tuple(hull))


@settings(max_examples=200, deadline=None)
@given(polygons())
# thin slivers with vertical edges at integral x and columns holding no point
@example(RationalPolygon(((0, Fraction(1, 3)), (3, Fraction(1, 3)),
                          (3, Fraction(2, 3)))))
@example(RationalPolygon(((0, 0), (Fraction(7, 2), Fraction(1, 2)),
                          (0, Fraction(1, 2)))))
def test_sweep_matches_brute_force(poly):
    boundary, interior = helpers.brute_force_points(poly.vertices)
    assert lattice_points(poly) == (boundary, interior)
    assert count_lattice_points(poly) == (len(boundary) + len(interior),
                                          len(boundary), len(interior))


def test_minkowski_double_is_ehrhart_value():
    rng = random.Random(106)
    for _ in range(200):
        poly = helpers.random_lattice_polygon(rng)
        counts = count_lattice_points(poly)
        doubled = minkowski_double(poly)
        assert doubled == count_lattice_points(dilate(poly, 2)).total
        assert doubled == 2 * polygon_area2(poly) + counts.boundary + 1


def test_parse_polygon_text():
    text = "# a comment\n1 -1\n1 1\n\n-1 0  # trailing note\n"
    poly = parse_polygon_text(text)
    assert poly == LatticePolygon(((1, -1), (1, 1), (-1, 0)))
    with pytest.raises(ParseError, match="line 2"):
        parse_polygon_text("1 1\n2 2 2\n3 3\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_polygon_text("0 0\n1 0\nx y\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_polygon_text("0 0\n1 0\n0 0\n")
    with pytest.raises(ParseError, match="fewer than 3"):
        parse_polygon_text("0 0\n1 0\n")


def test_polygon_from_array():
    poly = polygon_from_array([[1, -1], [1, 1], [-1, 0]])
    assert poly == LatticePolygon(((1, -1), (1, 1), (-1, 0)))
    with pytest.raises(ParseError):
        polygon_from_array([[1, -1], [1, 1], [True, 0]])
    with pytest.raises(ParseError):
        polygon_from_array([[1, -1], [1, 1], [0.5, 0]])
    with pytest.raises(ParseError):
        polygon_from_array([[1, -1], [1]])
    with pytest.raises(ParseError):
        polygon_from_array([[1, -1], [1, 1], [1, -1]])


def test_load_polygon_both_formats():
    assert load_polygon("[[1,-1],[1,1],[-1,0]]") == \
        load_polygon("1 -1\n1 1\n-1 0\n")
    with pytest.raises(ParseError):
        load_polygon("[[1,-1],[1,1],")
    with pytest.raises(ParseError):
        load_polygon("")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(),
                 st.text("[]0123456789-,. e\n").map(lambda t: "[" + t),
                 st.text("0123456789- #\n")))
@example(helpers.DEEP_NESTING)
@example(helpers.LONG_INTEGER)
@example("1" * 5001 + " 1\n0 1\n-1 -1\n")
def test_load_polygon_rejects_only_with_library_errors(text):
    try:
        load_polygon(text)
    except (ParseError, DomainError):
        pass


def test_serialization_roundtrip(tmp_path):
    assert parse_polygon_text(format_polygon_text(SQUARE)) == SQUARE
    assert polygon_from_array(polygon_to_array(TRIANGLE)) == TRIANGLE
    path = tmp_path / "poly.txt"
    path.write_text(format_polygon_text(SQUARE), encoding="utf-8")
    assert read_polygon_file(path) == SQUARE


def test_lattice_points_map_equivariance():
    rng = random.Random(107)
    for _ in range(100):
        poly = helpers.random_lattice_polygon(rng, bound=4)
        m = helpers.random_unimodular(rng)
        boundary, interior = lattice_points(poly)
        image_b, image_i = lattice_points(apply_map(m, poly))
        assert image_b == {m.apply(pt) for pt in boundary}
        assert image_i == {m.apply(pt) for pt in interior}

"""Plane lattice primitives: exact arithmetic, canonical polygons, counting."""

import contextlib
import copy
import enum
import json
import math
import pickle
import random
import re
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import contains_origin_interior
from ldpsurf import (DomainError, LatticePolygon, ParseError, UnimodularMap,
                     apply_map, canonical_polygon, count_lattice_points, cross,
                     dilate, embedding_data, format_ideal, format_polygon_text,
                     is_primitive, lattice, lattice_points, ldp_analyze,
                     load_polygon, minimal_system, minkowski_double,
                     parse_polygon_text, polygon_area2, polygon_from_array,
                     polygon_to_array, read_polygon_file, sum_fibers)
from ldpsurf.lattice import edge_lines

TRIANGLE = LatticePolygon(((0, 0), (3, 0), (0, 3)))
SQUARE = LatticePolygon(((1, 1), (-1, 1), (-1, -1), (1, -1)))


def adjugate(m: UnimodularMap) -> UnimodularMap:
    """The inverse of a determinant +-1 map: det · adj(m)."""
    s = m.det
    return UnimodularMap(s * m.d, -s * m.b, -s * m.c, s * m.a)


def test_cross_and_primitive():
    assert cross((1, 0), (0, 1)) == 1
    assert cross((2, 3), (4, 6)) == 0
    assert cross((0, 1), (1, 0)) == -1
    assert is_primitive((3, 5))
    assert is_primitive((0, 1))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 2))


def test_unimodular_map_validation():
    with pytest.raises(DomainError):
        UnimodularMap(2, 0, 0, 1)
    with pytest.raises(DomainError):
        UnimodularMap(1, 1, 1, 1)
    assert UnimodularMap(0, 1, 1, 0).det == -1
    assert UnimodularMap(1, 0, 0, 1).matrix() == [[1, 0], [0, 1]]
    for entries in ((1.5, 0, 0, 1 / 1.5), (True, 0, 0, True)):
        with pytest.raises(DomainError, match="non-integer entry"):
            UnimodularMap(*entries)  # det 1.0 and True pass the det test


def test_unimodular_map_algebra():
    rng = random.Random(102)
    ident = UnimodularMap(1, 0, 0, 1)
    for _ in range(200):
        m = helpers.random_unimodular(rng)
        n = helpers.random_unimodular(rng)
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert helpers.compose(m, adjugate(m)) == ident
        assert helpers.compose(adjugate(m), m) == ident
        assert helpers.compose(m, n).apply(v) == m.apply(n.apply(v))
        assert helpers.compose(m, n).det == m.det * n.det


def test_polygon_canonical_storage():
    assert TRIANGLE.vertices == ((0, 0), (3, 0), (0, 3))
    assert LatticePolygon(((3, 0), (0, 3), (0, 0))) == TRIANGLE
    assert LatticePolygon(((0, 3), (3, 0), (0, 0))) == TRIANGLE  # clockwise input
    assert SQUARE.vertices[0] == (-1, -1)
    assert len(SQUARE.vertices) == 4


def _validating_values(vertices) -> list:
    """The two validating types, the polygon built from these vertices."""
    return [LatticePolygon(vertices), UnimodularMap(1, 1, 0, 1)]


def test_validating_types_are_immutable_values():
    # the same polygon in another rotation and in the other orientation
    given = ((1, -1), (3, 1), (2, 1), (-1, 0), (0, -1))
    others = (given[2:] + given[:2], given[::-1])
    values = _validating_values(given)
    assert [type(v) for v in values] == [LatticePolygon, UnimodularMap]
    for vertices in others:
        same = _validating_values(vertices)
        assert same == values
        assert list(map(hash, same)) == list(map(hash, values))
        assert {v: i for i, v in enumerate(values)} == \
            {v: i for i, v in enumerate(same)}
    for v in values:
        assert v != tuple(getattr(v, f) for f in v.__slots__)
        assert copy.copy(v) == v == pickle.loads(pickle.dumps(v))
        assert repr(v).startswith(f"{type(v).__name__}({v.__slots__[0]}=")
        for field in v.__slots__:
            with pytest.raises(AttributeError):
                setattr(v, field, getattr(v, field))
            with pytest.raises(AttributeError):
                delattr(v, field)
        with pytest.raises(AttributeError):
            v.not_a_field = 0
    assert UnimodularMap(1, 1, 0, 1) != UnimodularMap(1, 0, 0, 1)
    # unpickling rebuilds through the checks: a payload edited into a
    # degenerate triangle is refused, not loaded
    payload = pickle.dumps(LatticePolygon(((0, 0), (5, 0), (0, 5))), 4)
    with pytest.raises(DomainError, match="zero area"):
        pickle.loads(payload.replace(b"K\x05", b"K\x00"))


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
    with pytest.raises(DomainError, match=r"non-integer vertex \(True, 1\)"):
        LatticePolygon(((1, -1), (True, 1), (-1, 0)))
    # a vertex that is not a pair at all
    for bad in ((1, 2, 3), 1, None):
        with pytest.raises(DomainError, match=re.escape(f"non-integer vertex {bad!r}")):
            LatticePolygon((bad, (0, 1), (-1, -1)))
    # pentagram: strictly convex turns everywhere but winds around twice
    with pytest.raises(DomainError):
        LatticePolygon(((5, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)))


def reference_int_pair(v):
    """A tuple of v's two items if v iterates over exactly two ints, else
    None; bool counts as no int: a test-only oracle for lattice.int_pair."""
    try:
        items = tuple(v)
    except TypeError:  # not iterable
        return None
    if len(items) == 2 and all(isinstance(c, int) and type(c) is not bool
                               for c in items):
        return items
    return None


class Sign(enum.IntEnum):
    MINUS = -1
    PLUS = 1


_COORDINATES = st.one_of(st.integers(), st.booleans(), st.sampled_from(Sign),
                         st.floats(), st.text(max_size=2))


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(), st.integers()),
    st.lists(st.integers(), min_size=2, max_size=2),
    st.tuples(_COORDINATES, _COORDINATES),
    st.lists(_COORDINATES, min_size=2, max_size=2),
    st.tuples(_COORDINATES),
    st.tuples(_COORDINATES, _COORDINATES, _COORDINATES),
    _COORDINATES))
@example((3, -4))
@example([3, -4])
@example((True, 1))
@example((1, False))
@example((Sign.PLUS, 1))
@example((1, Sign.MINUS))
@example((1.0, 2))
@example(("1", 2))
@example("12")
@example((1,))
@example((1, 2, 3))
@example(True)
@example(Sign.PLUS)
def test_int_pair_matches_reference(v):
    got = lattice.int_pair(v)
    assert got == reference_int_pair(v)
    assert got is None or type(got) is tuple
    if got is None:  # the polygon names the bad entry as given
        with pytest.raises(DomainError) as exc:
            LatticePolygon((v, (0, 1), (-1, -1)))
        assert str(exc.value) == f"non-integer vertex {v!r}"


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3),
       st.one_of(st.sampled_from([float, Fraction, bool, str]),
                 st.floats(), st.fractions(), st.booleans(),
                 st.sampled_from(Sign), st.none()))
def test_unimodular_map_takes_exact_ints_only(rng, slot, bad):
    # one entry of a valid map made inexact: the same value as a float, a
    # Fraction or a bool keeps det = +-1, so only the type test stands
    # between it and the map
    m = helpers.random_unimodular(rng)
    entries = [m.a, m.b, m.c, m.d]
    assert UnimodularMap(*entries) == m
    entries[slot] = bad(entries[slot]) if isinstance(bad, type) else bad
    with pytest.raises(DomainError, match="non-integer entry"):
        UnimodularMap(*entries)


@settings(max_examples=500, deadline=None)
@given(helpers.point_lists())
@example(((5, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)))  # pentagram
# winds twice; its edges (-6, 0) and (3, 0) run along both x directions
@example(((2, 0), (-4, 0), (0, -2), (3, -2), (-2, 3), (0, -3)))
@example(((1, -1), (True, 1), (-1, 0)))
def test_polygon_accepts_exactly_convex_vertex_cycles(vs):
    try:
        q = LatticePolygon(vs)
    except DomainError:
        assert not helpers.is_convex_vertex_cycle(vs)
    else:
        assert helpers.is_convex_vertex_cycle(vs)
        assert q.vertices == tuple(helpers.convex_hull(vs))


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
    with pytest.raises(DomainError):
        dilate(TRIANGLE, 0)
    with pytest.raises(DomainError):
        dilate(TRIANGLE, -2)
    for factor in (Fraction(1, 3), Fraction(3), 0.5, 2.0):
        with pytest.raises(DomainError, match="positive integer"):
            dilate(TRIANGLE, factor)


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


@st.composite
def polygons(draw):
    """Lattice polygons, half of them with vertical edges at both ends of
    their x-range."""
    coord = st.integers(-6, 6)
    points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8))
    if draw(st.booleans()):
        left = draw(st.integers(-6, 5))
        right = draw(st.integers(left + 1, 6))
        points = [(min(max(x, left), right), y) for x, y in points]
        points += [(x, draw(coord)) for x in (left, left, right, right)]
    hull = helpers.convex_hull(points)
    assume(len(hull) >= 3)
    return LatticePolygon(tuple(hull))


@st.composite
def sheared_polygons(draw):
    """`polygons()` under a product of four random shears, whose entries
    reach about a hundred, so the narrowest frame is seldom the x-axis."""
    m = helpers.random_unimodular(draw(st.randoms(use_true_random=False)))
    return apply_map(m, draw(polygons()))


@settings(max_examples=200, deadline=None)
@given(st.one_of(polygons(), sheared_polygons()))
# thin slivers with a vertical edge and columns holding no point
@example(LatticePolygon(((0, 0), (3, 1), (3, 2))))
@example(LatticePolygon(((0, 1), (0, 2), (5, 0))))
# long lower chains: under one upper edge, between walls at both ends, and
# ending in a wall
@example(LatticePolygon(tuple((x, (x - 4) ** 2) for x in range(9))))
@example(LatticePolygon(((0, 0), (1, -2), (3, -3), (6, -2), (7, 0), (7, 3),
                         (4, 5), (1, 5), (0, 4))))
@example(LatticePolygon(((0, 0), (2, -3), (5, -5), (9, -6), (14, -6),
                         (14, -5), (0, 1))))
# the frame's completion: the right wall's normal (-1, 0) ties with the
# x-axis, which is kept, so the chosen normal never has b = 0, a = -1
@example(LatticePolygon(((0, 0), (2, 0), (2, 5), (0, 5))))
# chosen normal (-3, 1), |b| = 1; (-1, 2), |b| > 1 with a < 0
@example(LatticePolygon(((0, 0), (3, 9), (2, 7))))
@example(LatticePolygon(((0, 0), (4, 2), (1, 1))))
# the chosen edge and the edge parallel to it become wall columns of the
# image, with a column between them that holds no boundary point
@example(LatticePolygon(((0, 0), (4, 2), (4, 3), (0, 1))))
# a vertex in every column on both chains, between walls at both ends: 12
# vertices, 146 points, 50 of them on the boundary
@example(LatticePolygon(tuple([(x, x * (x - 1) // 2) for x in range(6)]
                              + [(x, 30 - x * (x - 1) // 2)
                                 for x in range(5, -1, -1)])))
def test_sweep_matches_brute_force(poly):
    boundary, interior = helpers.brute_force_points(poly.vertices)
    assert lattice_points(poly) == (boundary, interior)
    assert count_lattice_points(poly) == (len(boundary) + len(interior),
                                          len(boundary), len(interior))


def swept_columns(fn, poly) -> int:
    """Number of columns the library's column sweep yields while fn(poly)
    runs, wherever a module of the package binds the sweep."""
    real, columns = lattice._columns, []

    def counting(p):
        for column in real(p):
            columns.append(column)
            yield column

    with contextlib.ExitStack() as patches:
        for key, mod in list(sys.modules.items()):
            if ((key == "ldpsurf" or key.startswith("ldpsurf."))
                    and getattr(mod, "_columns", None) is real):
                patches.enter_context(
                    mock.patch.object(mod, "_columns", counting))
        fn(poly)
    return len(columns)


SWEEPS = (lattice_points, count_lattice_points)


@settings(max_examples=200, deadline=None)
@given(st.one_of(polygons(), sheared_polygons()))
def test_sweep_visits_the_columns_of_the_narrowest_frame(poly):
    verts = poly.vertices
    widths = [max(x for x, _ in verts) - min(x for x, _ in verts)]
    widths += [max(a * x + b * y for x, y in verts) - c
               for a, b, c in edge_lines(poly)]
    for fn in SWEEPS:
        assert swept_columns(fn, poly) <= min(widths) + 1
    # the quadric writer sweeps 2P in P's frame: doubling scales every width
    assert lattice.frame_columns(dilate(poly, 2))[0] == \
        lattice.frame_columns(poly)[0]


def test_quadrics_sweeps_p_once_and_2p_once(monkeypatch):
    q = apply_map(UnimodularMap(1, 0, 9, 1), canonical_polygon(3, 9))
    dilated = ldp_analyze(q).dilated_polar
    once = swept_columns(count_lattice_points, dilated)
    doubled = swept_columns(count_lattice_points, dilate(dilated, 2))
    assert (once, doubled) == (7, 13)  # the x frame is 456 columns wide

    def quadrics(q):
        # embedding_data reads P's vertices, minimal_system builds its
        # column table and roots the fibers of 2P, and the writer sweeps
        # nothing
        format_ideal(minimal_system(embedding_data(ldp_analyze(q))))

    assert swept_columns(quadrics, q) == once + doubled
    # sum_fibers reads P's points off the same column table
    calls = helpers.count_calls(monkeypatch, "lattice_points")
    assert swept_columns(sum_fibers, embedding_data(ldp_analyze(q))) == \
        once + doubled
    assert calls == {}


@settings(max_examples=200, deadline=None)
@given(st.one_of(polygons(), sheared_polygons()))
# inner edge normals (1, 1) and (2, 3), whose steps (-1, 1) and (-3, 2)
# run down the lexicographic order
@example(LatticePolygon(((0, 0), (4, -4), (5, -4), (1, 0))))
@example(LatticePolygon(((0, 0), (3, -2), (4, -2), (1, 0))))
# columns that hold no point
@example(LatticePolygon(((0, 1), (0, 2), (5, 0))))
def test_frame_sweep_yields_every_column_ascending(poly):
    (a, b, _, _), columns = lattice.frame_columns(poly)
    assert (-b, a) > (0, 0)  # the step up a column ascends
    image = [a * x + b * y for x, y in poly.vertices]
    columns = list(columns)
    assert [u for u, _, _, _ in columns] == \
        list(range(min(image), max(image) + 1))
    for _, lo, hi, edge in columns:
        assert hi >= lo - 1
        assert lo <= hi or not edge


def test_sheared_polygon_costs_the_columns_of_its_unsheared_form():
    dilated = ldp_analyze(canonical_polygon(1, 39)).dilated_polar
    sheared = apply_map(UnimodularMap(1, 40, 0, 1), dilated)
    for fn in SWEEPS:
        assert swept_columns(fn, sheared) == swept_columns(fn, dilated) == 22


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


def test_large_polygon_loads_in_linear_time():
    # 40,000 vertices on the parabola y = x^2; a duplicate test against the
    # vertex list read so far made loading quadratic (5.6 s at 20,000)
    verts = [(i, i * i) for i in range(40_000)]
    text = "".join(f"{x} {y}\n" for x, y in verts)
    expect = LatticePolygon(tuple(verts))
    for source in (text, json.dumps(verts)):
        start = time.perf_counter()
        poly = load_polygon(source)
        elapsed = time.perf_counter() - start
        assert poly == expect
        assert elapsed < 2.0, f"{elapsed:.2f} s to load 40,000 vertices"
    with pytest.raises(ParseError, match=r"^line 40001: duplicate vertex \(0, 0\)$"):
        load_polygon(text + "0 0\n")
    with pytest.raises(ParseError, match=r"^duplicate vertex \(0, 0\)$"):
        load_polygon(json.dumps(verts + [(0, 0)]))


def test_counting_costs_the_columns_not_the_points():
    # the parabola of the loading test holds about 10^13 points; counting
    # them costs O(vertices + columns), not O(points)
    verts = [(i, i * i) for i in range(40_000)]
    poly = LatticePolygon(tuple(verts))
    start = time.perf_counter()
    counts = count_lattice_points(poly)
    elapsed = time.perf_counter() - start
    assert counts[:2] == (10_665_866_720_000, 79_998)
    # Pick, with the boundary from the edge gcds and 2A from the shoelace
    edges = list(zip(verts, verts[1:] + verts[:1]))
    boundary = sum(math.gcd(wx - vx, wy - vy) for (vx, vy), (wx, wy) in edges)
    area2 = sum(vx * wy - vy * wx for (vx, vy), (wx, wy) in edges)
    assert counts[:2] == ((area2 + boundary) // 2 + 1, boundary)
    assert elapsed < 2.0, f"{elapsed:.2f} s to count 40,000 vertices"


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

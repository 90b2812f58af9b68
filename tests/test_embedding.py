"""Anticanonical embeddings and their quadric generating systems."""

import collections
import functools
import io
import itertools
import pathlib
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import ldpsurf.cli as cli
import ldpsurf.embedding as emb
import ldpsurf.lattice as lattice
from helpers import (koelman_quadrics, parse_ideal, relation_rank,
                     span_membership)
from ldpsurf import (ConsistencyError, DomainError, LatticePolygon, TableRow,
                     UnimodularMap, apply_map, canonical_polygon,
                     embedding_data, enumerated_row, format_ideal,
                     lattice_points, ldp_analyze, minimal_system,
                     quadric_count_by_counting, sum_fibers, table_formulas,
                     write_ideal)

DATA = pathlib.Path(__file__).parent / "data"

FIXTURES = (
    (2, 1, 14, "quadrics_k2_p1.txt"),
    (3, 1, 9, "quadrics_k3_p1.txt"),
    (3, 3, 182, "quadrics_k3_p3.txt"),
)


def test_embedding_data_known():
    e = helpers.embedding_of(canonical_polygon(1, 1))
    assert e.ambient_dim == 8
    assert e.degree == 8
    assert e.boundary_count == 8
    assert e.interior_count == 1
    points = helpers.ordered_points(e)
    assert len(points) == 9
    assert set(points) == set().union(*lattice_points(e.polygon))
    assert (0, 0) in points


def test_family_rows_frozen():
    frozen = {
        (1, 1): TableRow(8, 8, 20, 1, 8, 1),
        (2, 1): TableRow(7, 7, 14, 1, 7, 1),
        (3, 1): TableRow(6, 6, 9, 1, 6, 1),
        (3, 3): TableRow(21, 28, 182, 8, 14, 2),
        (1, 2): TableRow(50, 75, 1150, 26, 25, 3),
    }
    for (k, p), row in frozen.items():
        assert table_formulas(k, p) == row, (k, p)
        assert enumerated_row(k, p) == row, (k, p)


def test_tables_match_measured_smoke():
    for k in (1, 2, 3):
        for p in range(1, 9):
            assert enumerated_row(k, p) == table_formulas(k, p), (k, p)


def test_table_row_helpers():
    row = table_formulas(1, 1)
    assert row.astuple() == (8, 8, 20, 1, 8, 1)
    assert row != table_formulas(2, 1)
    assert "TableRow" in repr(row)


def test_table_formulas_validation():
    with pytest.raises(DomainError):
        table_formulas(0, 1)
    with pytest.raises(DomainError):
        table_formulas(4, 1)
    with pytest.raises(DomainError):
        table_formulas(1, 0)


def test_sum_fibers_partition():
    e = helpers.embedding_of(canonical_polygon(1, 1))
    fibers = sum_fibers(e)
    n = len(helpers.ordered_points(e))
    assert sum(len(v) for v in fibers.values()) == n * (n + 1) // 2
    assert len(fibers) == emb.minkowski_double(e.polygon)
    for s, pairs in fibers.items():
        for a, b in pairs:
            assert (a[0] + b[0], a[1] + b[1]) == s


def written_generators(report) -> list:
    """The generators `quadrics` writes for the report, read back."""
    return parse_ideal(format_ideal(report))


def test_full_relation_set_rank():
    for k, p in ((1, 1), (2, 1), (3, 1), (3, 3), (1, 2)):
        e = helpers.embedding_of(canonical_polygon(k, p))
        beta = quadric_count_by_counting(e)
        assert relation_rank(koelman_quadrics(e)) == beta, (k, p)
        report = minimal_system(e)
        assert relation_rank(written_generators(report)) == beta
        assert report.count == beta


def test_relation_rank_dependent_triple():
    a, b, c = ((0, 0), (4, 0)), ((1, 0), (3, 0)), ((2, 0), (2, 0))
    bins = [(a, b), (a, c), (b, c)]
    assert relation_rank(bins) == 2
    assert relation_rank(bins[:1]) == 1
    assert relation_rank([]) == 0


def _presentations():
    """Small family members in random GL2(Z) presentations, and random LDP
    polygons of index at most 6."""
    rng = random.Random(20170)
    for k, p in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 3), (3, 3), (1, 4),
                 (2, 5), (3, 5)):
        m = helpers.random_unimodular(rng)
        yield f"k={k} p={p} {m.matrix()}", apply_map(m, canonical_polygon(k, p))
    for _ in range(6):
        q = helpers.random_ldp_polygon(rng, max_index=6)
        yield f"random {q.vertices}", q


def test_minimal_system_structure():
    e = helpers.embedding_of(canonical_polygon(2, 1))
    report = minimal_system(e)
    gens = written_generators(report)
    assert report.count == len(gens) == 14
    assert relation_rank(gens) == 14
    assert report.embedding is e
    for label, q in _presentations():
        e = helpers.embedding_of(q)
        report = minimal_system(e)
        gens = written_generators(report)
        assert gens == sorted(gens), label
        # one generator per non-root pair of each fiber, rooted at the
        # fiber's smallest pair; fibers grouped here without sum_fibers
        fibers: dict = {}
        points = helpers.ordered_points(e)
        for a, b in itertools.combinations_with_replacement(points, 2):
            fibers.setdefault((a[0] + b[0], a[1] + b[1]), []).append((a, b))
        expect = collections.Counter()
        for pairs in fibers.values():
            root = min(pairs)
            expect.update((root, other) for other in pairs if other != root)
        assert collections.Counter(gens) == expect, label
        count = quadric_count_by_counting(e)
        assert report.count == len(gens) == count, label
        assert relation_rank(gens) == count, label


def test_span_membership():
    e = helpers.embedding_of(canonical_polygon(2, 1))
    gens = written_generators(minimal_system(e))
    assert span_membership(gens, koelman_quadrics(e))
    # dropping one generator removes its fiber pair from the span
    assert not span_membership(gens[:-1], gens[-1:])


def test_span_membership_of_every_relation_in_one_pass():
    e = helpers.embedding_of(canonical_polygon(3, 5))
    relations = koelman_quadrics(e)
    assert len(relations) == 7311
    t0 = time.perf_counter()
    assert span_membership(written_generators(minimal_system(e)), relations)
    dt = time.perf_counter() - t0
    # one union-find for all queries; rebuilding it for each took 14 s
    assert dt < 1.0, f"{dt:.2f}s for 7311 span queries"


def test_fiber_count_failure_names_check_and_values():
    e = helpers.embedding_of(canonical_polygon(3, 3))
    skewed = e._replace(degree=e.degree + 1)
    doubled = 2 * skewed.degree + skewed.boundary_count + 1  # Ehrhart L_P(2)
    fibers = len(sum_fibers(e))
    assert fibers == doubled - 2
    with pytest.raises(ConsistencyError) as exc:
        minimal_system(skewed)
    err = exc.value
    assert (err.check, err.expected, err.got) == (
        "sum fibers == L_P(2)", doubled, fibers)
    assert str(err) == (f"{fibers} sum fibers but {doubled} lattice points "
                        "in the doubled polygon")


def test_empty_fiber_names_check_and_values(monkeypatch):
    e = helpers.embedding_of(canonical_polygon(3, 3))
    real = emb.frame_columns

    # P is swept whole, so its point count holds; 2P's last column gains a
    # point above its top, twice the top of P's last column, that no pair
    # of P reaches
    def tall(p):
        frame, columns = real(p)
        if p == e.polygon:
            return frame, columns
        *rest, (u, lo, hi, edge) = columns
        return frame, [*rest, (u, lo, hi + 1, edge)]

    monkeypatch.setattr(emb, "frame_columns", tall)
    with pytest.raises(ConsistencyError) as exc:
        minimal_system(e)
    err = exc.value
    assert (err.check, err.expected, err.got) == ("fiber size >= 1", 1, 0)
    assert re.fullmatch(r"no pair of P sums to \(-?\d+, -?\d+\) in 2P's frame",
                        str(err))


def test_lines_written_must_match_the_header():
    report = minimal_system(helpers.embedding_of(canonical_polygon(3, 3)))
    buf = io.StringIO()
    with pytest.raises(ConsistencyError) as exc:
        write_ideal(report._replace(count=report.count + 1), buf)
    err = exc.value
    assert (err.check, err.expected, err.got) == (
        "lines written == header count", 183, 182)
    assert str(err) == "182 generators written but 183 in the header"
    assert len(buf.getvalue().splitlines()) == 2 + 182


def test_exact_div_failure_names_check_and_values():
    assert emb._exact_div(12, 4) == 3
    with pytest.raises(ConsistencyError) as exc:
        emb._exact_div(7, 2)
    err = exc.value
    assert (err.check, err.expected, err.got) == ("d | n", 0, 1)
    assert str(err) == "7 is not divisible by 2"


def test_pick_failure_names_check_and_values(monkeypatch):
    # analyze's sweep of P checks the counts embedding_data read off the
    # vertices
    helpers.lose_one_interior_point(monkeypatch)
    with pytest.raises(ConsistencyError) as exc:
        cli._analyze_payload(canonical_polygon(3, 3))
    err = exc.value  # (3, 3): 22 points, 14 on the boundary, 8 inside
    assert (err.check, err.expected, err.got) == (
        "swept (n, B, I) == Pick (n, B, I)", (22, 14, 8), (21, 14, 7))
    assert str(err) == "swept points differ from Pick's count"


def test_embedding_data_reads_the_vertices_and_sweeps_nothing(monkeypatch):
    def unswept(p):
        raise AssertionError("a lattice sweep ran")

    monkeypatch.setattr(lattice, "_columns", unswept)
    for k in (1, 2, 3):  # P holds about 10^12 lattice points
        e = embedding_data(ldp_analyze(canonical_polygon(k, 10**6)))
        row = table_formulas(k, 10**6)
        assert (e.ambient_dim, e.degree, e.boundary_count, e.interior_count,
                quadric_count_by_counting(e)) == (
            row.ambient_dim, row.degree, row.boundary_count, row.genus,
            row.quadric_count)


def sum_point(b):
    (a1, a2), _ = b
    return (a1[0] + a2[0], a1[1] + a2[1])


@functools.cache
def _relations(k, p):
    e = helpers.embedding_of(canonical_polygon(k, p))
    return e, koelman_quadrics(e)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_and_span_match_dense_elimination(data):
    k, p = data.draw(st.sampled_from(((1, 1), (2, 1), (3, 1), (3, 3))))
    e, relations = _relations(k, p)
    subset = data.draw(st.lists(st.sampled_from(relations), max_size=40))
    # probing inside the subset's fibers makes both answers likely
    sums = {sum_point(b) for b in subset}
    near = [b for b in relations if sum_point(b) in sums] or relations
    probe = data.draw(st.sampled_from(near))
    rank = helpers.dense_rank(subset)
    assert relation_rank(subset) == rank
    expect = helpers.dense_rank(subset + [probe]) == rank
    assert span_membership(subset, [probe]) == expect


@pytest.mark.parametrize("k,p,count,name", FIXTURES)
def test_fixture_systems(k, p, count, name):
    fixture = parse_ideal((DATA / name).read_text())
    assert len(fixture) == count
    assert len(set(fixture)) == count
    e = helpers.embedding_of(canonical_polygon(k, p))
    point_set = set(helpers.ordered_points(e))
    for plus, minus in fixture:
        assert set(plus) <= point_set and set(minus) <= point_set
    assert relation_rank(fixture) == count
    report = minimal_system(e)
    ours = written_generators(report)
    assert report.count == len(ours) == count
    assert span_membership(ours, fixture)
    assert span_membership(fixture, ours)


def test_format_binomial():
    b = (((0, -1), (1, 2)), ((0, 1), (1, 0)))
    e = helpers.embedding_of(canonical_polygon(1, 1))
    line = "z(0,-1)*z(1,2) - z(0,1)*z(1,0)"  # root first, pairs sorted
    assert line in format_ideal(minimal_system(e)).splitlines()
    assert parse_ideal(line) == [b]
    assert parse_ideal("z(1,0) * z(0,1) - z(1,2)*z(0,-1)") == [b]


def test_format_parse_roundtrip():
    report = minimal_system(helpers.embedding_of(canonical_polygon(2, 1)))
    text = format_ideal(report)
    lines = text.splitlines()
    assert lines[0] == "# minimal quadric generating system"
    assert lines[1] == ("# ambient_dim=7 degree=7 generators=14 "
                        "sectional_genus=1")
    assert len(lines) == 16
    gens = parse_ideal(text)
    assert gens == sorted(gens) and relation_rank(gens) == 14


@settings(max_examples=60, deadline=None)
@given(helpers.ldp_presentations())
# shears whose dilated polar polygons are swept in an edge normal's frame,
# where a step up a column goes up, and down, the lexicographic order
@example(apply_map(UnimodularMap(1, 0, 9, 1), canonical_polygon(3, 9)))
@example(apply_map(UnimodularMap(1, 0, -9, 1), canonical_polygon(3, 5)))
# a dilated polar polygon with a column that holds no lattice point, swept
# in the frame (-2, 3)
@example(LatticePolygon(((-2, 3), (1, -4), (3, -2))))
# x-frame dilated polar polygons, whose lines come from slice runs: P =
# (-4, 0), (4, -2), (0, 1) holds no point at x = 3; the middle columns of
# both hold squares z(c)*z(c) of even s_v and runs of odd s_v
@example(LatticePolygon(((-3, -4), (1, -4), (1, 4))))
@example(canonical_polygon(2, 3))
def test_format_ideal_matches_a_rendering_grouped_here(poly):
    e = embedding_data(ldp_analyze(poly))
    fibers: dict = {}
    points = helpers.ordered_points(e)
    for a, b in itertools.combinations_with_replacement(points, 2):
        fibers.setdefault((a[0] + b[0], a[1] + b[1]), []).append((a, b))
    gens = sorted((root, other) for pairs in fibers.values()
                  for root in [min(pairs)] for other in pairs if other != root)

    def z(pt):
        return f"z({pt[0]},{pt[1]})"

    expect = ("# minimal quadric generating system\n"
              f"# ambient_dim={e.ambient_dim} degree={e.degree} "
              f"generators={len(gens)} sectional_genus={e.interior_count}\n"
              + "".join(f"{z(a)}*{z(b)} - {z(c)}*{z(d)}\n"
                        for (a, b), (c, d) in gens))
    report = minimal_system(e)
    got = format_ideal(report)
    buf = io.StringIO()
    write_ideal(report, buf)
    if buf.getvalue() != got:
        pytest.fail("write_ideal and format_ideal differ")
    if got != expect:  # name the first wrong line; a full diff takes minutes
        pairs = zip(got.splitlines(), expect.splitlines())
        first = next(((g, x) for g, x in pairs if g != x), "line counts differ")
        pytest.fail(f"got/expected: {first}")


@settings(max_examples=150, deadline=None)
@given(helpers.ldp_presentations())
def test_points_and_doubled_count_match_their_direct_routes(poly):
    e = embedding_data(ldp_analyze(poly))
    boundary, interior = lattice_points(e.polygon)
    points = helpers.ordered_points(e)
    assert points == tuple(sorted(boundary | interior))
    doubled = emb.minkowski_double(e.polygon)  # a real sweep of 2P
    assert 2 * e.degree + e.boundary_count + 1 == doubled
    n = len(points)
    assert quadric_count_by_counting(e) == n * (n + 1) // 2 - doubled
    assert minimal_system(e).count == n * (n + 1) // 2 - doubled


def test_embedding_matches_analysis():
    for k, p in ((1, 3), (2, 4), (3, 2)):
        data = ldp_analyze(canonical_polygon(k, p))
        e = embedding_data(data)
        assert e.degree == data.index ** 2 * data.analysis.k2
        n = len(helpers.ordered_points(e))
        assert e.ambient_dim + 1 == n
        assert e.interior_count + e.boundary_count == n

"""Anticanonical embeddings and their quadric generating systems."""

import collections
import functools
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import ldpsurf.embedding as emb
from ldpsurf import (Binomial, ConsistencyError, DomainError, ParseError,
                     QuadricIdealReport, TableRow, apply_map,
                     canonical_polygon, embedding_data, enumerated_row,
                     format_ideal, koelman_quadrics, lattice_points,
                     ldp_analyze, minimal_system, parse_ideal,
                     quadric_count_by_counting, relation_rank,
                     span_membership, sum_fibers, table_formulas)
from ldpsurf.embedding import format_binomial, parse_binomial_line

DATA = pathlib.Path(__file__).parent / "data"

FIXTURES = (
    (2, 1, 14, "quadrics_k2_p1.txt"),
    (3, 1, 9, "quadrics_k3_p1.txt"),
    (3, 3, 182, "quadrics_k3_p3.txt"),
)


def test_binomial_canonicalization():
    b = Binomial(((1, 0), (0, 1)), ((1, 1), (0, 0)))
    assert b.plus == ((0, 0), (1, 1))
    assert b.minus == ((0, 1), (1, 0))
    assert b.sum_point == (1, 1)
    same = Binomial(((0, 1), (1, 0)), ((0, 0), (1, 1)))
    assert b == same and len({b, same}) == 1
    with pytest.raises(DomainError):
        Binomial(((0, 0), (1, 1)), ((1, 1), (0, 0)))  # zero binomial
    with pytest.raises(DomainError):
        Binomial(((0, 0), (1, 1)), ((0, 1), (2, 0)))  # sums differ


def test_binomial_make_and_replace_normalize():
    pairs = [((1, 1), (0, 0)), ((0, 1), (1, 0))]
    made = Binomial._make(pairs)
    assert made == Binomial(*pairs) and made.plus == ((0, 0), (1, 1))
    b = Binomial(*pairs)
    swapped = b._replace(minus=((2, 1), (-1, 0)))
    assert swapped == Binomial(b.plus, ((2, 1), (-1, 0)))
    assert swapped.plus == ((-1, 0), (2, 1))
    with pytest.raises(DomainError):
        b._replace(minus=b.plus)  # zero binomial
    with pytest.raises(DomainError):
        Binomial._make([((0, 0), (1, 1)), ((0, 1), (2, 0))])  # sums differ


def test_embedding_data_known():
    e = helpers.embedding_of(canonical_polygon(1, 1))
    assert e.ambient_dim == 8
    assert e.degree == 8
    assert e.boundary_count == 8
    assert e.interior_count == 1
    assert len(e.points) == 9
    assert e.points == tuple(sorted(e.points))
    assert (0, 0) in e.points


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
    n = len(e.points)
    assert sum(len(v) for v in fibers.values()) == n * (n + 1) // 2
    assert len(fibers) == emb.minkowski_double(e.polygon)
    for s, pairs in fibers.items():
        for a, b in pairs:
            assert (a[0] + b[0], a[1] + b[1]) == s


def test_full_relation_set_rank():
    for k, p in ((1, 1), (2, 1), (3, 1), (3, 3), (1, 2)):
        e = helpers.embedding_of(canonical_polygon(k, p))
        beta = quadric_count_by_counting(e)
        assert relation_rank(koelman_quadrics(e)) == beta, (k, p)
        report = minimal_system(e)
        assert relation_rank(report.generators) == beta
        assert report.count == beta


def test_relation_rank_dependent_triple():
    a, b, c = ((0, 0), (4, 0)), ((1, 0), (3, 0)), ((2, 0), (2, 0))
    bins = [Binomial(a, b), Binomial(a, c), Binomial(b, c)]
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
    found = 0
    while found < 6:
        q = helpers.random_ldp_polygon(rng)
        if ldp_analyze(q).index <= 6:
            found += 1
            yield f"random {q.vertices}", q


def test_minimal_system_structure():
    e = helpers.embedding_of(canonical_polygon(2, 1))
    report = minimal_system(e)
    assert report.count == len(report.generators) == 14
    assert relation_rank(report.generators) == 14
    assert report.points == e.points
    for label, q in _presentations():
        e = helpers.embedding_of(q)
        report = minimal_system(e)
        gens = report.generators
        assert list(gens) == sorted(gens), label
        assert all(Binomial(*g) == g for g in gens), label
        # one generator per non-root pair of each fiber, rooted at the
        # fiber's smallest pair; fibers grouped here without sum_fibers
        fibers: dict = {}
        for a, b in itertools.combinations_with_replacement(e.points, 2):
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
    report = minimal_system(e)
    for b in koelman_quadrics(e):
        assert span_membership(report, b)
    # dropping one generator removes its fiber pair from the span
    truncated = QuadricIdealReport(
        points=report.points, ambient_dim=report.ambient_dim,
        degree=report.degree, genus=report.genus,
        generators=report.generators[:-1])
    assert not span_membership(truncated, report.generators[-1])
    with pytest.raises(DomainError):
        span_membership(
            report, Binomial(((9, 9), (-9, -9)), ((0, 0), (0, 0))))


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
    sums = {b.sum_point for b in subset}
    near = [b for b in relations if b.sum_point in sums] or relations
    probe = data.draw(st.sampled_from(near))
    rank = helpers.dense_rank(subset)
    assert relation_rank(subset) == rank
    report = QuadricIdealReport(
        points=e.points, ambient_dim=e.ambient_dim, degree=e.degree,
        genus=e.interior_count, generators=tuple(subset))
    expect = helpers.dense_rank(subset + [probe]) == rank
    assert span_membership(report, probe) == expect


@pytest.mark.parametrize("k,p,count,name", FIXTURES)
def test_fixture_systems(k, p, count, name):
    fixture = parse_ideal((DATA / name).read_text())
    assert len(fixture) == count
    assert len(set(fixture)) == count
    e = helpers.embedding_of(canonical_polygon(k, p))
    point_set = set(e.points)
    for b in fixture:
        assert set(b.plus) <= point_set and set(b.minus) <= point_set
    assert relation_rank(fixture) == count
    ours = minimal_system(e)
    assert ours.count == count
    for b in fixture:
        assert span_membership(ours, b)
    theirs = QuadricIdealReport(
        points=e.points, ambient_dim=e.ambient_dim, degree=e.degree,
        genus=e.interior_count, generators=tuple(sorted(fixture)))
    for b in ours.generators:
        assert span_membership(theirs, b)


def test_format_binomial():
    b = Binomial(((0, 1), (1, 0)), ((0, 0), (1, 1)))
    assert format_binomial(b) == "z(0,0)*z(1,1) - z(0,1)*z(1,0)"
    assert parse_binomial_line(format_binomial(b)) == b


def test_format_parse_roundtrip():
    report = minimal_system(helpers.embedding_of(canonical_polygon(2, 1)))
    text = format_ideal(report)
    lines = text.splitlines()
    assert lines[0] == "# minimal quadric generating system"
    assert lines[1] == ("# ambient_dim=7 degree=7 generators=14 "
                        "sectional_genus=1")
    assert len(lines) == 16
    assert tuple(parse_ideal(text)) == report.generators


def test_parse_ideal_errors():
    good = "z(0,0)*z(1,1) - z(0,1)*z(1,0)"
    assert len(parse_ideal(f"# hdr\n\n{good}\n")) == 1
    with pytest.raises(ParseError, match="line 3"):
        parse_ideal(f"# hdr\n{good}\nnot a line\n")
    with pytest.raises(ParseError):
        parse_binomial_line("z(0,0)*z(1,1) + z(0,1)*z(1,0)")
    with pytest.raises(DomainError):
        parse_ideal("z(0,0)*z(0,0) - z(5,5)*z(1,1)\n")
    huge = "1" * 5001
    with pytest.raises(ParseError):
        parse_binomial_line(f"z({huge},0)*z(0,0) - z(0,0)*z({huge},0)")
    with pytest.raises(ParseError, match="line 1"):
        parse_ideal(f"z({huge},0)*z(0,0) - z(0,0)*z({huge},0)\n")


@st.composite
def ldp_presentations(draw):
    """Random LDP polygons of index at most 6 (larger ones dilate to millions
    of points), or family members in a random GL2(Z) presentation."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        while True:
            q = helpers.random_ldp_polygon(rng)
            if ldp_analyze(q).index <= 6:
                return q
    m = helpers.random_unimodular(rng, shears=draw(st.integers(0, 4)))
    return apply_map(m, canonical_polygon(draw(st.integers(1, 3)),
                                          draw(st.integers(1, 9))))


@settings(max_examples=150, deadline=None)
@given(ldp_presentations())
def test_points_and_doubled_count_match_their_direct_routes(poly):
    e = embedding_data(ldp_analyze(poly))
    boundary, interior = lattice_points(e.polygon)
    assert e.points == tuple(sorted(boundary | interior))
    doubled = emb.minkowski_double(e.polygon)  # a real sweep of 2P
    assert 2 * e.degree + e.boundary_count + 1 == doubled
    n = len(e.points)
    assert quadric_count_by_counting(e) == n * (n + 1) // 2 - doubled
    assert minimal_system(e).count == n * (n + 1) // 2 - doubled


def test_embedding_matches_analysis():
    for k, p in ((1, 3), (2, 4), (3, 2)):
        data = ldp_analyze(canonical_polygon(k, p))
        e = embedding_data(data)
        assert e.degree == data.index ** 2 * data.analysis.k2
        assert e.ambient_dim + 1 == len(e.points)
        assert e.interior_count + e.boundary_count == len(e.points)

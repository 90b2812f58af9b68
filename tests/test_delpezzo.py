"""Log del Pezzo analysis and the one-singularity classification."""

import collections
import functools
import hashlib
import math
import pathlib
import random
import shutil
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
import ldpsurf.cli as cli
import ldpsurf.delpezzo as delpezzo
from ldpsurf import (ConsistencyError, DomainError, LatticePolygon,
                     SingularityCountError, UnimodularMap, apply_map,
                     canonical_key, canonical_polygon, cross,
                     classify_one_singularity, count_one_singularity,
                     enumerate_one_singularity, graph_of, group_classes,
                     index_parity_check, ldp_analyze, mirror_quad,
                     mirror_quad_map, surfaces_isomorphic)
from ldpsurf.lattice import bezout


def test_canonical_polygon_shapes():
    assert canonical_polygon(1, 2).vertices == ((-1, 0), (1, -1), (2, 1))
    assert len(canonical_polygon(1, 5).vertices) == 3
    assert len(canonical_polygon(2, 5).vertices) == 4
    assert len(canonical_polygon(3, 5).vertices) == 5
    for k in (1, 2, 3):
        for p in range(1, 12):
            assert helpers.is_ldp(canonical_polygon(k, p))
    with pytest.raises(DomainError):
        canonical_polygon(0, 1)
    with pytest.raises(DomainError):
        canonical_polygon(4, 1)
    with pytest.raises(DomainError):
        canonical_polygon(1, 0)


def test_mirror_quad_relation():
    for p in range(1, 10):
        m = mirror_quad_map(p)
        assert m.det == -1
        assert helpers.compose(m, m) == UnimodularMap(1, 0, 0, 1)
        assert mirror_quad(p) == LatticePolygon(
            ((1, -1), (p, 1), (-1, 0), (0, -1)))
        assert apply_map(m, mirror_quad(p)) == canonical_polygon(2, p)
    with pytest.raises(DomainError, match=r"^p must be >= 1$"):
        mirror_quad(0)


def test_is_ldp():
    is_ldp = helpers.is_ldp
    assert is_ldp(canonical_polygon(3, 4))
    assert not is_ldp(LatticePolygon(((1, 1), (-1, 1), (1, -1))))  # origin on edge
    assert not is_ldp(LatticePolygon(((2, 0), (0, 1), (-1, -1))))  # non-primitive
    assert not is_ldp(LatticePolygon(((1, 0), (2, 1), (1, 1))))  # origin outside


def test_ldp_analyze_family_indices():
    for p in range(1, 16):
        expected = (p + 1) // 2 if p % 2 else p + 1
        for k in (1, 2, 3):
            data = ldp_analyze(canonical_polygon(k, p))
            assert data.index == expected, (k, p)
            assert len(data.analysis.singular_indices) == 1
            local_indices = [cd.local_index for cd in data.analysis.cone_data]
            assert max(local_indices) == expected
            assert sorted(set(local_indices)) == \
                ([expected] if expected == 1 else [1, expected])


def test_ldp_analyze_polar_known():
    poly = canonical_polygon(1, 1)
    data = ldp_analyze(poly)
    polar, area2 = helpers.polar_oracle(poly)
    assert polar == (
        (Fraction(-1), Fraction(0)),
        (Fraction(1), Fraction(-2)),
        (Fraction(1), Fraction(2)),
    )
    assert data.index == 1
    assert data.dilated_polar.vertices == ((-1, 0), (1, -2), (1, 2))
    # polar area recovers the canonical self-intersection
    assert area2 == data.analysis.k2


def test_facet_level_failure_names_check_and_values(monkeypatch):
    real = delpezzo.edge_lines

    def doubled(q):  # every facet's level is its cone's local index
        return [(a, b, 2 * c) for a, b, c in real(q)]

    monkeypatch.setattr(delpezzo, "edge_lines", doubled)
    with pytest.raises(ConsistencyError) as exc:
        ldp_analyze(canonical_polygon(1, 1))
    err = exc.value
    assert (err.check, err.expected, err.got) == (
        "facet level == cone local index", 1, 2)
    assert str(err) == "facet level 2 differs from cone local index 1"


def test_ldp_analyze_rejects_non_ldp():
    with pytest.raises(DomainError):
        ldp_analyze(LatticePolygon(((1, 1), (-1, 1), (1, -1))))


def test_classify_families_identity():
    for p in range(1, 9):
        for k in (1, 2, 3):
            poly = canonical_polygon(k, p)
            cls = classify_one_singularity(helpers.analysis_of(poly))
            assert (cls.k, cls.p) == (k, p)
            assert cls.normal_form == "standard"
            assert apply_map(cls.transform, poly) == poly


def test_classify_mirror_quad():
    for p in range(1, 9):
        cls = classify_one_singularity(helpers.analysis_of(mirror_quad(p)))
        assert (cls.k, cls.p) == (2, p)
        assert cls.normal_form == "mirror"
        assert apply_map(cls.transform, mirror_quad(p)) == canonical_polygon(2, p)


def test_classify_random_transforms():
    rng = random.Random(501)
    for _ in range(120):
        k = rng.choice((1, 2, 3))
        p = rng.randint(1, 8)
        base = mirror_quad(p) if k == 2 and rng.random() < 0.3 \
            else canonical_polygon(k, p)
        m = helpers.random_unimodular(rng)
        moved = apply_map(m, base)
        cls = classify_one_singularity(helpers.analysis_of(moved))
        assert (cls.k, cls.p) == (k, p)
        assert apply_map(cls.transform, moved) == canonical_polygon(k, p)
        assert surfaces_isomorphic(
            helpers.analysis_of(moved),
            helpers.analysis_of(canonical_polygon(k, p)))


def test_classify_mu_is_position_of_marked_vertex():
    for k in (1, 2, 3):
        for p in (1, 3, 4):
            cls = classify_one_singularity(
                helpers.analysis_of(canonical_polygon(k, p)))
            assert 1 <= cls.mu <= k + 2


def test_classify_wrong_singularity_count():
    with pytest.raises(SingularityCountError):
        classify_one_singularity(
            helpers.analysis_of(LatticePolygon(((1, 0), (0, 1), (-1, -1)))))
    with pytest.raises(SingularityCountError):
        classify_one_singularity(helpers.analysis_of(
            LatticePolygon(((1, 1), (-1, 1), (-1, -1), (1, -1)))))
    with pytest.raises(DomainError):
        classify_one_singularity(
            helpers.analysis_of(LatticePolygon(((1, 0), (2, 1), (1, 1)))))


def test_index_parity_check():
    assert index_parity_check(1) == {(1, 1), (2, 1), (3, 1)}
    assert index_parity_check(2) == {(1, 3), (2, 3), (3, 3)}
    assert index_parity_check(3) == \
        {(k, p) for k in (1, 2, 3) for p in (2, 5)}
    assert index_parity_check(4) == {(1, 7), (2, 7), (3, 7)}
    with pytest.raises(DomainError):
        index_parity_check(0)
    for p in range(1, 20):
        data = ldp_analyze(canonical_polygon(1, p))
        assert (1, p) in index_parity_check(data.index)


def test_enumerate_bound_one():
    results = helpers.enumerated(1)
    assert len(results) == 16
    classes = group_classes(helpers.class_counts(results))
    assert len(classes) == 3
    summary = {(e["k"], e["p"]): e["count"] for e in classes.values()}
    assert summary == {(1, 1): 4, (2, 1): 8, (3, 1): 4}
    for verts, cls in results:
        assert max(abs(c) for v in verts for c in v) <= 1
        assert cls.p == 1


def test_enumerate_bound_two():
    results = helpers.enumerated(2)
    assert len(results) == 144
    classes = group_classes(helpers.class_counts(results))
    assert len(classes) == 9
    summary = {(e["k"], e["p"]): e["count"] for e in classes.values()}
    assert summary == {
        (1, 1): 20, (2, 1): 40, (3, 1): 20,
        (1, 2): 12, (2, 2): 24, (3, 2): 12,
        (1, 3): 4, (2, 3): 8, (3, 3): 4,
    }


def test_enumerate_matches_subset_oracle():
    # every subset of the 16 primitive points of [-2, 2]^2, no search order
    found = [verts for verts, _ in helpers.enumerated(2)]
    assert found == helpers.one_singularity_polygons(2)


@functools.cache
def _enumerated(bound):
    return {verts for verts, _ in enumerate_one_singularity(bound)}


_PRIMITIVE = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda v: math.gcd(*v) == 1)


@st.composite
def box_ldp_polygons(draw):
    """LDP polygons in [-4, 4]^2: hulls of primitive points (few have one
    singular cone) or unimodular images of family members."""
    if draw(st.booleans()):
        hull = helpers.convex_hull(draw(st.lists(_PRIMITIVE, min_size=3,
                                                 max_size=8)))
        assume(len(hull) >= 3)
        poly = LatticePolygon(tuple(hull))
    else:
        rng = draw(st.randoms(use_true_random=False))
        m = helpers.random_unimodular(rng, shears=draw(st.integers(0, 3)))
        poly = apply_map(m, canonical_polygon(draw(st.integers(1, 3)),
                                              draw(st.integers(1, 7))))
        assume(max(abs(c) for v in poly.vertices for c in v) <= 4)
    assume(helpers.is_ldp(poly))
    return poly


@settings(max_examples=300, deadline=None)
@given(box_ldp_polygons())
def test_enumerate_finds_exactly_the_one_singularity_polygons(poly):
    singular = helpers.analysis_of(poly).singular_indices
    assert (poly.vertices in _enumerated(4)) == (len(singular) == 1)


def test_enumerate_bound_seven():
    results = helpers.enumerated(7)
    assert len({verts for verts, _ in results}) == len(results) \
        == 4144
    classes = group_classes(helpers.class_counts(results))
    assert len(classes) == 39
    assert {(e["k"], e["p"]) for e in classes.values()} == \
        {(k, p) for k in (1, 2, 3) for p in range(1, 14)}


def test_enumerate_output_is_pinned():
    # (vertices, k, p, normal_form, mu) in vertex order, at bounds past
    # the subset oracle's 2 and the property test's 4
    for bound, count, digest in (
        (5, 1872,
         "03554c412a4a6a526dcc072eea8387920666135fcb873168c0ea9b508382f890"),
        (8, 5488,
         "1630da03a402f9d35a44d745908136775a79cb0bb97cea450402ca3b63b22b9e"),
        (12, 14000,
         "8376f97fdb7c62a0928a27d8ab1afef0f55d82fe19dc82d817a2f9d6da7cf963"),
    ):
        rows = [(verts, cls.k, cls.p, cls.normal_form, cls.mu)
                for verts, cls in helpers.enumerated(bound)]
        assert len(rows) == count
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_enumerate_is_search_order_independent(monkeypatch):
    forward = {b: helpers.enumerated(b) for b in (2, 4)}
    # the walk reads the box only through each point's det = 1 line, so the
    # order the box lists its points in must not change what is found
    box_points = delpezzo._primitive_box_points

    def shuffled(bound):
        pts = box_points(bound)
        random.Random(7).shuffle(pts)
        return pts

    monkeypatch.setattr(delpezzo, "_primitive_box_points", shuffled)
    for b, results in forward.items():
        reordered = helpers.enumerated(b)
        assert [verts for verts, _ in results] == \
            [verts for verts, _ in reordered]


def test_search_cost_follows_the_answer():
    # each chain popped off the walk's stack walks one range of a det = 1
    # line; only first vertices in one quadrant are walked, so _normal_form
    # certifies a quarter of the polygons, and the walk pops 3.3 to 3.7
    # chains per certified polygon at these bounds
    cost = {7: (3_860, 1_036), 12: (11_644, 3_500)}
    for bound in cost:
        pops = certified = 0

        def count(frame, event, arg):
            nonlocal pops, certified
            code = frame.f_code
            if not code.co_filename.endswith("delpezzo.py"):
                return
            if (event == "c_call" and code.co_name == "_one_singularity_walks"
                    and arg.__name__ == "pop"
                    and isinstance(arg.__self__, list)):
                pops += 1
            elif event == "call" and code.co_name == "_normal_form":
                certified += 1

        sys.setprofile(count)
        try:
            found = count_one_singularity(bound)
        finally:
            sys.setprofile(None)
        assert (pops, certified) == cost[bound]
        assert 4 * certified == found.total()
        assert pops <= 4 * certified


@pytest.mark.parametrize("bound", list(range(1, 13)))
def test_count_matches_the_pairs(monkeypatch, bound):
    # each certified walked polygon counts for itself and its three quarter
    # turns, per (k, p) in the order the pairs first show each (k, p)
    calls = helpers.count_calls(monkeypatch, "_normal_form")
    counts = count_one_singularity(bound)
    assert counts.total() == 4 * calls["_normal_form"]
    pairs = helpers.class_counts(enumerate_one_singularity(bound))
    assert counts == pairs and list(counts) == list(pairs)


def test_enumerate_command_builds_no_turned_classification(capsys,
                                                           monkeypatch):
    # the command certifies and builds one Classification per walked
    # polygon; the pairs build one more for each of its quarter turns
    calls = helpers.count_calls(monkeypatch, "_normal_form")
    built = collections.Counter()
    new = delpezzo.Classification.__new__

    def counting(cls, *fields):
        built["Classification"] += 1
        return new(cls, *fields)

    monkeypatch.setattr(delpezzo.Classification, "__new__",
                        staticmethod(counting))
    assert cli.main(["enumerate", "--bound", "7"]) == 0
    assert capsys.readouterr().out.startswith(
        "bound=7: 4144 polygons in 39 isomorphism classes\n")
    assert calls == {"_normal_form": 1_036}
    assert built == {"Classification": 1_036}
    built.clear()
    assert sum(1 for _ in enumerate_one_singularity(7)) == 4_144
    assert built == {"Classification": 4_144}


def _search_with_certified(monkeypatch, bound):
    """The pairs the search yields, each with the number of chains
    _normal_form had certified when it was yielded, and those chains."""
    certified = []
    normal_form = delpezzo._normal_form

    def recording(verts, *args):
        certified.append(verts)
        return normal_form(verts, *args)

    with monkeypatch.context() as patch:
        patch.setattr(delpezzo, "_normal_form", recording)
        rows = [(pair, len(certified))
                for pair in enumerate_one_singularity(bound)]
    return rows, certified


def _from_smallest(verts):
    start = verts.index(min(verts))
    return tuple(verts[start:] + verts[:start])


def _turned_vertices(verts):
    # the quarter turn (x, y) -> (-y, x), started at the smallest vertex
    return _from_smallest([(-y, x) for x, y in verts])


def test_search_order_is_pinned(monkeypatch):
    # the order the walk yields polygons in, before any sorting: each
    # walked first vertex's polygons, in the order they closed, then their
    # three quarter turns, one batch per turn, with no certificate between
    for bound, count, digest in (
        (7, 4144,
         "5760c9573597e03d2b21d4a5a9ae8ce5c5b22b82409bb7cb0cb6f6ec5e1de43c"),
        (12, 14000,
         "12a78940a8ab7e780e9b697d1e98755f4760b2bcb207846bbf5080c8691cf01e"),
    ):
        rows, certified = _search_with_certified(monkeypatch, bound)
        verts = [v for (v, _), _ in rows]
        assert len(verts) == count
        assert hashlib.sha256(repr(verts).encode()).hexdigest() == digest
        i = done = 0
        while i < len(rows):
            m = rows[i][1] - done  # the walk's polygons, certified first
            assert m > 0
            batch = verts[i:i + m]
            assert batch == [_from_smallest(chain)
                             for chain in certified[done:done + m]]
            for turn in (1, 2, 3):
                batch = [_turned_vertices(v) for v in batch]
                assert verts[i + turn * m:i + (turn + 1) * m] == batch
            assert {n for _, n in rows[i:i + 4 * m]} == {done + m}
            i, done = i + 4 * m, done + m
        assert done == len(certified) == count // 4


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6, 7, 8])
def test_enumeration_is_closed_under_the_quarter_turn(monkeypatch, bound):
    # the quarter turn R keeps the box, and maps each yielded polygon onto
    # a yielded polygon of the same class whose transform T' has T'·R = T;
    # only chains from first vertices with x >= 0 and y < 0 are certified
    rows, certified = _search_with_certified(monkeypatch, bound)
    found = dict(pair for pair, _ in rows)
    assert len(found) == len(rows) == 4 * len(certified)
    assert all(x >= 0 > y for (x, y) in (chain[1] for chain in certified))
    for verts, cls in found.items():
        turned = found[_turned_vertices(verts)]
        assert (turned.k, turned.p, turned.normal_form, turned.mu) == \
            (cls.k, cls.p, cls.normal_form, cls.mu)
        for x, y in ((1, 0), (0, 1)):
            assert turned.transform.apply((-y, x)) == \
                cls.transform.apply((x, y))


def _capped_enumerate(root, bound):
    # a 1 GB cap: a search that grows its stack without end exits 2
    return helpers.capped_cli(root, 1 << 30, "enumerate", "--bound",
                              str(bound))


def _mutant_package(root, original, replacement):
    """Copy the package under root, check that the copy enumerates, then
    replace the one occurrence of original in its delpezzo.py."""
    shutil.copytree(pathlib.Path(delpezzo.__file__).parent, root / "ldpsurf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert _capped_enumerate(root, 1).returncode == 0  # the copy works
    path = root / "ldpsurf" / "delpezzo.py"
    text = path.read_text(encoding="utf-8")
    assert text.count(original) == 1
    path.write_text(text.replace(original, replacement), encoding="utf-8")


def test_broken_t_bound_fails_fast(tmp_path):
    # a non-strict first-left bound lets the walk wind round first for
    # ever; the chain length check must stop it on its first long chain
    _mutant_package(tmp_path, "left = 1 - (lam * fy - kappa * fx) // d",
                    "left = 1 - (lam * fy - kappa * fx + 1) // d")
    for bound, got in ((1, 7), (2, 11), (3, 15)):
        run = _capped_enumerate(tmp_path, bound)
        assert (run.returncode, run.stdout) == (4, "")
        assert run.stderr.splitlines()[1] == (
            f"  check chain length <= 4 * bound + 2: expected "
            f"{4 * bound + 2}, got {got}")


@pytest.mark.parametrize("original, replacement", [
    # a det 1 shear other than the family's: no image is a normal form
    ("_TILT = UnimodularMap(1, 0, -1, 1)",
     "_TILT = UnimodularMap(1, 0, -2, 1)"),
    # the normal form of the wrong family member
    ("target = canonical_polygon(k, p).vertices",
     "target = canonical_polygon(k, p + 1).vertices"),
    # the search hands on last's Bezout pair in the wrong order
    ("chain[-1:] + chain[:-1], kappa, lam, d)",
     "chain[-1:] + chain[:-1], lam, kappa, d)"),
], ids=["tilt", "target", "hand-off"])
def test_broken_certificate_fails_fast(tmp_path, original, replacement):
    # the first polygon of the first walk fails its certificate, before
    # any class is counted
    _mutant_package(tmp_path, original, replacement)
    run = _capped_enumerate(tmp_path, 1)
    assert (run.returncode, run.stdout) == (4, "")
    first, check = run.stderr.splitlines()
    assert first.startswith("internal error: normalized polygon ")
    assert check.startswith("  check normalized vertices == "
                            "canonical_polygon(k, p): expected ")


def test_enumerate_validation(monkeypatch):
    helpers.forbid_enumeration_box(monkeypatch)
    with pytest.raises(DomainError):
        enumerate_one_singularity(0)
    for bound in (delpezzo.MAX_BOUND + 1, 10**6):
        with pytest.raises(DomainError, match="between 1 and"):
            enumerate_one_singularity(bound)
    # refused at the call, before the search could start: a float passed
    # the range test, True is 1, and '3' did not compare
    for bound in (7.0, True, "3", None, Fraction(3), 2**0.5):
        with pytest.raises(DomainError, match="between 1 and"):
            enumerate_one_singularity(bound)
    # the count shares the check, and its text
    for bound in (0, delpezzo.MAX_BOUND + 1, 10**6, True, 7.0):
        with pytest.raises(DomainError) as exc:
            count_one_singularity(bound)
        assert str(exc.value) == \
            f"bound must be between 1 and {delpezzo.MAX_BOUND}"


def test_group_classes_rejects_mixed_class(monkeypatch):
    # distinct normal forms have distinct keys; give every normal form one
    # key to reach the check that one class holds one (k, p)
    results = helpers.enumerated(1)
    monkeypatch.setattr(delpezzo, "canonical_key", lambda g: ())
    with pytest.raises(ConsistencyError) as exc:
        group_classes(helpers.class_counts(results))
    err = exc.value
    kps = list(dict.fromkeys((cls.k, cls.p) for _, cls in results))
    assert (err.check, err.expected, err.got) == (
        "one (k, p) per graph class", kps[0], kps[1])


def test_classify_mismatch_names_check_and_values(monkeypatch):
    # no valid input reaches the check: a wrong target stands in for a
    # normalization bug
    poly = canonical_polygon(3, 2)
    wrong = canonical_polygon(3, 3)
    table = delpezzo._seen_from_cone
    monkeypatch.setattr(delpezzo, "_seen_from_cone",
                        lambda k, p, mirror: table(k, p + 1, mirror))
    with pytest.raises(ConsistencyError) as exc:
        classify_one_singularity(helpers.analysis_of(poly))
    err = exc.value
    assert (err.check, err.expected, err.got) == (
        "normalized vertices == canonical_polygon(k, p)", wrong.vertices,
        poly.vertices)
    assert str(err) == (f"normalized polygon {poly.vertices} matches no "
                        "family member")


def test_enumeration_repeats_within_a_process():
    # the search keeps no state between calls
    assert helpers.enumerated(4) == helpers.enumerated(4)


def test_enumerate_analyses_each_normal_form_once(monkeypatch):
    # the certificate classifies each found polygon; only group_classes
    # analyses a fan, one per normal form present
    for cached in (delpezzo.canonical_polygon, delpezzo.mirror_quad,
                   delpezzo._seen_from_cone):
        cached.cache_clear()
    calls = helpers.count_calls(monkeypatch, "fan_from_polygon",
                                "analyze_fan", "classify_one_singularity")
    built = collections.Counter()
    init = LatticePolygon.__init__

    def counting(self, vertices):
        built[len(vertices)] += 1
        init(self, vertices)

    monkeypatch.setattr(LatticePolygon, "__init__", counting)
    reads = helpers.count_derived_reads(monkeypatch)
    classes = group_classes(helpers.class_counts(enumerate_one_singularity(7)))
    assert sum(e["count"] for e in classes.values()) == 4144
    assert len(classes) == 39
    assert calls == {"fan_from_polygon": 39, "analyze_fan": 39}
    # the 39 normal forms and the 13 mirror presentations, nothing per
    # polygon
    assert built == {3: 13, 4: 26, 5: 13}
    assert not reads  # K^2 is not computed


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6, 7, 8, 12])
def test_certificate_matches_the_fan_analysis(bound):
    # the per-polygon route the certificate replaced: a full analysis of
    # each polygon's face fan gives the same classification, transform
    # included, and the graph key of its normal form
    keys = {}
    for verts, cls in enumerate_one_singularity(bound):
        analysis = helpers.analysis_of(LatticePolygon(verts))
        assert LatticePolygon(verts).vertices == verts
        assert classify_one_singularity(analysis) == cls
        kp = (cls.k, cls.p)
        if kp not in keys:
            keys[kp] = canonical_key(graph_of(helpers.analysis_of(
                canonical_polygon(*kp))))
        assert canonical_key(graph_of(analysis)) == keys[kp]


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6, 7, 8])
def test_classification_read_back_from_the_polygon(bound):
    # each field checked here, not through _normal_form or its table: the
    # transform maps the polygon onto the normal form, the mirror form is
    # exactly the det -1 transform, and mu is the position, counted from
    # the singular cone, of the vertex the transform sends to (-1, 0)
    for verts, cls in enumerate_one_singularity(bound):
        m = cls.transform
        assert apply_map(m, LatticePolygon(verts)) == \
            canonical_polygon(cls.k, cls.p)
        assert cls.normal_form in ("standard", "mirror")
        assert (cls.normal_form == "mirror") == (m.det == -1)
        cones = zip(verts, verts[1:] + verts[:1])
        (j,) = [i for i, (u, v) in enumerate(cones) if cross(u, v) > 1]
        from_cone = verts[j:] + verts[:j]
        assert [m.apply(v) for v in from_cone].index((-1, 0)) + 1 == cls.mu


def test_enumerate_builds_a_map_only_on_read(monkeypatch):
    # the certificate keeps its transform as four entries: a walk builds no
    # UnimodularMap, and each read of .transform builds one
    # a first run fills the certificate's table of presentations
    assert sum(1 for _ in enumerate_one_singularity(7)) == 4144
    built = 0
    init = UnimodularMap.__init__

    def counting(self, *entries):
        nonlocal built
        built += 1
        init(self, *entries)

    monkeypatch.setattr(UnimodularMap, "__init__", counting)
    found = list(enumerate_one_singularity(7))
    assert (len(found), built) == (4144, 0)
    for reads in (1, 2):
        assert all(cls.transform.det in (1, -1) for _, cls in found)
        assert built == reads * 4144


def test_enumerate_runs_bezout_once_per_box_point(monkeypatch):
    # the certificate takes last's Bezout pair from the search's line
    # table, so bezout runs once per primitive box point, never per polygon
    calls = helpers.count_calls(monkeypatch, "bezout")
    assert sum(1 for _ in enumerate_one_singularity(7)) == 4144
    assert calls == {"bezout": len(delpezzo._primitive_box_points(7))}
    assert calls["bezout"] == 144


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 30), st.booleans(),
       st.randoms(use_true_random=False), st.integers(0, 3))
def test_normal_form_helper_matches_classification(k, p, mirror, rng, shears):
    # a family member (or the mirror presentation) under a unimodular map,
    # read from its singular cone, classifies the same both ways
    base = mirror_quad(p) if k == 2 and mirror else canonical_polygon(k, p)
    poly = apply_map(helpers.random_unimodular(rng, shears=shears), base)
    analysis = helpers.analysis_of(poly)
    (j,) = analysis.singular_indices
    verts = poly.vertices[j:] + poly.vertices[:j]
    cls = delpezzo._normal_form(verts, *bezout(*verts[0]),
                                cross(verts[0], verts[1]))
    assert cls == classify_one_singularity(analysis)
    assert (cls.k, cls.p) == (k, p)
    assert apply_map(cls.transform, poly) == canonical_polygon(k, p)

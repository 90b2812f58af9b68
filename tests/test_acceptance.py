"""End-to-end acceptance checks, one per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.  All numeric comparisons are exact (integers and
Fractions); the only tolerances are the pinned wall-clock budgets stated
in each criterion's detail line.
"""

import math
import pathlib
import random
import time
from fractions import Fraction

import helpers
from helpers import parse_ideal, relation_rank, span_membership
from ldpsurf import (apply_map, canonical_key, canonical_polygon,
                     classify_one_singularity, cone_invariants,
                     count_lattice_points, cross, enumerated_row, format_ideal,
                     graph_of, group_classes, index_parity_check, ldp_analyze,
                     minimal_system, minkowski_double, mirror_quad,
                     polygon_area2, reverse_graph, socius, surfaces_isomorphic,
                     table_formulas)

DATA = pathlib.Path(__file__).parent / "data"
PMAX = 50

_rows: dict = {}


def _row(k, p):
    if (k, p) not in _rows:
        _rows[(k, p)] = enumerated_row(k, p)
    return _rows[(k, p)]


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def cyclic_equal(a, b):
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    return any(b[i:] + b[:i] == a for i in range(len(b)))


def test_criterion_1_tables():
    t0 = time.perf_counter()
    bad = [(k, p) for p in range(1, PMAX + 1) for k in (1, 2, 3)
           if _row(k, p) != table_formulas(k, p)]
    dt = time.perf_counter() - t0
    ok = not bad and dt < 30.0
    _report(1, ok,
            f"closed-form tables equal direct counts for k=1..3, p<={PMAX} "
            f"(900 cells, {dt:.2f}s < 30s budget); mismatches: {bad}")


def test_criterion_2_fixture_ideals():
    t0 = time.perf_counter()
    fixtures = ((2, 1, 14, "quadrics_k2_p1.txt"),
                (3, 1, 9, "quadrics_k3_p1.txt"),
                (3, 3, 182, "quadrics_k3_p3.txt"))
    problems = []
    for k, p, count, name in fixtures:
        fix = parse_ideal((DATA / name).read_text())
        ours = minimal_system(helpers.embedding_of(canonical_polygon(k, p)))
        if len(fix) != count or ours.count != count:
            problems.append(f"{name}: size {len(fix)}/{ours.count} != {count}")
            continue
        if relation_rank(fix) != count:
            problems.append(f"{name}: fixture system is rank deficient")
        if not span_membership(parse_ideal(format_ideal(ours)), fix):
            problems.append(f"{name}: fixture not contained in computed span")
    dt = time.perf_counter() - t0
    ok = not problems and dt < 5.0
    _report(2, ok,
            f"reference systems (14, 9, 182 quadrics) have full rank and "
            f"span-match the computed minimal systems ({dt:.2f}s < 5s "
            f"budget); problems: {problems}")


def test_criterion_3_index_law():
    bad = []
    for p in range(1, PMAX + 1):
        expect = (p + 1) // 2 if p % 2 else p + 1
        for k in (1, 2, 3):
            got = ldp_analyze(canonical_polygon(k, p)).index
            if got != expect or (k, p) not in index_parity_check(got):
                bad.append((k, p, got))
    _report(3, not bad,
            f"index equals (p+1)/2 for odd p and p+1 for even p, and "
            f"(k, p) is consistent with the parity constraint, p<={PMAX}; "
            f"violations: {bad}")


def test_criterion_4_degree_identity():
    bad = []
    for p in range(1, PMAX + 1):
        for k in (1, 2, 3):
            data = ldp_analyze(canonical_polygon(k, p))
            ell = data.index
            k2 = data.analysis.k2
            measured = _row(k, p).degree
            closed = table_formulas(k, p).degree
            checks = (
                k2 == helpers.polar_oracle(canonical_polygon(k, p))[1],
                Fraction(measured, ell * ell) == k2,
                Fraction(closed, ell * ell) == k2,
            )
            if not all(checks):
                bad.append((k, p, checks))
    _report(4, not bad,
            f"K^2 agrees four ways (ray formula, polar area, measured "
            f"degree / index^2, closed-form degree / index^2) for "
            f"p<={PMAX}; violations: {bad}")


def test_criterion_5_singularity_structure():
    bad = []
    for p in range(1, PMAX + 1):
        expected_cycle = {
            1: (0, 0, -(p + 1)),
            2: (0, 1, 1, -p),
            3: (1, 1, 1, -(p - 1), 1),
        }
        for k in (1, 2, 3):
            data = ldp_analyze(canonical_polygon(k, p))
            an = data.analysis
            singular = [an.cone_data[i] for i in an.singular_indices]
            if len(singular) != 1 or (singular[0].p, singular[0].q) != (p, p + 1):
                bad.append((k, p, "singularity type"))
            if not cyclic_equal(an.weights, expected_cycle[k]):
                bad.append((k, p, "weights", an.weights))
    _report(5, not bad,
            f"each family member has exactly one singular cone, of type "
            f"(p, p+1), and the frozen self-intersection cycle, p<={PMAX}; "
            f"violations: {bad}")


def test_criterion_6_classification_roundtrip():
    rng = random.Random(20260816)
    bad = []
    for i in range(200):
        k = rng.choice((1, 2, 3))
        p = rng.randint(1, 10)
        base = mirror_quad(p) if (k == 2 and i % 3 == 0) \
            else canonical_polygon(k, p)
        m = helpers.random_unimodular(rng, det=1 if i % 2 else -1)
        moved = apply_map(m, base)
        cls = classify_one_singularity(helpers.analysis_of(moved))
        target = canonical_polygon(k, p)
        if (cls.k, cls.p) != (k, p) \
                or apply_map(cls.transform, moved) != target \
                or not surfaces_isomorphic(helpers.analysis_of(moved),
                                           helpers.analysis_of(target)):
            bad.append((k, p, m.matrix()))
    _report(6, not bad,
            f"200 random unimodular images (both determinant signs) of "
            f"family members and mirror presentations classify back to "
            f"(k, p) with an exact normalizing transform and isomorphic "
            f"surfaces; violations: {bad}")


def test_criterion_7_enumeration():
    t0 = time.perf_counter()
    results = helpers.enumerated(4)
    classes = group_classes(helpers.class_counts(results))
    dt = time.perf_counter() - t0
    by_kp = sorted({(e["k"], e["p"]) for e in classes.values()})
    expected = sorted((k, p) for k in (1, 2, 3) for p in range(1, 8))
    ok = (len(results) == 944 and len(classes) == 21
          and by_kp == expected and dt < 60.0)
    _report(7, ok,
            f"exhaustive search in [-4,4]^2 finds 944 polygons in 21 "
            f"isomorphism classes, every one classified and isomorphism-"
            f"checked internally ({dt:.2f}s < 60s budget)")


def _random_cone(rng):
    while True:
        n = helpers.random_primitive(rng, 30)
        n2 = helpers.random_primitive(rng, 30)
        if cross(n, n2) > 0:
            return n, n2


def test_criterion_8_randomized_invariants():
    rng = random.Random(8128)
    n = 500
    fails = []

    for _ in range(n):  # Pick and doubling identities
        poly = helpers.random_lattice_polygon(rng)
        counts = count_lattice_points(poly)
        a2 = polygon_area2(poly)
        if 2 * counts.total != a2 + counts.boundary + 2:
            fails.append(("pick", poly.vertices))
        if minkowski_double(poly) != 2 * a2 + counts.boundary + 1:
            fails.append(("doubling", poly.vertices))

    graph_checked = 0
    while graph_checked < n:  # graph invariance and reversal involution
        poly = helpers.random_ldp_polygon(rng)
        g = graph_of(helpers.analysis_of(poly))
        m = helpers.random_unimodular(rng, det=1)
        h = graph_of(helpers.analysis_of(apply_map(m, poly)))
        if not helpers.graphs_isomorphic(g, h):
            fails.append(("graph-invariance", poly.vertices))
        if reverse_graph(reverse_graph(g)) != g:
            fails.append(("reverse-involution", poly.vertices))
        if canonical_key(g) != canonical_key(reverse_graph(g)):
            fails.append(("canonical-key", poly.vertices))
        graph_checked += 1

    for _ in range(n):  # socius is a modular inverse and an involution
        q = rng.randint(2, 500)
        p = rng.choice([x for x in range(1, q) if math.gcd(x, q) == 1])
        ph = socius(p, q)
        if (p * ph) % q != 1 or socius(ph, q) != p:
            fails.append(("socius", (p, q)))

    for _ in range(n):  # refinement chain determinants
        n, n2 = _random_cone(rng)
        data = cone_invariants(n, n2)
        chain = helpers.refinement_chain(n, n2)
        if chain[0] != n or chain[-1] != n2:
            fails.append(("chain-endpoints", (n, n2)))
        if any(cross(chain[i], chain[i + 1]) != 1 for i in range(len(chain) - 1)):
            fails.append(("chain-determinant", (n, n2)))
        if (data.after, data.before) != (chain[1], chain[-2]):
            fails.append(("chain-neighbours", (n, n2)))

    _report(8, not fails,
            f"{n} seeded instances per law: Pick identity, doubled-polygon "
            f"point count, graph unimodular invariance, reversal involution, "
            f"canonical key symmetry, socius inverse/involution, refinement "
            f"chain determinants; failures: {fails[:5]}")


def test_criterion_9_index_one_members():
    got = sorted((k, p) for p in range(1, PMAX + 1) for k in (1, 2, 3)
                 if ldp_analyze(canonical_polygon(k, p)).index == 1)
    expect = [(1, 1), (2, 1), (3, 1)]
    _report(9, got == expect,
            f"among p<={PMAX} exactly the p=1 members have index 1; "
            f"got {got}")

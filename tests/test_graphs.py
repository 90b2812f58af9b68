"""Circular weighted graphs and the surface isomorphism decision."""

import collections
import random

import helpers
from ldpsurf import (apply_map, canonical_key, canonical_polygon, graph_of,
                     mirror_quad, render_graph, reverse_graph,
                     surfaces_isomorphic)


def family_analysis(k: int, p: int):
    return helpers.analysis_of(canonical_polygon(k, p))


def test_graph_of_known_fan():
    g = graph_of(family_analysis(1, 1))
    assert g == ((2, 0, 1), (0, 1, 2), (0, 0, 1))


def test_reverse_graph_explicit():
    g = ((2, 0, 1), (0, 1, 2), (0, 0, 1))
    assert reverse_graph(g) == ((0, 1, 2), (0, 0, 1), (2, 0, 1))
    # the edge (2, 5) is traversed backwards as (socius(2, 5), 5) = (3, 5)
    g = ((1, 2, 5), (0, 0, 1), (3, 0, 1))
    assert reverse_graph(g) == ((3, 0, 1), (0, 3, 5), (1, 0, 1))


def test_reverse_graph_is_involution():
    rng = random.Random(401)
    for _ in range(300):
        poly = helpers.random_ldp_polygon(rng)
        g = graph_of(helpers.analysis_of(poly))
        assert reverse_graph(reverse_graph(g)) == g


def test_graphs_isomorphic_rotation_only():
    g = ((2, 0, 1), (3, 2, 5), (4, 0, 1))
    for shift in range(3):
        assert helpers.graphs_isomorphic(g, g[shift:] + g[:shift])
    # this cycle is chiral: its reversal is not a rotation of it
    assert not helpers.graphs_isomorphic(g, reverse_graph(g))
    assert canonical_key(g) == canonical_key(reverse_graph(g))


def test_graphs_isomorphic_rejects_different():
    a = graph_of(family_analysis(1, 2))
    b = graph_of(family_analysis(1, 3))
    c = graph_of(family_analysis(2, 2))
    assert not helpers.graphs_isomorphic(a, b)
    assert not helpers.graphs_isomorphic(a, c)


def test_surface_isomorphism_under_unimodular_maps():
    rng = random.Random(402)
    for _ in range(200):
        poly = helpers.random_ldp_polygon(rng)
        m = helpers.random_unimodular(rng)
        analysis = helpers.analysis_of(poly)
        moved = helpers.analysis_of(apply_map(m, poly))
        assert surfaces_isomorphic(analysis, moved)
        assert canonical_key(graph_of(analysis)) == \
            canonical_key(graph_of(moved))


def test_surfaces_isomorphic_matches_rotation_oracle():
    # images under GL2(Z) maps of both determinant signs, and unrelated pairs
    rng = random.Random(404)
    outcomes = collections.Counter()
    for i in range(400):
        poly = helpers.random_ldp_polygon(rng)
        if i % 3 == 2:
            other = helpers.random_ldp_polygon(rng)
        else:
            m = helpers.random_unimodular(rng, det=(1, -1)[i % 3])
            other = apply_map(m, poly)
        a, b = helpers.analysis_of(poly), helpers.analysis_of(other)
        g, h = graph_of(a), graph_of(b)
        rotated = helpers.graphs_isomorphic(g, h)
        reflected = helpers.graphs_isomorphic(g, reverse_graph(h))
        assert surfaces_isomorphic(a, b) == (rotated or reflected), \
            (poly.vertices, other.vertices)
        outcomes[rotated, reflected] += 1
    assert outcomes[False, False] > 0  # non-isomorphic pairs occur
    assert outcomes[False, True] > 0  # so do matches only by reversal


def test_mirror_presentations_are_isomorphic():
    for p in range(1, 8):
        assert surfaces_isomorphic(
            family_analysis(2, p), helpers.analysis_of(mirror_quad(p)))


def test_families_pairwise_distinct():
    keys = {}
    for p in range(1, 7):
        for k in (1, 2, 3):
            keys[(k, p)] = canonical_key(graph_of(family_analysis(k, p)))
    pairs = sorted(keys)
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            assert keys[a] != keys[b], (a, b)


def test_canonical_key_is_rotation_of_nodes():
    rng = random.Random(403)
    for _ in range(100):
        poly = helpers.random_ldp_polygon(rng)
        g = graph_of(helpers.analysis_of(poly))
        key = canonical_key(g)
        n = len(g)
        rotations = {(g + g)[i: i + n] for i in range(n)}
        rev = reverse_graph(g)
        rotations |= {(rev + rev)[i: i + n] for i in range(n)}
        assert key == min(rotations)
        assert key in rotations


def test_render_graph():
    g = graph_of(family_analysis(1, 1))
    assert render_graph(g) == "[2] - [0] -(1,2)- [0] -"
    assert "-(2,3)-" in render_graph(graph_of(family_analysis(1, 2)))

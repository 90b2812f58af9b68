"""Seeded inputs for the benchmark workloads.

This module does not import ldpsurf: the polygons, their unimodular
presentations and the index of the multi-singularity polygons come from its
own integer arithmetic, so the expectations the checks hold the program to do
not pass through the code being measured.  The same seed always gives the
same items and byte-identical input files.

Sizing limits (see README.md): family members stop at p = 40 and random
polygons at index 12, because the seed's point-materialising lattice sweep
makes larger inputs slow or exhausts memory.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

FAMILY_KS = (1, 2, 3)
FAMILY_PMAX = 40
MIRROR_SHARE = 0.3        # share of k = 2 members given in mirror form
MULTI_COUNT = 50          # random polygons with at least two singular cones
MULTI_BOX = 4             # their vertices lie in [-MULTI_BOX, MULTI_BOX]^2
MULTI_INDEX_MAX = 12
SHEARS = 3
SHEAR_MAX = 2
SKEW_LEVELS = FAMILY_PMAX  # strata of the family members' maps, see family_maps
QUADRICS_MEMBERS = ((1, 13), (2, 13), (3, 13), (3, 15))
QUADRICS_SKEW_LEVEL = SKEW_LEVELS // 2   # their maps come from the middle slice
ENUMERATE_BOUND = 7

WORKLOADS = ("analyze", "quadrics", "enumerate")


def cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def family_vertices(k: int, p: int, mirror: bool = False) -> list[tuple[int, int]]:
    """Vertices of the one-singularity family member (k, p); mirror selects
    the second presentation of the k = 2 family."""
    if mirror:
        if k != 2:
            raise ValueError("only the k = 2 family has a mirror form")
        return [(1, -1), (p, 1), (-1, 0), (0, -1)]
    verts = [(1, -1), (p, 1), (p - 1, 1), (-1, 0), (0, -1)]
    if k == 1:
        return [verts[0], verts[1], verts[3]]
    return verts[: k + 2]


def _shear_products() -> list[tuple[int, int, int, int]]:
    """Every equally likely outcome (a, b, c, d) of the shear sampler: SHEARS
    elementary shears, each upper or lower with entry in [-SHEAR_MAX,
    SHEAR_MAX], then a reflection or not.  A uniform choice from this list
    is one draw of the sampler."""
    steps = [(upper, s) for upper in (True, False)
             for s in range(-SHEAR_MAX, SHEAR_MAX + 1)]
    out = []
    for seq in itertools.product(steps, repeat=SHEARS):
        a, b, c, d = 1, 0, 0, 1
        for upper, s in seq:
            if upper:
                a, b = a + s * c, b + s * d      # [[1, s], [0, 1]] on the left
            else:
                c, d = c + s * a, d + s * b      # [[1, 0], [s, 1]] on the left
        out.append((a, b, c, d))
        out.append((a, b, -c, -d))               # [[1, 0], [0, -1]] on the left
    return out


MAPS = _shear_products()


def apply(m, verts):
    a, b, c, d = m
    return [(a * x + b * y, c * x + d * y) for x, y in verts]


def convex_hull(points) -> list[tuple[int, int]]:
    """Vertices of the convex hull, anticlockwise, no collinear points."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for pt in seq:
            while len(out) >= 2 and cross(
                    (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                    (pt[0] - out[-1][0], pt[1] - out[-1][1])) <= 0:
                out.pop()
            out.append(pt)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def edges(verts):
    n = len(verts)
    return [(verts[i], verts[(i + 1) % n]) for i in range(n)]


def facet_levels(verts) -> list[int]:
    """Lattice distance of each facet line from the origin: the determinant of
    the cone over the facet divided by the facet's lattice length."""
    return [cross(v, w) // math.gcd(w[0] - v[0], w[1] - v[1])
            for v, w in edges(verts)]


def singular_cones(verts) -> int:
    """Cones over facets whose generators span a proper sublattice."""
    return sum(1 for v, w in edges(verts) if cross(v, w) > 1)


def index_of(verts) -> int:
    return math.lcm(*facet_levels(verts))


def dilated_polar(verts) -> list[tuple[int, int]]:
    """Vertices of the index-dilated polar polygon: one vertex
    index * (a, b) / level per facet with inner normal (a, b)."""
    levels = facet_levels(verts)
    index = math.lcm(*levels)
    dilated = []
    for (v, w), level in zip(edges(verts), levels):
        g = math.gcd(w[0] - v[0], w[1] - v[1])
        a, b = (v[1] - w[1]) // g, (w[0] - v[0]) // g
        dilated.append((index * a // level, index * b // level))
    return dilated


def embedding_numbers(verts) -> dict:
    """What `analyze` reports about the embedding of a log del Pezzo polygon,
    from its facet lines alone: Pick's theorem turns the area and boundary of
    the dilated polar polygon into point counts, for it and for its double."""
    dilated = dilated_polar(verts)
    index = index_of(verts)
    degree = abs(sum(cross(u, x) for u, x in edges(dilated)))
    boundary = sum(math.gcd(x[0] - u[0], x[1] - u[1]) for u, x in edges(dilated))
    ambient_dim = (degree + boundary) // 2
    doubled_points = 2 * degree + boundary + 1
    return {
        "index": index,
        "singular_count": singular_cones(verts),
        "ambient_dim": ambient_dim,
        "degree": degree,
        "boundary_points": boundary,
        "sectional_genus": ambient_dim - boundary + 1,
        "quadrics": (ambient_dim + 1) * (ambient_dim + 2) // 2 - doubled_points,
    }


def family_maps(rng: random.Random, k: int) -> list[tuple[int, int, int, int]]:
    """One draw of the shear sampler for each p = 1..FAMILY_PMAX, stratified.

    MAPS is ranked by how wide each map makes the dilated polar polygon of
    the member (k, FAMILY_PMAX) in x, which sets the number of columns the
    program sweeps, and cut into SKEW_LEVELS equal slices.  Member p draws
    uniformly from slice (p - 1 + k) % SKEW_LEVELS, so every slice serves
    the same number of members and, over the workload, the draws follow the
    sampler's distribution; the seed picks the map inside each slice.  The
    column load and the slowest items then vary far less from seed to seed
    than with independent draws.
    """
    polar = dilated_polar(family_vertices(k, FAMILY_PMAX))

    def x_width(m):
        # the polar of m(P) is m^-T(P*); the first row of m^-T is +-(d, -c)
        a, b, c, d = m
        xs = [d * x - c * y for x, y in polar]
        return max(xs) - min(xs)

    ranked = sorted(MAPS, key=x_width)
    size = len(ranked) // SKEW_LEVELS
    maps = []
    for p in range(1, FAMILY_PMAX + 1):
        level = (p - 1 + k) % SKEW_LEVELS
        maps.append(rng.choice(ranked[level * size:(level + 1) * size]))
    return maps


def polar_reach(m, polar) -> int:
    """Largest absolute coordinate of the dilated polar polygon of m(P), given
    polar, the dilated polar polygon of P.  It sets how many digits the
    coordinates in the `quadrics` output of m(P) have."""
    a, b, c, d = m
    return max(max(abs(d * x - c * y), abs(a * y - b * x)) for x, y in polar)


def quadrics_map(rng: random.Random, k: int, p: int) -> tuple[int, int, int, int]:
    """One draw of the shear sampler for the `quadrics` member (k, p), from
    slice QUADRICS_SKEW_LEVEL of MAPS ranked by polar_reach and cut into
    SKEW_LEVELS equal slices.  The output size, peak memory and time of the
    member then vary little from seed to seed: over the whole sampler they
    span about 7.3-10 MB of output for (3, 15)."""
    polar = dilated_polar(family_vertices(k, p))
    ranked = sorted(MAPS, key=lambda m: polar_reach(m, polar))
    size = len(ranked) // SKEW_LEVELS
    start = QUADRICS_SKEW_LEVEL * size
    return rng.choice(ranked[start:start + size])


def random_multi_singularity(rng: random.Random) -> list[tuple[int, int]]:
    """Log del Pezzo polygon with primitive vertices in the box, the origin
    strictly inside, at least two singular cones and index <= MULTI_INDEX_MAX."""
    while True:
        pts = []
        for _ in range(rng.randint(3, 7)):
            x = rng.randint(-MULTI_BOX, MULTI_BOX)
            y = rng.randint(-MULTI_BOX, MULTI_BOX)
            if math.gcd(x, y) == 1:
                pts.append((x, y))
        hull = convex_hull(pts)
        if len(hull) < 3 or any(cross(v, w) <= 0 for v, w in edges(hull)):
            continue
        if singular_cones(hull) >= 2 and index_of(hull) <= MULTI_INDEX_MAX:
            return hull


def polygon_text(verts, rng: random.Random) -> str:
    """One of the two file formats, starting at a random vertex, in either
    orientation; the program must canonicalise all of these."""
    start = rng.randrange(len(verts))
    verts = verts[start:] + verts[:start]
    if rng.random() < 0.5:
        verts = verts[::-1]
    if rng.random() < 0.5:
        return json.dumps([list(v) for v in verts]) + "\n"
    return "".join(f"{x} {y}\n" for x, y in verts)


def make_items(workload: str, seed: int) -> list[dict]:
    """Items of one workload: each has the argv for the CLI, with {dir} standing
    for the input directory and {out} for the directory of output files, the
    input file text if any, and what the checks expect of the output."""
    rng = random.Random(f"ldpsurf-bench:{workload}:{seed}")
    items = []
    if workload == "analyze":
        mirrored = set(rng.sample(range(1, FAMILY_PMAX + 1),
                                  round(MIRROR_SHARE * FAMILY_PMAX)))
        for k in FAMILY_KS:
            for p, m in enumerate(family_maps(rng, k), start=1):
                mirror = k == 2 and p in mirrored
                verts = apply(m, family_vertices(k, p, mirror))
                items.append({"kind": "family", "k": k, "p": p,
                              "mirror": mirror, "verts": verts})
        for _ in range(MULTI_COUNT):
            verts = random_multi_singularity(rng)
            items.append({"kind": "multi", "verts": verts,
                          "expect": embedding_numbers(verts)})
        for i, it in enumerate(items):
            it["file"] = f"a{i:03d}.txt"
            it["text"] = polygon_text(it["verts"], rng)
            it["argv"] = ["analyze", "{dir}/" + it["file"], "--json"]
    elif workload == "quadrics":
        for i, (k, p) in enumerate(QUADRICS_MEMBERS):
            verts = apply(quadrics_map(rng, k, p), family_vertices(k, p))
            items.append({
                "kind": "family", "k": k, "p": p, "verts": verts,
                "file": f"q{i}.txt", "text": polygon_text(verts, rng),
                "out": f"q{i}.ideal",
                "argv": ["quadrics", f"{{dir}}/q{i}.txt",
                         "--out", f"{{out}}/q{i}.ideal"],
            })
    elif workload == "enumerate":
        # exhaustive search: nothing to draw from the seed
        items.append({"kind": "enumerate", "bound": ENUMERATE_BOUND,
                      "argv": ["enumerate", "--bound", str(ENUMERATE_BOUND)]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def write_items(items: list[dict], directory: str) -> list[list[str]]:
    """Write the input files and return each item's argv with paths filled."""
    os.makedirs(directory, exist_ok=True)
    for it in items:
        if "text" in it:
            with open(os.path.join(directory, it["file"]), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(it["text"])
    return [[a.replace("{dir}", directory) for a in it["argv"]] for it in items]

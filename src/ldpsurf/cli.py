"""Command line front end.

Exit codes: 0 success, 2 invalid input or out of memory, 3 precondition
violation (not exactly one singularity where one is required), 4 internal
consistency failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from .delpezzo import (Classification, canonical_polygon,
                       classify_one_singularity, enumerate_one_singularity,
                       group_classes, ldp_analyze)
from .embedding import (TableRow, embedding_data, enumerated_row,
                        format_ideal, minimal_system,
                        quadric_count_by_counting, table_formulas)
from .errors import ConsistencyError, DomainError, SingularityCountError
from .fans import FanAnalysis, analyze_fan, fan_from_polygon
from .graphs import graph_of, render_graph
from .lattice import LatticePolygon, read_polygon_file


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _load_input(args) -> LatticePolygon:
    if (args.canonical is None) == (args.polygon is None):
        raise DomainError("give either a polygon file or --canonical K P")
    if args.canonical is not None:
        return canonical_polygon(*args.canonical)
    return read_polygon_file(args.polygon)


def _classification_or_none(a: FanAnalysis) -> Classification | None:
    try:
        return classify_one_singularity(a)
    except SingularityCountError:
        return None


def _analyze_payload(q: LatticePolygon) -> dict:
    data = ldp_analyze(q)
    emb = embedding_data(data)
    cls = _classification_or_none(data.analysis)
    singularities = []
    for i in data.analysis.singular_indices:
        cd = data.analysis.cone_data[i]
        cone = data.analysis.fan.cone(i)
        singularities.append({
            "cone": i + 1,
            "rays": [list(cone.n), list(cone.n2)],
            "p": cd.p,
            "q": cd.q,
            "type": cd.singularity,
            "local_index": cd.local_index,
        })
    return {
        "vertices": [list(v) for v in q.vertices],
        "picard": data.analysis.picard,
        "index": data.index,
        "k2": _frac_str(data.analysis.k2),
        "singular_count": data.singular_count,
        "singularities": singularities,
        "graph": render_graph(graph_of(data.analysis)),
        "polar_vertices": [
            [_frac_str(x), _frac_str(y)] for x, y in data.polar.vertices
        ],
        "embedding": {
            "ambient_dim": emb.ambient_dim,
            "degree": emb.degree,
            "boundary_points": emb.boundary_count,
            "sectional_genus": emb.interior_count,
            "quadrics": quadric_count_by_counting(emb),
        },
        "classification": _classification_payload(cls),
    }


def _classification_payload(cls: Classification | None) -> dict | None:
    if cls is None:
        return None
    return {
        "k": cls.k,
        "p": cls.p,
        "normal_form": cls.normal_form,
        "mu": cls.mu,
        "transform": cls.transform.matrix(),
    }


def _print_analysis(payload: dict) -> None:
    print("vertices:", " ".join(f"({x},{y})" for x, y in payload["vertices"]))
    print(f"picard rank: {payload['picard']}")
    print(f"index: {payload['index']}")
    print(f"K^2: {payload['k2'].removesuffix('/1')}")
    print(f"singular cones: {payload['singular_count']}")
    for s in payload["singularities"]:
        rays = ",".join(f"({x},{y})" for x, y in s["rays"])
        print(f"  cone {s['cone']}: rays {rays}  type ({s['p']},{s['q']})  "
              f"singularity {s['type']}  local index {s['local_index']}")
    print("graph:", payload["graph"])
    polar = " ".join(
        "(" + ", ".join(c for c in v) + ")" for v in payload["polar_vertices"]
    )
    print("polar vertices:", polar)
    emb = payload["embedding"]
    print(f"embedding: ambient dimension {emb['ambient_dim']}, "
          f"degree {emb['degree']}, boundary points {emb['boundary_points']}, "
          f"sectional genus {emb['sectional_genus']}")
    print(f"quadrics: {emb['quadrics']}")
    cls = payload["classification"]
    if cls is None:
        print("classification: not a one-singularity polygon")
    else:
        print(f"classification: k={cls['k']} p={cls['p']} "
              f"({cls['normal_form']} form, mu={cls['mu']})")
        print(f"  transform: {cls['transform']}")


def _cmd_analyze(args) -> int:
    payload = _analyze_payload(_load_input(args))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_analysis(payload)
    return 0


def _cmd_classify(args) -> int:
    q = read_polygon_file(args.polygon)
    cls = classify_one_singularity(analyze_fan(fan_from_polygon(q)))
    if args.json:
        print(json.dumps(_classification_payload(cls), indent=2, sort_keys=True))
    else:
        print(f"k={cls.k} p={cls.p} ({cls.normal_form} form, mu={cls.mu})")
        print(f"transform: {cls.transform.matrix()}")
    return 0


def _cmd_quadrics(args) -> int:
    report = minimal_system(embedding_data(ldp_analyze(_load_input(args))))
    text = format_ideal(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{report.count} generators written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_tables(args) -> int:
    if args.pmax < 1:
        raise DomainError("--pmax must be >= 1")
    checks = 0
    failures = []
    for p in range(1, args.pmax + 1):
        for k in (1, 2, 3):
            expect = table_formulas(k, p)
            got = enumerated_row(k, p)
            for name in (f.name for f in dataclasses.fields(TableRow)):
                checks += 1
                a, b = getattr(expect, name), getattr(got, name)
                if a != b:
                    failures.append(f"k={k} p={p} {name}: formula {a}, measured {b}")
    if failures:
        for f in failures:
            print("MISMATCH", f)
        raise ConsistencyError(f"{len(failures)} of {checks} checks failed")
    print(f"{checks} checks passed")
    return 0


def _cmd_enumerate(args) -> int:
    results = enumerate_one_singularity(args.bound)
    classes = group_classes(results)
    print(f"bound={args.bound}: {len(results)} polygons in "
          f"{len(classes)} isomorphism classes")
    summary: dict[tuple[int, int], int] = {}
    for entry in classes.values():
        summary[(entry["k"], entry["p"])] = summary.get((entry["k"], entry["p"]), 0) + 1
    for (k, p) in sorted(summary):
        print(f"  k={k} p={p}: {summary[(k, p)]} class(es)")
    return 0


@functools.cache  # built on first use; parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpsurf",
        description=("Classify toric log del Pezzo surfaces with one "
                     "singularity and compute their quadric embeddings."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, file_optional=True):
        if file_optional:
            p.add_argument("polygon", nargs="?", default=None,
                           help="polygon file (vertex lines or [[x,y],...])")
            p.add_argument("--canonical", nargs=2, type=int,
                           metavar=("K", "P"), default=None,
                           help="use the canonical family member instead of a file")
        else:
            p.add_argument("polygon", help="polygon file")

    p_analyze = sub.add_parser("analyze", help="full invariant report")
    add_input(p_analyze)
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_classify = sub.add_parser("classify", help="one-singularity normal form")
    add_input(p_classify, file_optional=False)
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=_cmd_classify)

    p_quadrics = sub.add_parser("quadrics", help="minimal quadric system")
    add_input(p_quadrics)
    p_quadrics.add_argument("--out", default=None, help="write to a file")
    p_quadrics.set_defaults(func=_cmd_quadrics)

    p_tables = sub.add_parser("tables",
                              help="check closed-form tables against direct counts")
    p_tables.add_argument("--pmax", type=int, default=20)
    p_tables.set_defaults(func=_cmd_tables)

    p_enum = sub.add_parser("enumerate",
                            help="exhaustive search in a coordinate box")
    p_enum.add_argument("--bound", type=int, required=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularityCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as exc:  # ParseError is a DomainError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

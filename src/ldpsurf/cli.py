"""Command line front end.

Exit codes: 0 success, 2 invalid input or out of memory, 3 precondition
violation (not exactly one singularity where one is required), 4 internal
consistency failure, 130 interrupted (Ctrl-C), 141 the output pipe was
closed (128 + SIGPIPE, as a shell reports it; nothing on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from fractions import Fraction

from .delpezzo import (MAX_BOUND, Classification, canonical_polygon,
                       classify_one_singularity, count_one_singularity,
                       group_classes, ldp_analyze)
from .embedding import (TableRow, embedding_data, enumerated_row,
                        minimal_system, quadric_count_by_counting,
                        table_formulas, write_ideal)
from .errors import ConsistencyError, DomainError, SingularityCountError
from .fans import analyze_fan, fan_from_polygon
from .graphs import graph_of, render_graph
from .lattice import (LatticePolygon, lattice_points, polygon_to_array,
                      read_polygon_file)


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _load_input(args) -> LatticePolygon:
    if (args.canonical is None) == (args.polygon is None):
        raise DomainError("give either a polygon file or --canonical K P")
    if args.canonical is not None:
        return canonical_polygon(*args.canonical)
    return read_polygon_file(args.polygon)


def _analyze_payload(q: LatticePolygon) -> dict:
    data = ldp_analyze(q)
    emb = embedding_data(data)
    # the one sweep checks the vertex route (ROADMAP item 2 drops it)
    boundary, interior = lattice_points(data.dilated_polar)
    pick = (emb.ambient_dim + 1, emb.boundary_count, emb.interior_count)
    swept = (len(boundary) + len(interior), len(boundary), len(interior))
    if swept != pick:
        raise ConsistencyError("swept points differ from Pick's count",
                               check="swept (n, B, I) == Pick (n, B, I)",
                               expected=pick, got=swept)
    try:
        cls = classify_one_singularity(data.analysis)
    except SingularityCountError:
        cls = None
    singularities = []
    rays = data.analysis.rays
    for i in data.analysis.singular_indices:
        cd = data.analysis.cone_data[i]
        singularities.append({
            "cone": i + 1,
            "rays": [list(rays[i]), list(rays[(i + 1) % len(rays)])],
            "p": cd.p,
            "q": cd.q,
            "type": cd.singularity,
            "local_index": cd.local_index,
        })
    return {
        "vertices": polygon_to_array(q),
        "picard": data.analysis.picard,
        "index": data.index,
        "k2": _frac_str(data.analysis.k2),
        "singular_count": len(data.analysis.singular_indices),
        "singularities": singularities,
        "graph": render_graph(graph_of(data.analysis)),
        "polar_vertices": [  # P = index · polar keeps the polar's order
            [_frac_str(Fraction(c, data.index)) for c in v]
            for v in data.dilated_polar.vertices
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
    return None if cls is None else {
        "k": cls.k, "p": cls.p, "normal_form": cls.normal_form, "mu": cls.mu,
        "transform": cls.transform.matrix()}


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
    polar = " ".join(f"({', '.join(v)})" for v in payload["polar_vertices"])
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


# largest quadrics system, set by time: --canonical 3 43 (67,961,322
# generators) takes 6.7 s and 21.7 MB max RSS and writes 2.97 GB with --out
# on one Intel Xeon core under Python 3.11
MAX_GENERATORS = 70_000_000


def _cmd_quadrics(args) -> int:
    emb = embedding_data(ldp_analyze(_load_input(args)))
    count = quadric_count_by_counting(emb)  # from P's vertices, before a sweep
    if count > MAX_GENERATORS:
        raise DomainError(f"{count} generators, more than {MAX_GENERATORS}")
    report = minimal_system(emb)
    if args.out is None:
        write_ideal(report, sys.stdout)
        return 0
    target = os.path.realpath(args.out)  # a symlink stays a symlink
    # a device or pipe cannot be renamed over, so it is written directly; a
    # file is renamed into place only once complete, so a failed or
    # interrupted run leaves no partial file
    direct = os.path.exists(target) and not os.path.isfile(target)
    path = target if direct else f"{target}.{os.getpid()}.tmp"
    try:
        # 64 KiB: (3, 15) is written in 29 ms, in 35 ms through 8 KiB (medians)
        fh = open(path, "w" if direct else "x", encoding="utf-8",
                  buffering=1 << 16)
    except OSError as exc:
        exc.filename = args.out  # the path given, not the one opened
        raise
    if direct:
        with fh:
            write_ideal(report, fh)
    else:
        try:
            with fh:
                if os.path.isfile(target):  # a replaced file keeps its mode
                    os.chmod(path, stat.S_IMODE(os.stat(target).st_mode))
                write_ideal(report, fh)
            os.replace(path, target)
        except BaseException:
            os.remove(path)
            raise
    print(f"{report.count} generators written to {args.out}")
    return 0


# largest tables --pmax: a row counts P and 2P by columns, building no point;
# --pmax 150 takes 0.17 s and 15.5 MB on one Intel Xeon core, Python 3.11
MAX_PMAX = 150


def _cmd_tables(args) -> int:
    if not 1 <= args.pmax <= MAX_PMAX:
        raise DomainError(f"--pmax must be between 1 and {MAX_PMAX}")
    checks = 0
    failures = []
    for p in range(1, args.pmax + 1):
        for k in (1, 2, 3):
            expect = table_formulas(k, p)
            got = enumerated_row(k, p)
            for name in TableRow._fields:
                checks += 1
                a, b = getattr(expect, name), getattr(got, name)
                if a != b:
                    failures.append(f"k={k} p={p} {name}: formula {a}, measured {b}")
    if failures:
        for f in failures:
            print("MISMATCH", f)
        raise ConsistencyError(f"{len(failures)} of {checks} checks failed",
                               check="tables closed form == measured",
                               expected=0, got=len(failures))
    print(f"{checks} checks passed")
    return 0


def _cmd_enumerate(args) -> int:
    classes = group_classes(count_one_singularity(args.bound))
    print(f"bound={args.bound}: {sum(classes.values())} polygons in "
          f"{len(classes)} isomorphism classes")
    for k, p in sorted(classes):
        print(f"  k={k} p={p}: 1 class(es)")
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
    p_tables.add_argument("--pmax", type=int, default=20,
                          help=f"largest p, 1 to {MAX_PMAX} (exit 2 past)")
    p_tables.set_defaults(func=_cmd_tables)

    p_enum = sub.add_parser("enumerate",
                            help="exhaustive search in a coordinate box")
    p_enum.add_argument("--bound", type=int, required=True,
                        help=f"box half-width, 1 to {MAX_BOUND} (exit 2 past)")
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # before OSError: the reader left, not bad input
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SingularityCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as exc:  # ParseError is a DomainError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        if None not in (exc.check, exc.expected, exc.got):
            print(f"  check {exc.check}: expected {exc.expected}, "
                  f"got {exc.got}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracer for the traced benchmark run, plus the arithmetic the
benchmark reports: span self time and Harrell-Davis percentiles.

The tracer wraps public functions of ldpsurf from the outside, in the module
that defines each one and in every ldpsurf module that imported the name, so
calls between modules are seen too.  It is installed only inside a benchmark
worker and removed again before the worker reports, so an untraced pass runs
the package unmodified.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

PACKAGE = "ldpsurf"

# Public functions traced, by defining module.  Per-element constructors
# (Binomial, LatticePolygon) stay unwrapped: their cost belongs to the
# caller's self time.
TRACED = {
    "lattice": ("lattice_points", "count_lattice_points", "minkowski_double",
                "edge_lines", "load_polygon", "apply_map"),
    "cones": ("cone_invariants",),
    "fans": ("fan_from_polygon", "analyze_fan"),
    "graphs": ("graph_of", "surfaces_isomorphic", "canonical_key"),
    "delpezzo": ("enumerate_one_singularity", "group_classes",
                 "classify_one_singularity", "ldp_analyze"),
    "embedding": ("embedding_data", "quadric_count_by_counting", "sum_fibers",
                  "minimal_system", "format_ideal"),
    "cli": ("main",),
}


def _points_materialized(result) -> int:
    boundary, interior = result
    return len(boundary) + len(interior)


# Counters read off a traced function's return value: span name -> (counter
# name, function of the result).
MEASURES = {
    "lattice.lattice_points": ("lattice.points_materialized", _points_materialized),
    "embedding.minimal_system": ("embedding.generators", lambda r: r.count),
    "embedding.format_ideal": ("embedding.output_bytes", len),
    "cli.main": ("cli.exit_nonzero", lambda code: int(code != 0)),
}


class Tracer:
    """Records one span per call of a wrapped function.

    A span is (name, start, end, parent) with parent the index of the
    enclosing span in `spans`, or -1 at the top level.
    """

    def __init__(self, traced: dict = TRACED):
        self.traced = traced
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        measure = MEASURES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if measure is not None:
                counters[measure[0]] += measure[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever the package binds it.  A
        listed name that does not exist is recorded in `absent`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for mod_name, names in self.traced.items():
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for fn_name in names:
                span_name = f"{mod_name}.{fn_name}"
                fn = getattr(home, fn_name, None) if home is not None else None
                if not callable(fn):
                    self.absent.append(span_name)
                    continue
                wrapper = self._wrap(span_name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original function object."""
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and total self time in seconds."""
    table: dict[str, dict[str, float]] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return table


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile (0 < q < 100): a weighted
    mean of all order statistics, the i-th of n weighted by the mass that the
    Beta(q'(n + 1), (1 - q')(n + 1)) distribution, q' = q / 100, puts on
    [(i - 1) / n, i / n].  Unlike the value at one rank it moves smoothly when
    items trade places around a gap in the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    xs = sorted(values)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(xs))

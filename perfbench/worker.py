"""One benchmark worker: a fresh interpreter that imports ldpsurf, writes the
workload's inputs and runs every item once through ldpsurf.cli.main, one
invocation at a time.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR \
        --result FILE [--trace | --setup-only]

With --trace it runs the items twice, first untraced and then under the span
tracer; with --setup-only it stops once the inputs are written.  Output
files of pass n go to DIR/pass<n>.  The result (set-up time, per-item
latency, the calibration readings taken after set-up and during each pass,
exit code and captured output, peak RSS and, when traced, the per-function
summary) is written as JSON to FILE.  The output checks run in
the parent benchmark process, so they add nothing to this process's memory
or time.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402


# On a shared host, other tenants slow one vCPU at a time, and which one is
# slowed changes within about a second.  At the start of a pass the worker
# pins itself to the allowed CPU that runs a short probe loop fastest; at
# most this many CPUs are probed.
PROBED_CPUS = 4
# While a pass runs, a calibration reading is taken this often (wall clock).
SAMPLE_INTERVAL_S = 0.05
# Readings taken right after set-up; the set-up is scaled by their mean.
SETUP_READINGS = 5


def _probe() -> float:
    start = time.perf_counter()
    acc = 0
    for j in range(10_000):
        acc += j * j % 7
    return time.perf_counter() - start


def allowed_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))[:PROBED_CPUS]
    except (AttributeError, OSError):  # no CPU affinity on this platform
        return []


def pin_to_fastest(cpus: list[int]) -> None:
    if len(cpus) < 2:
        return
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((_probe(), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def calibration_s() -> float:
    """One reading of the host's current speed: the time of a fixed loop of
    the benchmark's own lattice arithmetic (facet levels, dilated polars and
    Pick counts from gen.py, then a set of lattice points), about 1 ms.  It
    never calls ldpsurf, so a change to the program does not change its
    cost; only the host does.  The collector is off meanwhile, so the
    reading never pays for the program's garbage."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for m in gen.MAPS[:24]:
            gen.embedding_numbers(gen.apply(m, gen.family_vertices(3, 30)))
        pts = [(x, y) for x in range(-20, 20) for y in range(-20, 20)
               if (3 * x + 5 * y) % 7]
        len({(x + y, x - y) for x, y in pts})
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Takes a calibration reading every SAMPLE_INTERVAL_S seconds from a
    SIGALRM handler, in the middle of whatever the program is doing, so the
    readings cover a pass evenly however long its items are.  The first
    reading is taken on entry, so even a pass shorter than the interval has
    one.  Each reading is kept with the time it started.  spent_s adds up the time spent in the
    handler, which the caller takes out of the item latencies."""

    def __init__(self):
        self.readings: list[float] = []
        self.times: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(start)
        self.readings.append(calibration_s())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def run_pass(argvs: list[list[str]], out_dir: str) -> dict:
    cli = sys.modules["ldpsurf.cli"]
    os.makedirs(out_dir, exist_ok=True)
    argvs = [[a.replace("{out}", out_dir) for a in argv] for argv in argvs]
    latencies, spans_s, codes, stdouts, stderrs = [], [], [], [], []
    pin_to_fastest(allowed_cpus())
    clock = time.perf_counter
    with Sampler() as sampler:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            spent = sampler.spent_s
            t = clock()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    # looked up on every call, so a traced pass sees the wrapper
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # an item failure must not end the pass
                    traceback.print_exc()
                    code = -1
            end = clock()
            latencies.append(end - t - (sampler.spent_s - spent))
            spans_s.append((t, end))
            codes.append(code)
            stdouts.append(out.getvalue())
            stderrs.append(err.getvalue())
    return {"latencies_s": latencies, "item_spans_s": spans_s,
            "calibrations_s": sampler.readings,
            "calibration_times_s": sampler.times, "codes": codes,
            "stdout": stdouts, "stderr": stderrs, "out_dir": out_dir}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true",
                      help="stop after writing the inputs")
    args = parser.parse_args(argv)

    import ldpsurf.cli  # noqa: F401  (the import is part of set-up)
    items = gen.make_items(args.workload, args.seed)
    argvs = gen.write_items(items, args.dir)
    setup_s = time.perf_counter() - _T0

    digest = hashlib.sha256()
    for it in items:
        if "file" in it:
            with open(os.path.join(args.dir, it["file"]), "rb") as fh:
                digest.update(fh.read())
    readings = [calibration_s() for _ in range(SETUP_READINGS)]
    result = {"setup_s": setup_s,
              "setup_calibration_s": sum(readings) / len(readings),
              "inputs_sha256": digest.hexdigest(), "passes": []}
    if not args.setup_only:
        result["passes"].append(run_pass(argvs, os.path.join(args.dir, "pass0")))
    if args.trace:
        tracer = spans.Tracer()
        with tracer:
            traced = run_pass(argvs, os.path.join(args.dir, "pass1"))
        traced["trace"] = {
            "summary": spans.summarize(tracer.spans),
            "counters": dict(tracer.counters),
            "absent": tracer.absent,
            "spans": len(tracer.spans),
        }
        result["passes"].append(traced)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""ldpsurf benchmark.

    python3 perfbench/run.py --workload {analyze,quadrics,enumerate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  Until S seconds have passed, the benchmark starts fresh worker
processes one after another (worker.py); each imports ldpsurf, writes the
workload's inputs from the seed and runs every item once through
ldpsurf.cli.main, one invocation after the other.  This process checks
every output (checks.py) and prints one line per metric, then, as its last
line, a JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 each worker runs the items once untraced and once under the
span tracer (spans.py), and the metrics are the per-layer ones.  The exit
code is 0 when every output is correct.  README.md describes the workloads,
the metrics and their limits.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0  # every run ends well inside the 180 s it is allowed
# Set-up-only workers started before each measuring worker, so that setup_s
# is a median over many set-ups spread across the run.
SETUPS_PER_WORKER = 2
# The reference host speed: every reported time is scaled to a host on which
# one calibration reading (worker.calibration_s) takes this long.  It is
# about what that reading took in the fast phases of the shared 2-vCPU Xeon
# virtual machine the benchmark was written on, so calibrated times read
# close to that machine's undisturbed wall-clock times.
REFERENCE_CALIBRATION_S = 0.001
# An item is scaled by the readings taken while it ran and this long before
# and after it: the host's speed changes within about a second.
CALIBRATION_WINDOW_S = 0.25


def fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(args, work: Path, mode: str, timeout: float) -> dict:
    """Run one worker process to completion and return its result.  mode is
    "" (one untraced pass), "--trace" or "--setup-only"."""
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(work),
           "--result", str(result_path)] + ([mode] if mode else [])
    # a fixed hash seed keeps any str-keyed set order, and so the work done,
    # the same from run to run
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def output_digest(item: dict, code, stdout: str, out_dir: str) -> str:
    h = hashlib.sha256(f"{code}\0{stdout}\0".encode())
    if "out" in item:
        try:
            with open(os.path.join(out_dir, item["out"]), "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"\0missing")
    return h.hexdigest()


class Verdicts:
    """Checks each item's output once per distinct output: a later pass that
    produced byte-identical output (same digest) gets the same verdict."""

    def __init__(self, check, items: list[dict]):
        self.check = check
        self.items = items
        self.cache: dict[tuple[int, str], str | None] = {}

    def judge(self, run: dict) -> list[str | None]:
        out = []
        for i, item in enumerate(self.items):
            code, stdout = run["codes"][i], run["stdout"][i]
            key = (i, output_digest(item, code, stdout, run["out_dir"]))
            if key not in self.cache:
                reason = self.check(item, code, stdout, run["out_dir"])
                if reason is not None and run["stderr"][i]:
                    reason += f" [stderr: {run['stderr'][i].strip()[-300:]}]"
                self.cache[key] = reason
            out.append(self.cache[key])
        return out


def calibrated(latency_s: float, calibration_s: float) -> float:
    """A time taken while the calibration loop took calibration_s, scaled to
    the reference host speed."""
    return latency_s * REFERENCE_CALIBRATION_S / calibration_s


def item_calibrations(run: dict) -> list[float]:
    """Each item's calibration: the mean of the pass's readings taken from
    CALIBRATION_WINDOW_S before the item started to CALIBRATION_WINDOW_S
    after it ended, or of all the pass's readings if none fell there."""
    times, readings = run["calibration_times_s"], run["calibrations_s"]
    out = []
    for start, end in run["item_spans_s"]:
        lo = bisect.bisect_left(times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(times, end + CALIBRATION_WINDOW_S)
        out.append(statistics.fmean(readings[lo:hi] or readings))
    return out


def item_times(runs: list[dict]) -> list[float]:
    """Each item's calibrated latency, median over the passes."""
    per_pass = [[calibrated(lat, cal) for lat, cal
                 in zip(r["latencies_s"], item_calibrations(r))] for r in runs]
    return [statistics.median(lat) for lat in zip(*per_pass)]


def end_to_end(workers: list[dict], setups: list[float],
               runs: list[dict]) -> dict[str, float]:
    """One run's end-to-end metrics: a pass of the workload is timed as the
    sum of its items' calibrated latencies; set-up and memory are medians
    over the run's workers."""
    items = item_times(runs)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(items),
        "item_p50_ms": 1000 * spans.percentile(items, 50),
        "item_p90_ms": 1000 * spans.percentile(items, 90),
        "peak_rss_mb": statistics.median(w["rss_kb"] for w in workers) / 1024,
    }


def layer_values(trace: dict, polygons: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    vals: dict[str, float] = {}
    for mod, names in spans.TRACED.items():
        for fn in names:
            row = trace["summary"].get(f"{mod}.{fn}", {"calls": 0, "self_s": 0.0})
            vals[f"{mod}.{fn}.calls"] = row["calls"]
            vals[f"{mod}.{fn}.self_s"] = row["self_s"]
    for counter, _ in spans.MEASURES.values():
        vals[counter] = trace["counters"].get(counter, 0)
    for name in ("cones.cone_invariants", "fans.fan_from_polygon"):
        vals[f"{name}.per_polygon"] = vals[f"{name}.calls"] / max(polygons, 1)
    vals["trace.spans"] = trace["spans"]
    return vals


def per_layer(traced: list[dict], untraced: list[dict], polygons: int):
    """Median self times over the traced passes; counts must repeat exactly.
    Returns the values and the names of counts that did not repeat."""
    rows = [layer_values(r["trace"], polygons) for r in traced]
    vals, unsteady = {}, []
    for name in rows[0]:
        column = [row[name] for row in rows]
        if name.endswith("_s"):
            vals[name] = statistics.median(column)
        else:
            vals[name] = column[0]
            if len(set(column)) != 1:
                unsteady.append(name)
    vals["trace.overhead_s"] = sum(item_times(traced)) - sum(item_times(untraced))
    return vals, unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ldpsurf" / "__init__.py").is_file():
        return fail_setup(f"no ldpsurf sources under {SRC}")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail_setup(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail_setup(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    import checks  # imports ldpsurf from SRC

    trace = bool(args.trace)
    items = gen.make_items(args.workload, args.seed)
    inputs_sha = hashlib.sha256(
        "".join(it.get("text", "") for it in items).encode()).hexdigest()
    verdicts = Verdicts(checks.CHECKS[args.workload], items)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)

    workers, setups, untraced, traced, problems = [], [], [], [], []
    attempted = failed = polygons = 0
    start = time.monotonic()
    try:
        while True:
            t = time.monotonic()
            modes = ["--trace"] if trace else ["--setup-only"] * SETUPS_PER_WORKER + [""]
            try:
                for mode in modes:
                    res = run_worker(args, work, mode,
                                     HARD_LIMIT_S - (time.monotonic() - start))
                    setups.append(calibrated(res["setup_s"],
                                             res["setup_calibration_s"]))
                    if res["inputs_sha256"] != inputs_sha:
                        problems.append("worker inputs differ from this "
                                        "seed's inputs")
            except (RuntimeError, OSError, ValueError,
                    subprocess.TimeoutExpired) as exc:
                problems.append(f"worker failed: {exc}")
                attempted += len(items)
                failed += len(items)
                break
            workers.append(res)
            workers[-1]["duration_s"] = time.monotonic() - t
            for run in res["passes"]:
                reasons = verdicts.judge(run)
                attempted += len(reasons)
                for item, reason in zip(items, reasons):
                    if reason is not None:
                        failed += 1
                        problems.append(f"{item.get('file', item['argv'][0])}: "
                                        f"{reason}")
                shutil.rmtree(run["out_dir"], ignore_errors=True)
                (traced if "trace" in run else untraced).append(run)
            if args.workload == "enumerate":
                polygons = checks.enumerated_polygons(untraced[0]["stdout"][0])
            else:
                polygons = len(items)
            elapsed = time.monotonic() - start
            typical = statistics.median(w["duration_s"] for w in workers)
            if problems or elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    metrics = {}
    if workers:
        if trace:
            values, unsteady = per_layer(traced, untraced, polygons)
            if unsteady:
                problems.append("counts differ between traced passes: "
                                + ", ".join(unsteady))
            wanted = spec["per_layer"]
        else:
            values = end_to_end(workers, setups, untraced)
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}

    print(f"ldpsurf benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} inputs_sha256={inputs_sha[:16]}")
    passes = " ".join(f"{sum(r['latencies_s']):.3f}" for r in untraced)
    readings = " ".join(f"{1000 * statistics.fmean(r['calibrations_s']):.3f}"
                        for r in untraced)
    print(f"workers={len(workers)} passes={len(untraced)} untraced, "
          f"{len(traced)} traced; elapsed {time.monotonic() - start:.1f} s; "
          f"untraced pass latency sums [s], uncalibrated: {passes}; "
          f"mean calibration reading per pass [ms]: {readings}")
    print(f"attempted={attempted} failed={failed} "
          f"fail_ratio={failed / max(attempted, 1):.4f}")
    if trace and workers:
        absent = workers[0]["passes"][-1]["trace"]["absent"]
        print("absent traced functions:", ", ".join(absent) or "none")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    correct = not problems and bool(workers)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own logic: span arithmetic, percentiles, the
calibration of item times, the tracer's install/uninstall, the input
generator and the output checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout

import pytest

import checks
import gen
import run
import spans
from ldpsurf import table_formulas


def _ldpsurf_namespaces():
    return {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ldpsurf" or name.startswith("ldpsurf."))}


# --- self time, percentiles and calibration ------------------------------

def test_self_time_subtracts_union_of_children_clipped_to_parent():
    synthetic = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),      # overlaps a: the union counts once
        ("c", 8.0, 12.0, 0),     # runs past the parent's end: clipped
        ("d", 2.5, 2.75, 2),     # grandchild: counts against b only
    ]
    assert spans.self_times(synthetic) == pytest.approx([4.0, 2.0, 2.75, 4.0, 0.25])


def test_summarize_adds_calls_and_self_time_per_name():
    synthetic = [("f", 0.0, 4.0, -1), ("g", 1.0, 2.0, 0), ("g", 2.0, 2.5, 0),
                 ("f", 5.0, 6.0, -1)]
    table = spans.summarize(synthetic)
    assert table["f"] == {"calls": 2, "self_s": pytest.approx(3.5)}
    assert table["g"] == {"calls": 2, "self_s": pytest.approx(1.5)}


def test_beta_cdf_matches_closed_forms():
    for x in (0.0, 0.1, 0.5, 0.93, 1.0):
        assert spans.beta_cdf(1, 1, x) == pytest.approx(x)
        assert spans.beta_cdf(3, 1, x) == pytest.approx(x ** 3)
        assert spans.beta_cdf(1, 2, x) == pytest.approx(1 - (1 - x) ** 2)
    # arcsine law: I_x(1/2, 1/2) = 2 / pi * asin(sqrt(x))
    for x in (0.01, 0.25, 0.8, 0.999):
        assert spans.beta_cdf(0.5, 0.5, x) == pytest.approx(
            2 / math.pi * math.asin(math.sqrt(x)))
    assert spans.beta_cdf(85.5, 85.5, 0.5) == pytest.approx(0.5)


def test_percentile_is_the_harrell_davis_estimate():
    assert spans.percentile([7], 90) == pytest.approx(7)
    assert spans.percentile([3, 1, 2], 50) == pytest.approx(2)
    assert spans.percentile(range(1, 102), 50) == pytest.approx(51)
    # two values, q = 50: Beta(1.5, 1.5) puts half its mass on each
    assert spans.percentile([1, 5], 50) == pytest.approx(3)
    # n = 2, q = 90: weight of the larger value is 1 - I_0.5(2.7, 0.3)
    w = 1 - spans.beta_cdf(2.7, 0.3, 0.5)
    assert spans.percentile([10, 0], 90) == pytest.approx(10 * w)
    assert 0.9 < w < 1
    # it moves a little, not by the whole gap, when one item crosses a gap
    low = [1.0] * 50 + [2.0] * 50
    high = [1.0] * 49 + [2.0] * 51
    assert 0 < spans.percentile(high, 50) - spans.percentile(low, 50) < 0.25
    with pytest.raises(ValueError):
        spans.percentile([], 50)
    with pytest.raises(ValueError):
        spans.percentile([1, 2], 100)


def test_item_times_scale_by_nearby_readings_and_take_median_over_passes():
    ref, w = run.REFERENCE_CALIBRATION_S, run.CALIBRATION_WINDOW_S
    slow_later = {  # the host slows to half speed after the first item
        "latencies_s": [1.0, 4.0], "item_spans_s": [(0.0, 1.0), (2.0, 6.0)],
        "calibration_times_s": [0.5, 1.0 + w, 3.0, 5.0],
        "calibrations_s": [ref, ref, 2 * ref, 2 * ref]}
    assert run.item_calibrations(slow_later) == pytest.approx([ref, 2 * ref])
    no_nearby = {
        "latencies_s": [3.0, 1.5], "item_spans_s": [(0.0, 1.0), (1.0, 2.0)],
        "calibration_times_s": [9.0, 9.5], "calibrations_s": [ref, 3 * ref]}
    assert run.item_calibrations(no_nearby) == pytest.approx([2 * ref, 2 * ref])
    steady = {
        "latencies_s": [9.0, 1.2], "item_spans_s": [(0.0, 1.0), (1.0, 2.0)],
        "calibration_times_s": [0.5, 1.5], "calibrations_s": [ref, ref]}
    # item 0: 1.0, 1.5, 9.0; item 1: 2.0, 0.75, 1.2
    assert run.item_times([slow_later, no_nearby, steady]) == pytest.approx([1.5, 1.2])
    assert run.calibrated(3.0, 3 * ref) == pytest.approx(1.0)


def test_sampler_takes_readings_and_restores_the_signal_handler():
    import signal
    import time
    import worker
    before = signal.getsignal(signal.SIGALRM)
    with worker.Sampler() as sampler:
        end = time.perf_counter() + 6 * worker.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.readings) >= 2
    assert len(sampler.times) == len(sampler.readings)
    assert sampler.times == sorted(sampler.times)
    assert 0 < sum(sampler.readings) <= sampler.spent_s
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with worker.Sampler() as sampler:
        pass
    assert len(sampler.readings) == 1


# --- tracer -----------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_the_package(tmp_path):
    import ldpsurf
    import ldpsurf.cli
    import ldpsurf.delpezzo
    before = _ldpsurf_namespaces()
    poly = tmp_path / "p.txt"
    poly.write_text("1 -1\n3 1\n-1 0\n")
    tracer = spans.Tracer()
    with tracer:
        wrapped = ldpsurf.delpezzo.ldp_analyze
        assert wrapped is not before["ldpsurf.delpezzo"]["ldp_analyze"]
        assert ldpsurf.cli.ldp_analyze is wrapped
        assert ldpsurf.ldp_analyze is wrapped
        with redirect_stdout(io.StringIO()):
            assert ldpsurf.cli.main(["analyze", str(poly), "--json"]) == 0
    assert tracer.absent == []
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and names.count("cli.main") == 1
    # every other span nests inside the CLI call; a parent opens before its
    # children and encloses them
    assert tracer.spans[0][3] == -1
    for sid, (_, start, end, parent) in enumerate(tracer.spans[1:], start=1):
        assert 0 <= parent < sid
        assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2]
    assert "lattice.lattice_points" in names
    assert tracer.counters["lattice.points_materialized"] > 0
    assert tracer.counters["cli.exit_nonzero"] == 0
    after = _ldpsurf_namespaces()
    assert after.keys() == before.keys()
    for mod, namespace in before.items():
        for attr, value in namespace.items():
            assert after[mod][attr] is value, f"{mod}.{attr} not restored"


def test_tracer_reports_missing_names_as_absent():
    import ldpsurf.lattice  # noqa: F401
    tracer = spans.Tracer(traced={"lattice": ("edge_lines", "no_such_function"),
                                  "no_such_module": ("main",)})
    with tracer:
        pass
    assert tracer.absent == ["lattice.no_such_function", "no_such_module.main"]


# --- generator ----------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = gen.make_items(workload, 7)
    assert gen.make_items(workload, 7) == first
    gen.write_items(first, str(tmp_path / "a"))
    gen.write_items(gen.make_items(workload, 7), str(tmp_path / "b"))
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    if workload != "enumerate":
        assert files
        assert gen.make_items(workload, 8) != first


def test_analyze_inputs_respect_the_stated_limits():
    items = gen.make_items("analyze", 3)
    family = [it for it in items if it["kind"] == "family"]
    multi = [it for it in items if it["kind"] == "multi"]
    assert len(items) == 170 and len(family) == 120 and len(multi) == 50
    assert {(it["k"], it["p"]) for it in family} == {
        (k, p) for k in (1, 2, 3) for p in range(1, 41)}
    for it in multi:
        assert it["expect"]["singular_count"] >= 2
        assert it["expect"]["index"] <= gen.MULTI_INDEX_MAX
        assert all(abs(c) <= gen.MULTI_BOX for v in it["verts"] for c in v)
    assert sum(it["mirror"] for it in family) == 12    # 30% of the k = 2 members
    assert all(it["k"] == 2 for it in family if it["mirror"])


def test_shear_sampler_outcomes_are_unimodular_and_half_reflected():
    assert len(gen.MAPS) == 2 * (2 * (2 * gen.SHEAR_MAX + 1)) ** gen.SHEARS
    dets = [a * d - b * c for a, b, c, d in gen.MAPS]
    assert set(dets) == {1, -1} and dets.count(-1) == len(dets) // 2


def test_family_maps_are_sampler_draws_whose_polar_width_is_ranked():
    import random
    maps = gen.family_maps(random.Random(1), 3)
    assert len(maps) == gen.FAMILY_PMAX and set(maps) <= set(gen.MAPS)
    # the ranking uses the polar of m(P) being m^-T(P*): check that identity
    verts = gen.family_vertices(3, gen.FAMILY_PMAX)
    polar = gen.dilated_polar(verts)
    for a, b, c, d in gen.MAPS[::97]:
        image = gen.dilated_polar(gen.convex_hull(gen.apply((a, b, c, d), verts)))
        det = a * d - b * c
        assert sorted(image) == sorted((det * (d * x - c * y), det * (a * y - b * x))
                                       for x, y in polar)


def test_quadrics_maps_come_from_the_middle_slice_of_polar_reach():
    import random
    verts = gen.family_vertices(3, 15)
    polar = gen.dilated_polar(verts)
    reach = sorted(gen.polar_reach(m, polar) for m in gen.MAPS)
    size = len(reach) // gen.SKEW_LEVELS
    low = reach[gen.QUADRICS_SKEW_LEVEL * size]
    high = reach[(gen.QUADRICS_SKEW_LEVEL + 1) * size - 1]
    rng = random.Random(5)
    for _ in range(20):
        m = gen.quadrics_map(rng, 3, 15)
        image = gen.dilated_polar(gen.convex_hull(gen.apply(m, verts)))
        assert max(abs(c) for v in image for c in v) == gen.polar_reach(m, polar)
        assert low <= gen.polar_reach(m, polar) <= high


def test_own_embedding_numbers_match_closed_forms():
    for k in (1, 2, 3):
        for p in range(1, gen.FAMILY_PMAX + 1):
            row = table_formulas(k, p)
            presentations = [gen.family_vertices(k, p)]
            if k == 2:
                presentations.append(gen.family_vertices(2, p, mirror=True))
            for verts in presentations:
                got = gen.embedding_numbers(verts)
                assert (got["ambient_dim"], got["degree"], got["quadrics"],
                        got["sectional_genus"], got["boundary_points"],
                        got["index"]) == row.astuple()


# --- checks -------------------------------------------------------------------

def _run_cli(argv):
    import ldpsurf.cli
    out = io.StringIO()
    with redirect_stdout(out):
        code = ldpsurf.cli.main(argv)
    return code, out.getvalue()


def test_analyze_check_accepts_real_output_and_rejects_tampering(tmp_path):
    items = gen.make_items("analyze", 2)
    picked = [items[0], items[45], items[-1]]     # k=1, k=2 and a multi item
    argvs = gen.write_items(picked, str(tmp_path))
    for item, argv in zip(picked, argvs):
        code, stdout = _run_cli(argv)
        assert checks.check_analyze(item, code, stdout, "") is None
        payload = json.loads(stdout)
        payload["embedding"]["quadrics"] += 1
        assert checks.check_analyze(item, code, json.dumps(payload), "") is not None
        assert checks.check_analyze(item, 4, stdout, "") is not None


def test_quadrics_check_catches_repeats_and_bad_sums(tmp_path):
    item = {"kind": "family", "k": 2, "p": 1, "out": "x.ideal"}
    expect = table_formulas(2, 1).quadric_count
    out = tmp_path / "x.ideal"
    code, stdout = _run_cli(["quadrics", "--canonical", "2", "1", "--out", str(out)])
    assert checks.check_quadrics(item, code, stdout, str(tmp_path)) is None
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines + [lines[-1]]) + "\n")
    assert "repeats" in checks.check_quadrics(item, code, stdout, str(tmp_path))
    out.write_text("\n".join(lines[:-1] + ["z(0,0)*z(1,0) - z(0,0)*z(0,1)"]) + "\n")
    assert "sums" in checks.check_quadrics(item, code, stdout, str(tmp_path))
    out.write_text("\n".join(lines[:-1]) + "\n")
    assert f"closed form gives {expect}" in checks.check_quadrics(
        item, code, stdout, str(tmp_path))


def test_enumerate_check_parses_the_summary():
    code, stdout = _run_cli(["enumerate", "--bound", "2"])
    assert checks.enumerated_polygons(stdout) == 144
    item = {"kind": "enumerate", "bound": 7}
    assert checks.check_enumerate(item, code, stdout, "") is not None
    good = "bound=7: 4144 polygons in 39 isomorphism classes\n" + "".join(
        f"  k={k} p={p}: 1 class(es)\n" for k in (1, 2, 3) for p in range(1, 14))
    assert checks.check_enumerate(item, 0, good, "") is None
    assert checks.check_enumerate(item, 0, good.replace("p=13:", "p=14:"), "") \
        is not None
    assert checks.check_enumerate(item, 3, good, "") is not None

"""Self-tests of the benchmark: seeded inputs, the BENCHMARK.json
contract, the correctness gate and the span arithmetic.

    python3 -m pytest -q bench/test_bench.py    (from the repository root)
"""

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _take(workload, seed, n):
    stream = workloads.op_stream(workload, seed)
    return [next(stream).key for _ in range(n)]


def test_same_seed_gives_identical_inputs():
    for w in workloads.WORKLOADS + workloads.FAMILIES:
        a, b = workloads.pool(w), workloads.pool(w)
        assert [(i.key, i.ini) for i in a] == [(i.key, i.ini) for i in b]
        assert _take(w, 7, 200) == _take(w, 7, 200)
        assert _take(w, 7, 200) != _take(w, 8, 200)


def test_every_pass_runs_the_same_groups():
    for w in workloads.WORKLOADS + workloads.FAMILIES:
        n = workloads.PASS[w]
        stream = workloads.op_stream(w, 3)
        items = [next(stream) for _ in range(n * 25)]
        passes = [sorted(it.group for it in items[k:k + n]) for k in range(0, len(items), n)]
        assert all(p == passes[0] for p in passes), w
    stream = workloads.op_stream("device", 3)
    for _ in range(25):  # the hot devices of a pass are distinct
        hot = [it.key for it in (next(stream) for _ in range(workloads.PASS["device"]))
               if it.group == "device/hot"]
        assert len(set(hot)) == workloads.DEVICE_HOT_PER_PASS


def test_groups_are_one_kind_at_one_size():
    for w in workloads.FAMILIES:
        by_group = {}
        for it in workloads.pool(w):
            by_group.setdefault(it.group, set()).add(it.kind)
        assert all(len(kinds) == 1 for kinds in by_group.values())
    for t in workloads.DYNAMICS_T:
        inis = [it.ini for it in workloads.pool("dynamics") if it.group == f"dynamics/t{t:g}"]
        assert len(inis) == workloads.DYNAMICS_VARIANTS
        magnitudes = {tuple(line for line in ini.splitlines()
                            if line.startswith(("magnitude", "gamma", "t ="))) for ini in inis}
        assert len(magnitudes) == 1


def test_group_median_total_counts_each_op_at_its_group_median():
    groups = ["a", "b"] * 8
    values = [1.0, 10.0] * 8
    assert abs(run.group_median_total(groups, values) - 88.0) < 1e-9
    slow = values[:-2] + [1.5, 15.0]  # the last pass ran on a slow host
    assert abs(run.group_median_total(groups, slow) - 88.0) < 0.1 * (sum(slow) - 88.0)


def test_reference_covers_every_pool_input():
    reference = json.loads((BENCH / "reference.json").read_text())
    keys = {it.key for w in workloads.WORKLOADS for it in workloads.pool(w)}
    assert keys == {it.key for w in workloads.FAMILIES + ("cli_cold",)
                    for it in workloads.pool(w)}
    assert keys == set(reference)
    assert all(ref["rc"] == 0 for ref in reference.values())


def test_benchmark_json_follows_its_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, n = run.tail_latency(list(range(1, 41)))
    assert (pct, n) == (75, 40) and sum(x > value for x in range(1, 41)) == 10
    value, pct, n = run.tail_latency(list(range(1, 200)))
    assert sum(x > value for x in range(1, 200)) >= 10 and pct == 94


def test_summary_lines_compare_labels_exactly_and_numbers_to_print_precision():
    ref = "sweep n=801 class=EITA fwhm=0.3997 balanced_bias=0.07657"
    assert check.line_mismatch(ref, ref.replace("0.07657", "0.07659")) is None
    assert check.line_mismatch(ref, ref.replace("0.07657", "0.0766")) is None
    assert check.line_mismatch(ref, ref.replace("0.07657", "0.07660")) is not None
    assert check.line_mismatch(ref, ref.replace("EITA", "EIT")) is not None


def test_csv_gate_uses_column_tolerances_and_sums():
    header = "delta13,re_rho31,im_rho31,pop1,pop2,pop3,inversion"
    rows = [f"{i / 100!r},0.1,0.2,0.7,0.2,0.1,0.6" for i in range(801)]
    text = "# units = 'gamma13'\n" + header + "\n" + "\n".join(rows) + "\n"
    ref = check.csv_reference(text)
    assert check._csv_problems("a.csv", ref, text) == []
    near = text.replace("0.0,0.1,", "0.0,0.1000000000001,", 1)
    assert check._csv_problems("a.csv", ref, near) == []
    far = text.replace("0.0,0.1,", "0.0,0.1000000002,", 1)
    assert check._csv_problems("a.csv", ref, far)
    # row 1 is not sampled; its error still shows in the column sum
    unsampled = text.replace("0.01,0.1,", "0.01,0.1000002,", 1)
    assert check._csv_problems("a.csv", ref, unsampled)


def test_self_time_subtracts_child_spans():
    fn = [spans.NAMES.index("cli.main"), spans.NAMES.index("lindblad.steady_state"),
          spans.NAMES.index("numerics.solve_linear"), spans.NAMES.index("lindblad.steady_state")]
    parent = [-1, 0, 1, 0]
    start, end = [0.0, 2.0, 3.0, 6.0], [10.0, 5.0, 4.0, 7.0]
    s = spans.summarize(fn, parent, start, end, {})
    assert s["self_s"]["cli.main"] == 6.0
    assert s["self_s"]["lindblad.steady_state"] == 3.0
    assert s["busy_s"]["lindblad.steady_state"] == 4.0
    assert s["calls"]["lindblad.steady_state"] == 2 and s["root_s"] == 10.0


def test_tracer_wraps_every_binding_and_leaves_results_unchanged():
    from delta_eita import lindblad, spectroscopy
    from delta_eita.atom import Decoherence, Drive, DriveSet
    drives = DriveSet(Drive(0.2), Drive(0.2), Drive(1.0))
    dec = Decoherence(gamma12=0.1, gamma13=1.0, gamma23=0.1)
    original = lindblad.steady_state
    plain = spectroscopy.probe_response(drives, dec, 0.3)
    tracer = spans.Tracer().install()
    try:
        assert spectroscopy.steady_state is lindblad.steady_state is not original
        traced = spectroscopy.probe_response(drives, dec, 0.3)
    finally:
        tracer.uninstall()
    assert spectroscopy.steady_state is lindblad.steady_state is original
    assert traced == plain
    s = tracer.summarize()
    assert s["calls"]["spectroscopy.probe_response"] == 1
    assert s["calls"]["lindblad.steady_state"] == 1
    assert s["calls"]["numerics.as_complex_matrix"] >= 3


def test_importtime_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |        500 | site",
        "import time:     90000 |      90000 |       numpy",
        "import time:    250000 |     250000 |       scipy.linalg",
        "import time:      2000 |     342000 |   delta_eita",
        "import time:      1000 |     372000 | delta_eita.cli",
    ])
    got = run.parse_importtime(stderr)
    assert got == {"import.numpy_ms": 90.0, "import.scipy_linalg_ms": 250.0,
                   "import.delta_eita_ms": 3.0, "import.total_ms": 372.0}


def test_span_files_round_trip_to_plain_json(tmp_path):
    tracer = spans.Tracer()
    fbb, spec = (spans.NAMES.index(n) for n in
                 ("fluxonium.find_balanced_bias", "fluxonium.spectrum_at"))
    tracer.fn.extend([fbb, spec, spec])
    tracer.parent.extend([-1, 0, -1])
    tracer.start.extend([0.0, 1.0, 4.0])
    tracer.end.extend([3.0, 2.0, 5.0])
    tracer.dump(tmp_path / "spans.npz")
    loaded = spans.load(tmp_path / "spans.npz")
    assert loaded == tracer.summarize()
    assert loaded["fluxonium.find_balanced_bias.evals"] == 1
    json.dumps(spans.merge([loaded, loaded]))


def test_harrell_davis_median_matches_scipy():
    from scipy.stats.mstats import hdquantiles
    assert run.harrell_davis_median([3.0]) == 3.0
    for data in ([1.0, 2.0], [0.44, 0.61, 0.45, 0.60, 0.47, 0.62, 0.46] * 5,
                 [float(x * x % 17) for x in range(41)]):
        assert abs(run.harrell_davis_median(data) - float(hdquantiles(data, [0.5])[0])) < 1e-6

"""delta-eita benchmark: one seeded workload, end-to-end or per-layer.

    python3 bench/run.py --workload spectra --seed 1 --seconds 48 --trace 0

Run from the root of a checkout.  The package is imported from
``src/`` of that checkout; there is nothing to build.  Each run starts
fresh interpreters with the BLAS/OpenMP thread counts pinned to 1 and
``PYTHONPATH=src``.  ``--workload all`` runs every workload in turn; the
in-process op families that ``warm`` mixes (``spectra``, ``device``,
``dynamics``) can also be run alone.

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports per-layer metrics from a traced run plus the
tracing overhead (see ``worker.py`` and ``spans.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The exit code is 0
when the run completed, whether or not every op was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")

#: Fresh interpreters timed from launch to the end of their warm-up ops,
#: before and after the timed one so that they span the run; setup_s is
#: the median of these and the timed interpreter's own set-up.
SETUP_PROBES_BEFORE = 1
SETUP_PROBES_AFTER = 1
#: Fresh ``-X importtime`` runs in a traced run; import.* are medians.
IMPORT_SAMPLES = 3
#: Every invocation ends within this many seconds, or fails.
DEADLINE_S = 170.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units of the ``--trace 1`` metrics, in output order."""
    out = []
    for name in spans.NAMES:
        out += [(f"{name}.calls", "calls/op"), (f"{name}.busy_ms", "ms/op"),
                (f"{name}.self_ms", "ms/op")]
    out += [(f"layer.{layer}.self_ms", "ms/op") for layer in spans.LAYERS]
    out += [
        ("lindblad.evolve.rk4_steps", "steps/op"),
        ("fluxonium.find_balanced_bias.evals", "calls/op"),
        ("fluxonium.ops_cache_hit_ratio", "ratio"),
        ("io.csv_bytes", "bytes/op"),
        ("import.numpy_ms", "ms"),
        ("import.scipy_linalg_ms", "ms"),
        ("import.delta_eita_ms", "ms"),
        ("import.total_ms", "ms"),
        ("bench.tracing_overhead", "ratio"),
        ("bench.op_ms", "ms/op"),
        ("bench.unspanned_ms", "ms/op"),
        ("bench.fail_ratio", "ratio"),
    ]
    return out


class DeadlineExceeded(RuntimeError):
    pass


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise DeadlineExceeded("benchmark deadline passed")
    return left


def launch_worker(root, env, deadline, args: list[str]) -> tuple[float, dict]:
    """Start a worker; return (seconds from launch to READY, its result).

    Both lines are read through the same buffered pipe; a timer kills
    the worker if it outlives the deadline.
    """
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + args
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(_remaining(deadline), proc.kill)
    timer.start()
    try:
        with proc.stdout:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    if proc.returncode == -signal.SIGKILL:
        raise DeadlineExceeded(f"worker {' '.join(args)} did not finish in time")
    lines = out.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} failed (exit {proc.returncode})")
    return setup, json.loads(lines[-1])


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """import.* in ms from ``python -X importtime -c 'import delta_eita.cli'``."""
    numpy = scipy_linalg = own = total = 0.0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cum_us, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        if name == "numpy":
            numpy = cum_us / 1e3
        elif name == "scipy.linalg":
            scipy_linalg = cum_us / 1e3
        if name == "delta_eita" or name.startswith("delta_eita."):
            own += self_us / 1e3
            if indent == 1:  # top level: the statement's own imports
                total += cum_us / 1e3
    return {"import.numpy_ms": numpy, "import.scipy_linalg_ms": scipy_linalg,
            "import.delta_eita_ms": own, "import.total_ms": total}


def import_times(root, env, deadline) -> dict:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import delta_eita.cli"],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise RuntimeError(f"import delta_eita.cli failed: {proc.stderr[-300:]}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def harrell_davis_median(values) -> float:
    """Harrell-Davis estimate of the median: the mean of the order
    statistics weighted by the Beta((n+1)/2, (n+1)/2) mass of each rank.

    On this kind of host latencies fall into a fast and a slow mode, and
    the sample median jumps between them as their shares cross one half;
    this estimate moves smoothly with the shares.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2.0
    log_beta = 2.0 * math.lgamma(a) - math.lgamma(2.0 * a)
    steps = 64  # midpoint rule per rank interval ((i-1)/n, i/n]
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        weights.append(h * sum(
            math.exp((a - 1.0) * (math.log(u) + math.log1p(-u)) - log_beta)
            for u in ((i + (k + 0.5) / steps) / n for k in range(steps))))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_latency(latencies) -> tuple[float, int, int]:
    """(value, percentile, samples): the nearest-rank value at the highest
    whole percentile that leaves at least ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct, n


def group_median_total(groups, values) -> float:
    """Sum over ops of the Harrell-Davis median of their group's values.

    Every pass runs the same groups, so this is the run's total with each
    op counted at its group's typical cost: a stretch of a few seconds
    in which the host runs slow or fast moves it less than the plain sum.
    """
    by_group = {}
    for group, value in zip(groups, values):
        by_group.setdefault(group, []).append(value)
    return sum(len(v) * harrell_davis_median(v) for v in by_group.values())


def end_to_end(run: dict, setup: list[float], rss_mb: float) -> dict:
    """Set-up and peak memory as measured; every other metric from op
    times divided by the host's slowdown around each op (``hostspeed``)
    and, for the rates and CPU time, counted at their group's median."""
    n = run["n"]
    latency = [t / s for t, s in zip(run["latencies"], run["slowdowns"])]
    cpu = [t / s for t, s in zip(run["cpus"], run["slowdowns"])]
    tail, pct, count = tail_latency(latency)
    busy = group_median_total(run["groups"], latency)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / busy,
        "op_p50_ms": 1e3 * harrell_davis_median(latency),
        "op_tail_ms": 1e3 * tail,
        "rows_per_s": run["rows"] / busy,
        "cpu_ms_per_op": 1e3 * group_median_total(run["groups"], cpu) / n,
        "peak_rss_mb": rss_mb,
    }
    notes = [f"op_tail_ms is p{pct} of {count} ops",
             "host slowdown: not measured, times as measured" if not run["kernel_reference_s"]
             else f"host slowdown (kernel time / {1e3 * run['kernel_reference_s']:g} ms): median "
             f"{statistics.median(run['slowdowns']):.3f}, range {min(run['slowdowns']):.3f}"
             f"-{max(run['slowdowns']):.3f}",
             f"as measured: {run['elapsed']:.2f} s of ops, {n / run['elapsed']:.4g} ops/s, "
             f"op p50 {1e3 * harrell_davis_median(run['latencies']):.4g} ms, "
             f"{1e3 * run['cpu'] / n:.4g} CPU ms/op",
             f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}"]
    return {"values": values, "notes": notes}


def per_layer(workload: str, res: dict, imports: dict) -> dict:
    traced, untraced, s = res["traced"], res["untraced"], res["spans"]
    n = traced["n"]
    values = {}
    for name in spans.NAMES:
        calls = s["calls"][name] if s else 0
        values[f"{name}.calls"] = calls / n
        values[f"{name}.busy_ms"] = 1e3 * (s["busy_s"][name] if s else 0.0) / n
        values[f"{name}.self_ms"] = 1e3 * (s["self_s"][name] if s else 0.0) / n
    for layer in spans.LAYERS:
        values[f"layer.{layer}.self_ms"] = sum(
            values[f"{name}.self_ms"] for name in spans.NAMES if name.startswith(layer + "."))
    bdh = values["fluxonium.build_device_hamiltonian.calls"]
    values["lindblad.evolve.rk4_steps"] = (s["lindblad.evolve.rk4_steps"] if s else 0) / n
    values["fluxonium.find_balanced_bias.evals"] = (
        s["fluxonium.find_balanced_bias.evals"] if s else 0) / n
    values["fluxonium.ops_cache_hit_ratio"] = (
        1.0 - values["numerics.expm.calls"] / bdh if bdh else 0.0)
    values["io.csv_bytes"] = traced["csv_bytes"] / n
    values.update(imports)
    values["bench.tracing_overhead"] = ((traced["n"] / traced["elapsed"])
                                        / (untraced["n"] / untraced["elapsed"]))
    spent = sum(traced["latencies"])
    values["bench.op_ms"] = 1e3 * spent / n
    values["bench.unspanned_ms"] = 1e3 * (spent - (s["root_s"] if s else 0.0)) / n
    notes = ["lindblad.evolve.rk4_steps is computed from the t and dt of each evolve call",
             f"traced ops: {traced['n']} in {traced['elapsed']:.2f} s; "
             f"untraced ops: {untraced['n']} in {untraced['elapsed']:.2f} s"]
    if workload == "cli_cold":
        notes.append("spans inside process-pool children are not collected")
    if res.get("missing_targets"):
        notes.append(f"functions not found, reported as 0: {res['missing_targets']}")
    return {"values": values, "notes": notes}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 root: Path, deadline: float) -> dict:
    env = pinned_env(root)
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        setup, probe_failures = [], []

        def probes(count):
            for _ in range(0 if trace else count):
                t, probe = launch_worker(root, env, deadline, base + [
                    "--work", str(work / f"probe{len(setup)}"), "--setup-only"])
                setup.append(t)
                probe_failures.extend(probe["warmup_failures"])

        if trace:
            imports = import_times(root, env, deadline)
        probes(SETUP_PROBES_BEFORE)
        t, res = launch_worker(root, env, deadline,
                               base + ["--trace", str(trace), "--work", str(work / "main")])
        setup.append(t)
        probes(SETUP_PROBES_AFTER)
        for name in ("spans.npz", "spans"):
            kept = work / "main" / name
            if kept.exists():
                target = WORK_DIR / f"{workload}-{name}"
                if target.is_dir():
                    shutil.rmtree(target)
                kept.replace(target)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        loops = [res["traced"], res["untraced"]]
        report = per_layer(workload, res, imports)
    else:
        loops = [res["run"]]
        report = end_to_end(res["run"], setup, res["peak_rss_mb"])
    failures = [f for loop in loops for f in loop["failures"]]
    warmup = res["warmup_failures"] + probe_failures
    attempted = sum(loop["n"] for loop in loops)
    if trace:
        report["values"]["bench.fail_ratio"] = len(failures) / attempted
    return {
        "workload": workload, "env": res["env"],
        "attempted": attempted,
        "failed": len(failures),
        "correct": not failures and not warmup,
        "failures": failures,
        "warmup_failures": warmup,
        "values": report["values"], "notes": report["notes"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="delta-eita benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + workloads.FAMILIES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "delta_eita" / "cli.py").is_file():
        print("error: run from the root of a delta-eita checkout (src/delta_eita missing)",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(per_layer_metrics() if args.trace else END_TO_END)
    deadline = perf_counter() + DEADLINE_S * len(names)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, root, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print(f"# delta-eita benchmark  seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commit={git_sha(root)}")
    print("# env " + json.dumps(results[0]["env"], sort_keys=True))
    print("# loop: " + workloads.describe()["loop"])
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        print(f"# workload {r['workload']}: " + json.dumps(workloads.describe()[r["workload"]]))
        for note in r["notes"]:
            print(f"#   {note}")
        for f in dict.fromkeys(r["warmup_failures"]):
            print(f"# FAIL warm-up op: {f}")
        for f in r["failures"]:
            print(f"# FAIL op {f['op']} ({f['input']}): {'; '.join(f['problems'])}")
        for name, value in r["values"].items():
            print(f"{prefix + name:52s} {value:14.6g} {units[name]}")
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in a fresh interpreter and report raw measurements.

Started by ``run.py`` from the root of a checkout, with the thread pins
and ``PYTHONPATH=src`` already in the environment.  It writes the
generated inputs, runs the fixed warm-up ops, prints ``READY`` (the end
of set-up), runs the timed closed loop and prints one JSON line with the
measurements and the correctness verdict.  The loop runs whole passes
of the workload's fixed mix: it stops at the first pass boundary after
``--seconds``.

With ``--trace 1`` the op sequence runs twice for ``seconds / 2`` each:
first traced (right after the warm-up, so caches are in the same state
as in an untraced run), then untraced, and the outputs of the ops both
passes ran must be byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import check
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OP_TIMEOUT_S = 120.0


@dataclass
class Op:
    item: workloads.Item
    out: Path
    rc: int | None
    stdout: str
    stderr: str
    latency: float
    spans: Path | None = None
    cpu: float = 0.0
    files: dict = field(default_factory=dict)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class InProcessRunner:
    """Drives the package through ``cli.main`` (and library calls for the
    causality op) inside this process, at ``--workers 1``."""

    def __init__(self, inputs: Path):
        from delta_eita import cli, config, spectroscopy
        self.cli, self.config, self.spectroscopy = cli, config, spectroscopy
        self.inputs = inputs
        self.tracer = None

    def start_tracing(self):
        import spans
        self.tracer = spans.Tracer().install()

    def stop_tracing(self):
        self.tracer.uninstall()

    def _kk(self, ini: Path, out: Path) -> int:
        sp = self.spectroscopy
        cfg = self.config.parse_config(ini.read_text(encoding="utf-8"))
        table = sp.sweep_detuning(cfg.drives, cfg.dec, sp.kramers_kronig_grid())
        residual = sp.kramers_kronig_residual(table)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "kk.csv"
        sp.write_spectrum_csv(table, path, {"units": cfg.units})
        print(f"kk n={len(table)} residual={residual:.6g} csv={path}")
        return 0

    def run(self, item: workloads.Item, out: Path) -> Op:
        ini = self.inputs / item.ini_name
        argv = ["--config", str(ini), "--out", str(out), "--workers", "1"]
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self._kk(ini, out) if item.kind == "kk" else self.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = None
            stderr.write(f"{type(exc).__name__}: {exc}")
        latency = perf_counter() - t0
        return Op(item, out, rc, stdout.getvalue(), stderr.getvalue(), latency)


class ColdRunner:
    """Starts one fresh CLI process per op, one at a time, with
    ``--workers`` equal to the usable cores.  Traced ops start through
    ``bootstrap.py``, which installs the same wrappers in the child."""

    def __init__(self, root: Path, spans_dir: Path):
        self.root = root
        self.spans_dir = spans_dir
        self.traced = False
        self.count = 0

    def start_tracing(self):
        self.traced = True
        self.spans_dir.mkdir(parents=True, exist_ok=True)

    def stop_tracing(self):
        self.traced = False

    def run(self, item: workloads.Item, out: Path) -> Op:
        spans_path = None
        if self.traced:
            spans_path = self.spans_dir / f"op{self.count:04d}.npz"
            cmd = [sys.executable, str(BENCH_DIR / "bootstrap.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "delta_eita.cli"]
        self.count += 1
        cmd += ["--config", str(Path("configs") / f"{item.config}.ini"),
                "--out", str(out), "--workers", str(usable_cores())]
        if item.mode:
            cmd += ["--mode", item.mode]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.root,
                                  timeout=OP_TIMEOUT_S)
            rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            rc, stdout, stderr = None, "", f"timed out after {exc.timeout} s"
        latency = perf_counter() - t0
        return Op(item, out, rc, stdout, stderr, latency, spans_path)


def env_record() -> dict:
    """Thread pins, cores and library versions seen by the workload."""
    from importlib import metadata

    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "usable_cores": usable_cores(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def collect(op: Op) -> None:
    """Read the op's output files, then delete its output directory."""
    if op.out.is_dir():
        op.files = {p.name: p.read_text(encoding="utf-8") for p in sorted(op.out.iterdir())}
        shutil.rmtree(op.out)


def normalized_stdout(op: Op) -> str:
    return op.stdout.replace(str(op.out), "<out>")


def fingerprint(op: Op) -> str:
    h = hashlib.sha256(normalized_stdout(op).encode())
    for name, text in sorted(op.files.items()):
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def problems(op: Op, reference: dict) -> list[str]:
    found = check.op_problems(reference.get(op.item.key), op.rc,
                              normalized_stdout(op), op.files)
    if op.rc is None or op.rc != 0:
        found.append(f"stderr: {op.stderr.strip()[-300:]}")
    return found


def timed_loop(runner, stream, seconds: float, pass_len: int, work: Path, tag: str) -> dict:
    """Run whole passes for at least ``seconds``.

    In-process runs time the host-speed kernel after every op (left out
    of ``elapsed``).  A ``cli_cold`` op is mostly process start-up and
    imports, which the kernel does not follow, so its slowdowns are 1.
    """
    calibrate = isinstance(runner, InProcessRunner)
    if calibrate:
        import hostspeed  # after READY: its imports are not the program's set-up
        hostspeed.kernel()
    ops, kernel = [], []
    t0 = perf_counter()
    while True:
        item = next(stream)
        c0 = _cpu_seconds()
        op = runner.run(item, work / f"{tag}{len(ops):04d}")
        op.cpu = _cpu_seconds() - c0
        ops.append(op)
        if calibrate:
            kernel.append(hostspeed.kernel())
        if len(ops) % pass_len == 0 and perf_counter() - t0 >= seconds:
            break
    elapsed = perf_counter() - t0 - sum(kernel)
    for op in ops:
        collect(op)
    return {"ops": ops, "elapsed": elapsed, "cpu": sum(op.cpu for op in ops),
            "slowdowns": hostspeed.slowdowns(kernel) if calibrate else [1.0] * len(ops),
            "kernel_reference_s": hostspeed.REFERENCE_S if calibrate else None}


def write_inputs(workload: str, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for item in workloads.pool(workload):
        if item.ini is not None:
            (inputs / item.ini_name).write_text(item.ini, encoding="utf-8")


def loop_summary(loop: dict, reference: dict) -> dict:
    ops = loop["ops"]
    failures = []
    for k, op in enumerate(ops):
        why = problems(op, reference)
        if why:
            failures.append({"op": k, "input": op.item.key, "problems": why[:5]})
    return {
        "n": len(ops),
        "elapsed": loop["elapsed"],
        "cpu": loop["cpu"],
        "latencies": [op.latency for op in ops],
        "cpus": [op.cpu for op in ops],
        "groups": [op.item.group for op in ops],
        "slowdowns": loop["slowdowns"],
        "kernel_reference_s": loop["kernel_reference_s"],
        "rows": sum(check.data_rows(t) for op in ops for t in op.files.values()),
        "csv_bytes": sum(len(t.encode()) for op in ops for t in op.files.values()),
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + workloads.FAMILIES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for this run")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after the warm-up op (a set-up time sample)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    work = Path(args.work)
    inputs = work / "inputs"
    write_inputs(args.workload, inputs)
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    if args.workload == "cli_cold":
        runner = ColdRunner(root, work / "spans")
    else:
        runner = InProcessRunner(inputs)

    warm = [runner.run(item, work / f"warmup{k}")
            for k, item in enumerate(workloads.warmup_items(args.workload))]
    print("READY", flush=True)
    result = {"warmup_failures": []}
    for op in warm:
        collect(op)
        result["warmup_failures"] += problems(op, reference)[:5]
    if args.setup_only:
        print(json.dumps(result))
        return 0

    def loop(seconds, tag):
        stream = workloads.op_stream(args.workload, args.seed)
        return timed_loop(runner, stream, seconds, workloads.PASS[args.workload], work, tag)

    if not args.trace:
        result["run"] = loop_summary(loop(args.seconds, "op"), reference)
    else:
        half = args.seconds / 2.0
        runner.start_tracing()
        traced = loop(half, "traced")
        runner.stop_tracing()
        untraced = loop(half, "untraced")
        result["traced"] = loop_summary(traced, reference)
        result["untraced"] = loop_summary(untraced, reference)
        failed = {f["op"]: f for f in result["traced"]["failures"]}
        for k, (a, b) in enumerate(zip(traced["ops"], untraced["ops"])):
            if fingerprint(a) != fingerprint(b):
                why = "traced output differs from the untraced run of the same op"
                if k in failed:
                    failed[k]["problems"].append(why)
                else:
                    result["traced"]["failures"].append(
                        {"op": k, "input": a.item.key, "problems": [why]})
        if isinstance(runner, ColdRunner):
            import spans
            files = [op.spans for op in traced["ops"] if op.spans and op.spans.exists()]
            summary = spans.merge(spans.load(p) for p in files) if files else None
        else:
            summary = runner.tracer.summarize()
            runner.tracer.dump(work / "spans.npz")
            result["missing_targets"] = runner.tracer.missing
        result["spans"] = summary
    result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = env_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

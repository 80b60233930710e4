"""Regenerate ``reference.json``: run every pool input once and store its
exit code, stdout and sampled CSV values.

    python3 bench/make_reference.py

Run from the root of a checkout whose outputs are trusted; the stored
values are what every later run is checked against.  A failing op is
stored as it is and reported, so it keeps counting as a failure.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run

os.environ.update(run.pinned_env(Path.cwd()))
sys.path.insert(0, str(Path.cwd() / "src"))

import check  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    work = run.WORK_DIR / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    bad = 0
    for name in workloads.FAMILIES + ("cli_cold",):
        inputs = work / name / "inputs"
        worker.write_inputs(name, inputs)
        runner = (worker.ColdRunner(Path.cwd(), work / name / "spans")
                  if name == "cli_cold" else worker.InProcessRunner(inputs))
        for k, item in enumerate(workloads.pool(name)):
            op = runner.run(item, work / name / f"op{k:03d}")
            worker.collect(op)
            if op.rc != 0:
                bad += 1
                print(f"FAILS at this commit: {item.key}: exit {op.rc} {op.stderr.strip()[-300:]}")
            reference[item.key] = check.extract_reference(
                op.rc, worker.normalized_stdout(op), op.files)
            print(f"{item.key}: {op.latency:.3f} s  {worker.normalized_stdout(op).strip()[:120]}")
    shutil.rmtree(work, ignore_errors=True)
    text = "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                              for k, v in reference.items()) + "\n}\n"
    (worker.BENCH_DIR / "reference.json").write_text(text, encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Time cold ``python -m delta_eita.cli`` processes, one per shipped run.

Each repeat starts a fresh interpreter for every shipped config in its
own mode and for ``eita.ini`` under ``--mode steady``, ``evolve`` and
``verify``, writing into a temporary directory.  Given a second checkout,
the two trees run alternately, run by run, with the order swapped every
repeat, so a host that slows down for a while slows both alike.

Usage: ``python tools/cold_start.py [--repeats N] [--only RUN]...
[OTHER_CHECKOUT]``

Prints, per run and tree, the median and minimum wall time in ms, the
exit status and the package modules the run loaded (found from one more,
untimed ``-X importtime`` process); and, per tree, whether its package
modules had current bytecode before and after the timed runs, or were
compiled from source in every process.  A tree runs as it is: to time
an installed package's start-up, byte-compile it first with
``python -m compileall -q src/delta_eita`` (into ``__pycache__``, which
git ignores).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (label, config stem, --mode override) of every timed run.
RUNS = (
    ("eita", "eita", None), ("eit", "eit", None), ("lwi", "lwi", None),
    ("reflect", "reflect", None), ("phase_scan", "phase_scan", None),
    ("fluxonium", "fluxonium", None), ("eita-steady", "eita", "steady"),
    ("eita-evolve", "eita", "evolve"), ("eita-verify", "eita", "verify"),
)


def bytecode_state(tree: Path) -> str:
    """``compiled`` when every package module has a ``.pyc`` that this
    interpreter accepts for its source (by the mtime and size in its
    header), else how many modules compile from source in each process."""
    sources = sorted((tree / "src" / "delta_eita").glob("*.py"))
    stale = 0
    for source in sources:
        pyc = Path(importlib.util.cache_from_source(str(source)))
        stat = source.stat()
        header = pyc.read_bytes()[:16] if pyc.is_file() else b""
        stale += header[8:16] != ((int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                                  + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little"))
    return "compiled" if stale == 0 else f"from source ({stale} of {len(sources)} modules)"


def command(tree: Path, config: str, mode: str | None, out: str) -> list[str]:
    argv = [sys.executable, "-m", "delta_eita.cli",
            "--config", str(tree / "configs" / f"{config}.ini"), "--out", out]
    return argv + (["--mode", mode] if mode else [])


def environment(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def timed_run(tree: Path, config: str, mode: str | None) -> tuple[float, int]:
    """Wall time in ms and exit status of one fresh process."""
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        proc = subprocess.run(command(tree, config, mode, out), env=environment(tree),
                              cwd=out, capture_output=True, timeout=600)
        return 1e3 * (time.perf_counter() - start), proc.returncode


def loaded_modules(tree: Path, config: str, mode: str | None) -> list[str]:
    """The ``delta_eita`` modules one untimed ``-X importtime`` run loads:
    ``cli``, which runs as ``__main__``, and those it imports."""
    with tempfile.TemporaryDirectory() as out:
        argv = command(tree, config, mode, out)
        proc = subprocess.run([argv[0], "-X", "importtime", *argv[1:]], env=environment(tree),
                              cwd=out, capture_output=True, text=True, timeout=600)
    names = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:"))
    return sorted(["cli"] + [name.split(".", 1)[1] for name in names
                             if name.startswith("delta_eita.")])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path,
                        help="a second checkout to time alternately with this one")
    parser.add_argument("--repeats", type=int, default=9, help="processes per run and tree")
    parser.add_argument("--only", action="append", choices=[label for label, _, _ in RUNS],
                        help="time only this run (repeatable)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = [ROOT] + ([args.other.resolve()] if args.other else [])
    runs = [run for run in RUNS if args.only is None or run[0] in args.only]

    before = {tree: bytecode_state(tree) for tree in trees}
    print(f"python {sys.version.split()[0]}, {len(runs)} runs x {args.repeats} repeats, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")

    samples = {(label, tree): [] for label, _, _ in runs for tree in trees}
    status = {}
    for repeat in range(args.repeats):
        order = trees if repeat % 2 == 0 else trees[::-1]
        for label, config, mode in runs:
            for tree in order:
                ms, rc = timed_run(tree, config, mode)
                samples[label, tree].append(ms)
                status[label, tree] = rc

    # a process may write the cache that later ones read, so the state
    # after the timed runs is printed beside the state before them
    for tree in trees:
        print(f"tree {tree}: bytecode {before[tree]} before, {bytecode_state(tree)} after")
    print(f"{'run':<12} {'tree':<6} {'median_ms':>9} {'min_ms':>8} {'rc':>3}  modules")
    for label, config, mode in runs:
        for k, tree in enumerate(trees):
            ms = samples[label, tree]
            modules = loaded_modules(tree, config, mode)
            print(f"{label:<12} {('this', 'other')[k]:<6} {statistics.median(ms):9.1f} "
                  f"{min(ms):8.1f} {status[label, tree]:3d}  {len(modules)}: {' '.join(modules)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every pool input of the benchmark's op families (spectra, fluxonium
devices and dynamics) and every shipped config that ``cli_cold`` runs,
once in this process and checked against ``bench/reference.json`` by the
benchmark's own gate (``bench/worker.py``, ``bench/check.py``).

A change that moves a printed figure, such as the side of a mirror tie
that ``min_inversion`` reports or a device's ``balanced_bias`` and
``decay_mhz``, fails here before it fails the benchmark.  Only files
under ``bench/`` are read.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

from delta_eita import cli  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    for family in workloads.FAMILIES:
        worker.write_inputs(family, inputs)
    return worker.InProcessRunner(inputs)


@pytest.mark.parametrize("item", workloads.pool("warm"), ids=lambda it: it.key)
def test_pool_input_matches_reference(runner, item, tmp_path):
    op = runner.run(item, tmp_path / "out")
    worker.collect(op)
    assert worker.problems(op, REFERENCE) == []


@pytest.mark.parametrize("item", workloads.pool("cli_cold"), ids=lambda it: it.key)
def test_cli_cold_item_matches_reference(item, tmp_path):
    # the shipped config with the item's --mode, through cli.main as the
    # cold process runs it
    argv = ["--config", str(BENCH.parent / "configs" / f"{item.config}.ini"),
            "--out", str(tmp_path / "out")]
    if item.mode:
        argv += ["--mode", item.mode]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    op = worker.Op(item, tmp_path / "out", rc, stdout.getvalue(), stderr.getvalue(), 0.0)
    worker.collect(op)
    assert worker.problems(op, REFERENCE) == []

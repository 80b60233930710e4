"""Every spectra and dynamics pool input of the benchmark, run once in
this process and checked against ``bench/reference.json`` by the
benchmark's own gate (``bench/worker.py``, ``bench/check.py``).

A change that moves a printed figure, such as the side of a mirror tie
that ``min_inversion`` reports, fails here before it fails the
benchmark.  Only files under ``bench/`` are read.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

FAMILIES = ("spectra", "dynamics")
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    for family in FAMILIES:
        worker.write_inputs(family, inputs)
    return worker.InProcessRunner(inputs)


@pytest.mark.parametrize("item", [it for f in FAMILIES for it in workloads.pool(f)],
                         ids=lambda it: it.key)
def test_pool_input_matches_reference(runner, item, tmp_path):
    op = runner.run(item, tmp_path / "out")
    worker.collect(op)
    assert worker.problems(op, REFERENCE) == []

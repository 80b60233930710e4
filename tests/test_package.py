import os
import subprocess
import sys
from pathlib import Path

import pytest

import delta_eita

ROOT = Path(__file__).resolve().parent.parent


#: The public surface; a name added to or removed from ``delta_eita.__all__``
#: must be added to or removed from this list too.
PUBLIC_NAMES = [
    "BasisTooSmall", "DecayEstimate", "Decoherence", "DegenerateSteadyState",
    "DeltaEitaError", "DimensionMismatch", "Drive", "DriveSet", "FluxoniumParams",
    "FluxoniumSpectrum", "InsufficientResolution", "InvariantViolation", "NoSignChange",
    "NotHermitian", "ParseError", "PeakReport", "ReflectionTable", "SingularDenominator",
    "SingularMatrix", "SpectrumTable", "ValidationError", "WindowTooNarrow",
    "analytic_rho31", "build_device_hamiltonian", "build_liouvillian", "devectorize",
    "dissipator_superop", "evolve", "find_balanced_bias", "find_peaks", "flux_sweep",
    "global_phase", "hilbert_transform", "homodyne_signal", "kramers_kronig_residual",
    "output_amplitude", "population_inversion_scan", "probe_response", "propagate",
    "reflection_spectrum", "rotating_hamiltonian", "scale_decay_rates", "spectrum_at",
    "steady_state", "sweep_detuning", "sweep_phase", "validate_density_matrix",
    "vectorize",
]


def test_public_surface_is_pinned():
    assert delta_eita.__all__ == PUBLIC_NAMES


def test_every_export_resolves():
    missing = [name for name in delta_eita.__all__ if not hasattr(delta_eita, name)]
    assert missing == []
    assert len(set(delta_eita.__all__)) == len(delta_eita.__all__)


def _fresh_cli_run(tmp_path, argv):
    """Run ``cli.main(argv)`` (no run for ``None``) in a fresh interpreter;
    return its exit status, the names of the modules it imported, and its
    stdout."""
    code = ("import sys\n"
            "import delta_eita.cli\n"
            f"rc = 0 if {argv!r} is None else delta_eita.cli.main({argv!r})\n"
            "print(rc, *sorted(sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    rc, *modules = last.split()
    return int(rc), set(modules), lines


#: Every shipped config and mode, with its exit status and the start of
#: the last line of its stdout.  No mode imports the scipy package: the
#: LAPACK routines (``zgesv`` for the steady-state solves, ``dstebz`` for
#: verify's fluxonium oracle) come from the extension
#: ``scipy.linalg._flapack``, loaded from its file on its own.
@pytest.mark.parametrize("config, mode, rc, summary", [
    (None, None, 0, None), ("eita", None, 0, "sweep n=801"),
    ("fluxonium", None, 0, "fluxonium n="), ("eita", "steady", 0, "steady delta13="),
    ("reflect", None, 0, "reflect n="), ("eita", "evolve", 0, "evolve t=10 initial=ground"),
    ("lwi", None, 0, "sweep n="), ("eit", None, 0, "sweep n="),
    ("phase_scan", None, 0, "phase-sweep phi="),
    ("eita", "verify", 3, "verify: 16/17 checks passed"),
], ids=["import", "eita-sweep", "fluxonium", "eita-steady", "reflect", "eita-evolve",
        "lwi", "eit", "phase_scan", "eita-verify"])
def test_start_up_path_does_not_import_scipy(tmp_path, config, mode, rc, summary):
    argv = None if config is None else [
        "--config", str(ROOT / "configs" / f"{config}.ini"), "--out", str(tmp_path)]
    if mode is not None:
        argv += ["--mode", mode]
    got_rc, modules, lines = _fresh_cli_run(tmp_path, argv)
    assert (got_rc, "scipy" in modules) == (rc, False)
    if summary is None:
        assert lines == []
    else:
        assert lines[-1].startswith(summary)


#: orjson spells the CSV cells, and ``csvout.write_csv`` imports it on its
#: first call, so a run that writes no CSV never loads it.
@pytest.mark.parametrize("argv", [
    None, ["--mode", "steady"], ["--dump-config"],
], ids=["import", "eita-steady", "dump-config"])
def test_runs_without_a_csv_do_not_import_orjson(tmp_path, argv):
    if argv is not None:
        argv = ["--config", str(ROOT / "configs" / "eita.ini"), "--out", str(tmp_path), *argv]
    rc, modules, lines = _fresh_cli_run(tmp_path, argv)
    assert (rc, "orjson" in modules) == (0, False)
    assert argv is None or lines
    assert not list(tmp_path.glob("*.csv"))


def test_a_run_that_writes_a_csv_imports_orjson(tmp_path):
    argv = ["--config", str(ROOT / "configs" / "eita.ini"), "--out", str(tmp_path)]
    rc, modules, _ = _fresh_cli_run(tmp_path, argv)
    assert (rc, "orjson" in modules) == (0, True)


#: The package modules every run loads: the command line, its config
#: parser (which takes the literature [fluxonium] energies from
#: ``fluxonium``, and with it ``csvout`` and ``numerics``) and the errors.
SHARED = {"atom", "cli", "config", "csvout", "errors", "fluxonium", "numerics"}
SPECTRUM = SHARED | {"lindblad", "spectroscopy"}


#: Each mode imports, inside its own branch, only the modules it runs.
@pytest.mark.parametrize("config, mode, modules", [
    (None, None, SHARED), ("fluxonium", None, SHARED),
    ("eita", "steady", SHARED | {"lindblad"}), ("eita", None, SPECTRUM),
    ("phase_scan", None, SPECTRUM), ("eita", "evolve", SPECTRUM),
    ("reflect", None, SPECTRUM | {"inout"}),
], ids=["import", "fluxonium", "eita-steady", "eita-sweep", "phase_scan", "eita-evolve",
        "reflect"])
def test_each_mode_loads_only_the_modules_it_runs(tmp_path, config, mode, modules):
    argv = None if config is None else [
        "--config", str(ROOT / "configs" / f"{config}.ini"), "--out", str(tmp_path)]
    if mode is not None:
        argv += ["--mode", mode]
    rc, loaded, _ = _fresh_cli_run(tmp_path, argv)
    assert rc == 0
    assert {name.split(".")[1] for name in loaded if name.startswith("delta_eita.")} == modules


CODE_LINES = ROOT / "tools" / "code_lines.py"

#: Seven code lines: docstrings, comments and blank lines do not count; a
#: statement or a string over two lines counts two.
SAMPLE = '''"""Module docstring
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """Docstring."""
    return (x +
            1)


class C:
    """Docstring."""
    y = """not a docstring
    but a value"""
'''


def _code_lines(*argv):
    proc = subprocess.run([sys.executable, str(CODE_LINES), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def test_code_line_counter_rules(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    assert _code_lines(str(tmp_path)) == [["7", "sample.py"], ["7", "total"]]


def test_code_line_counter_covers_every_module():
    rows = _code_lines()
    modules = sorted(path.name for path in (ROOT / "src" / "delta_eita").glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1]) > 0


def test_cold_start_tool_times_one_run():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cold_start.py"),
                           "--repeats", "1", "--only", "fluxonium"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, header, row = proc.stdout.splitlines()
    assert header.split() == ["run", "tree", "median_ms", "min_ms", "rc", "modules"]
    label, tree, median, low, rc, count, *modules = row.split()
    assert (label, tree, rc) == ("fluxonium", "this", "0")
    assert float(median) == float(low) > 0.0
    assert count == f"{len(SHARED)}:" and set(modules) == SHARED
    assert "bytecode" in proc.stdout

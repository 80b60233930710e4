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
    return its exit status, whether scipy got imported, and its stdout."""
    code = ("import sys\n"
            "import delta_eita.cli\n"
            f"rc = 0 if {argv!r} is None else delta_eita.cli.main({argv!r})\n"
            "print(rc, 'scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    rc, loaded = last.split()
    return int(rc), loaded == "True", lines


#: Every shipped config and mode a cold benchmark process runs, with the
#: start of its stdout summary; only verify, which runs scipy's
#: tridiagonal eigensolver as an oracle, loads scipy.
@pytest.mark.parametrize("config, mode, summary", [
    (None, None, None), ("eita", None, "sweep n=801"), ("fluxonium", None, "fluxonium n="),
    ("eita", "steady", "steady delta13="), ("reflect", None, "reflect n="),
    ("eita", "evolve", "evolve t=10 initial=ground"), ("lwi", None, "sweep n="),
    ("eit", None, "sweep n="), ("phase_scan", None, "phase-sweep phi="),
], ids=["import", "eita-sweep", "fluxonium", "eita-steady", "reflect", "eita-evolve",
        "lwi", "eit", "phase_scan"])
def test_start_up_path_does_not_import_scipy(tmp_path, config, mode, summary):
    argv = None if config is None else [
        "--config", str(ROOT / "configs" / f"{config}.ini"), "--out", str(tmp_path)]
    if mode is not None:
        argv += ["--mode", mode]
    rc, loaded, lines = _fresh_cli_run(tmp_path, argv)
    assert (rc, loaded) == (0, False)
    if summary is None:
        assert lines == []
    else:
        assert lines[-1].startswith(summary)


@pytest.mark.parametrize("mode, rc, last_line", [
    ("verify", 3, "verify: 16/17 checks passed"),
])
def test_modes_that_need_scipy_import_it_on_use(tmp_path, mode, rc, last_line):
    argv = ["--config", str(ROOT / "configs" / "eita.ini"), "--mode", mode,
            "--out", str(tmp_path)]
    got_rc, loaded, lines = _fresh_cli_run(tmp_path, argv)
    assert (got_rc, loaded) == (rc, True)
    assert lines[-1].startswith(last_line)

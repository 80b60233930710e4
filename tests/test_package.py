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
    got_rc, loaded, lines = _fresh_cli_run(tmp_path, argv)
    assert (got_rc, loaded) == (rc, False)
    if summary is None:
        assert lines == []
    else:
        assert lines[-1].startswith(summary)

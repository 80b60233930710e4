"""The verify registry, its error guard and the fluxonium grid oracle."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from delta_eita import build_liouvillian, numerics, rotating_hamiltonian, verify
from delta_eita.errors import NoSignChange
from delta_eita.fluxonium import FluxoniumParams
from delta_eita.lindblad import steady_state
from delta_eita.spectroscopy import transparency_fwhm_estimate

ROOT = Path(__file__).resolve().parent.parent

#: Every check `--mode verify` prints, in order.
CHECK_NAMES = [
    "steady_vs_longtime_evolution",
    "state_and_generator_invariants",
    "gain_sandwich_profile",
    "eit_autler_townes_symmetry",
    "eit_window_width_formula",
    "population_inversion_positive",
    "loop_phase_mirror",
    "loop_phase_gain_window",
    "loop_phase_plain_absorption",
    "closed_form_mirror_identity",
    "closed_form_tracks_full",
    "kramers_kronig_response",
    "kramers_kronig_lorentzian",
    "fluxonium_limits",
    "fluxonium_bias_and_rates",
    "inout_identities",
    "csv_determinism",
]


def test_run_all_runs_every_check_once_in_order():
    assert [r.name for r in verify.run_all()] == CHECK_NAMES


def test_package_error_becomes_a_fail_result(monkeypatch):
    def no_bias(*args, **kwargs):
        raise NoSignChange("w21 - w10 does not change sign on [0.01, 0.2]")

    monkeypatch.setattr(verify, "find_balanced_bias", no_bias)
    result = verify.check_fluxonium_bias_and_rates()
    assert result == verify.CheckResult(
        "fluxonium_bias_and_rates", False,
        "raised NoSignChange: w21 - w10 does not change sign on [0.01, 0.2]")


def test_checks_1_and_2_share_one_read_only_corpus(monkeypatch):
    solved = []
    monkeypatch.setattr(verify, "steady_state", lambda lv: solved.append(lv) or steady_state(lv))
    verify._stock_corpus.cache_clear()
    assert verify.check_steady_vs_longtime().passed
    assert verify.check_invariant_suite().passed
    assert len(solved) == 21
    lvs, states = verify._stock_corpus()
    assert (lvs.shape, states.shape) == ((21, 9, 9), (21, 3, 3))
    assert not lvs.flags.writeable and not states.flags.writeable


def test_invariant_check_reports_the_first_failing_state(monkeypatch):
    # the 21 steady states pass, so the first evolve state is the one named
    monkeypatch.setattr(verify, "evolve", lambda *args: np.diag([1.0 + 1e-6, 0.0, 0.0]))
    assert verify.check_invariant_suite() == verify.CheckResult(
        "state_and_generator_invariants", False,
        "raised InvariantViolation: trace deviates from 1 by 1.000e-06")


def test_csv_determinism_check_needs_no_file_system(monkeypatch):
    def no_directory(*args, **kwargs):
        raise OSError("no usable temporary directory")

    monkeypatch.setattr(tempfile, "TemporaryDirectory", no_directory)
    assert verify.check_csv_determinism().passed


def test_fluxonium_check_lines_do_not_depend_on_blas_threads():
    # roundoff-level figures do (flux symmetry 8.9e-14 at one thread, 3.9e-14
    # at two), so those print as below a thousandth of their bound; only the
    # runtimes of checks 1 and 17 are masked
    argv = [sys.executable, "-m", "delta_eita.cli", "--config", "configs/eita.ini",
            "--mode", "verify"]
    lines = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
            **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                            threads))
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout.endswith("verify: 16/17 checks passed\n")
        masked = re.sub(r"runtime [0-9.]+s", "runtime <x>s", proc.stdout)
        lines[threads] = re.sub(r"\([0-9.]+s\)", "(<x>s)", masked).splitlines()
    assert len(lines["1"]) == len(CHECK_NAMES) + 1
    assert lines["2"] == lines["1"]


def grid_hamiltonian(p, flux):
    """Diagonal and off-diagonal of ``realspace_levels``' grid Hamiltonian."""
    npts, halfspan = 2048, 6.0 * np.pi
    x = np.linspace(2.0 * np.pi * flux - halfspan, 2.0 * np.pi * flux + halfspan, npts)
    dx = x[1] - x[0]
    pot = -p.ej * np.cos(x) + 0.5 * p.el * (x - 2.0 * np.pi * flux) ** 2
    return 8.0 * p.ec / dx ** 2 + pot, np.full(npts - 1, -4.0 * p.ec / dx ** 2)


#: The stock device and two devices at the corners of the benchmark's range.
ORACLE_DEVICES = [FluxoniumParams(ej=9.0, ec=2.5, el=0.52),
                  FluxoniumParams(ej=8.5, ec=2.7, el=0.46),
                  FluxoniumParams(ej=9.5, ec=2.3, el=0.58)]


@pytest.mark.parametrize("flux", [-0.5, 0.0, 0.08, 0.13, 0.25, 0.4, 0.5])
@pytest.mark.parametrize("device", ORACLE_DEVICES, ids=["stock", "low", "high"])
def test_realspace_levels_match_scipy_eigh_tridiagonal(device, flux):
    # scipy's tridiagonal eigensolver is a test-only oracle here
    w = eigh_tridiagonal(*grid_hamiltonian(device, flux), select="i", select_range=(0, 2))[0]
    assert verify.realspace_levels(device, flux) == (float(w[1] - w[0]), float(w[2] - w[0]))


@pytest.mark.parametrize("m, info", [(3, 1), (2, 0)])
def test_failing_dstebz_raises_linalg_error(monkeypatch, m, info):
    class Stub:
        @staticmethod
        def dstebz(d, *args):
            return m, np.sort(d), np.ones(d.size, np.int32), np.zeros(d.size, np.int32), info

    monkeypatch.setattr(numerics, "_lapack", lambda: Stub)
    with pytest.raises(np.linalg.LinAlgError, match=f"LAPACK info={info}"):
        verify.realspace_levels(ORACLE_DEVICES[0], 0.08)


def trace_row_system(drives, dec, delta13):
    """The steady-state matrix A(delta13): L with row 0 replaced by the trace row."""
    a = build_liouvillian(rotating_hamiltonian(drives.with_probe_detuning(delta13)), dec)
    a[0] = np.eye(3).reshape(-1)
    return a


def test_window_width_check_measures_an_autler_townes_doublet():
    # why 4b fails: A(delta) = A0 + delta E, E diagonal on rho21, rho31,
    # rho12, rho13 (column stacking: 1, 2, 3, 6), so the response has
    # poles at -1/lambda for the eigenvalues lambda of A0^-1 E there
    drives = verify.reference_drives(omega12=0.0, omega13=0.05, omega23=3.0)
    dec = verify.reference_decoherence()
    a0 = trace_row_system(drives, dec, 0.0)
    e = trace_row_system(drives, dec, 1.0) - a0
    support = [1, 2, 3, 6]
    assert np.count_nonzero(e - np.diag(np.diag(e))) == 0
    assert np.flatnonzero(np.diag(e)).tolist() == support
    z = np.linalg.solve(a0, e[:, support])[support]
    poles = -1.0 / np.linalg.eigvals(z)
    causal = np.sort_complex(poles[poles.imag < 0.0])
    # the weak-probe closed form's roots: an Autler-Townes doublet split by
    # sqrt(Omega23^2 - (Gamma3 - gamma12/2)^2), not one narrow EIT pole
    half = 0.5 * np.sqrt(3.0 ** 2 - (dec.big_gamma3 - 0.5 * dec.gamma12) ** 2)
    width = 0.5 * (dec.big_gamma3 + 0.5 * dec.gamma12)
    np.testing.assert_allclose(causal, [-half - 1j * width, half - 1j * width], rtol=0, atol=2e-3)
    # a window between the doublet's poles is at most their separation
    # wide, and the narrow-window estimate 4b compares with exceeds it
    separation = abs(causal[1] - causal[0])
    assert transparency_fwhm_estimate(dec, 3.0) > separation

"""The verify registry, its error guard and the fluxonium grid oracle."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from delta_eita import build_liouvillian, numerics, rotating_hamiltonian, verify
from delta_eita.errors import NoSignChange
from delta_eita.fluxonium import FluxoniumParams
from delta_eita.spectroscopy import transparency_fwhm_estimate

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

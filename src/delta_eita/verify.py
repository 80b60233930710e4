"""Built-in verification suite.

Each check returns a CheckResult with the measured numbers in ``detail``
so failures are diagnosable from the one-line output.  ``@_check(name)``
registers a check in ALL_CHECKS; the CLI ``verify`` mode runs them all in
definition order, and the acceptance tests wrap the same checks one at a
time.

Reference parameter set (dimensionless, gamma13 = 1): gamma12 = gamma23
= 0.1, no pure dephasing, Omega23 = 1, Omega13 = Omega12 = 0.2,
delta23 = 0, loop phase 0.  The gain-sandwich profile, phase control and
inversion checks all run on this set or its documented variations.  The
closed-form and causality checks assert their bounds in the weak-probe
regime they describe, Omega12 = Omega13 = WEAK_PROBE, and report the
stock-drive figure alongside.
"""

from __future__ import annotations

import functools
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics
from .atom import Decoherence, Drive, DriveSet, rotating_hamiltonian
from .errors import DeltaEitaError
from .fluxonium import (
    EXAMPLE_EC,
    EXAMPLE_EJ,
    EXAMPLE_EL,
    FluxoniumParams,
    build_device_hamiltonian,
    find_balanced_bias,
    scale_decay_rates,
    spectrum_at,
)
from .inout import homodyne_signal, output_amplitude, reflection_from_table
from .lindblad import (
    build_liouvillian,
    evolve,
    level_projector,
    maximally_mixed,
    steady_state,
    validate_density_matrix,
)
from .spectroscopy import (
    PeakReport,
    SpectrumTable,
    analytic_rho31,
    find_peaks,
    kramers_kronig_grid,
    kramers_kronig_residual,
    population_inversion_scan,
    probe_response,
    sweep_detuning,
    sweep_phase,
    transparency_fwhm_estimate,
    write_spectrum_csv,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


#: Level-1 drive strength (Omega12 = Omega13) of the weak-probe checks, a
#: quarter of stock: the closed form and the Kramers-Kronig relation hold
#: to leading order in these drives, and the O(Omega^2) corrections there
#: are 1/16 of their stock size.
WEAK_PROBE = 0.05


def reference_drives(omega12: float = 0.2, omega13: float = 0.2,
                     omega23: float = 1.0, loop_phase: float = 0.0) -> DriveSet:
    """The stock drive set; the loop phase is applied on phi12."""
    return DriveSet(
        d12=Drive(magnitude=omega12, phase=loop_phase),
        d13=Drive(magnitude=omega13),
        d23=Drive(magnitude=omega23),
    )


def reference_decoherence(gamma12: float = 0.1, gamma23: float = 0.1) -> Decoherence:
    return Decoherence(gamma12=gamma12, gamma13=1.0, gamma23=gamma23)


#: Every check in definition order; ``@_check`` appends to it.
ALL_CHECKS: list[Callable[[], CheckResult]] = []


def _check(name: str):
    """Register a check that returns ``(passed, detail)`` as ``name``.

    The registered function takes no arguments and returns a CheckResult.
    A DeltaEitaError raised inside it becomes a FAIL result whose detail
    is ``raised <Type>: <message>``; any other exception propagates.
    Checks run and print in the order they are defined here.
    """
    def register(fn: Callable[[], tuple[bool, str]]) -> Callable[[], CheckResult]:
        @functools.wraps(fn, assigned=("__module__", "__name__", "__qualname__",
                                       "__doc__"))
        def run() -> CheckResult:
            try:
                passed, detail = fn()
            except DeltaEitaError as exc:
                return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
            return CheckResult(name, bool(passed), detail)

        ALL_CHECKS.append(run)
        return run

    return register


# --- steady-state oracle ----------------------------------------------------

@_check("steady_vs_longtime_evolution")
def check_steady_vs_longtime() -> tuple[bool, str]:
    """Steady-state solve equals the exact propagator exp(L t) applied to
    I/3 at t = 1000, independent of the LU solve."""
    drives = reference_drives()
    dec = reference_decoherence()
    start = time.perf_counter()
    worst = 0.0
    for delta in np.linspace(-2.0, 2.0, 21):
        lv = build_liouvillian(
            rotating_hamiltonian(drives.with_probe_detuning(delta)), dec)
        direct = steady_state(lv)
        settled = evolve(lv, maximally_mixed(), 1e3)
        worst = max(worst, float(np.max(np.abs(direct - settled))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    return ok, (f"max elementwise diff {worst:.2e} (tol 1e-8), "
                f"runtime {elapsed:.2f}s (< 10s)")


# --- state and generator invariants ------------------------------------------

@_check("state_and_generator_invariants")
def check_invariant_suite() -> tuple[bool, str]:
    """Density-matrix and generator invariants over a small corpus."""
    drives = reference_drives()
    dec = reference_decoherence()
    trace_row = np.zeros(9)
    trace_row[[0, 4, 8]] = 1.0
    worst_null = 0.0
    worst_re = -np.inf
    zero_modes = set()
    states = []
    for delta in np.linspace(-2.0, 2.0, 21):
        lv = build_liouvillian(
            rotating_hamiltonian(drives.with_probe_detuning(delta)), dec)
        states.append(steady_state(lv))
        worst_null = max(worst_null, float(np.max(np.abs(trace_row @ lv))))
        eigvals = np.linalg.eigvals(lv)
        worst_re = max(worst_re, float(np.max(eigvals.real)))
        zero_modes.add(int(np.sum(np.abs(eigvals) < 1e-10)))
    # evolve outputs join the corpus
    decay = Decoherence(gamma12=0.0, gamma13=0.1, gamma23=0.1)
    lv = build_liouvillian(np.zeros((3, 3), dtype=complex), decay)
    states.append(evolve(lv, level_projector(3), 5.0))
    lv = build_liouvillian(rotating_hamiltonian(drives), dec)
    states.append(evolve(lv, maximally_mixed(), 20.0))
    worst_tr = 0.0
    worst_h = 0.0
    worst_eig = np.inf
    for rho in states:
        worst_tr = max(worst_tr, abs(np.trace(rho) - 1.0))
        worst_h = max(worst_h, float(np.max(np.abs(rho - rho.conj().T))))
        worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(
            0.5 * (rho + rho.conj().T)))))
        validate_density_matrix(rho)
    ok = (worst_tr <= 1e-10 and worst_h <= 1e-10 and worst_eig >= -1e-9
          and worst_null <= 1e-10 and worst_re <= 1e-10 and zero_modes == {1})
    return ok, (f"trace dev {worst_tr:.1e}, herm dev {worst_h:.1e}, "
                f"min eig {worst_eig:+.1e}, left-null {worst_null:.1e}, "
                f"max Re(lambda) {worst_re:+.1e}, zero modes {sorted(zero_modes)}")


# --- window-between-absorption-and-gain profile -------------------------------

@_check("gain_sandwich_profile")
def check_gain_sandwich_profile() -> tuple[bool, str]:
    """Transparency window flanked by absorption (red) and gain (blue)."""
    table = sweep_detuning(reference_drives(), reference_decoherence(),
                           np.linspace(-2.0, 2.0, 801))
    report = find_peaks(table)
    flank_left = [h for p, h in zip(report.peak_positions, report.peak_heights)
                  if p < report.window_center]
    flank_right = [h for p, h in zip(report.peak_positions, report.peak_heights)
                   if p > report.window_center]
    left = flank_left[-1] if flank_left else 0.0
    right = flank_right[0] if flank_right else 0.0
    sandwich = left > 0.0 > right
    crossing_ok = abs(report.window_center) <= 0.1
    ok = sandwich and crossing_ok and report.classification == "EITA"
    peaks = ", ".join(f"{p:+.3f}:{h:+.4f}" for p, h in
                      zip(report.peak_positions, report.peak_heights))
    return ok, (f"class={report.classification}, window flanks "
                f"({left:+.4f}, {right:+.4f}), crossing at "
                f"{report.window_center:+.4f} (|.|<=0.1); extrema [{peaks}]")


# --- split peaks and window width ---------------------------------------------

@functools.cache
def _strong_pump_window() -> tuple[PeakReport, float]:
    """PeakReport and grid step of the Omega23 = 3 pure-transparency sweep
    that 4a and 4b both measure."""
    grid = np.linspace(-4.0, 4.0, 801)
    table = sweep_detuning(reference_drives(omega12=0.0, omega13=0.05, omega23=3.0),
                           reference_decoherence(), grid)
    return find_peaks(table), grid[1] - grid[0]


@_check("eit_autler_townes_symmetry")
def check_autler_townes_symmetry() -> tuple[bool, str]:
    """Strong-pump pure-transparency case: two symmetric positive peaks."""
    report, step = _strong_pump_window()
    # split peaks = the tallest extremum on each side of the window
    # (the shallow in-window dip is itself a reported extremum)
    left = [(p, h) for p, h in zip(report.peak_positions, report.peak_heights)
            if p < report.window_center - step]
    right = [(p, h) for p, h in zip(report.peak_positions, report.peak_heights)
             if p > report.window_center + step]
    ok = False
    asym = float("nan")
    flanks = []
    if left and right:
        pl, hl = max(left, key=lambda e: e[1])
        pr, hr = max(right, key=lambda e: e[1])
        flanks = [round(pl, 4), round(pr, 4)]
        asym = abs(pl + pr)
        ok = (hl > 0.0 and hr > 0.0 and asym <= step
              and report.classification == "EIT")
    return ok, (f"class={report.classification}, split peaks at {flanks}, "
                f"asymmetry {asym:.2e} (<= grid step {step:.3f})")


@_check("eit_window_width_formula")
def check_window_width_formula() -> tuple[bool, str]:
    """Measured transparency width vs the narrow-window estimate at strong pump.

    The estimate gamma12 + gphi2 + Omega23^2/(2 Gamma3) describes the
    unsplit (overdamped) window and exceeds the maximum possible width
    (the peak separation) once Omega23 > Gamma3, so this check documents
    the mismatch at Omega23 = 3.
    """
    report, _ = _strong_pump_window()
    estimate = transparency_fwhm_estimate(reference_decoherence(), 3.0)
    rel = abs(report.fwhm - estimate) / estimate
    ok = rel <= 0.15
    return ok, (f"measured fwhm {report.fwhm:.3f}, estimate {estimate:.3f}, "
                f"relative deviation {rel:.2f} (tol 0.15)")


# --- population inversion ------------------------------------------------------

@_check("population_inversion_positive")
def check_population_inversion() -> tuple[bool, str]:
    """pop1 - pop3 stays positive for all three stock profiles."""
    grid = np.linspace(-2.0, 2.0, 401)
    dec = reference_decoherence()
    cases = {
        "transparency": reference_drives(omega12=0.0),
        "gain-no-probe": reference_drives(omega13=0.0),
        "sandwich": reference_drives(),
    }
    mins = {}
    for label, drives in cases.items():
        table = sweep_detuning(drives, dec, grid)
        mins[label], _ = population_inversion_scan(table)
    ok = all(v > 0.0 for v in mins.values())
    detail = ", ".join(f"{k} min={v:.4f}" for k, v in mins.items())
    return ok, detail + " (all > 0)"


# --- loop-phase control ----------------------------------------------------------

@_check("loop_phase_mirror")
def check_phase_mirror() -> tuple[bool, str]:
    """Loop phase pi mirrors the absorption curve about zero detuning."""
    grid = np.linspace(-2.0, 2.0, 801)
    dec = reference_decoherence()
    tables = sweep_phase(reference_drives(), dec, grid, [0.0, np.pi])
    base, mirrored = tables[0].absorption, tables[1].absorption
    dev = float(np.max(np.abs(mirrored - base[::-1])))
    scale = float(np.max(np.abs(base)))
    ok = dev <= 0.05 * scale
    return ok, (f"max mirror deviation {dev:.2e} vs 5% of peak {0.05 * scale:.2e}")


@_check("loop_phase_gain_window")
def check_phase_gain_window() -> tuple[bool, str]:
    """Loop phase 3*pi/2 turns the window into gain throughout |delta|<=0.2."""
    grid = np.linspace(-0.2, 0.2, 81)
    table = sweep_phase(reference_drives(), reference_decoherence(),
                        grid, [1.5 * np.pi])[0]
    worst = float(np.max(table.absorption))
    ok = worst < 0.0
    return ok, f"max Im rho31 on |delta|<=0.2 is {worst:+.4f} (< 0)"


@_check("loop_phase_plain_absorption")
def check_phase_plain_absorption() -> tuple[bool, str]:
    """Loop phase pi/2 with weak 1-2 decay gives one non-negative lobe."""
    grid = np.linspace(-2.0, 2.0, 801)
    dec = Decoherence(gamma12=0.01, gamma13=1.0, gamma23=0.1)
    table = sweep_phase(reference_drives(), dec, grid, [0.5 * np.pi])[0]
    y = table.absorption
    nonneg = float(np.min(y)) >= -1e-6 * float(np.max(np.abs(y)))
    # single-lobed: the half-maximum region is one contiguous interval
    above = y >= 0.5 * float(np.max(y))
    lobes = int(np.sum(np.diff(above.astype(int)) == 1) + (1 if above[0] else 0))
    report = find_peaks(table)
    ok = nonneg and lobes == 1 and report.classification == "ABSORPTION"
    return ok, (f"min Im {np.min(y):+.4f} (>= 0), half-maximum lobes {lobes} "
                f"(== 1), class={report.classification}")


# --- closed-form coherence -------------------------------------------------------

@_check("closed_form_mirror_identity")
def check_closed_form_mirror_identity() -> tuple[bool, str]:
    """Exact mirror identity of the closed-form coherence at fixed populations."""
    rng = np.random.default_rng(20240311)
    worst = 0.0
    for _ in range(1000):
        om12, om13, om23 = rng.uniform(0.0, 2.0, 3)
        delta = rng.uniform(-3.0, 3.0)
        g12 = rng.uniform(0.0, 0.5)
        g3 = rng.uniform(0.2, 2.0)
        pops = rng.dirichlet(np.ones(3))
        a = analytic_rho31(om12, om13, om23, (np.pi, 0.0, 0.0), -delta,
                           g12, g3, tuple(pops))
        b = analytic_rho31(om12, om13, om23, (0.0, 0.0, 0.0), delta,
                           g12, g3, tuple(pops))
        worst = max(worst, abs(a.imag - b.imag), abs(a.real + b.real))
    ok = worst <= 1e-12
    return ok, (f"max identity violation {worst:.2e} over 1000 draws "
                f"(tol 1e-12)")


def _closed_form_error(probe: float) -> tuple[float, float]:
    """Max |closed form - exact rho31| and max |exact rho31| over the
    801-point stock sweep, both level-1 drives at ``probe``."""
    dec = reference_decoherence()
    table = sweep_detuning(reference_drives(omega12=probe, omega13=probe), dec,
                           np.linspace(-2.0, 2.0, 801))
    ana = np.array([
        analytic_rho31(probe, probe, 1.0, (0.0, 0.0, 0.0), d,
                       dec.gamma12, dec.big_gamma3, tuple(pops))
        for d, pops in zip(table.detunings.tolist(), table.populations.tolist())])
    return (float(np.max(np.abs(ana - table.rho31))),
            float(np.max(np.abs(table.rho31))))


@_check("closed_form_tracks_full")
def check_closed_form_tracks_full() -> tuple[bool, str]:
    """Closed form with full-solution populations vs the exact coherence.

    The closed form drops the O(|rho23|/(p1 - p3)) terms, so its error
    falls as Omega^2 in the level-1 drives (0.125 of the peak at the
    stock 0.2, 0.0077 at 0.05).  The 10% bound is asserted at
    Omega12 = Omega13 = WEAK_PROBE, inside that premise; the stock-drive
    figure is reported, not asserted.
    """
    err, peak = _closed_form_error(WEAK_PROBE)
    bound = 0.1 * peak
    stock_err, stock_peak = _closed_form_error(0.2)
    ok = err <= bound
    return ok, (f"Omega12 = Omega13 = {WEAK_PROBE}: max |closed-form - full| "
                f"{err:.5f} vs 10% of max {bound:.5f}; stock 0.2 (not "
                f"asserted): {stock_err / stock_peak:.4f} of max")


# --- causality (Kramers-Kronig) ----------------------------------------------------

def _response_residual(probe: float) -> float:
    """KK residual of the stock spectrum, both level-1 drives at ``probe``."""
    return kramers_kronig_residual(sweep_detuning(
        reference_drives(omega12=probe, omega13=probe), reference_decoherence(),
        kramers_kronig_grid()))


@_check("kramers_kronig_response")
def check_kramers_kronig_response() -> tuple[bool, str]:
    """Causality residual of the gain-sandwich spectrum in linear response.

    The Kramers-Kronig relation holds for linear response only.  The
    residual falls with both level-1 drives (0.157 at the stock 0.2,
    0.012 at 0.05, a 0.0014 quadrature floor below 0.02); weakening
    Omega13 alone leaves it near 0.035.  The 0.1 bound is asserted at
    Omega12 = Omega13 = WEAK_PROBE; the stock-drive residual is reported,
    not asserted.
    """
    res = _response_residual(WEAK_PROBE)
    stock = _response_residual(0.2)
    ok = res <= 0.1
    return ok, (f"Omega12 = Omega13 = {WEAK_PROBE}: residual {res:.4f} "
                f"(tol 0.1); stock 0.2 (not asserted): residual {stock:.4f}")


@_check("kramers_kronig_lorentzian")
def check_kramers_kronig_lorentzian() -> tuple[bool, str]:
    """Hilbert machinery against the causal Lorentzian pair."""
    grid = np.linspace(-50.0, 50.0, 4001)
    im = 1.0 / (grid ** 2 + 1.0)
    re = -grid / (grid ** 2 + 1.0)
    rho31 = np.empty(grid.shape, dtype=complex)
    rho31.real, rho31.imag = re, im
    table = SpectrumTable(detunings=grid, rho31=rho31,
                          populations=np.tile([1.0, 0.0, 0.0], (grid.size, 1)),
                          drives=reference_drives(), dec=reference_decoherence())
    res = kramers_kronig_residual(table)
    ok = res <= 0.05
    return ok, f"residual {res:.5f} (tol 0.05)"


# --- fluxonium device ----------------------------------------------------------------

def realspace_levels(p: FluxoniumParams, flux: float) -> tuple[float, float]:
    """Independent device levels from a 2048-point finite-difference phase grid."""
    npts, halfspan = 2048, 6.0 * np.pi
    x = np.linspace(2.0 * np.pi * flux - halfspan, 2.0 * np.pi * flux + halfspan, npts)
    dx = x[1] - x[0]
    pot = -p.ej * np.cos(x) + 0.5 * p.el * (x - 2.0 * np.pi * flux) ** 2
    diag = 8.0 * p.ec / dx ** 2 + pot
    off = np.full(npts - 1, -4.0 * p.ec / dx ** 2)
    # the three lowest eigenvalues by bisection: range by index (2), il = 1 to
    # iu = 3, abstol 0, ascending
    m, w, _, _, info = numerics._lapack().dstebz(diag, off, 2, 0.0, 0.0, 1, 3, 0.0, "E")
    if info != 0 or m != 3:
        raise np.linalg.LinAlgError(f"dstebz found {m} of 3 levels (LAPACK info={info})")
    return float(w[1] - w[0]), float(w[2] - w[0])


@_check("fluxonium_limits")
def check_fluxonium_limits() -> tuple[bool, str]:
    """Harmonic limit, basis convergence, grid oracle, flux symmetry."""
    # vanishing junction energy: exact oscillator levels and couplings
    tiny = FluxoniumParams(ej=1e-12, ec=EXAMPLE_EC, el=EXAMPLE_EL)
    s = spectrum_at(tiny, 0.13)
    w_osc = np.sqrt(8.0 * EXAMPLE_EC * EXAMPLE_EL)
    n_zpf = (EXAMPLE_EL / (8.0 * EXAMPLE_EC)) ** 0.25 / np.sqrt(2.0)
    harm = max(abs(s.w10 - w_osc) / w_osc, abs(s.w20 - 2.0 * w_osc) / (2.0 * w_osc),
               abs(s.t12 - n_zpf) / n_zpf,
               abs(s.t23 - np.sqrt(2.0) * n_zpf) / (np.sqrt(2.0) * n_zpf))
    device = FluxoniumParams(ej=EXAMPLE_EJ, ec=EXAMPLE_EC, el=EXAMPLE_EL)
    # basis convergence at the default size (spectrum_at enforces 1e-6;
    # measure it directly here)
    w_small = np.linalg.eigvalsh(build_device_hamiltonian(device, 0.08))[:3]
    w_large = np.linalg.eigvalsh(
        build_device_hamiltonian(device, 0.08, basis_size=120))[:3]
    conv = float(np.max(np.abs(w_small - w_large)))
    # real-space finite-difference oracle
    s08 = spectrum_at(device, 0.08)
    g10, g20 = realspace_levels(device, 0.08)
    grid_err = max(abs(s08.w10 - g10), abs(s08.w20 - g20))
    # flux inversion symmetry
    plus = spectrum_at(device, 0.13)
    minus = spectrum_at(device, -0.13)
    sym = max(abs(plus.w10 - minus.w10), abs(plus.w20 - minus.w20),
              abs(plus.t12 - minus.t12), abs(plus.t13 - minus.t13),
              abs(plus.t23 - minus.t23))
    ok = harm <= 1e-9 and conv <= 1e-6 and grid_err <= 1e-4 and sym <= 1e-9
    return ok, (f"harmonic rel err {harm:.1e} (1e-9), basis shift {conv:.1e} GHz "
                f"(1e-6), grid oracle {grid_err:.1e} GHz (1e-4), "
                f"flux symmetry {sym:.1e} (1e-9)")


@_check("fluxonium_bias_and_rates")
def check_fluxonium_bias_and_rates() -> tuple[bool, str]:
    """Balanced bias in (0, 0.2) and white-noise rate estimates (contingent
    on the example literature device energies)."""
    device = FluxoniumParams(ej=EXAMPLE_EJ, ec=EXAMPLE_EC, el=EXAMPLE_EL)
    bias = find_balanced_bias(device, 0.01, 0.2)
    in_range = 0.0 < bias < 0.2
    t_ref = spectrum_at(device, 0.0).t12
    s = spectrum_at(device, bias)
    est = scale_decay_rates(11.0, t_ref, s)
    # ratio law is algebraic, independent of device specifics
    ratio_err = abs(est.gamma13 / est.gamma12 - (s.t13 / s.t12) ** 2)
    # order-of-magnitude comparison against 25 / 2.6 / 2.6 MHz
    targets = (2.6, 25.0, 2.6)
    values = (est.gamma12, est.gamma13, est.gamma23)
    orders = [abs(np.log10(v / t)) for v, t in zip(values, targets)]
    ok = in_range and ratio_err <= 1e-12 * (s.t13 / s.t12) ** 2 and max(orders) <= np.log10(2.0)
    return ok, (f"balanced bias {bias:.5f} in (0,0.2); rates MHz "
                f"g12={est.gamma12:.2f} g13={est.gamma13:.2f} "
                f"g23={est.gamma23:.2f} vs 2.6/25/2.6 "
                f"(within x2); ratio-law dev {ratio_err:.1e}")


# --- input-output relations --------------------------------------------------------

@_check("inout_identities")
def check_inout_identities() -> tuple[bool, str]:
    """Affinity and quadrature identities; far-detuned transparency."""
    rng = np.random.default_rng(7)
    worst_aff = 0.0
    worst_quad = 0.0
    for _ in range(200):
        a_in = complex(rng.normal(), rng.normal())
        g13 = float(rng.uniform(0.0, 4.0))
        rho = complex(rng.normal(), rng.normal())
        a_out = output_amplitude(a_in, g13, rho)
        worst_aff = max(worst_aff,
                        abs(a_out - a_in - np.sqrt(g13) * rho))
        i_quad = homodyne_signal(a_out, 0.0)
        q_quad = homodyne_signal(a_out, 0.5 * np.pi)
        worst_quad = max(worst_quad,
                         abs(i_quad ** 2 + q_quad ** 2 - abs(a_out) ** 2))
    dec = reference_decoherence()
    table = sweep_detuning(reference_drives(), dec, np.array([-50.0, 50.0]))
    far = float(np.max(np.abs(reflection_from_table(table, 1.0 + 0.0j).a_out - 1.0)))
    bound = 1e-2 * np.sqrt(dec.gamma13)
    ok = worst_aff <= 1e-12 and worst_quad <= 1e-12 and far <= bound
    return ok, (f"affinity dev {worst_aff:.1e}, quadrature dev {worst_quad:.1e}, "
                f"|a_out - a_in| at delta=+-50 is {far:.4f} (<= {bound:.3f})")


# --- reproducibility -----------------------------------------------------------------

@_check("csv_determinism")
def check_csv_determinism() -> tuple[bool, str]:
    """The stacked sweep writes the same CSV bytes as the per-point table."""
    drives = reference_drives()
    dec = reference_decoherence()
    grid = np.linspace(-4.0, 4.0, 801)
    start = time.perf_counter()
    rows = [probe_response(drives, dec, d) for d in grid]
    per_point = SpectrumTable(
        detunings=grid, rho31=np.concatenate([r.rho31 for r in rows]),
        populations=np.concatenate([r.populations for r in rows]),
        drives=drives, dec=dec)
    with tempfile.TemporaryDirectory() as tmp:
        single = Path(tmp) / "per_point.csv"
        stacked = Path(tmp) / "stacked.csv"
        write_spectrum_csv(per_point, single)
        write_spectrum_csv(sweep_detuning(drives, dec, grid), stacked)
        same = single.read_bytes() == stacked.read_bytes()
    elapsed = time.perf_counter() - start
    return same, (f"stacked sweep vs per-point table byte-identical: {same} "
                  f"({elapsed:.1f}s)")


def run_all() -> list[CheckResult]:
    """Run every registered check in definition order.

    A DeltaEitaError inside a check comes back as its FAIL result; any
    other exception is a bug in the program or the check and propagates.
    """
    return [check() for check in ALL_CHECKS]

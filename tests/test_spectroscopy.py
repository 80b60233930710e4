import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_eita import (
    Decoherence,
    DegenerateSteadyState,
    DeltaEitaError,
    Drive,
    DriveSet,
    InsufficientResolution,
    SingularDenominator,
    ValidationError,
    WindowTooNarrow,
    analytic_rho31,
    build_liouvillian,
    find_peaks,
    hilbert_transform,
    kramers_kronig_residual,
    population_inversion_scan,
    probe_response,
    rotating_hamiltonian,
    steady_state,
    sweep_detuning,
    sweep_phase,
)
from delta_eita import spectroscopy
from delta_eita.lindblad import evolve, maximally_mixed
from delta_eita.spectroscopy import SWEEP_BLOCK, SpectrumTable, kramers_kronig_grid


def make_table(grid, values, drives=None, dec=None):
    """Synthetic table with prescribed rho31 values."""
    drives = drives or DriveSet(Drive(0.2), Drive(0.2), Drive(1.0))
    dec = dec or Decoherence(gamma12=0.1, gamma13=1.0, gamma23=0.1)
    populations = np.tile([1.0, 0.0, 0.0], (len(grid), 1))
    return SpectrumTable(detunings=grid, rho31=values, populations=populations,
                         drives=drives, dec=dec)


def hilbert_quadrature_loop(values, grid):
    """Reference Hilbert transform: the trapezoid sum over every sample
    x_j != x_i, one output sample at a time, with the singular sample
    replaced by the average of its neighbours' integrand (an end sample
    copies its one neighbour's)."""
    y = np.asarray(values, dtype=float)
    x = np.asarray(grid, dtype=float)
    n = len(x)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    out = np.empty(n)
    for i in range(n):
        dx = x - x[i]
        g = np.empty(n)
        np.divide(y, dx, out=g, where=(dx != 0.0))
        if 0 < i < n - 1:
            g[i] = 0.5 * (g[i - 1] + g[i + 1])
        else:
            g[i] = g[1] if i == 0 else g[n - 2]
        out[i] = np.dot(w, g)
    return out / np.pi


def extrema_loop(x, y):
    """Reference ``_extrema``: the 3-point test, one sample at a time."""
    scale = np.max(np.abs(y))
    if scale == 0.0:
        return []
    out = []
    for i in range(1, len(y) - 1):
        if (y[i] > y[i - 1] and y[i] > y[i + 1]) or (y[i] < y[i - 1] and y[i] < y[i + 1]):
            pos, height = spectroscopy._refine(x, y, i)
            if abs(height) >= spectroscopy.PEAK_SIGNIFICANCE * scale:
                out.append((i, pos, height))
    return out


def crossing_loop(x, y, lo, hi):
    """Reference ``_crossing``: every sample pair in [lo, hi] in turn, the
    first crossing nearest zero kept."""
    idx = np.where((x >= lo) & (x <= hi))[0]
    if idx.size < 2:
        return None
    best = None
    for k in idx[:-1]:
        if y[k] == 0.0:
            c = float(x[k])
        elif y[k] * y[k + 1] < 0.0:
            c = float(x[k] - y[k] * (x[k + 1] - x[k]) / (y[k + 1] - y[k]))
        else:
            continue
        if best is None or abs(c) < abs(best):
            best = c
    return best


def abs_threshold_span_loop(x, y, center, lo, hi, thr):
    """Reference ``_abs_threshold_span``: walk out from the centre sample
    while |y| <= thr and the sample lies in [lo, hi]."""
    a = np.abs(y)
    i0 = int(np.argmin(np.abs(x - center)))
    if a[i0] > thr:
        return 0.0
    left = lo
    for k in range(i0, 0, -1):
        if x[k - 1] < lo:
            left = lo
            break
        if a[k - 1] > thr:
            frac = (a[k - 1] - thr) / (a[k - 1] - a[k])
            left = x[k - 1] + frac * (x[k] - x[k - 1])
            break
    else:
        left = max(lo, float(x[0]))
    right = hi
    for k in range(i0, len(x) - 1):
        if x[k + 1] > hi:
            right = hi
            break
        if a[k + 1] > thr:
            frac = (a[k + 1] - thr) / (a[k + 1] - a[k])
            right = x[k + 1] - frac * (x[k + 1] - x[k])
            break
    else:
        right = min(hi, float(x[-1]))
    return max(0.0, float(right - left))


def lobe_fwhm_loop(x, y, sign):
    """Reference ``_lobe_fwhm``: walk out from the peak while sign*y stays
    at or above half of it; the right edge is interpolated from its inside
    sample."""
    ys = sign * y
    i0 = int(np.argmax(ys))
    half = 0.5 * ys[i0]
    left = float(x[0])
    for k in range(i0, 0, -1):
        if ys[k - 1] < half:
            frac = (half - ys[k - 1]) / (ys[k] - ys[k - 1])
            left = x[k - 1] + frac * (x[k] - x[k - 1])
            break
    right = float(x[-1])
    for k in range(i0, len(x) - 1):
        if ys[k + 1] < half:
            frac = (ys[k] - half) / (ys[k] - ys[k + 1])
            right = x[k] + frac * (x[k + 1] - x[k])
            break
    pos = spectroscopy._refine(x, y, i0)[0] if 0 < i0 < len(x) - 1 else float(x[i0])
    return pos, max(0.0, right - left)


def find_peaks_with_loops(table):
    """Reference ``find_peaks``: its classification over the per-sample
    loops above in place of the column helpers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectroscopy, "_extrema", extrema_loop)
        mp.setattr(spectroscopy, "_crossing", crossing_loop)
        mp.setattr(spectroscopy, "_abs_threshold_span", abs_threshold_span_loop)
        mp.setattr(spectroscopy, "_lobe_fwhm", lobe_fwhm_loop)
        return find_peaks(table)


def assert_same_report(table):
    """find_peaks agrees with the loop reference: extrema, classification
    and any error exactly, window centre and width to 1e-15 relative (the
    reference interpolates a lobe's right edge from its inside sample,
    find_peaks from the outside one, which can round differently)."""
    try:
        expected = find_peaks_with_loops(table)
    except DeltaEitaError as exc:
        with pytest.raises(type(exc)) as got:
            find_peaks(table)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return type(exc).__name__
    report = find_peaks(table)
    assert report.peak_positions == expected.peak_positions
    assert report.peak_heights == expected.peak_heights
    assert report.classification == expected.classification
    assert report.window_center == pytest.approx(expected.window_center, rel=1e-15, abs=0.0)
    assert report.fwhm == pytest.approx(expected.fwhm, rel=1e-15, abs=0.0)
    return report.classification


def lorentzian_spectrum(points, lines, digits=None):
    """Absorption sum_k h w^2 / ((x - c)^2 + w^2) over ``lines`` of
    (c, w, h) on ``points`` uniform detunings in [-4, 4], optionally
    rounded to ``digits`` decimals (exact zeros and flat runs)."""
    grid = np.linspace(-4.0, 4.0, points)
    y = np.zeros(points)
    for c, w, h in lines:
        y += h * w * w / ((grid - c) ** 2 + w * w)
    if digits is not None:
        y = np.round(y, digits)
    return make_table(grid, 0.3 + 1j * y)


def succeeds(f, *args) -> bool:
    try:
        f(*args)
    except DeltaEitaError:
        return False
    return True


def assert_same_table(a, b):
    """Drives, rates and every column equal bit for bit (signed zeros too)."""
    assert (a.drives, a.dec) == (b.drives, b.dec)
    for column in ("detunings", "rho31", "populations"):
        assert getattr(a, column).tobytes() == getattr(b, column).tobytes(), column


class TestProbeResponse:
    def test_dark_state_transparency(self):
        # no 1-2 drive, two-photon resonance, no 1-2 decay: exact dark state
        drives = DriveSet(Drive(0.0), Drive(0.2), Drive(1.0))
        dec = Decoherence(gamma12=0.0, gamma13=1.0, gamma23=0.1)
        point = probe_response(drives, dec, 0.0)
        assert abs(point.absorption[0]) <= 1e-12

    def test_sandwich_flank_signs(self, stock_drives, stock_dec):
        red = probe_response(stock_drives, stock_dec, -0.5)
        blue = probe_response(stock_drives, stock_dec, +0.3)
        assert red.absorption[0] > 0.0    # absorption on the red side
        assert blue.absorption[0] < 0.0   # gain on the blue side

    def test_matches_long_time_evolution(self, stock_drives, stock_dec):
        delta = 0.37
        point = probe_response(stock_drives, stock_dec, delta)
        lv = build_liouvillian(
            rotating_hamiltonian(stock_drives.with_probe_detuning(delta)), stock_dec)
        settled = evolve(lv, maximally_mixed(), 1e3)
        assert abs(point.rho31[0] - settled[2, 0]) <= 1e-8
        assert abs(point.populations[0, 0] - settled[0, 0].real) <= 1e-8

    def test_zero_probe_magnitude_allowed(self, stock_dec):
        drives = DriveSet(Drive(0.2), Drive(0.0), Drive(1.0))
        point = probe_response(drives, stock_dec, 0.5)
        assert np.isfinite(point.dispersion[0])
        assert abs(point.rho31[0]) > 0.0  # loop coherence without a probe drive


class TestSweeps:
    def test_singleton_equals_probe_response(self, stock_drives, stock_dec):
        table = sweep_detuning(stock_drives, stock_dec, [0.25])
        assert_same_table(table, probe_response(stock_drives, stock_dec, 0.25))

    def test_requires_increasing_grid(self, stock_drives, stock_dec):
        with pytest.raises(ValidationError):
            sweep_detuning(stock_drives, stock_dec, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("grid", [[0.0, np.nan, -1.0], [0.0, np.nan], [np.inf]])
    def test_non_finite_grid_is_validation_error(self, stock_drives, stock_dec, grid):
        with pytest.raises(ValidationError):
            sweep_detuning(stock_drives, stock_dec, grid)
        with pytest.raises(ValidationError):
            make_table(grid, np.zeros(len(grid)))

    def test_transparency_curve_symmetry(self, stock_dec):
        # no 1-2 drive, real resonant pump: absorption is even in detuning
        drives = DriveSet(Drive(0.0), Drive(0.2), Drive(1.0))
        grid = np.linspace(-2.0, 2.0, 201)
        table = sweep_detuning(drives, stock_dec, grid)
        y = table.absorption
        assert np.max(np.abs(y - y[::-1])) <= 1e-8

    def test_sandwich_crossing_and_extrema(self, stock_drives, stock_dec):
        table = sweep_detuning(stock_drives, stock_dec, np.linspace(-2, 2, 401))
        y = table.absorption
        signs = np.sign(y)
        flips = np.where(np.diff(signs) != 0)[0]
        near_zero = [table.detunings[k] for k in flips if abs(table.detunings[k]) < 0.5]
        assert near_zero and min(abs(d) for d in near_zero) <= 0.1
        report = find_peaks(table)
        assert report.classification == "EITA"
        heights = np.array(report.peak_heights)
        assert np.sum(heights < 0.0) == 1
        neg_pos = report.peak_positions[int(np.argmin(heights))]
        assert neg_pos > 0.0              # gain peak sits blue-detuned

    def test_phase_list_singleton_reduces_to_plain_sweep(self, stock_drives, stock_dec):
        grid = np.linspace(-1.0, 1.0, 11)
        from_phase = sweep_phase(stock_drives, stock_dec, grid, [0.0])[0]
        plain = sweep_detuning(stock_drives.with_loop_phase(0.0), stock_dec, grid)
        assert from_phase == plain

    def test_pi_mirrors_zero(self, stock_drives, stock_dec):
        grid = np.linspace(-2.0, 2.0, 201)
        zero, pi = sweep_phase(stock_drives, stock_dec, grid, [0.0, np.pi])
        dev = np.max(np.abs(pi.absorption - zero.absorption[::-1]))
        assert dev <= 0.05 * np.max(np.abs(zero.absorption))

    def test_three_half_pi_gain_window(self, stock_drives, stock_dec):
        grid = np.linspace(-0.2, 0.2, 41)
        table = sweep_phase(stock_drives, stock_dec, grid, [1.5 * np.pi])[0]
        assert np.max(table.absorption) < 0.0

    def test_gauge_invariance(self, stock_dec, rng):
        # phases shifted by a ket re-phasing leave the whole table unchanged
        a, b, c = rng.uniform(-np.pi, np.pi, 3)
        base = DriveSet(Drive(0.2, 0.3), Drive(0.2, 0.9), Drive(1.0, 1.7))
        shifted = DriveSet(
            Drive(0.2, 0.3 + a - b), Drive(0.2, 0.9 + a - c), Drive(1.0, 1.7 + b - c))
        grid = np.linspace(-1.0, 1.0, 21)
        t1 = sweep_detuning(base, stock_dec, grid)
        t2 = sweep_detuning(shifted, stock_dec, grid)
        assert np.max(np.abs(t1.rho31 - t2.rho31)) <= 1e-10
        assert np.max(np.abs(t1.populations - t2.populations)) <= 1e-10

    def test_transparency_limit_linear_in_omega12(self, stock_dec):
        grid = np.linspace(-2.0, 2.0, 101)
        pure = sweep_detuning(DriveSet(Drive(0.0), Drive(0.2), Drive(1.0)),
                              stock_dec, grid)
        d_full = sweep_detuning(DriveSet(Drive(0.1), Drive(0.2), Drive(1.0)),
                                stock_dec, grid)
        d_half = sweep_detuning(DriveSet(Drive(0.05), Drive(0.2), Drive(1.0)),
                                stock_dec, grid)
        gap_full = np.max(np.abs(d_full.rho31 - pure.rho31))
        gap_half = np.max(np.abs(d_half.rho31 - pure.rho31))
        assert gap_full / gap_half == pytest.approx(2.0, rel=0.2)

    def test_small_cross_coherence_premise(self, stock_drives, stock_dec):
        # the closed form assumes rho23 ~ 0; record the measured maximum
        worst = 0.0
        for delta in np.linspace(-2.0, 2.0, 81):
            lv = build_liouvillian(
                rotating_hamiltonian(stock_drives.with_probe_detuning(delta)),
                stock_dec)
            worst = max(worst, abs(steady_state(lv)[1, 2]))
        assert worst < 0.1                # measured ~0.089 at the stock drives


def per_point_table(drives, dec, grid):
    """The sweep as independent single-point solves: the stacked sweep's reference."""
    rows = [probe_response(drives, dec, d) for d in grid]
    return SpectrumTable(detunings=grid, rho31=np.concatenate([r.rho31 for r in rows]),
                         populations=np.concatenate([r.populations for r in rows]),
                         drives=drives, dec=dec)


class TestStackedSweep:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 2 * SWEEP_BLOCK + 1, 801])
    def test_equals_per_point_table(self, stock_drives, stock_dec, n):
        grid = np.linspace(-4.0, 4.0, n)
        assert_same_table(sweep_detuning(stock_drives, stock_dec, grid),
                          per_point_table(stock_drives, stock_dec, grid))

    @pytest.mark.parametrize("phi13", [0.7, -2.9])
    def test_equals_per_point_with_probe_phase(self, phi13):
        # phi13 != 0 exercises the reported-coherence multiply, which a
        # vectorized complex multiply would round differently
        drives = DriveSet(Drive(0.3, 0.4), Drive(0.2, phi13), Drive(1.2, -1.1, 0.3))
        dec = Decoherence(gamma12=0.1, gamma13=1.0, gamma23=0.1, gphi2=0.05, gphi3=0.2)
        grid = np.linspace(-4.0, 4.0, 801)
        assert_same_table(sweep_detuning(drives, dec, grid),
                          per_point_table(drives, dec, grid))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(magnitudes=st.tuples(*[st.floats(0.0, 2.0)] * 3),
           phases=st.tuples(st.floats(0.0, 6.2), st.floats(0.1, 6.2), st.floats(0.0, 6.2)),
           delta23=st.floats(-1.0, -0.05) | st.floats(0.05, 1.0),
           rates=st.tuples(st.floats(0.01, 0.3), st.floats(0.2, 2.0), st.floats(0.0, 0.3),
                           st.floats(0.01, 0.5), st.floats(0.01, 0.5)),
           points=st.integers(SWEEP_BLOCK + 1, 2 * SWEEP_BLOCK + 2),
           seed=st.integers(0, 2**32 - 1),
           bad=st.sampled_from([None, None, None, 1e13, 1.7e308, -1e150]))
    def test_equals_per_point_with_dephasing_and_phases(self, magnitudes, phases, delta23,
                                                        rates, points, seed, bad):
        # a non-uniform grid over two block edges, through 0 and delta23,
        # where the Hamiltonian's diagonal entries change sign, and maybe a
        # degenerate far detuning in the first or the last block
        drives = DriveSet(*[Drive(m, phi) for m, phi in zip(magnitudes[:2], phases[:2])],
                          Drive(magnitudes[2], phases[2], delta23))
        dec = Decoherence(*rates)
        steps = np.random.default_rng(seed).uniform(1e-3, 0.05, points)
        grid = np.unique(np.append(np.cumsum(steps) - 0.5 * np.sum(steps), [0.0, delta23]))
        if bad is not None:
            grid = np.append(grid, bad) if bad > 0.0 else np.insert(grid, 0, bad)
        try:
            expected = per_point_table(drives, dec, grid)
        except DeltaEitaError as exc:
            failed = next(d for d in grid if not succeeds(probe_response, drives, dec, d))
            with pytest.raises(type(exc)) as stacked:
                sweep_detuning(drives, dec, grid)
            assert str(stacked.value) == f"at delta13={failed:g}: {exc}"
        else:
            assert bad is None
            assert_same_table(sweep_detuning(drives, dec, grid), expected)

    def test_degenerate_error_names_first_point(self):
        # level 3 disconnected: every point is degenerate, the first one raises
        drives = DriveSet(Drive(0.5), Drive(0.0), Drive(0.0))
        dec = Decoherence(gamma12=0.1, gamma13=0.0, gamma23=0.0)
        grid = np.linspace(-2.0, 2.0, 300)
        with pytest.raises(DegenerateSteadyState) as single:
            probe_response(drives, dec, grid[0])
        with pytest.raises(DegenerateSteadyState) as stacked:
            sweep_detuning(drives, dec, grid)
        assert str(stacked.value) == f"at delta13={grid[0]:g}: {single.value}"

    def test_nan_in_second_block_is_named(self, stock_drives, stock_dec):
        # a finite failing point: at 1e13 the relative pivot is ~5e-14
        grid = np.append(np.linspace(-4.0, 4.0, 299), 1e13)
        assert grid.size - 1 >= SWEEP_BLOCK
        with pytest.raises(DegenerateSteadyState) as single:
            probe_response(stock_drives, stock_dec, 1e13)
        with pytest.raises(DegenerateSteadyState) as stacked:
            sweep_detuning(stock_drives, stock_dec, grid)
        assert str(stacked.value) == f"at delta13=1e+13: {single.value}"


class TestAnalyticCoherence:
    def test_transparency_zero(self):
        out = analytic_rho31(0.0, 0.2, 1.0, (0.0, 0.0, 0.0), 0.0, 0.0, 0.55,
                             (0.9, 0.06, 0.04))
        assert out == 0.0

    def test_mirror_identity_random(self, rng):
        for _ in range(200):
            om12, om13, om23 = rng.uniform(0.0, 2.0, 3)
            delta = rng.uniform(-3.0, 3.0)
            g12 = rng.uniform(0.0, 0.5)
            g3 = rng.uniform(0.2, 2.0)
            pops = tuple(rng.dirichlet(np.ones(3)))
            mirrored = analytic_rho31(om12, om13, om23, (np.pi, 0.0, 0.0),
                                      -delta, g12, g3, pops)
            base = analytic_rho31(om12, om13, om23, (0.0, 0.0, 0.0),
                                  delta, g12, g3, pops)
            assert mirrored.imag == pytest.approx(base.imag, abs=1e-12)
            assert mirrored.real == pytest.approx(-base.real, abs=1e-12)

    def test_tracks_full_solution_loosely(self, stock_drives, stock_dec):
        # the small-rho23 form is a ~12% approximation at the stock probe
        grid = np.linspace(-2.0, 2.0, 201)
        table = sweep_detuning(stock_drives, stock_dec, grid)
        ana = np.array([
            analytic_rho31(0.2, 0.2, 1.0, (0.0, 0.0, 0.0), d, 0.1, 0.55, tuple(pops))
            for d, pops in zip(table.detunings, table.populations)])
        err = np.max(np.abs(ana - table.rho31))
        assert err <= 0.15 * np.max(np.abs(table.rho31))

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominator):
            analytic_rho31(0.2, 0.2, 1.0, (0.0, 0.0, 0.0), 0.5, 0.0, 0.0,
                           (1.0, 0.0, 0.0))


class TestFindPeaks:
    def test_pure_transparency_two_equal_peaks(self, stock_dec):
        drives = DriveSet(Drive(0.0), Drive(0.2), Drive(1.0))
        table = sweep_detuning(drives, stock_dec, np.linspace(-3.0, 3.0, 601))
        report = find_peaks(table)
        assert report.classification == "EIT"
        maxima = [(p, h) for p, h in
                  zip(report.peak_positions, report.peak_heights)
                  if abs(p - report.window_center) > 0.05]
        assert len(maxima) == 2
        (pl, hl), (pr, hr) = maxima
        assert hl == pytest.approx(hr, rel=1e-6)
        assert pl == pytest.approx(-pr, abs=0.01)

    def test_strong_pump_split_positions(self):
        # positions approach +-Omega23/2 for a strong resonant pump
        drives = DriveSet(Drive(0.0), Drive(0.01), Drive(10.0))
        dec = Decoherence(gamma12=0.0, gamma13=1.0, gamma23=0.1)
        table = sweep_detuning(drives, dec, np.linspace(-8.0, 8.0, 1601))
        report = find_peaks(table)
        tall = sorted(zip(report.peak_heights, report.peak_positions))[-2:]
        for _, pos in tall:
            assert abs(pos) == pytest.approx(5.0, rel=0.05)

    def test_amplification_window_classification(self, stock_drives, stock_dec):
        table = sweep_phase(stock_drives, stock_dec,
                            np.linspace(-2.0, 2.0, 401), [1.5 * np.pi])[0]
        report = find_peaks(table)
        assert report.classification == "AMPLIFICATION_WINDOW"
        assert abs(report.window_center) < 0.1

    def test_plain_absorption_classification(self, stock_drives):
        dec = Decoherence(gamma12=0.01, gamma13=1.0, gamma23=0.1)
        table = sweep_phase(stock_drives, dec,
                            np.linspace(-2.0, 2.0, 401), [0.5 * np.pi])[0]
        assert find_peaks(table).classification == "ABSORPTION"

    def test_gain_only_classification(self):
        grid = np.linspace(-3.0, 3.0, 301)
        table = make_table(grid, -1j / (grid ** 2 + 1.0))
        assert find_peaks(table).classification == "LWI"

    def test_single_lorentzian_fwhm(self):
        grid = np.linspace(-10.0, 10.0, 2001)
        gamma = 0.7
        table = make_table(grid, 1j * gamma ** 2 / (grid ** 2 + gamma ** 2))
        report = find_peaks(table)
        assert report.classification == "ABSORPTION"
        assert report.fwhm == pytest.approx(2.0 * gamma, rel=0.01)

    def test_under_resolved_raises(self):
        grid = np.linspace(-2.0, 2.0, 9)
        y = 1j * np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0])
        with pytest.raises(InsufficientResolution):
            find_peaks(make_table(grid, y))

    def test_refined_extremum_stays_between_its_neighbours(self):
        # non-uniform grid: the maximum at x = 5 moves a third of a step
        # right, a third of the 0.1 step on that side, not of the 1.0 step
        # on its left (which would carry it past the minimum at 5.3)
        x = np.array([0.0, 4.0, 5.0, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6])
        y = np.array([0.0, 0.5, 1.0, 0.9, 0.6, 0.3, 0.5, 0.6, 0.7])
        report = find_peaks(make_table(x, 1j * y))
        assert report.peak_positions == pytest.approx((5.0 + 0.1 / 3.0, 5.31))
        # mirrored, the maximum moves left by a third of the 0.1 step there
        mirrored = find_peaks(make_table(-x[::-1], 1j * y[::-1]))
        assert mirrored.peak_positions == pytest.approx((-5.31, -5.0 - 0.1 / 3.0))

    def test_transparency_window_width_weak_pump(self, stock_dec):
        # overdamped regime: measured window close to the narrow-dip scale
        drives = DriveSet(Drive(0.0), Drive(0.05), Drive(0.5))
        table = sweep_detuning(drives, stock_dec, np.linspace(-2.0, 2.0, 1601))
        report = find_peaks(table)
        assert report.classification == "EIT"
        assert 0.0 < report.fwhm < 1.0


#: One input of ``lorentzian_spectrum`` (points, lines) per find_peaks outcome.
OUTCOME_INPUTS = {
    "ABSORPTION": (101, [(0.3, 0.5, 1.0)]),
    "LWI": (101, [(-0.3, 0.7, -1.0)]),
    "EIT": (201, [(-1.2, 0.4, 1.0), (1.2, 0.4, 1.0)]),
    "AMPLIFICATION_WINDOW": (201, [(-1.2, 0.4, 1.0), (1.2, 0.4, 1.0), (0.0, 0.2, -0.45)]),
    "EITA": (201, [(-1.0, 0.5, 1.0), (1.0, 0.5, -0.5)]),
    "InsufficientResolution": (9, [(-1.0, 0.3, 1.0), (0.0, 0.3, -1.0), (1.0, 0.3, 1.0)]),
}


class TestFindPeaksAgainstLoops:
    """find_peaks against ``find_peaks_with_loops``, its per-sample loop
    reference."""

    @pytest.mark.parametrize("outcome", OUTCOME_INPUTS)
    def test_every_outcome(self, outcome):
        assert assert_same_report(lorentzian_spectrum(*OUTCOME_INPUTS[outcome])) == outcome

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(points=st.sampled_from([3, 4, 7, 9, 31, 101, 401]),
           lines=st.lists(st.tuples(st.floats(-3.5, 3.5), st.floats(0.05, 2.0),
                                    st.floats(-1.0, 1.0)), min_size=1, max_size=4),
           mirrored=st.booleans(), digits=st.none() | st.integers(1, 3))
    def test_generated_spectra(self, points, lines, mirrored, digits):
        # mirrored lines give the symmetric flank pairs of EIT and gain
        # windows; the 400 examples reach all five classes and
        # InsufficientResolution
        if mirrored:
            lines = lines + [(-c, w, h) for c, w, h in lines]
        assert_same_report(lorentzian_spectrum(points, lines, digits))

    def test_shipped_spectra(self, stock_drives, stock_dec):
        for phi in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi):
            for grid in (np.linspace(-4.0, 4.0, 801), kramers_kronig_grid()):
                assert_same_report(sweep_detuning(stock_drives.with_loop_phase(phi),
                                                  stock_dec, grid))

    def test_window_run_clipped_at_flank(self):
        # the minor gain lobe stays under the threshold: the run around the
        # crossing reaches the partner extremum, where it is clipped
        table = lorentzian_spectrum(201, [(-1.0, 0.5, 1.0), (1.0, 0.5, -0.2)])
        report = find_peaks(table)
        (_, dominant), (partner, minor) = list(zip(report.peak_positions,
                                                   report.peak_heights))[:2]
        x, y = table.detunings, table.absorption
        run = (x >= x[np.argmin(np.abs(x - report.window_center))]) & (x <= partner)
        assert np.all(np.abs(y[run]) <= 0.25 * (abs(dominant) + abs(minor)))
        assert assert_same_report(table) == "EITA"

    def test_lobe_reaching_grid_end(self):
        table = lorentzian_spectrum(201, [(3.8, 0.5, 1.0)])
        y = table.absorption
        assert y[-1] >= 0.5 * np.max(y)
        assert assert_same_report(table) == "ABSORPTION"

    def test_centre_sample_above_threshold(self):
        # a gain dip deeper than half the mean flank: no measurable window
        table = lorentzian_spectrum(
            201, [(-1.5, 0.4, 1.0), (1.5, 0.4, 1.0), (0.0, 0.2, -2.0)])
        assert assert_same_report(table) == "AMPLIFICATION_WINDOW"
        assert find_peaks(table).fwhm == 0.0

    def test_lobe_sample_at_half_maximum_stays_in_run(self):
        # a shoulder dip to exactly half the peak: the run goes on past it
        y = [0.0, 0.02, 0.05, 0.1, 0.15, 0.22, 0.27, 0.3, 0.27, 0.25, 0.2,
             0.25, 0.3, 0.35, 0.4, 0.35, 0.3, 0.2, 0.1, 0.05, 0.02, 0.0]
        table = make_table(0.25 * np.arange(len(y)), 0.3 + 1j * np.array(y))
        assert assert_same_report(table) == "ABSORPTION"
        assert find_peaks(table).fwhm > 2.0

    def test_crossings_equally_near_zero_keep_the_first(self):
        # exact zeros at -0.5 and +0.5 between the absorption and gain lobes
        x = 0.25 * np.arange(-16, 17)
        y = np.exp(-((x + 2.0) / 0.5) ** 2)
        y[14:19] = [0.0, 1e-5, 2e-5, 1e-5, 0.0]
        y[19:] = -0.5 * np.exp(-((x[19:] - 2.0) / 0.5) ** 2)
        table = make_table(x, 0.3 + 1j * y)
        assert assert_same_report(table) == "EITA"
        assert find_peaks(table).window_center == -0.5

    def test_exact_zero_sample_at_crossing(self):
        base = lorentzian_spectrum(*OUTCOME_INPUTS["EITA"])
        y = base.absorption.copy()
        k = int(np.flatnonzero(y[:-1] * y[1:] < 0.0)[0])
        y[k] = 0.0
        table = make_table(base.detunings, 0.3 + 1j * y)
        assert assert_same_report(table) == "EITA"
        assert find_peaks(table).window_center == base.detunings[k]


class TestKramersKronig:
    def test_zero_spectrum(self):
        grid = np.linspace(-10.0, 10.0, 101)
        table = make_table(grid, np.zeros_like(grid) * 1j)
        assert kramers_kronig_residual(table) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_rows(self, n):
        grid = np.linspace(-1.0, 1.0, n)
        table = make_table(grid, 1j / (grid ** 2 + 1.0))
        with pytest.raises(InsufficientResolution, match="^need at least 3 grid points$"):
            kramers_kronig_residual(table)

    def test_vanishing_dispersion_is_infinitely_far(self):
        # with warnings as errors, a division by max|Re| = 0 would fail this test
        grid = np.linspace(-50.0, 50.0, 4001)
        table = make_table(grid, 1j / (grid ** 2 + 1.0))
        assert kramers_kronig_residual(table) == np.inf

    def test_dispersion_without_absorption_is_not_causal(self):
        # H(0) = 0, so the whole antisymmetric Re is the deviation
        grid = np.linspace(-20.0, 20.0, 401)
        table = make_table(grid, -grid / (grid ** 2 + 1.0) + 0j)
        assert kramers_kronig_residual(table) == 1.0

    def test_causal_lorentzian_pair(self):
        grid = np.linspace(-50.0, 50.0, 4001)
        pair = (-grid + 1j) / (grid ** 2 + 1.0)
        table = make_table(grid, pair)
        assert kramers_kronig_residual(table) <= 0.05

    def test_window_too_narrow(self, stock_drives, stock_dec):
        table = sweep_detuning(stock_drives, stock_dec, np.linspace(-2.0, 2.0, 201))
        with pytest.raises(WindowTooNarrow):
            kramers_kronig_residual(table)

    def test_hilbert_requires_uniform_grid(self):
        with pytest.raises(ValidationError):
            hilbert_transform([0.0, 1.0, 0.0], [0.0, 0.1, 0.3])

    @pytest.mark.parametrize("grid", [np.linspace(20.0, -20.0, 2001), np.ones(3)],
                             ids=["decreasing", "constant"])
    def test_hilbert_requires_increasing_grid(self, grid):
        # uniform, but a decreasing grid would give the negated transform
        with pytest.raises(ValidationError, match="strictly increasing"):
            hilbert_transform(1.0 / (grid ** 2 + 1.0), grid)

    @pytest.mark.parametrize("case", ["kk-grid", "lorentzian"])
    def test_hilbert_matches_quadrature_loop(self, stock_drives, stock_dec, case):
        if case == "kk-grid":
            grid = kramers_kronig_grid()
            values = sweep_detuning(stock_drives, stock_dec, grid).absorption
        else:
            grid = np.linspace(-80.0, 80.0, 4001)
            values = 1.0 / (grid ** 2 + 1.0)
        expected = hilbert_quadrature_loop(values, grid)
        got = hilbert_transform(values, grid)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_hilbert_matches_quadrature_loop_on_short_grids(self, rng, n):
        grid = np.linspace(-1.0, 2.0, n)
        values = rng.normal(size=n)
        np.testing.assert_allclose(hilbert_transform(values, grid),
                                   hilbert_quadrature_loop(values, grid), rtol=0, atol=1e-14)

    def test_hilbert_of_lorentzian(self):
        grid = np.linspace(-80.0, 80.0, 4001)
        im = 1.0 / (grid ** 2 + 1.0)
        expected = -grid / (grid ** 2 + 1.0)
        got = hilbert_transform(im, grid)
        assert np.max(np.abs(got - expected)) <= 2e-3


class TestInversionScan:
    def test_undriven_inversion_is_one(self, stock_dec):
        drives = DriveSet(Drive(0.0), Drive(0.0), Drive(0.0))
        table = sweep_detuning(drives, stock_dec, np.linspace(-1.0, 1.0, 11))
        lowest, _ = population_inversion_scan(table)
        assert lowest == pytest.approx(1.0, abs=1e-12)

    def test_saturated_two_level_stays_positive(self, stock_dec):
        drives = DriveSet(Drive(0.0), Drive(10.0), Drive(0.0))
        table = sweep_detuning(drives, stock_dec, np.linspace(-1.0, 1.0, 21))
        lowest, _ = population_inversion_scan(table)
        assert 0.0 < lowest < 0.1

    def test_all_three_profiles_positive(self, stock_dec):
        grid = np.linspace(-2.0, 2.0, 101)
        for drives in (
            DriveSet(Drive(0.0), Drive(0.2), Drive(1.0)),
            DriveSet(Drive(0.2), Drive(0.0), Drive(1.0)),
            DriveSet(Drive(0.2), Drive(0.2), Drive(1.0)),
        ):
            lowest, _ = population_inversion_scan(
                sweep_detuning(drives, stock_dec, grid))
            assert lowest > 0.0

    def test_argmin_reported(self, stock_drives, stock_dec):
        table = sweep_detuning(stock_drives, stock_dec, np.linspace(-2.0, 2.0, 201))
        lowest, at = population_inversion_scan(table)
        k = int(np.argmin(table.inversions))
        assert at == table.detunings[k]
        assert lowest == table.inversions[k]


def table_with_row(row, n=5, at=2):
    """Synthetic table whose row ``at`` has populations ``row``."""
    table = make_table(np.linspace(-1.0, 1.0, n), np.zeros(n, dtype=complex))
    pops = table.populations.copy()
    pops[at] = row
    return SpectrumTable(table.detunings, table.rho31, pops, table.drives, table.dec)


class TestSpectrumTableValidation:
    def test_rejects_bad_population_sum(self):
        with pytest.raises(ValidationError, match=r"^populations sum to 1\.2, not 1$"):
            table_with_row([0.6, 0.3, 0.3])
        with pytest.raises(ValidationError, match=r"^populations sum to nan, not 1$"):
            table_with_row([np.nan, 0.0, 0.0])

    def test_rejects_out_of_range_population(self):
        with pytest.raises(ValidationError, match=r"^population 1\.2 outside \[0, 1\]$"):
            table_with_row([1.2, -0.2, 0.0])

    def test_first_failing_row_is_reported(self):
        table = make_table(np.linspace(-1.0, 1.0, 5), np.zeros(5, dtype=complex))
        pops = table.populations.copy()
        pops[1] = [0.0, -0.5, 1.5]
        pops[3] = [0.6, 0.3, 0.3]
        with pytest.raises(ValidationError, match=r"^population -0\.5 outside"):
            SpectrumTable(table.detunings, table.rho31, pops, table.drives, table.dec)

    @pytest.mark.parametrize("bad, shown", [
        (np.nan, r"\(nan\+0j\)"), (complex(0.0, np.inf), "infj"),
        (complex(-np.inf, 1.0), r"\(-inf\+1j\)")], ids=["nan", "inf-imag", "inf-real"])
    def test_rejects_non_finite_rho31(self, bad, shown):
        table = make_table(np.linspace(-1.0, 1.0, 5), np.zeros(5, dtype=complex))
        rho31 = table.rho31.copy()
        rho31[[1, 3]] = [bad, np.inf]
        with pytest.raises(ValidationError, match=rf"^rho31 {shown} is not finite$"):
            SpectrumTable(table.detunings, rho31, table.populations, table.drives, table.dec)

    def test_rejects_unequal_lengths(self):
        table = make_table(np.linspace(-1.0, 1.0, 5), np.zeros(5, dtype=complex))
        with pytest.raises(ValidationError, match="shapes"):
            SpectrumTable(table.detunings, table.rho31[:4], table.populations,
                          table.drives, table.dec)

    def test_columns_are_read_only_copies(self):
        grid = np.linspace(-1.0, 1.0, 5)
        table = make_table(grid, np.zeros(5, dtype=complex))
        assert grid.flags.writeable
        with pytest.raises(ValueError):
            table.rho31[0] = 1.0

    def test_equality_is_bitwise(self):
        grid = np.linspace(-1.0, 1.0, 3)
        plus = make_table(grid, np.zeros(3, dtype=complex))
        assert plus == make_table(grid, np.zeros(3, dtype=complex))
        assert plus != make_table(grid, np.array([0j, complex(-0.0, 0.0), 0j]))


class TestTableExtras:
    def test_sweep_error_carries_detuning(self):
        # disconnected level 3 fails per point with the detuning in the message
        dec = Decoherence(gamma12=0.1, gamma13=0.0, gamma23=0.0)
        drives = DriveSet(Drive(0.5), Drive(0.0), Drive(0.0))
        from delta_eita import DegenerateSteadyState
        with pytest.raises(DegenerateSteadyState, match="delta13=0.25"):
            sweep_detuning(drives, dec, [0.25, 0.5])

    def test_default_grids(self):
        wide = kramers_kronig_grid()
        assert len(wide) == 4001 and wide[0] == -20.0 and wide[-1] == 20.0

    def test_csv_metadata_and_columns(self, stock_drives, stock_dec, tmp_path):
        from delta_eita.spectroscopy import write_spectrum_csv
        table = sweep_detuning(stock_drives.with_loop_phase(np.pi), stock_dec,
                               [0.0, 0.5])
        path = tmp_path / "table.csv"
        write_spectrum_csv(table, path, {"units": "gamma13"})
        lines = path.read_text().splitlines()
        meta = {l.split("=")[0].strip("# "): l.split("=")[1].strip()
                for l in lines if l.startswith("#")}
        assert float(meta["loop_phase"]) == pytest.approx(np.pi)
        assert float(meta["omega23"]) == 1.0
        assert meta["units"] == "'gamma13'"
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "delta13,re_rho31,im_rho31,pop1,pop2,pop3,inversion"
        row = [l for l in lines if not l.startswith("#")][1].split(",")
        assert len(row) == 7
        assert float(row[0]) == 0.0

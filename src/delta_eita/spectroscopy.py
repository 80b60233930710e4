"""Probe absorption/dispersion spectra and their analysis.

A sweep solves the steady state at each probe detuning and records the
probe coherence and populations.  Absorption is ``+Im rho31`` and
dispersion ``Re rho31`` of the reported coherence, which is referenced to
the probe phase (``rho31 * exp(i phi13)``) so that tables depend on the
drive phases only through the gauge-invariant loop phase.  For every run
with phi13 = 0 (all stock configurations) the reported value is the raw
steady-state matrix element.

Analysis tools: extremum finding with parabolic refinement and a
window/classification heuristic, a numerical principal-value Hilbert
transform for causality (Kramers-Kronig) checks, the closed-form weak-
coherence approximation of the probe response, and population-inversion
scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atom import Decoherence, DriveSet, global_phase, rotating_diagonal, rotating_hamiltonian
from .csvout import write_csv
from .errors import (
    DeltaEitaError,
    InsufficientResolution,
    SingularDenominator,
    ValidationError,
    WindowTooNarrow,
)
from .lindblad import build_liouvillian, steady_state, steady_state_block
from .numerics import scale_complex

CLASSIFICATIONS = ("EIT", "LWI", "EITA", "ABSORPTION", "AMPLIFICATION_WINDOW")

#: An extremum counts as a peak if its |height| is at least this fraction
#: of the largest |absorption| in the table.
PEAK_SIGNIFICANCE = 1e-3

#: Two flanking maxima are treated as a symmetric pair when their heights
#: agree within this factor; a dominant/minor pair falls through to the
#: one-absorption-one-gain analysis instead.
FLANK_COMPARABLE_FACTOR = 3.0

#: Endpoint condition for Kramers-Kronig sweeps: |Im| at the grid edges
#: must not exceed this fraction of its maximum.
KK_ENDPOINT_FRACTION = 0.05

#: Probe detunings solved together as one stack in a sweep.  The block
#: bounds the one (block, 9, 9) complex generator array a block is solved
#: and checked in (1.3 MB at 1024), which with |.| of it for the pivot
#: gate is a sweep's traced peak, ~1.8-2.0 arrays.  Re-measured in the
#: warm benchmark op mix (three interleaved rounds of 8 passes, op times
#: scaled by the host-speed kernel, one BLAS thread, 2-vCPU host), blocks
#: of 512 / 1024 / 2048 / 4001 points took 43.2 / 40.7 / 39.9 / 39.8 ms
#: per 4001-point KK op and 33.3 / 31.3 / 30.0 / 31.9 ms per 4 x 801-point
#: phase sweep, with 385 / 371 / 394 / 463 and 32 / 129 / 26 / 26 fresh
#: page faults per op (means, ``ru_minflt``).  Above 1024 the time moves
#: by at most ~4% while the array grows with the block.
SWEEP_BLOCK = 1024


def _check_grid(grid: np.ndarray) -> None:
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)):
        raise ValidationError("detuning grid must be finite and strictly increasing")


def _read_only(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Sweep results, one read-only array per column, plus the parameters
    that produced them.

    ``detunings`` (n,) is the finite, strictly increasing probe grid,
    ``rho31`` (n,) the reported coherence and ``populations`` (n, 3) the
    level populations.  Every row's populations must sum to 1 and lie in
    [0, 1] within 1e-9, and its rho31 be finite; the first row that does
    not raises ValidationError.  Two tables are equal when their drives,
    rates and every column bit agree, i.e. when they write the same CSV.
    """

    detunings: np.ndarray
    rho31: np.ndarray
    populations: np.ndarray
    drives: DriveSet
    dec: Decoherence

    def __post_init__(self):
        d = _read_only(self.detunings, float)
        r = _read_only(self.rho31, complex)
        p = _read_only(self.populations, float)
        if d.ndim != 1 or r.shape != d.shape or p.shape != d.shape + (3,):
            raise ValidationError(
                f"columns need shapes (n,), (n,) and (n, 3), got "
                f"{d.shape}, {r.shape} and {p.shape}")
        total = p[:, 0] + p[:, 1] + p[:, 2]
        # "not within bound", so that a NaN fails too
        bad_sum = ~(np.abs(total - 1.0) <= 1e-9)
        bad_range = ~((p >= -1e-9) & (p <= 1.0 + 1e-9))
        failed = bad_sum | np.any(bad_range, axis=1)
        if np.any(failed):
            k = int(np.argmax(failed))
            if bad_sum[k]:
                raise ValidationError(f"populations sum to {float(total[k])}, not 1")
            bad = float(p[k, int(np.argmax(bad_range[k]))])
            raise ValidationError(f"population {bad} outside [0, 1]")
        if not np.all(np.isfinite(r)):
            raise ValidationError(f"rho31 {r[np.argmin(np.isfinite(r))]} is not finite")
        _check_grid(d)
        object.__setattr__(self, "detunings", d)
        object.__setattr__(self, "rho31", r)
        object.__setattr__(self, "populations", p)

    def __eq__(self, other):
        if not isinstance(other, SpectrumTable):
            return NotImplemented
        return (self.drives == other.drives and self.dec == other.dec
                and all(getattr(self, c).tobytes() == getattr(other, c).tobytes()
                        for c in ("detunings", "rho31", "populations")))

    def __len__(self) -> int:
        return len(self.detunings)

    @property
    def absorption(self) -> np.ndarray:
        return self.rho31.imag

    @property
    def dispersion(self) -> np.ndarray:
        return self.rho31.real

    @property
    def inversions(self) -> np.ndarray:
        return self.populations[:, 0] - self.populations[:, 2]

    @property
    def loop_phase(self) -> float:
        return global_phase(self.drives)


@dataclass(frozen=True)
class PeakReport:
    """Extrema, transparency-window geometry and profile classification."""

    peak_positions: tuple[float, ...]
    peak_heights: tuple[float, ...]
    window_center: float
    fwhm: float
    classification: str

    def __post_init__(self):
        if list(self.peak_positions) != sorted(self.peak_positions):
            raise ValidationError("peak positions must be sorted")
        if self.fwhm < 0.0:
            raise ValidationError("fwhm must be >= 0")
        if self.classification not in CLASSIFICATIONS:
            raise ValidationError(f"unknown classification {self.classification!r}")


def kramers_kronig_grid() -> np.ndarray:
    """4001 uniform points on [-20, 20], wide enough for tail decay."""
    return np.linspace(-20.0, 20.0, 4001)


def _reported(drives: DriveSet, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reported coherences rho31 * exp(i phi13) and the populations of
    the state stack ``rho`` ``(m, 3, 3)``: a table's two solved columns."""
    return (scale_complex(rho[:, 2, 0], np.exp(1j * drives.d13.phase)),
            rho.diagonal(axis1=1, axis2=2).real)


def probe_response(drives: DriveSet, dec: Decoherence, delta13: float) -> SpectrumTable:
    """Steady-state response at one probe detuning, as a one-row table.

    Sets the probe detuning (delta12 re-derives), builds the rotating-frame
    Hamiltonian and Liouvillian, and solves for the steady state.  The
    reported coherence is rho31 * exp(i phi13).  A zero probe magnitude is
    allowed: the loop drives still generate a coherence at the probe
    frequency (the gain-without-probe configuration).
    """
    rho = steady_state(build_liouvillian(
        rotating_hamiltonian(drives.with_probe_detuning(delta13)), dec))
    rho31, populations = _reported(drives, rho[None])
    return SpectrumTable(detunings=[delta13], rho31=rho31, populations=populations,
                         drives=drives, dec=dec)


def sweep_detuning(drives: DriveSet, dec: Decoherence, grid) -> SpectrumTable:
    """Probe sweep over a finite, strictly increasing detuning grid, on
    which delta12 = delta13 - delta23 must be finite too (ValidationError).

    The grid is solved in blocks of ``SWEEP_BLOCK`` detunings, each by
    ``lindblad.steady_state_block`` in one generator array: the drive
    Hamiltonian with each detuning's ``rotating_diagonal``, the diagonal
    ``rotating_hamiltonian`` gives it there, so every row is bit for bit
    the ``probe_response`` row.  When a block fails, its points are
    solved one by one, so the error comes from the first failing detuning
    in grid order, with the type and message ``probe_response`` gives
    there and that detuning attached.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("detuning grid must be a nonempty 1-d sequence")
    _check_grid(grid)
    diagonals = rotating_diagonal(drives, grid)
    if not np.all(np.isfinite(diagonals[:, 1])):
        raise ValidationError(
            f"delta12 = delta13 - delta23 is not finite at "
            f"delta13={grid[np.argmin(np.isfinite(diagonals[:, 1]))]:g}")
    h = rotating_hamiltonian(drives)
    rho31, pops = [], []
    for start in range(0, grid.size, SWEEP_BLOCK):
        block = slice(start, start + SWEEP_BLOCK)
        try:
            r, p = _reported(drives, steady_state_block(h, diagonals[block], dec))
        except (DeltaEitaError, ValueError) as exc:
            block_error = exc
        else:
            rho31.append(r)
            pops.append(p)
            continue
        for d in grid[block]:
            try:
                probe_response(drives, dec, d)
            except Exception as exc:
                exc.args = (f"at delta13={d:g}: {exc}",)
                raise
        raise block_error
    return SpectrumTable(detunings=grid, rho31=np.concatenate(rho31),
                         populations=np.concatenate(pops), drives=drives, dec=dec)


def sweep_phase(drives: DriveSet, dec: Decoherence, grid, phases) -> list[SpectrumTable]:
    """One detuning sweep per loop phase.

    Each phase Phi is applied as phi12 = Phi with phi13 = phi23 = 0; any
    gauge-equivalent assignment would give the same tables.
    """
    return [sweep_detuning(drives.with_loop_phase(phi), dec, grid) for phi in phases]


def analytic_rho31(omega12: float, omega13: float, omega23: float,
                   phases: tuple[float, float, float], delta13: float,
                   gamma12: float, big_gamma3: float,
                   pops: tuple[float, float, float]) -> complex:
    """Closed-form probe coherence in the small-rho23 approximation.

    With F = 4 (i d13 - Gamma3)(i d13 - gamma12/2) + Omega23^2 and
    Phi = phi12 + phi23 - phi13:

        rho31 = -exp(-i phi13) [ 2i Omega13 (p1 - p3)(i d13 - gamma12/2)
                                 + Omega23 Omega12 exp(-i Phi) (p1 - p2) ] / F

    Raises SingularDenominator when |F| < 1e-12.
    """
    phi12, phi13, phi23 = phases
    p1, p2, p3 = pops
    f = 4.0 * (1j * delta13 - big_gamma3) * (1j * delta13 - 0.5 * gamma12) + omega23 ** 2
    if abs(f) < 1e-12:
        raise SingularDenominator(f"|F| = {abs(f):.3e} at delta13 = {delta13}")
    loop = phi12 + phi23 - phi13
    num = (2j * omega13 * (p1 - p3) * (1j * delta13 - 0.5 * gamma12)
           + omega23 * omega12 * np.exp(-1j * loop) * (p1 - p2))
    return complex(-np.exp(-1j * phi13) * num / f)


def _refine(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Parabolic refinement of an interior grid extremum; the shift (in grid
    steps) is scaled by the spacing on the side it moves toward, so the
    position stays within [x[i-1], x[i+1]]."""
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return float(x[i]), float(y[i])
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    pos = x[i] + shift * (x[i + 1] - x[i] if shift > 0.0 else x[i] - x[i - 1])
    height = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
    return float(pos), float(height)


def _extrema(x: np.ndarray, y: np.ndarray) -> list[tuple[int, float, float]]:
    """Significant interior extrema as (index, refined position, height)."""
    scale = np.max(np.abs(y))
    if scale == 0.0:
        return []
    left, mid, right = y[:-2], y[1:-1], y[2:]
    turning = ((mid > left) & (mid > right)) | ((mid < left) & (mid < right))
    refined = [(int(i), *_refine(x, y, i)) for i in np.flatnonzero(turning) + 1]
    return [e for e in refined if abs(e[2]) >= PEAK_SIGNIFICANCE * scale]


def _crossing(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float | None:
    """Zero crossing of y on [lo, hi] by sign change + linear interpolation
    (or an exact zero sample), the first one nearest zero detuning."""
    k = np.flatnonzero((x[:-1] >= lo) & (x[1:] <= hi))
    k = k[(y[k] == 0.0) | (y[k] * y[k + 1] < 0.0)]
    if k.size == 0:
        return None
    y0 = y[k]
    c = x[k] - np.divide(y0 * (x[k + 1] - x[k]), y[k + 1] - y0,
                         out=np.zeros_like(y0), where=y0 != 0.0)
    return float(c[np.argmin(np.abs(c))])


def _run_end(x: np.ndarray, v: np.ndarray, level: float, bound: float) -> float:
    """Right end of the run of samples from ``x[0]`` on where ``v <= level``:
    where v crosses ``level``, interpolated from the first sample outside
    towards its inside neighbour, clipped at ``bound``."""
    stop = np.flatnonzero(v[1:] > level)
    if stop.size == 0:
        return min(bound, float(x[-1]))
    j = stop[0] + 1
    if x[j] > bound:
        return bound
    frac = (v[j] - level) / (v[j] - v[j - 1])
    return float(x[j] - frac * (x[j] - x[j - 1]))


def _run_edges(x: np.ndarray, v: np.ndarray, i0: int, level: float,
               lo: float, hi: float) -> tuple[float, float]:
    """Ends of the run of samples around ``i0`` where ``v <= level``, clipped
    to [lo, hi]; both ``x[i0]`` when ``v[i0] > level``.  The left end is the
    right end on the mirrored grid ``-x``, by the same (exact) steps."""
    if v[i0] > level:
        return float(x[i0]), float(x[i0])
    return (-_run_end(-x[i0::-1], v[i0::-1], level, -lo),
            _run_end(x[i0:], v[i0:], level, hi))


def _abs_threshold_span(x: np.ndarray, y: np.ndarray, center: float,
                        lo: float, hi: float, thr: float) -> float:
    """Width of the run around ``center`` inside [lo, hi] where |y| <= thr."""
    i0 = int(np.argmin(np.abs(x - center)))
    left, right = _run_edges(x, np.abs(y), i0, thr, lo, hi)
    return max(0.0, right - left)


def _lobe_fwhm(x: np.ndarray, y: np.ndarray, sign: float) -> tuple[float, float]:
    """(center, FWHM) of the dominant single lobe of sign ``sign``: the run
    around its peak where ``-sign * y <= -half`` the peak."""
    ys = sign * y
    i0 = int(np.argmax(ys))
    left, right = _run_edges(x, -ys, i0, -0.5 * ys[i0], -np.inf, np.inf)
    pos = _refine(x, y, i0)[0] if 0 < i0 < len(x) - 1 else float(x[i0])
    return pos, max(0.0, right - left)


def find_peaks(table: SpectrumTable) -> PeakReport:
    """Locate absorption extrema and classify the spectral profile.

    Local extrema of Im rho31 come from a 3-point discrete test with
    parabolic refinement; extrema below ``PEAK_SIGNIFICANCE`` of the
    global |maximum| are ignored, and extrema closer than 3 grid points
    raise InsufficientResolution.

    The window and classification logic, in order:

    * two comparable positive maxima whose interior dips below zero
      -> AMPLIFICATION_WINDOW (gain window between absorption flanks);
    * two comparable positive maxima whose interior dips to half the mean
      flank height -> EIT (transparency window); if the dip never reaches
      half-flank depth the structure is a single broad lobe -> ABSORPTION;
    * a dominant extremum with an adjacent opposite-sign partner -> EITA
      (absorption on one side of the window, gain on the other), window
      center at the zero crossing between them;
    * all-positive extrema -> ABSORPTION; all-negative -> LWI (gain with
      no transparency window).

    Both widths are the run of samples around a centre where a value stays
    at or below a level, its ends interpolated.  The transparency-window
    FWHM is the run of |Im rho31| <= half the mean flanking |extremum|
    between the two extrema (0 if the centre sample is above it); for
    windowless (ABSORPTION / LWI) profiles it is the run of
    -sign Im rho31 <= -half the dominant lobe's peak.
    """
    x = table.detunings
    y = table.absorption
    if len(x) < 3:
        raise InsufficientResolution("need at least 3 grid points")
    ext = _extrema(x, y)
    for (i1, _, _), (i2, _, _) in zip(ext, ext[1:]):
        if i2 - i1 < 3:
            raise InsufficientResolution(
                f"extrema at grid indices {i1} and {i2} span fewer than 3 points")
    positions = tuple(e[1] for e in ext)
    heights = tuple(e[2] for e in ext)

    if not ext:
        return PeakReport(positions, heights, 0.0, 0.0, "ABSORPTION")

    maxima = [e for e in ext if e[2] > 0.0]
    minima = [e for e in ext if e[2] < 0.0]

    pair = None
    if len(maxima) >= 2:
        tallest = sorted(maxima, key=lambda e: -e[2])[:2]
        hi_h, lo_h = tallest[0][2], tallest[1][2]
        if hi_h <= FLANK_COMPARABLE_FACTOR * lo_h:
            pair = sorted(tallest, key=lambda e: e[1])

    if pair is not None:
        (il, pl, hl), (ir, pr, hr) = pair
        thr = 0.25 * (abs(hl) + abs(hr))
        dip_pos, dip_val = _refine(x, y, il + 1 + int(np.argmin(y[il + 1:ir])))
        if dip_val <= thr:
            fwhm = _abs_threshold_span(x, y, dip_pos, pl, pr, thr)
            label = "AMPLIFICATION_WINDOW" if dip_val < 0.0 else "EIT"
            return PeakReport(positions, heights, dip_pos, fwhm, label)
    elif maxima and minima:
        dominant = max(ext, key=lambda e: abs(e[2]))
        others = sorted((e for e in ext if np.sign(e[2]) != np.sign(dominant[2])),
                        key=lambda e: abs(e[1] - dominant[1]))
        partner = others[0]
        lo, hi = sorted((dominant[1], partner[1]))
        center = _crossing(x, y, lo, hi)
        if center is None:
            center = 0.5 * (lo + hi)
        thr = 0.25 * (abs(dominant[2]) + abs(partner[2]))
        fwhm = _abs_threshold_span(x, y, center, lo, hi, thr)
        return PeakReport(positions, heights, center, fwhm, "EITA")

    # a windowless profile: one lobe, absorbing if any maximum counts
    center, fwhm = _lobe_fwhm(x, y, 1.0 if maxima else -1.0)
    return PeakReport(positions, heights, center, fwhm, "ABSORPTION" if maxima else "LWI")


def hilbert_transform(values, grid) -> np.ndarray:
    """Principal-value Hilbert transform (1/pi) PV int y(t)/(t - x) dt.

    Trapezoidal quadrature on a strictly increasing uniform grid, summed
    for every sample at once as an FFT convolution; the singular sample is
    replaced by the symmetric average of its neighbours, which converges
    to the local PV contribution y'(x).  With this sign convention the
    dispersion of a causal response equals the transform of its
    absorption, e.g. Im = g/(d^2+g^2) pairs with Re = -d/(d^2+g^2).
    """
    y = np.asarray(values, dtype=float)
    x = np.asarray(grid, dtype=float)
    n = len(x)
    if n < 3 or y.shape != x.shape:
        raise ValidationError("grid and values must be equal-length, n >= 3")
    _check_grid(x)
    h = np.diff(x)
    if not np.allclose(h, h[0], rtol=1e-8, atol=0.0):
        raise ValidationError("Hilbert transform requires a uniform grid")
    # x_j - x_i = (j - i) h and the weights are w_j = c_j h (c_j = 1, 1/2 at
    # the ends), so the sum over j != i is sum_j c_j y_j / (j - i): one
    # convolution of c_j y_j with the kernel -1/k, k = i - j != 0
    u = y.copy()
    u[[0, -1]] *= 0.5
    size = 1 << (2 * n - 2).bit_length()
    kernel = np.zeros(size)
    k = np.arange(1, n)
    kernel[k] = -1.0 / k
    kernel[-k] = 1.0 / k
    out = np.fft.irfft(np.fft.rfft(u, size) * np.fft.rfft(kernel), size)[:n]
    # the singular sample: w_i times its neighbours' mean integrand, i.e.
    # (y_{i+1} - y_{i-1}) / 2; an end sample takes its one neighbour's
    # integrand at half weight
    out[1:-1] += 0.5 * (y[2:] - y[:-2])
    out[0] += 0.5 * y[1]
    out[-1] -= 0.5 * y[-2]
    return out / np.pi


def kramers_kronig_residual(table: SpectrumTable) -> float:
    """Causality check: how far dispersion deviates from the Hilbert
    transform of absorption.

    Returns max|Re - H(Im) - c| / max|Re| with c the constant offset that
    minimizes the maximum deviation, 0 for an all-zero table and ``inf``
    when Re vanishes but Im does not.  Raises InsufficientResolution for
    fewer than 3 rows and WindowTooNarrow when |Im| at either grid end
    exceeds 5% of its maximum (tails not contained).
    """
    x = table.detunings
    if len(x) < 3:
        raise InsufficientResolution("need at least 3 grid points")
    im = table.absorption
    re = table.dispersion
    peak = np.max(np.abs(im))
    if peak == 0.0 and not np.any(re):
        return 0.0
    if abs(im[0]) > KK_ENDPOINT_FRACTION * peak or abs(im[-1]) > KK_ENDPOINT_FRACTION * peak:
        raise WindowTooNarrow(
            f"|Im| at endpoints ({abs(im[0]):.3e}, {abs(im[-1]):.3e}) exceeds "
            f"{KK_ENDPOINT_FRACTION:.0%} of max {peak:.3e}")
    transform = hilbert_transform(im, x)
    dev = re - transform
    offset = 0.5 * (np.max(dev) + np.min(dev))
    scale = np.max(np.abs(re))
    return float(np.max(np.abs(dev - offset)) / scale) if scale > 0.0 else np.inf


def population_inversion_scan(table: SpectrumTable) -> tuple[float, float]:
    """Minimum of pop1 - pop3 over the sweep and the detuning where it occurs.

    An exact tie goes to the first (lowest) detuning.  On a spectrum
    that is mirror-symmetric in delta13 (loop phase pi/2 or 3pi/2 with
    delta23 = 0) the minimum sits at +-delta with values that are
    equal or one ulp apart, so last-bit rounding of the steady-state
    solve decides which sign is reported: ``configs/phase_scan.ini`` at
    3pi/2 gives 0.7781771195156512 at both -0.38 and +0.38, and three
    of the benchmark's phase-sweep pool inputs report ``@+`` because
    their + side is one ulp lower.
    """
    if len(table) == 0:
        raise ValidationError("empty spectrum table")
    inv = table.inversions
    k = int(np.argmin(inv))
    return float(inv[k]), float(table.detunings[k])


def autler_townes_positions(omega23: float) -> tuple[float, float]:
    """Standard strong-pump splitting estimate, peaks at +-Omega23/2."""
    return (-0.5 * abs(omega23), 0.5 * abs(omega23))


def transparency_fwhm_estimate(dec: Decoherence, omega23: float) -> float:
    """Narrow-window width estimate gamma12 + gphi2 + Omega23^2 / (2 Gamma3).

    It matches ``find_peaks(...).fwhm`` only for a deep, narrow, unsplit
    dip, gamma12 + gphi2 << Omega23^2 / (2 Gamma3) << Gamma3; it is not
    valid for every Omega23 < Gamma3 (at the stock rates the window is
    then too shallow or is not classified as one).  Quoted for reporting
    alongside measured widths.
    """
    return dec.gamma12 + dec.gphi2 + omega23 ** 2 / (2.0 * dec.big_gamma3)


def write_spectrum_csv(table: SpectrumTable, path, extra_metadata: dict | None = None) -> None:
    """Write a sweep as CSV with a ``#`` metadata preamble.

    Columns: delta13, re_rho31, im_rho31, pop1, pop2, pop3, inversion.
    """
    d, dec = table.drives, table.dec
    meta = {"omega12": d.d12.magnitude, "phi12": d.d12.phase,
            "omega13": d.d13.magnitude, "phi13": d.d13.phase,
            "omega23": d.d23.magnitude, "phi23": d.d23.phase, "delta23": d.d23.detuning,
            "gamma12": dec.gamma12, "gamma13": dec.gamma13, "gamma23": dec.gamma23,
            "gphi2": dec.gphi2, "gphi3": dec.gphi3, "loop_phase": table.loop_phase}
    write_csv(path, ("delta13", "re_rho31", "im_rho31", "pop1", "pop2", "pop3", "inversion"),
              (table.detunings, table.dispersion, table.absorption,
               *table.populations.T, table.inversions),
              meta | (extra_metadata or {}))

"""Fluxonium device spectra and charge matrix elements versus external flux.

The device Hamiltonian (energies in GHz, i.e. E/h) is

    H = 4 ec n^2 - ej cos(phi) + (el / 2) (phi - 2 pi f)^2

with f the external flux in units of the flux quantum.  It is expressed
in the eigenbasis of the (ec, el) harmonic oscillator:

    phi = phi_zpf (a + a^dag),   n = i k,   k = n_zpf (a^dag - a),
    phi_zpf = (8 ec / el)^(1/4) / sqrt(2),  n_zpf = (el / 8 ec)^(1/4) / sqrt(2)

with k real and antisymmetric, so n^2 = k k^T.  Expanding the square,

    H = h_osc - ej cos(phi) - (2 pi f el) phi,   h_osc = 4 ec k k^T + (el / 2) phi^2,

is real symmetric and affine in f.  The constant (el / 2) (2 pi f)^2 is
dropped: it shifts every level alike, so it cancels in every level
spacing and in the basis-convergence check.  h_osc - ej cos(phi), the
O(n^3) part, is formed from symmetrized h_osc and cos(phi) once per
(ec, el, ej, basis) and cached as h0, beside the dense k and the one
off-diagonal band of phi (tridiagonal, zero on its diagonal): a cache
entry holds two matrices and a vector.  A flux bias then costs one pass
over h0: H(f) = h0 - c phi, c = 2 pi f el, is h0 with c times phi's band
subtracted on its two off-diagonals, the same bytes as the dense
difference.  cos(phi) comes exactly from the eigendecomposition of the
real-symmetric phi, which stays accurate at large zero-point spread.
Flux enters the inductive term; the alternative gauge (flux inside the
cosine) gives the same spectrum, and only matrix-element magnitudes are
exported, so the choice is observable-free.

The lowest three eigenstates are the working levels |1>, |2>, |3>;
``t_ij`` denotes |<i| n |j>| = |<i| k |j>|, the charge coupling to a
transmission line.  Each bias is solved twice by the same real
eigendecomposition (``numerics.hermitian_eig``), at ``basis_size`` and
with ``BASIS_STEP`` more states; the second checks that the levels and
the couplings the first reports have converged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import numerics
from .csvout import write_csv
from .errors import BasisTooSmall, InvariantViolation, NoSignChange, ValidationError

#: Convergence demanded of the lowest three eigenvalues when the basis
#: grows by BASIS_STEP states.
BASIS_CONVERGENCE_GHZ = 1e-6
BASIS_STEP = 20

#: Convergence demanded of each charge coupling over the same step,
#: relative to the largest coupling at that flux: a coupling that is zero
#: by parity (t13 at flux 0.5) is measured against the others.
COUPLING_CONVERGENCE = 1e-6

#: Width of flux bracket at which the balanced-bias refinement stops.
BIAS_TOLERANCE = 1e-12

#: Representative fluxonium device energies (GHz) from the published
#: literature; the [fluxonium] defaults and the contingent checks use them.
EXAMPLE_EJ = 9.0
EXAMPLE_EC = 2.5
EXAMPLE_EL = 0.52


@dataclass(frozen=True)
class FluxoniumParams:
    """Device energies in GHz and the oscillator-basis truncation."""

    ej: float
    ec: float
    el: float
    basis_size: int = 100

    def __post_init__(self):
        for name in ("ej", "ec", "el"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise ValidationError(f"{name} must be > 0, got {v}")
            object.__setattr__(self, name, v)
        for name, scale in zip(("(8 ec / el)^(1/4)", "(el / 8 ec)^(1/4)"),
                               _zero_point_scales(self.ec, self.el)):
            if not 0.0 < scale < np.inf:
                raise ValidationError(f"zero-point scale {name} must be finite and > 0, "
                                      f"got {scale} for ec={self.ec}, el={self.el}")
        if not float(self.basis_size).is_integer():
            raise ValidationError(f"basis_size must be a whole number, got {self.basis_size}")
        if int(self.basis_size) < 30:
            raise ValidationError(f"basis_size must be >= 30, got {self.basis_size}")
        object.__setattr__(self, "basis_size", int(self.basis_size))


@dataclass(frozen=True)
class FluxoniumSpectrum:
    """Levels (relative to the ground state, GHz) and charge couplings at one bias."""

    flux: float
    levels: tuple[float, float, float]
    t12: float
    t13: float
    t23: float

    def __post_init__(self):
        if list(self.levels) != sorted(self.levels):
            raise ValueError("levels must be ascending")
        for name in ("t12", "t13", "t23"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def w10(self) -> float:
        return self.levels[1]

    @property
    def w20(self) -> float:
        return self.levels[2]


@dataclass(frozen=True)
class DecayEstimate:
    """White-noise decay-rate estimates, gamma/2pi in MHz."""

    gamma12: float
    gamma13: float
    gamma23: float

    def __post_init__(self):
        for name in ("gamma12", "gamma13", "gamma23"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


def _zero_point_scales(ec: float, el: float) -> tuple[float, float]:
    """(8 ec / el)^(1/4) and (el / 8 ec)^(1/4): sqrt(2) phi_zpf and sqrt(2) n_zpf."""
    return (8.0 * ec / el) ** 0.25, (el / (8.0 * ec)) ** 0.25


def _ladder_ops(ec: float, el: float, n: int):
    """Real (phi, k) in the n-state oscillator basis; the charge is n = i k."""
    phi_scale, n_scale = _zero_point_scales(ec, el)
    phi_zpf = phi_scale / np.sqrt(2.0)
    n_zpf = n_scale / np.sqrt(2.0)
    ladder = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    return phi_zpf * (ladder + ladder.T), n_zpf * (ladder.T - ladder)


class _Operators(NamedTuple):
    """The flux-free terms of one (ec, el, ej, basis) entry, read-only."""

    h0: np.ndarray        # h_osc - ej cos(phi)
    k: np.ndarray         # the charge operator, n = i k
    phi_band: np.ndarray  # phi[i, i + 1] = phi[i + 1, i]; phi is zero elsewhere


@lru_cache(maxsize=16)
def _flux_free_hamiltonian(ec: float, el: float, ej: float, n: int) -> _Operators:
    """h_osc - ej cos(phi) in the n-state oscillator basis, the flux-free
    part of the device Hamiltonian, from symmetrized h_osc and cos(phi),
    with the operators each flux bias needs besides it."""
    phi, k = _ladder_ops(ec, el, n)
    # huge energies overflow h0: build_device_hamiltonian reports it, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        h_osc = 4.0 * ec * (k @ k.T) + 0.5 * el * (phi @ phi)
        w, v = np.linalg.eigh(phi)
        cos_phi = (v * np.cos(w)) @ v.T
        h0 = 0.5 * (h_osc + h_osc.T) - ej * (0.5 * (cos_phi + cos_phi.T))
    ops = _Operators(h0, k, np.diagonal(phi, 1).copy())
    for a in ops:
        a.setflags(write=False)
    return ops


def build_device_hamiltonian(p: FluxoniumParams, flux: float,
                             basis_size: int | None = None) -> np.ndarray:
    """Real, exactly symmetric device Hamiltonian at one flux bias, less
    the level-independent constant (el / 2) (2 pi flux)^2.

    Raises InvariantViolation when an entry is not finite: the energies
    or the flux are so large that a term overflows.
    """
    n = p.basis_size if basis_size is None else int(basis_size)
    ops = _flux_free_hamiltonian(p.ec, p.el, p.ej, n)
    # a huge el * flux overflows the flux term: reported below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        c = 2.0 * np.pi * flux * p.el
        # off phi's band h0 - c * 0 is h0: h0 holds no -0.0 there, as h_osc's
        # entries add the +0.0 products of phi @ phi, whose entries are >= 0;
        # a non-finite c leaves the band non-finite
        h = ops.h0.copy()
        flat = h.reshape(-1)
        flat[1::n + 1] = flat[n::n + 1] = np.diagonal(ops.h0, 1) - c * ops.phi_band
    if not np.all(np.isfinite(h)):
        raise InvariantViolation(
            "device Hamiltonian is not finite: energies or flux overflow")
    return h


def _lowest_three(p: FluxoniumParams, flux: float, n: int):
    """The lowest three eigenvalues of H(flux) in the n-state basis and
    (t12, t13, t23) among their eigenstates, from one real ``eigh``."""
    w, v = numerics.hermitian_eig(build_device_hamiltonian(p, flux, basis_size=n))
    states = v[:, :3]
    t = np.abs(states.T @ _flux_free_hamiltonian(p.ec, p.el, p.ej, n).k @ states)
    return w[:3], t[[0, 0, 1], [1, 2, 2]]


def spectrum_at(p: FluxoniumParams, flux: float) -> FluxoniumSpectrum:
    """Diagonalize at one bias and extract levels and |<i|n|j>|.

    Levels and couplings come from the eigendecomposition at
    ``basis_size``; the same solve with ``BASIS_STEP`` more basis states
    checks them.  BasisTooSmall is raised when the lowest three
    eigenvalues shift by more than ``BASIS_CONVERGENCE_GHZ``, or else
    when a coupling moves by more than ``COUPLING_CONVERGENCE`` of the
    largest coupling at this flux.
    """
    n, big = p.basis_size, p.basis_size + BASIS_STEP
    w, t = _lowest_three(p, flux, n)
    w_big, t_big = _lowest_three(p, flux, big)
    shift = np.max(np.abs(w - w_big))
    if shift > BASIS_CONVERGENCE_GHZ:
        raise BasisTooSmall(
            f"lowest eigenvalues shift by {shift:.3e} GHz when the basis grows "
            f"from {n} to {big}")
    moved, largest = np.max(np.abs(t - t_big)), np.max(t)
    if moved > COUPLING_CONVERGENCE * largest:
        raise BasisTooSmall(
            f"charge couplings move by {moved:.3e} when the basis grows from {n} to "
            f"{big}, above {COUPLING_CONVERGENCE:.0e} of the largest, {largest:.3e}")
    return FluxoniumSpectrum(
        flux=float(flux),
        levels=(0.0, float(w[1] - w[0]), float(w[2] - w[0])),
        t12=float(t[0]),
        t13=float(t[1]),
        t23=float(t[2]),
    )


def flux_sweep(p: FluxoniumParams, grid) -> list[FluxoniumSpectrum]:
    """spectrum_at over a strictly monotone flux grid (ValidationError
    otherwise)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("flux grid must be a nonempty 1-d sequence")
    diffs = np.diff(grid)
    if diffs.size and not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise ValidationError("flux grid must be monotone")
    out = []
    for f in grid:
        try:
            out.append(spectrum_at(p, f))
        except Exception as exc:
            exc.args = (f"at flux={f:g}: {exc}",)
            raise
    return out


def find_balanced_bias(p: FluxoniumParams, spectra) -> FluxoniumSpectrum:
    """The spectrum where t12 = t23, from a flux sweep's own spectra.

    Takes the first root in grid order: a grid point where t12 - t23 is
    exactly zero, returned as it is, or a grid cell where it changes
    sign, refined by Illinois regula falsi (Dowell and Jarratt, BIT 11,
    168 (1971)) until the bracket is no wider than ``BIAS_TOLERANCE`` or
    its ends are adjacent floats.  The refinement returns its last
    evaluation, an end of that bracket, so ``.flux`` is the bias (the
    cell's first end, if the cell is already that narrow).

    Raises NoSignChange when no grid point or cell has a root, or when
    ``spectra`` is empty.
    """
    f = [s.t12 - s.t23 for s in spectra]
    for k, fk in enumerate(f):
        if fk == 0.0:
            return spectra[k]
        if k + 1 < len(f) and f[k + 1] != 0.0 and (fk < 0.0) != (f[k + 1] < 0.0):
            break
    else:
        if not f:
            raise NoSignChange("no sign change: no spectra to search")
        raise NoSignChange(f"no sign change on [{spectra[0].flux}, {spectra[-1].flux}]: "
                           f"f(lo)={f[0]:.3e}, f(hi)={f[-1]:.3e}")
    last = spectra[k]
    a, fa, b, fb = last.flux, fk, spectra[k + 1].flux, f[k + 1]
    kept = None  # the end the previous step kept; kept twice, its value is halved
    while abs(b - a) > BIAS_TOLERANCE:
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)
            if c in (a, b):
                break
        last = spectrum_at(p, c)
        fc = last.t12 - last.t23
        if fc == 0.0:
            break
        if (fc < 0.0) == (fb < 0.0):
            b, fb = c, fc
            if kept == "a":
                fa *= 0.5
            kept = "a"
        else:
            a, fa = c, fc
            if kept == "b":
                fb *= 0.5
            kept = "b"
    return last


def scale_decay_rates(gamma_ref: float, t_ref: float,
                      s: FluxoniumSpectrum) -> DecayEstimate:
    """White-noise scaling gamma_ij = gamma_ref * (t_ij / t_ref)^2."""
    if not gamma_ref > 0.0:
        raise ValueError(f"gamma_ref must be > 0, got {gamma_ref}")
    if not t_ref > 0.0:
        raise ValueError(f"t_ref must be > 0, got {t_ref}")
    scale = gamma_ref / t_ref ** 2
    return DecayEstimate(
        gamma12=scale * s.t12 ** 2,
        gamma13=scale * s.t13 ** 2,
        gamma23=scale * s.t23 ** 2,
    )


def write_fluxonium_csv(spectra, path, p: FluxoniumParams) -> None:
    """Write a flux sweep as CSV with a ``#`` metadata preamble.

    Columns: flux, w1, w2 (GHz, relative to ground), t12, t13, t23.
    """
    meta = {"ej": p.ej, "ec": p.ec, "el": p.el, "basis_size": p.basis_size}
    rows = [(s.flux, s.w10, s.w20, s.t12, s.t13, s.t23) for s in spectra]
    write_csv(path, ("flux", "w1", "w2", "t12", "t13", "t23"), np.array(rows).T, meta)

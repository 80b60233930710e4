"""Fluxonium device spectra and charge matrix elements versus external flux.

The device Hamiltonian (energies in GHz, i.e. E/h) is

    H = 4 ec n^2 - ej cos(phi) + (el / 2) (phi - 2 pi f)^2

with f the external flux in units of the flux quantum.  It is expressed
in the eigenbasis of the (ec, el) harmonic oscillator:

    phi = phi_zpf (a + a^dag),   n = i n_zpf (a^dag - a),
    phi_zpf = (8 ec / el)^(1/4) / sqrt(2),  n_zpf = (el / 8 ec)^(1/4) / sqrt(2)

and cos(phi) is evaluated exactly from the eigendecomposition of the
real-symmetric phi, which stays accurate at large zero-point spread.
Flux enters the inductive term; the alternative gauge (flux inside the
cosine) gives the same spectrum, and only matrix-element magnitudes are
exported, so the choice is observable-free.

The lowest three eigenstates are the working levels |1>, |2>, |3>;
``t_ij`` denotes |<i| n |j>|, the charge coupling to a transmission line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numerics
from .csvout import write_csv
from .errors import BasisTooSmall, NoSignChange

#: Convergence demanded of the lowest three eigenvalues when the basis
#: grows by BASIS_STEP states.
BASIS_CONVERGENCE_GHZ = 1e-6
BASIS_STEP = 20

#: Representative fluxonium device energies (GHz) from the published
#: literature; used by the stock configs and the contingent checks.
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
                raise ValueError(f"{name} must be > 0, got {v}")
            object.__setattr__(self, name, v)
        if int(self.basis_size) < 30:
            raise ValueError(f"basis_size must be >= 30, got {self.basis_size}")
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


@lru_cache(maxsize=16)
def _oscillator_ops(ec: float, el: float, n: int):
    """(phi, charge, cos_phi) operators in the n-state oscillator basis."""
    phi_zpf = (8.0 * ec / el) ** 0.25 / np.sqrt(2.0)
    n_zpf = (el / (8.0 * ec)) ** 0.25 / np.sqrt(2.0)
    ladder = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    phi = phi_zpf * (ladder + ladder.T)
    charge = 1j * n_zpf * (ladder.T - ladder)
    w, v = np.linalg.eigh(phi)
    cos_phi = (v * np.cos(w)) @ v.T
    return phi, charge, cos_phi


def build_device_hamiltonian(p: FluxoniumParams, flux: float,
                             basis_size: int | None = None) -> np.ndarray:
    """Device Hamiltonian at one flux bias, Hermitian by final symmetrization."""
    n = p.basis_size if basis_size is None else int(basis_size)
    phi, charge, cos_phi = _oscillator_ops(p.ec, p.el, n)
    shifted = phi - (2.0 * np.pi * flux) * np.eye(n)
    h = (4.0 * p.ec * (charge @ charge)
         - p.ej * cos_phi
         + 0.5 * p.el * (shifted @ shifted))
    return 0.5 * (h + h.conj().T)


def charge_operator(p: FluxoniumParams, basis_size: int | None = None) -> np.ndarray:
    """Charge operator n in the oscillator basis."""
    n = p.basis_size if basis_size is None else int(basis_size)
    return _oscillator_ops(p.ec, p.el, n)[1]


def _eigensystem(p: FluxoniumParams, flux: float, n: int):
    h = build_device_hamiltonian(p, flux, basis_size=n)
    return numerics.hermitian_eig(h)


def spectrum_at(p: FluxoniumParams, flux: float) -> FluxoniumSpectrum:
    """Diagonalize at one bias and extract levels and |<i|n|j>|.

    The lowest three eigenvalues are re-computed with ``BASIS_STEP`` more
    basis states; a shift above ``BASIS_CONVERGENCE_GHZ`` raises
    BasisTooSmall.
    """
    w, v = _eigensystem(p, flux, p.basis_size)
    w_big, _ = _eigensystem(p, flux, p.basis_size + BASIS_STEP)
    shift = np.max(np.abs(w[:3] - w_big[:3]))
    if shift > BASIS_CONVERGENCE_GHZ:
        raise BasisTooSmall(
            f"lowest eigenvalues shift by {shift:.3e} GHz when the basis grows "
            f"from {p.basis_size} to {p.basis_size + BASIS_STEP}")
    charge = charge_operator(p)
    states = v[:, :3]
    t = np.abs(states.conj().T @ charge @ states)
    return FluxoniumSpectrum(
        flux=float(flux),
        levels=(0.0, float(w[1] - w[0]), float(w[2] - w[0])),
        t12=float(t[0, 1]),
        t13=float(t[0, 2]),
        t23=float(t[1, 2]),
    )


def flux_sweep(p: FluxoniumParams, grid) -> list[FluxoniumSpectrum]:
    """spectrum_at over a monotone flux grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("flux grid must be a nonempty 1-d sequence")
    diffs = np.diff(grid)
    if diffs.size and not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise ValueError("flux grid must be monotone")
    out = []
    for f in grid:
        try:
            out.append(spectrum_at(p, f))
        except Exception as exc:
            exc.args = (f"at flux={f:g}: {exc}",)
            raise
    return out


def _bisect(fn, lo: float, hi: float, tol: float) -> float:
    """Root of a sign-changing scalar function by bisection."""
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if flo * fhi > 0.0:
        raise NoSignChange(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    a, b = float(lo), float(hi)
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            b = mid
        else:
            a, flo = mid, fm
    return 0.5 * (a + b)


def find_balanced_bias(p: FluxoniumParams, lo: float, hi: float,
                       tol: float = 1e-5) -> float:
    """Flux where t12 = t23, located by bisection to |dflux| <= tol.

    Raises NoSignChange when t12 - t23 does not change sign on [lo, hi].
    """

    def imbalance(flux: float) -> float:
        s = spectrum_at(p, flux)
        return s.t12 - s.t23

    return _bisect(imbalance, lo, hi, tol)


def scale_decay_rates(gamma_ref: float, t_ref: float,
                      s: FluxoniumSpectrum) -> DecayEstimate:
    """White-noise scaling gamma_ij = gamma_ref * (t_ij / t_ref)^2."""
    if gamma_ref <= 0.0:
        raise ValueError(f"gamma_ref must be > 0, got {gamma_ref}")
    if t_ref <= 0.0:
        raise ValueError(f"t_ref must be > 0, got {t_ref}")
    scale = gamma_ref / t_ref ** 2
    return DecayEstimate(
        gamma12=scale * s.t12 ** 2,
        gamma13=scale * s.t13 ** 2,
        gamma23=scale * s.t23 ** 2,
    )


def write_fluxonium_csv(spectra, path, p: FluxoniumParams,
                        extra_metadata: dict | None = None) -> None:
    """Write a flux sweep as CSV with a ``#`` metadata preamble.

    Columns: flux, w1, w2 (GHz, relative to ground), t12, t13, t23.
    """
    meta = {"ej": p.ej, "ec": p.ec, "el": p.el, "basis_size": p.basis_size}
    rows = [(s.flux, s.w10, s.w20, s.t12, s.t13, s.t23) for s in spectra]
    write_csv(path, ("flux", "w1", "w2", "t12", "t13", "t23"), np.array(rows).T,
              meta | (extra_metadata or {}))

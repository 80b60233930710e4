"""Drive/decoherence parameter types and Hamiltonians for the loop-driven
three-level artificial atom.

The atom has levels |1>, |2>, |3> (indices 0, 1, 2) and all three
transitions 1-2, 1-3, 2-3 are driven coherently, closing a loop.  Each
drive carries a magnitude (Rabi rate), a phase and a detuning; rates are
dimensionless in units of the 1-3 decay rate unless the caller converts
at the boundary (see the CLI units flag).

Conventions
-----------
* ``sigma_ij = |i><j|`` is the matrix with a single 1 at row i-1, column
  j-1.
* In the rotating frame the drive on transition i-j (i > j) enters as
  ``-(Omega_ij / 2) * exp(-i phi_ij) |i><j| + h.c.``.  With this sign the
  probe-line absorption is ``+Im rho31`` of the steady state, and a loop
  phase of 3*pi/2 turns the transparency window into a gain window while
  pi/2 gives plain absorption.
* The two-photon constraint ``delta12 = delta13 - delta23`` is always
  enforced by deriving delta12; it cannot be set directly.  This is what
  makes the rotating-frame Hamiltonian time independent.
* The loop phase ``Phi = phi12 + phi23 - phi13`` is the only gauge-
  invariant combination of the three drive phases; re-phasing the basis
  kets changes the individual phases but never Phi.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def fold_phase(phase: float) -> float:
    """Fold an angle into [0, 2*pi)."""
    return float(phase) % TWO_PI


@dataclass(frozen=True)
class Drive:
    """One coherent drive: Rabi magnitude, phase and detuning.

    The magnitude must be non-negative; the phase is folded into
    [0, 2*pi) on construction.
    """

    magnitude: float
    phase: float = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.magnitude) or self.magnitude < 0.0:
            raise ValueError(f"drive magnitude must be >= 0, got {self.magnitude}")
        if not np.isfinite(self.phase) or not np.isfinite(self.detuning):
            raise ValueError("drive phase/detuning must be finite")
        object.__setattr__(self, "magnitude", float(self.magnitude))
        object.__setattr__(self, "phase", fold_phase(self.phase))
        object.__setattr__(self, "detuning", float(self.detuning))


@dataclass(frozen=True)
class DriveSet:
    """The three drives closing the loop.

    The detuning of ``d12`` is never taken from the caller: it is replaced
    by ``d13.detuning - d23.detuning`` on construction.
    """

    d12: Drive
    d13: Drive
    d23: Drive

    def __post_init__(self):
        derived = self.d13.detuning - self.d23.detuning
        object.__setattr__(self, "d12", dataclasses.replace(self.d12, detuning=derived))

    def with_probe_detuning(self, delta13: float) -> "DriveSet":
        """Copy with the 1-3 (probe) detuning replaced; delta12 re-derives."""
        return DriveSet(self.d12, dataclasses.replace(self.d13, detuning=delta13), self.d23)

    def with_loop_phase(self, phi: float) -> "DriveSet":
        """Copy with phi12 = phi and phi13 = phi23 = 0 (loop phase = phi)."""
        return DriveSet(
            dataclasses.replace(self.d12, phase=fold_phase(phi)),
            dataclasses.replace(self.d13, phase=0.0),
            dataclasses.replace(self.d23, phase=0.0),
        )

    def with_probe_magnitude(self, magnitude: float) -> "DriveSet":
        """Copy with the 1-3 (probe) Rabi magnitude replaced."""
        return DriveSet(self.d12, dataclasses.replace(self.d13, magnitude=magnitude), self.d23)


@dataclass(frozen=True)
class Decoherence:
    """Decay rates gamma_ij (transition j -> i for i < j) and pure
    dephasing rates for levels 2 and 3.

    At least one of gamma12, gamma13 must be positive so population can
    reach level 1 and the steady state is unique.
    """

    gamma12: float
    gamma13: float
    gamma23: float
    gphi2: float = 0.0
    gphi3: float = 0.0

    def __post_init__(self):
        for name in ("gamma12", "gamma13", "gamma23", "gphi2", "gphi3"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be a finite rate >= 0, got {v}")
            object.__setattr__(self, name, v)
        if self.gamma12 == 0.0 and self.gamma13 == 0.0:
            raise ValueError("at least one of gamma12, gamma13 must be > 0")

    @property
    def big_gamma3(self) -> float:
        """Half the total width of level 3, (gamma13 + gamma23 + gphi3) / 2."""
        return 0.5 * (self.gamma13 + self.gamma23 + self.gphi3)


def rotating_hamiltonian(drives: DriveSet) -> np.ndarray:
    """Time-independent Hamiltonian in the trichromatic rotating frame.

    H = -delta12 |2><2| - delta13 |3><3|
        - (1/2) sum_{i>j} Omega_ij exp(-i phi_ij) |i><j| + h.c.

    Hermitian by construction; trace = -(delta12 + delta13).
    """
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = -drives.d12.detuning
    h[2, 2] = -drives.d13.detuning
    h[1, 0] = -0.5 * drives.d12.magnitude * np.exp(-1j * drives.d12.phase)
    h[2, 0] = -0.5 * drives.d13.magnitude * np.exp(-1j * drives.d13.phase)
    h[2, 1] = -0.5 * drives.d23.magnitude * np.exp(-1j * drives.d23.phase)
    h[0, 1] = np.conj(h[1, 0])
    h[0, 2] = np.conj(h[2, 0])
    h[1, 2] = np.conj(h[2, 1])
    return h


def global_phase(drives: DriveSet) -> float:
    """Gauge-invariant loop phase Phi = (phi12 + phi23 - phi13) mod 2*pi."""
    return fold_phase(drives.d12.phase + drives.d23.phase - drives.d13.phase)

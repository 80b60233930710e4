"""Reflected-field observables via the input-output relation.

For a one-dimensional line coupled to the probe transition, the mean
output field centered at the probe frequency is

    <a_out> = <a_in> + sqrt(gamma13) * rho31

(expectation values only; no field fluctuations are propagated).  A
homodyne detector mixing the output with a local oscillator of phase
``theta`` reads out Re(<a_out> exp(-i theta)).

A sweep maps to one ``ReflectionTable``: its ``SpectrumTable`` and a
read-only ``a_out`` column, from which the I/Q quadratures are derived.
Both relations take a scalar or a column and compute from real and
imaginary parts, so each element is its scalar result bit for bit.

The relation between the probe Rabi magnitude and the input photon-flux
amplitude is a hardware calibration, not fixed here: by default both are
independent inputs, and ``tie_probe_to_input=True`` opts into the
documented convention Omega13 = 2 sqrt(gamma13) |a_in|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .atom import Decoherence, DriveSet, LevelFrequencies
from .csvout import write_csv
from .numerics import scale_complex
from .spectroscopy import SpectrumTable, sweep_detuning

#: Quasi-monochromatic validity: transition frequencies must be separated
#: by at least this multiple of the largest decay rate.
SEPARATION_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class ReflectionTable:
    """Reflected mean field over a sweep: the read-only column ``a_out``
    (n,) at the detunings of ``table``, and the quadratures derived from it."""

    table: SpectrumTable
    a_out: np.ndarray

    @property
    def homodyne_I(self) -> np.ndarray:
        return homodyne_signal(self.a_out, 0.0)

    @property
    def homodyne_Q(self) -> np.ndarray:
        return homodyne_signal(self.a_out, 0.5 * np.pi)


def output_amplitude(a_in: complex, gamma13: float, rho31):
    """Mean output field a_in + sqrt(gamma13) * rho31, scalar or column."""
    if gamma13 < 0.0:
        raise ValueError(f"gamma13 must be >= 0, got {gamma13}")
    return scale_complex(rho31, np.sqrt(gamma13)) + complex(a_in)


def homodyne_signal(a_out, lo_phase: float):
    """Quadrature Re(a_out * exp(-i lo_phase)), scalar or column."""
    return scale_complex(a_out, np.exp(-1j * lo_phase)).real


def check_mode_separation(levels: LevelFrequencies, dec: Decoherence) -> None:
    """Warn when transition frequencies are too close for the independent
    quasi-monochromatic treatment of the three drive channels."""
    freqs = (levels.transition(2, 1), levels.transition(3, 1), levels.transition(3, 2))
    fastest = max(dec.gamma12, dec.gamma13, dec.gamma23)
    threshold = SEPARATION_FACTOR * fastest
    for i in range(3):
        for j in range(i + 1, 3):
            sep = abs(freqs[i] - freqs[j])
            if sep < threshold:
                warnings.warn(
                    f"transition separation {sep:g} is below {SEPARATION_FACTOR:g}x "
                    f"the largest decay rate {fastest:g}; the three-mode "
                    f"treatment of the line is questionable", stacklevel=2)


def reflection_spectrum(drives: DriveSet, dec: Decoherence, a_in: complex, grid,
                        levels: LevelFrequencies | None = None,
                        tie_probe_to_input: bool = False) -> ReflectionTable:
    """Reflected-field sweep: steady-state solve composed with the
    input-output relation and both quadratures.

    ``a_in`` only shifts the output; the atomic contribution depends on
    the pump/control drives solely through rho31.
    """
    if levels is not None:
        check_mode_separation(levels, dec)
    if tie_probe_to_input:
        drives = drives.with_probe_magnitude(2.0 * np.sqrt(dec.gamma13) * abs(a_in))
    table = sweep_detuning(drives, dec, grid)
    return reflection_from_table(table, a_in)


def reflection_from_table(table: SpectrumTable, a_in: complex) -> ReflectionTable:
    """Map an existing sweep through the input-output relation."""
    a_out = output_amplitude(a_in, table.dec.gamma13, table.rho31)
    a_out.setflags(write=False)
    return ReflectionTable(table, a_out)


def write_reflection_csv(reflection: ReflectionTable, path, extra_metadata=None) -> None:
    """Write a reflection sweep as CSV with a ``#`` metadata preamble.

    Columns: delta13, re_aout, im_aout, homodyne_I, homodyne_Q.
    """
    write_csv(path, ("delta13", "re_aout", "im_aout", "homodyne_I", "homodyne_Q"),
              (reflection.table.detunings, reflection.a_out.real, reflection.a_out.imag,
               reflection.homodyne_I, reflection.homodyne_Q),
              extra_metadata)

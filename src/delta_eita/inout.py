"""Reflected-field observables via the input-output relation.

For a one-dimensional line coupled to the probe transition, the mean
output field centered at the probe frequency is

    <a_out> = <a_in> + sqrt(gamma13) * rho31

(expectation values only; no field fluctuations are propagated).  A
homodyne detector mixing the output with a local oscillator of phase
``theta`` reads out Re(<a_out> exp(-i theta)).

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
from .spectroscopy import SpectrumTable, sweep_detuning

#: Quasi-monochromatic validity: transition frequencies must be separated
#: by at least this multiple of the largest decay rate.
SEPARATION_FACTOR = 10.0


@dataclass(frozen=True)
class ReflectionPoint:
    """Reflected mean field and both homodyne quadratures at one detuning."""

    delta13: float
    a_out: complex
    homodyne_I: float
    homodyne_Q: float


def output_amplitude(a_in: complex, gamma13: float, rho31: complex) -> complex:
    """Mean output field a_in + sqrt(gamma13) * rho31."""
    if gamma13 < 0.0:
        raise ValueError(f"gamma13 must be >= 0, got {gamma13}")
    return complex(complex(a_in) + np.sqrt(gamma13) * complex(rho31))


def homodyne_signal(a_out: complex, lo_phase: float) -> float:
    """Quadrature Re(a_out * exp(-i lo_phase)) selected by the LO phase."""
    return float((complex(a_out) * np.exp(-1j * lo_phase)).real)


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
                        tie_probe_to_input: bool = False) -> list[ReflectionPoint]:
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


def reflection_from_table(table: SpectrumTable, a_in: complex) -> list[ReflectionPoint]:
    """Map an existing sweep through the input-output relation."""
    out = []
    for delta13, rho31 in zip(table.detunings.tolist(), table.rho31.tolist()):
        a = output_amplitude(a_in, table.dec.gamma13, rho31)
        out.append(ReflectionPoint(
            delta13=delta13,
            a_out=a,
            homodyne_I=homodyne_signal(a, 0.0),
            homodyne_Q=homodyne_signal(a, 0.5 * np.pi),
        ))
    return out


def write_reflection_csv(points, path, extra_metadata: dict | None = None) -> None:
    """Write reflection points as CSV with a ``#`` metadata preamble.

    Columns: delta13, re_aout, im_aout, homodyne_I, homodyne_Q.
    """
    lines = []
    if extra_metadata:
        lines.extend(f"# {key} = {value!r}" for key, value in extra_metadata.items())
    lines.append("delta13,re_aout,im_aout,homodyne_I,homodyne_Q")
    for p in points:
        lines.append(
            f"{p.delta13!r},{p.a_out.real!r},{p.a_out.imag!r},"
            f"{p.homodyne_I!r},{p.homodyne_Q!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

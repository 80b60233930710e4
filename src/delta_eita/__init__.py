"""Simulator for a loop-driven, dissipative three-level artificial atom.

Steady-state and time-domain dynamics under trichromatic driving, probe
absorption/dispersion spectra with phase control, fluxonium device
spectra versus flux, and reflected homodyne signals on a one-dimensional
transmission line.
"""

from .atom import (
    Decoherence,
    Drive,
    DriveSet,
    LevelFrequencies,
    derive_delta12,
    global_phase,
    lab_hamiltonian,
    rotating_hamiltonian,
)
from .errors import (
    BasisTooSmall,
    DegenerateSteadyState,
    DeltaEitaError,
    DimensionMismatch,
    InsufficientResolution,
    InvariantViolation,
    NoSignChange,
    NotHermitian,
    ParseError,
    SingularDenominator,
    SingularMatrix,
    ValidationError,
    WindowTooNarrow,
)
from .fluxonium import (
    DecayEstimate,
    FluxoniumParams,
    FluxoniumSpectrum,
    build_device_hamiltonian,
    find_balanced_bias,
    flux_sweep,
    scale_decay_rates,
    spectrum_at,
)
from .inout import (
    ReflectionTable,
    homodyne_signal,
    output_amplitude,
    reflection_spectrum,
)
from .lindblad import (
    build_liouvillian,
    devectorize,
    dissipator_superop,
    evolve,
    steady_state,
    validate_density_matrix,
    vectorize,
)
from .spectroscopy import (
    PeakReport,
    SpectrumTable,
    analytic_rho31,
    find_peaks,
    hilbert_transform,
    kramers_kronig_residual,
    population_inversion_scan,
    probe_response,
    sweep_detuning,
    sweep_phase,
)

__version__ = "0.1.0"

__all__ = [
    "BasisTooSmall",
    "DecayEstimate",
    "Decoherence",
    "DegenerateSteadyState",
    "DeltaEitaError",
    "DimensionMismatch",
    "Drive",
    "DriveSet",
    "FluxoniumParams",
    "FluxoniumSpectrum",
    "InsufficientResolution",
    "InvariantViolation",
    "LevelFrequencies",
    "NoSignChange",
    "NotHermitian",
    "ParseError",
    "PeakReport",
    "ReflectionTable",
    "SingularDenominator",
    "SingularMatrix",
    "SpectrumTable",
    "ValidationError",
    "WindowTooNarrow",
    "analytic_rho31",
    "build_device_hamiltonian",
    "build_liouvillian",
    "derive_delta12",
    "devectorize",
    "dissipator_superop",
    "evolve",
    "find_balanced_bias",
    "find_peaks",
    "flux_sweep",
    "global_phase",
    "hilbert_transform",
    "homodyne_signal",
    "kramers_kronig_residual",
    "lab_hamiltonian",
    "output_amplitude",
    "population_inversion_scan",
    "probe_response",
    "reflection_spectrum",
    "rotating_hamiltonian",
    "scale_decay_rates",
    "spectrum_at",
    "steady_state",
    "sweep_detuning",
    "sweep_phase",
    "validate_density_matrix",
    "vectorize",
]

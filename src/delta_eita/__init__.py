"""Simulator for a loop-driven, dissipative three-level artificial atom.

Steady-state and time-domain dynamics under trichromatic driving, probe
absorption/dispersion spectra with phase control, fluxonium device
spectra versus flux, and reflected homodyne signals on a one-dimensional
transmission line.

Importing the package loads none of its modules, and so not numpy: each
public name is imported from its module on first use (PEP 562).  The
command line relies on this to choose the BLAS thread count before
numpy loads.
"""

from importlib import import_module

_EXPORTS = {
    "atom": ("Decoherence", "Drive", "DriveSet", "global_phase", "rotating_hamiltonian"),
    "errors": ("BasisTooSmall", "DegenerateSteadyState", "DeltaEitaError",
               "DimensionMismatch", "InsufficientResolution", "InvariantViolation",
               "NoSignChange", "NotHermitian", "ParseError", "SingularDenominator",
               "SingularMatrix", "ValidationError", "WindowTooNarrow"),
    "fluxonium": ("DecayEstimate", "FluxoniumParams", "FluxoniumSpectrum",
                  "build_device_hamiltonian", "find_balanced_bias", "flux_sweep",
                  "scale_decay_rates", "spectrum_at"),
    "inout": ("ReflectionTable", "homodyne_signal", "output_amplitude",
              "reflection_spectrum"),
    "lindblad": ("build_liouvillian", "devectorize", "dissipator_superop", "evolve",
                 "propagate", "steady_state", "validate_density_matrix", "vectorize"),
    "spectroscopy": ("PeakReport", "SpectrumTable", "analytic_rho31", "find_peaks",
                     "hilbert_transform", "kramers_kronig_residual",
                     "population_inversion_scan", "probe_response", "sweep_detuning",
                     "sweep_phase"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *__all__])

"""Exception types shared across the package.

Each numerical or validation failure mode gets its own class so callers
(and the CLI exit-code mapping) can distinguish them.
"""


class DeltaEitaError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(DeltaEitaError):
    """Array arguments have incompatible or unexpected shapes."""


class SingularMatrix(DeltaEitaError):
    """Pivoted LU detected rank deficiency (relative pivot below threshold)."""


class NotHermitian(DeltaEitaError):
    """A matrix required to be Hermitian violates the symmetry tolerance."""


class DegenerateSteadyState(DeltaEitaError):
    """The Liouvillian null space is not one-dimensional (or the solve failed)."""


class InvariantViolation(DeltaEitaError):
    """A density matrix broke trace/Hermiticity/positivity bounds."""


class SingularDenominator(DeltaEitaError):
    """The closed-form coherence denominator vanished at the evaluation point."""


class InsufficientResolution(DeltaEitaError):
    """The detuning grid is too coarse to resolve spectral extrema."""


class WindowTooNarrow(DeltaEitaError):
    """The sweep window does not contain the spectral feature tails."""


class BasisTooSmall(DeltaEitaError):
    """Device eigenvalues did not converge under basis refinement."""


class NoSignChange(DeltaEitaError):
    """No grid point or grid cell of a root search holds a root."""


class ParseError(DeltaEitaError):
    """A config document is malformed or contains unknown sections/keys."""


class ValidationError(DeltaEitaError, ValueError):
    """A config value, or an argument of a model type (``Drive``,
    ``Decoherence``, ``FluxoniumParams``), violates a model invariant.

    Also a ValueError, so callers catching ValueError from the model
    types keep working."""

"""Dense complex linear-algebra kernels used by the physics modules.

Everything here is domain-free: Kronecker products, a pivoted linear solve
with explicit singularity detection, the matrix exponential, and
Hermitian eigendecomposition.  Matrices are plain
``numpy.ndarray`` of complex128; the validation helpers enforce the finite-
entries contract at the boundary.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg import expm as scipy_expm

from .errors import DimensionMismatch, NotHermitian, SingularMatrix

#: Relative pivot size below which a pivoted LU is declared rank deficient.
SINGULARITY_THRESHOLD = 1e-12

#: Elementwise asymmetry tolerance for hermitian_eig input.
HERMITICITY_TOLERANCE = 1e-12


def as_complex_matrix(a, square: bool = False, stack: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex array, enforcing finiteness.

    With ``stack`` a 3-d array, a stack of matrices along the first axis,
    is accepted as well.  Raises DimensionMismatch for any other ndim (or
    non-square matrices when ``square``) and ValueError for NaN/Inf
    entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if square and m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def as_complex_vector(b) -> np.ndarray:
    """Coerce ``b`` to a 1-d complex array, enforcing finiteness."""
    v = np.asarray(b, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite")
    return v


def kron(a, b) -> np.ndarray:
    """Kronecker product of two complex matrices."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by pivoted LU, for one matrix or a stack.

    ``a`` is ``(n, n)`` or a stack ``(m, n, n)``; the length-n right-hand
    side ``b`` is shared by every member, and ``x`` has shape
    ``a.shape[:-1]``.  scipy factors each member of a stack on its own, so
    every member's solution is bit for bit the one it gets alone.

    Raises SingularMatrix when a member's smallest pivot falls below
    ``SINGULARITY_THRESHOLD`` relative to its largest entry.  For a stack
    the message is that of the first such member, as if solved alone.
    """
    a = as_complex_matrix(a, square=True, stack=True)
    b = as_complex_vector(b)
    if b.shape[0] != a.shape[-1]:
        raise DimensionMismatch(
            f"rhs length {b.shape[0]} does not match matrix size {a.shape[-1]}")
    with warnings.catch_warnings():
        # exact-singular input announces itself via the pivot check below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a, check_finite=False)
    scale = np.max(np.abs(a), axis=(-2, -1)).reshape(-1)
    pivots = np.min(np.abs(np.diagonal(lu, axis1=-2, axis2=-1)), axis=-1).reshape(-1)
    singular = (scale == 0.0) | (pivots < SINGULARITY_THRESHOLD * scale)
    if np.any(singular):
        k = int(np.argmax(singular))
        if scale[k] == 0.0:
            raise SingularMatrix("zero matrix")
        raise SingularMatrix(
            f"relative pivot {pivots[k] / scale[k]:.3e} below "
            f"{SINGULARITY_THRESHOLD:.0e}")
    return lu_solve((lu, piv), b[:, None], check_finite=False)[..., 0]


def expm(a) -> np.ndarray:
    """Matrix exponential of a finite square matrix.

    scipy's scaling-and-squaring Pade algorithm (Al-Mohy & Higham, SIAM
    J. Matrix Anal. Appl. 31, 970 (2009)).
    """
    return scipy_expm(as_complex_matrix(a, square=True))


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in
    ascending order and orthonormal eigenvector columns.  Raises
    NotHermitian when ``a`` deviates from its conjugate transpose by more
    than ``HERMITICITY_TOLERANCE`` elementwise.
    """
    a = as_complex_matrix(a, square=True)
    asym = np.max(np.abs(a - a.conj().T))
    if asym > HERMITICITY_TOLERANCE:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {HERMITICITY_TOLERANCE:.0e}")
    w, v = np.linalg.eigh(a)
    return w, v

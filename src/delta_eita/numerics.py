"""Dense complex linear-algebra kernels used by the physics modules.

Everything here is domain-free: a pivoted linear solve
with explicit singularity detection, the matrix exponential, and
Hermitian eigendecomposition.  Matrices are plain
``numpy.ndarray`` of complex128; the validation helpers enforce the finite-
entries contract at the boundary.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

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


@functools.cache
def _getrf_getrs():
    """LAPACK's ``zgetrf`` and ``zgetrs`` as ctypes functions.

    They are taken from the LAPACK that scipy's wrappers
    (``scipy.linalg._flapack``) link against, so they are the routines
    behind ``scipy.linalg.lu_factor`` and ``lu_solve``, and the solutions
    are theirs bit for bit.  The extension is opened as a shared library,
    not imported, so the scipy package (~0.3 s of imports) is never loaded.
    """
    linalg = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                          "linalg")
    paths = [os.path.join(linalg, "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    lib = ctypes.CDLL(next(path for path in paths if os.path.exists(path)))
    # scipy's wheels bundle an OpenBLAS whose symbols carry a "scipy_" prefix
    prefix = "scipy_" if hasattr(lib, "scipy_zgetrf_") else ""
    getrf, getrs = getattr(lib, prefix + "zgetrf_"), getattr(lib, prefix + "zgetrs_")
    getrf.argtypes = [ctypes.c_void_p] * 6
    # the trailing size_t is the hidden Fortran length of the trans string
    getrs.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 8 + [ctypes.c_size_t]
    getrf.restype = getrs.restype = None
    return getrf, getrs


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by pivoted LU, for one matrix or a stack.

    ``a`` is ``(n, n)`` or a stack ``(m, n, n)``; the length-n right-hand
    side ``b`` is shared by every member, and ``x`` has shape
    ``a.shape[:-1]``.  Each member is factored by LAPACK's ``zgetrf`` and
    solved by ``zgetrs`` on its own, exactly as scipy's ``lu_factor`` and
    ``lu_solve`` do (see :func:`_getrf_getrs`), so every member's solution
    is bit for bit the one it gets alone.

    Raises SingularMatrix when a member's smallest pivot falls below
    ``SINGULARITY_THRESHOLD`` relative to its largest entry; no member is
    solved then.  For a stack the message is that of the first such
    member, as if solved alone.
    """
    a = as_complex_matrix(a, square=True, stack=True)
    b = as_complex_vector(b)
    if b.shape[0] != a.shape[-1]:
        raise DimensionMismatch(
            f"rhs length {b.shape[0]} does not match matrix size {a.shape[-1]}")
    stack = a.reshape((-1,) + a.shape[-2:])
    m, n, _ = stack.shape
    getrf, getrs = _getrf_getrs()
    # LAPACK is column-major: lu[k] holds member k transposed, a fresh copy
    lu = np.array(np.swapaxes(stack, -1, -2), order="C")
    piv = np.empty((m, n), dtype=np.int32)
    x = np.empty((m, n), dtype=complex)
    x[...] = b
    ints = np.array([n, 1, 0], dtype=np.int32)  # n, nrhs, info
    n_ptr, one_ptr, info_ptr = (ints.ctypes.data + ints.itemsize * i for i in range(3))
    # the address of each member; an empty stack has stride 0
    lu_k, piv_k, x_k = (range(arr.ctypes.data, arr.ctypes.data + arr.nbytes,
                              max(arr.strides[0], 1)) for arr in (lu, piv, x))
    for lu_ptr, piv_ptr in zip(lu_k, piv_k):
        # an exactly zero pivot (info > 0) is left to the gate below
        getrf(n_ptr, n_ptr, lu_ptr, n_ptr, piv_ptr, info_ptr)
    scale = np.max(np.abs(stack), axis=(-2, -1))
    pivots = np.min(np.abs(np.diagonal(lu, axis1=-2, axis2=-1)), axis=-1)
    singular = (scale == 0.0) | (pivots < SINGULARITY_THRESHOLD * scale)
    if np.any(singular):
        k = int(np.argmax(singular))
        if scale[k] == 0.0:
            raise SingularMatrix("zero matrix")
        raise SingularMatrix(
            f"relative pivot {pivots[k] / scale[k]:.3e} below "
            f"{SINGULARITY_THRESHOLD:.0e}")
    for lu_ptr, piv_ptr, x_ptr in zip(lu_k, piv_k, x_k):
        getrs(b"N", n_ptr, one_ptr, lu_ptr, n_ptr, piv_ptr, x_ptr, n_ptr, info_ptr, 1)
    return x.reshape(a.shape[:-1])


def expm(a) -> np.ndarray:
    """Matrix exponential of a finite square matrix.

    scipy's scaling-and-squaring Pade algorithm (Al-Mohy & Higham, SIAM
    J. Matrix Anal. Appl. 31, 970 (2009)).  scipy is imported here, on
    first use, so that runs which never exponentiate never load it.
    """
    from scipy.linalg import expm as scipy_expm

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

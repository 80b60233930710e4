"""Dense complex linear-algebra kernels used by the physics modules.

Everything here is domain-free: a pivoted linear solve
with explicit singularity detection, the matrix exponential, and
Hermitian eigendecomposition.  Matrices are plain
``numpy.ndarray`` of complex128; the validation helpers enforce the finite-
entries contract at the boundary.  The solve and the exponential take a
stack ``(m, n, n)`` as well, and each member's result is bit for bit the
one it gets alone.  The exponential is numpy alone; the solve loads
scipy's LAPACK wrappers from their file but never imports scipy.
"""

from __future__ import annotations

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


def as_complex_matrix(a, stack: bool = False) -> np.ndarray:
    """Coerce ``a`` to a square 2-d complex array, enforcing finiteness.

    With ``stack`` a 3-d array, a stack of square matrices along the first
    axis, is accepted as well.  Raises DimensionMismatch for any other
    ndim or a non-square shape, and ValueError for NaN/Inf entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[-2] != m.shape[-1]:
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


def scale_complex(z, c: complex):
    """``z * c`` for a scalar or array ``z`` and a scalar ``c``, from real
    and imaginary parts: each element rounds like the scalar product, bit
    for bit, where numpy's vectorized complex multiply can differ."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    out.real = z.real * c.real - z.imag * c.imag
    out.imag = z.real * c.imag + z.imag * c.real
    return out[()]


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, the extension ``scipy.linalg._flapack``.

    Its ``zgesv`` is the LAPACK driver that factors by ``zgetrf`` and
    solves by ``zgetrs``.  The extension is loaded from its file on its
    own, so the scipy package (~0.3 s of imports) is never imported.
    """
    linalg = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                          "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [linalg])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by pivoted LU, for one matrix or a stack.

    ``a`` is ``(n, n)`` or a stack ``(m, n, n)``; the length-n right-hand
    side ``b`` is shared by every member, and ``x`` has shape
    ``a.shape[:-1]``.  Each member is factored and solved on its own by
    one ``zgesv`` call (see :func:`_lapack`), so every member's solution
    is bit for bit the one it gets alone.  OpenBLAS solves systems this
    small in ``zgesv`` on one thread, so the bits do not depend on the
    BLAS thread count; they are those of scipy's ``lu_factor`` and
    ``lu_solve`` on one thread (on more, OpenBLAS's ``zgetrs`` takes a
    parallel triangular solve that rounds differently).

    Raises SingularMatrix when a member's smallest pivot falls below
    ``SINGULARITY_THRESHOLD`` relative to its largest entry, once every
    member is solved and before any solution is returned.  For a stack
    the message is that of the first such member, as if solved alone.
    """
    a = as_complex_matrix(a, stack=True)
    b = as_complex_vector(b)
    if b.shape[0] != a.shape[-1]:
        raise DimensionMismatch(
            f"rhs length {b.shape[0]} does not match matrix size {a.shape[-1]}")
    stack = a.reshape((-1,) + a.shape[-2:])
    gesv = _lapack().zgesv
    # zgesv factors a member in place only when it is column-major, so the
    # copy is, and solves into its row of x; an exactly zero pivot
    # (info > 0) is left to the gate below
    lu = np.swapaxes(np.swapaxes(stack, -1, -2).copy(), -1, -2)
    x = np.repeat(b[None], len(lu), axis=0)
    for k, member in enumerate(lu):
        x[k] = gesv(member, x[k], overwrite_a=True, overwrite_b=True)[2]
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
    return x.reshape(a.shape[:-1])


#: Coefficients b_0 ... b_13 of the degree-13 Pade approximant to exp
#: (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)

#: Largest scaled norm at which Pade-13 is accurate to double precision.
_THETA13 = 5.371920351148152

#: Leading coefficient of Pade-13's backward-error series, (13!)^2 / (26! 27!),
#: and the unit roundoff it is compared with (Al-Mohy & Higham, SIAM J.
#: Matrix Anal. Appl. 31, 970 (2009)).
_C27 = 1.0 / 113250775606021113483283660800000000
_UNIT_ROUNDOFF = 2.0 ** -53


def _norm1(a) -> np.ndarray:
    """1-norm (largest absolute column sum) of each member of a stack."""
    return np.max(np.sum(np.abs(a), axis=-2), axis=-1)


def _pade13(a) -> np.ndarray:
    """exp of each member of a stack ``(m, n, n)`` by scaling and squaring.

    Each member ``A`` is scaled by ``2**-s``, its Pade-13 approximant
    solved for and squared ``s`` times.  ``s`` follows Al-Mohy & Higham
    (2009) with exact norms: the powers A^2, A^4, A^6 the approximant needs
    bound ||A^8||^(1/8) and ||A^10||^(1/10), and ``ell`` adds squarings
    while the backward-error bound from ||(2^-s |A|)^27|| exceeds the unit
    roundoff, which guards strongly non-normal members.
    """
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    norm, norm4 = _norm1(a), _norm1(a4)
    # ||A^8|| <= ||A^4||^2 and ||A^10|| <= ||A^4|| ||A^6||; never above ||A||
    eta = np.fmin(np.maximum(norm4 ** 0.25, (norm4 * _norm1(a6)) ** 0.1), norm)
    s = np.ceil(np.log2(np.maximum(eta / _THETA13, 1.0)))
    # ||(2^-s |A|)^27||_1 exactly: the largest entry of 1^T (2^-s |A|)^27
    scaled_abs = np.abs(a) * (2.0 ** -s)[:, None, None]
    column_sums = np.ones(a.shape[:-1])[:, None, :]
    for _ in range(27):
        column_sums = column_sums @ scaled_abs
    alpha = _C27 * np.max(column_sums[:, 0, :], axis=-1) / (norm * 2.0 ** -s)
    s = (s + np.ceil(np.log2(np.maximum(alpha / _UNIT_ROUNDOFF, 1.0)) / 26)).astype(int)
    c = (2.0 ** -s)[:, None, None]
    a, a2, a4, a6 = a * c, a2 * c ** 2, a4 * c ** 4, a6 * c ** 6
    ident = np.eye(a.shape[-1])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for j in range(int(np.max(s, initial=0))):
        squared = s > j
        rs = r[squared]
        r[squared] = rs @ rs
    return r


def expm(a) -> np.ndarray:
    """Matrix exponential of a finite square matrix or a stack ``(m, n, n)``.

    Scaling-and-squaring Pade-13 in numpy alone (Higham, SIAM J. Matrix
    Anal. Appl. 26, 1179 (2005); the scaling of Al-Mohy & Higham, ibid.
    31, 970 (2009)), see :func:`_pade13`.  A diagonal member, the zero
    matrix included, is ``exp`` of its diagonal, so ``expm(0)`` is the
    identity exactly.  Every member is computed on its own: it is bit for
    bit the result of ``expm`` on that member alone.
    """
    a = as_complex_matrix(a, stack=True)
    stack = a.reshape((-1,) + a.shape[-2:])
    n = stack.shape[-1]
    diagonal = np.all((stack == 0.0) | np.eye(n, dtype=bool), axis=(-2, -1))
    out = np.zeros_like(stack)
    i = np.arange(n)
    out[np.flatnonzero(diagonal)[:, None], i, i] = np.exp(stack[diagonal][:, i, i])
    if not np.all(diagonal):
        out[~diagonal] = _pade13(stack[~diagonal])
    return out.reshape(a.shape)


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in
    ascending order and orthonormal eigenvector columns.  Raises
    NotHermitian when ``a`` deviates from its conjugate transpose by more
    than ``HERMITICITY_TOLERANCE`` elementwise.
    """
    a = as_complex_matrix(a)
    asym = np.max(np.abs(a - a.conj().T))
    if asym > HERMITICITY_TOLERANCE:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {HERMITICITY_TOLERANCE:.0e}")
    w, v = np.linalg.eigh(a)
    return w, v

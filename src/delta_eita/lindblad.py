"""Liouvillian construction, steady states and exact time evolution.

The master equation is

    drho/dt = -i [H, rho] + sum_{i<j} gamma_ij D[sigma_ij] rho
              + sum_{i=2,3} gphi_i D[sigma_ii] rho   =:  L rho

with D[c] rho = c rho c^dag - {c^dag c, rho}/2 and sigma_ij = |i><j|
(i < j, a lowering operator: decay |j> -> |i>).

States are vectorized by column stacking: rho[i, j] sits at position
j*3 + i, so vec(A rho B) = (B^T kron A) vec(rho) and

    L = -i (I kron H - H^T kron I) + sum gamma * D-superoperators.

The equation is linear with a constant generator, so the steady state is
the unit-trace kernel vector of L and time evolution is the exact
propagator exp(L t): :func:`propagate` forms it for every sample time in
one stacked :func:`numerics.expm` and validates the states in one batch.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .atom import Decoherence
from .errors import (
    DegenerateSteadyState,
    DimensionMismatch,
    InvariantViolation,
    NotHermitian,
    SingularMatrix,
)

DIM = 3

#: Residual bound accepted for a steady-state solve, ||L vec(rho)||_inf.
STEADY_STATE_RESIDUAL = 1e-10

#: Hermiticity / trace tolerances for a well-converged density matrix.
DENSITY_HERMITICITY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIGENVALUE_FLOOR = -1e-9

#: Looser gates applied to propagated states.
EVOLVE_TRACE_TOL = 1e-8
EVOLVE_EIGENVALUE_FLOOR = -1e-6


def _unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((DIM, DIM), dtype=complex)
    m[i, j] = 1.0
    return m


SIGMA12 = _unit(0, 1)
SIGMA13 = _unit(0, 2)
SIGMA23 = _unit(1, 2)
SIGMA22 = _unit(1, 1)
SIGMA33 = _unit(2, 2)

_IDENTITY = np.eye(DIM, dtype=complex)
_TRACE_ROW = np.zeros(DIM * DIM)
_TRACE_ROW[[0, 4, 8]] = 1.0


def vectorize(rho) -> np.ndarray:
    """Column-stack a 3x3 matrix into a 9-vector (rho[i, j] -> j*3 + i)."""
    rho = numerics.as_complex_matrix(rho)
    if rho.shape != (DIM, DIM):
        raise DimensionMismatch(f"expected 3x3, got {rho.shape}")
    return rho.reshape(DIM * DIM, order="F")


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = numerics.as_complex_vector(v)
    if v.shape != (DIM * DIM,):
        raise DimensionMismatch(f"expected length {DIM * DIM}, got {v.shape}")
    return v.reshape((DIM, DIM), order="F")


def dissipator_superop(c) -> np.ndarray:
    """Superoperator of D[c] rho = c rho c^dag - {c^dag c, rho}/2.

    Under column stacking this is
    conj(c) kron c - (I kron c^dag c + (c^dag c)^T kron I) / 2.
    """
    c = numerics.as_complex_matrix(c)
    if c.shape != (DIM, DIM):
        raise DimensionMismatch(f"expected 3x3 collapse operator, got {c.shape}")
    cdc = c.conj().T @ c
    return (np.kron(c.conj(), c)
            - 0.5 * (np.kron(_IDENTITY, cdc) + np.kron(cdc.T, _IDENTITY)))


# The decay/dephasing channels are fixed operators; precompute their
# superoperators once so sweeps only pay for the Hamiltonian part.
_D12 = dissipator_superop(SIGMA12)
_D13 = dissipator_superop(SIGMA13)
_D23 = dissipator_superop(SIGMA23)
_DPHI2 = dissipator_superop(SIGMA22)
_DPHI3 = dissipator_superop(SIGMA33)


def _rate_terms(dec: Decoherence) -> list[np.ndarray]:
    """The dissipator superoperators of ``dec``, in the order the
    generator adds them: the decay sum, then each nonzero dephasing."""
    terms = [dec.gamma12 * _D12 + dec.gamma13 * _D13 + dec.gamma23 * _D23]
    if dec.gphi2 > 0.0:
        terms.append(dec.gphi2 * _DPHI2)
    if dec.gphi3 > 0.0:
        terms.append(dec.gphi3 * _DPHI3)
    return terms


def build_liouvillian(h, dec: Decoherence) -> np.ndarray:
    """Assemble the 9x9 generator for Hamiltonian ``h`` and rates ``dec``.

    Raises NotHermitian if ``h`` is not Hermitian within 1e-10
    elementwise, and InvariantViolation if rates or drive terms overflow
    so that the generator has an entry that is not finite.  The returned
    matrix annihilates the trace from the left by construction
    (vec(I)^H L = 0).
    """
    h = numerics.as_complex_matrix(h)
    if h.shape != (DIM, DIM):
        raise DimensionMismatch(f"expected 3x3 Hamiltonian, got {h.shape}")
    asym = np.max(np.abs(h - h.T.conj()))
    if asym > DENSITY_HERMITICITY_TOL:
        raise NotHermitian(f"Hamiltonian asymmetry {asym:.3e}")
    # rates near 1e308 overflow in the sums: reported below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        lv = -1j * (np.kron(_IDENTITY, h) - np.kron(h.T, _IDENTITY))
        for term in _rate_terms(dec):
            lv += term
    if not np.all(np.isfinite(lv)):
        raise InvariantViolation("Liouvillian is not finite: rates or drives overflow")
    return lv


#: Diagonal position 3a + b of L holds -i (h_bb - h_aa), the rate of rho[b, a].
_DIAG_A, _DIAG_B = np.divmod(np.arange(DIM * DIM), DIM)


def build_liouvillian_block(h, diagonals, dec: Decoherence) -> np.ndarray:
    """Generators of ``h`` with its diagonal replaced by each row of the
    real ``(m, 3)`` array ``diagonals``, as an ``(m, 9, 9)`` stack.

    Each member is bit for bit ``build_liouvillian`` of its own
    Hamiltonian and raises as that would.  L reads the diagonal of H by
    value only on its own diagonal, -i (h_bb - h_aa) at 3a + b; elsewhere
    only through products 0 * h_aa, zeros whose sign the decay sum drops
    by adding +0 or a positive rate to every off-diagonal entry.  So each
    member is the template ``build_liouvillian`` of ``h`` with a zero
    diagonal, with its 9 diagonal entries written by that function's
    operations.
    """
    h = numerics.as_complex_matrix(h).copy()
    np.fill_diagonal(h, 0.0)
    hd = np.asarray(diagonals, dtype=float).astype(complex)
    lv = np.repeat(build_liouvillian(h, dec)[None], len(hd), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = -1j * (hd[:, _DIAG_B] - hd[:, _DIAG_A])
        for term in _rate_terms(dec):
            diag += term.diagonal()
    if not np.all(np.isfinite(diag)):
        raise InvariantViolation("Liouvillian is not finite: rates or drives overflow")
    i = np.arange(DIM * DIM)
    lv[:, i, i] = diag
    return lv


def validate_density_matrix(rho, trace_tol: float = DENSITY_TRACE_TOL,
                            eig_floor: float = DENSITY_EIGENVALUE_FLOOR) -> np.ndarray:
    """Check trace, Hermiticity and positivity; return the Hermitized state.

    ``rho`` is one 3x3 matrix or a stack ``(m, 3, 3)`` checked member by
    member.  Raises InvariantViolation when any bound is broken; for a
    stack the message is that of the first failing member.
    """
    rho = numerics.as_complex_matrix(rho, stack=True)
    if rho.shape[-2:] != (DIM, DIM):
        raise DimensionMismatch(f"expected 3x3 density matrix, got {rho.shape}")
    adjoint = np.swapaxes(rho, -1, -2).conj()
    asym = np.max(np.abs(rho - adjoint), axis=(-2, -1)).reshape(-1)
    drift = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).reshape(-1)
    sym = 0.5 * (rho + adjoint)
    lowest = np.min(np.linalg.eigvalsh(sym), axis=-1).reshape(-1)
    failed = (asym > DENSITY_HERMITICITY_TOL) | (drift > trace_tol) | (lowest < eig_floor)
    if np.any(failed):
        k = int(np.argmax(failed))
        if asym[k] > DENSITY_HERMITICITY_TOL:
            raise InvariantViolation(f"Hermiticity violated by {asym[k]:.3e}")
        if drift[k] > trace_tol:
            raise InvariantViolation(f"trace deviates from 1 by {drift[k]:.3e}")
        raise InvariantViolation(f"negative eigenvalue {lowest[k]:.3e}")
    return sym


def steady_state(lv) -> np.ndarray:
    """Unique unit-trace state in the kernel of the Liouvillian.

    One row of L is replaced by the trace constraint and the resulting
    linear system solved; the replaced row (row 0) is always linearly
    dependent on rows 4 and 8 through trace preservation, so no rank is
    lost.  Raises DegenerateSteadyState when the solve is singular or the
    residual against the original L exceeds ``STEADY_STATE_RESIDUAL``.

    ``lv`` is one 9x9 Liouvillian or a stack ``(m, 9, 9)``, which gives
    the ``(m, 3, 3)`` states, each bit for bit the state of its member
    alone.  The checks run in the same order as for one matrix; each
    raises with the message of its first failing member.
    """
    lv = numerics.as_complex_matrix(lv, stack=True)
    if lv.shape[-2:] != (DIM * DIM, DIM * DIM):
        raise DimensionMismatch(f"expected 9x9 Liouvillian, got {lv.shape}")
    a = lv.copy()
    a[..., 0, :] = _TRACE_ROW
    b = np.zeros(DIM * DIM, dtype=complex)
    b[0] = 1.0
    try:
        x = numerics.solve_linear(a, b)
    except SingularMatrix as exc:
        raise DegenerateSteadyState(f"singular steady-state solve: {exc}") from exc
    residual = np.max(np.abs((lv @ x[..., None])[..., 0]), axis=-1).reshape(-1)
    # "not within bound", so that a solve that overflowed to NaN fails too
    failed = ~(residual <= STEADY_STATE_RESIDUAL)
    if np.any(failed):
        k = int(np.argmax(failed))
        raise DegenerateSteadyState(
            f"steady-state residual {residual[k]:.3e} exceeds "
            f"{STEADY_STATE_RESIDUAL:.0e} (nullity > 1?)")
    # column stacking, as in devectorize, for every member at once
    rho = np.swapaxes(x.reshape(x.shape[:-1] + (DIM, DIM)), -1, -2)
    return validate_density_matrix(rho)


def propagate(lv, rho0, times) -> np.ndarray:
    """Propagate ``rho0`` to each of ``times``: vec(rho(t)) = exp(L t) vec(rho0).

    ``times`` is a vector whose entries must be finite and >= 0 (ValueError
    otherwise, for the first offending entry).  ``rho0`` is validated once;
    the propagators of all times come from one stacked
    :func:`numerics.expm`, and the first that overflows raises
    InvariantViolation.  Returns the ``(m, 3, 3)`` states, re-Hermitized
    and validated in one batch with the propagation gates (trace drift
    <= 1e-8, eigenvalues >= -1e-6); a violation raises InvariantViolation
    with the message of the first failing state, as if propagated alone.
    """
    lv = numerics.as_complex_matrix(lv)
    if lv.shape != (DIM * DIM, DIM * DIM):
        raise DimensionMismatch(f"expected 9x9 Liouvillian, got {lv.shape}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DimensionMismatch(f"expected a vector of times, got ndim={times.ndim}")
    bad = ~np.isfinite(times) | (times < 0.0)
    if np.any(bad):
        t = times[np.argmax(bad)]
        if not np.isfinite(t):
            raise ValueError(f"evolution time must be finite, got {t}")
        raise ValueError(f"evolution time must be >= 0, got {t}")
    rho0 = validate_density_matrix(rho0)
    # the powers of L t overflow from t ~ 4e18 at the stock rates, L t itself
    # near 1e308: reported below, not warned of
    with np.errstate(all="ignore"):
        lt = lv * times[:, None, None]
        fits = np.all(np.isfinite(lt), axis=(-2, -1))
        props = numerics.expm(np.where(fits[:, None, None], lt, 0.0))
    overflow = ~fits | ~np.all(np.isfinite(props), axis=(-2, -1))
    if np.any(overflow):
        raise InvariantViolation(
            f"propagator exp(L t) is not finite at t={times[np.argmax(overflow)]:g}")
    v = props @ vectorize(rho0)
    # column stacking, as in devectorize, for every state at once
    rho = np.swapaxes(v.reshape(-1, DIM, DIM), -1, -2)
    rho = 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())
    return validate_density_matrix(
        rho, trace_tol=EVOLVE_TRACE_TOL, eig_floor=EVOLVE_EIGENVALUE_FLOOR)


def evolve(lv, rho0, t: float) -> np.ndarray:
    """Propagate ``rho0`` for one time ``t``: :func:`propagate` at ``[t]``."""
    return propagate(lv, rho0, [t])[0]


def maximally_mixed() -> np.ndarray:
    """The state I/3."""
    return _IDENTITY / DIM


def ground_state() -> np.ndarray:
    """The pure state |1><1|."""
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def level_projector(level: int) -> np.ndarray:
    """|i><i| for a 1-based level label."""
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {level}")
    return _unit(level - 1, level - 1)

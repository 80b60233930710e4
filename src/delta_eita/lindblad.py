"""Liouvillian construction, steady states and exact time evolution.

The master equation is

    drho/dt = -i [H, rho] + sum_{i<j} gamma_ij D[sigma_ij] rho
              + sum_{i=2,3} gphi_i D[sigma_ii] rho   =:  L rho

with D[c] rho = c rho c^dag - {c^dag c, rho}/2 and sigma_ij = |i><j|
(i < j, a lowering operator: decay |j> -> |i>).

States are vectorized by column stacking: rho[i, j] sits at position
j*3 + i, so vec(A rho B) = (B^T kron A) vec(rho) and

    L = -i (I kron H - H^T kron I) + sum gamma * D-superoperators.

The diagonal of H enters L only on its diagonal, as -i (h_bb - h_aa) at
3a + b, so the generators of a sweep block are one template, the
:func:`build_liouvillian` of H with a zero diagonal, each with that term
added to the template's diagonal.

The equation is linear with a constant generator, so the steady state is
the unit-trace kernel vector of L and time evolution is the exact
propagator exp(L t).  One function, :func:`_steady_states`, solves for
steady states, in one generator array for a block of generators that
differ only on their diagonal: :func:`steady_state` is its one-member
case and :func:`steady_state_block` a sweep block.  :func:`propagate`
forms exp(L t) for every sample time in one stacked
:func:`numerics.expm` and validates the states in one batch.  Both read
their states out of the ``(m, 9)`` solution stack with
:func:`devectorize`.
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
#: Right-hand side of the steady-state system: the trace row's 1, else 0.
_UNIT_TRACE = np.eye(1, DIM * DIM, dtype=complex)[0]


def vectorize(rho) -> np.ndarray:
    """Column-stack a 3x3 matrix into a 9-vector (rho[i, j] -> j*3 + i)."""
    rho = numerics.as_complex_matrix(rho)
    if rho.shape != (DIM, DIM):
        raise DimensionMismatch(f"expected 3x3, got {rho.shape}")
    return rho.reshape(DIM * DIM, order="F")


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`: a 9-vector to a 3x3 matrix, or each row
    of an ``(m, 9)`` stack to a member of an ``(m, 3, 3)`` stack."""
    v = np.asarray(v, dtype=complex)
    if v.ndim not in (1, 2):
        raise DimensionMismatch(f"expected a vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if v.shape[-1] != DIM * DIM:
        raise DimensionMismatch(f"expected length {DIM * DIM}, got {v.shape}")
    return np.swapaxes(v.reshape(v.shape[:-1] + (DIM, DIM)), -1, -2)


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
        lv += dec.gamma12 * _D12 + dec.gamma13 * _D13 + dec.gamma23 * _D23
        if dec.gphi2 > 0.0:
            lv += dec.gphi2 * _DPHI2
        if dec.gphi3 > 0.0:
            lv += dec.gphi3 * _DPHI3
    if not np.all(np.isfinite(lv)):
        raise InvariantViolation("Liouvillian is not finite: rates or drives overflow")
    return lv


_DIAG = np.arange(DIM * DIM)
#: Diagonal position 3a + b of L holds -i (h_bb - h_aa), the rate of rho[b, a].
_DIAG_A, _DIAG_B = np.divmod(_DIAG, DIM)


def _template_and_diagonals(h, diagonals, dec: Decoherence):
    """The generators of ``h`` with its diagonal replaced by each row of the
    real ``(m, 3)`` array ``diagonals``, as the template ``build_liouvillian``
    of ``h`` with a zero diagonal and the ``(m, 9)`` diagonals of L: the
    template's own diagonal plus -i (h_bb - h_aa) at 3a + b.

    Written out as :func:`_steady_states` writes them, each member is bit
    for bit ``build_liouvillian`` of its own Hamiltonian, and an
    overflowing member raises as that would.  Off its diagonal, L reads
    the diagonal of H only through products 0 * h_aa, zeros whose sign
    the decay sum drops by adding +0 or a positive rate to every
    off-diagonal entry.
    """
    h = numerics.as_complex_matrix(h).copy()
    np.fill_diagonal(h, 0.0)
    hd = np.asarray(diagonals, dtype=float)
    template = build_liouvillian(h, dec)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = template.diagonal() - 1j * (hd[:, _DIAG_B] - hd[:, _DIAG_A])
    if not np.all(np.isfinite(diag)):
        raise InvariantViolation("Liouvillian is not finite: rates or drives overflow")
    return template, diag


#: Relative margin of the positivity certificate: a member is cleared when
#: S - (floor + margin * max|S_ij|) I has a Cholesky factor.  Four orders
#: above the backward errors of that factorization and of ``eigvalsh``.
_CERTIFICATE_MARGIN = 1e-10


def _cholesky_clears(sym, floor: float) -> np.ndarray:
    """Members of the Hermitian stack ``sym`` ``(m, 3, 3)`` whose smallest
    eigenvalue is certified to be computed by ``eigvalsh`` as >= ``floor``.

    The closed-form Cholesky factor L of A = S - (floor + delta) I, with
    delta = ``_CERTIFICATE_MARGIN`` max|S_ij|, exists in floating point
    when all three radicands are positive.  Then L L^H = A + E with
    |E| <= gamma_4 |L| |L^H| (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3; a small multiple in complex arithmetic), so
    ||E||_2 is a few ulps of max A_ii and lambda_min(S) >= floor + delta
    - ||E||; ``eigvalsh`` is within a few ulps of ||S||_2 <= 3 max|S_ij|
    of lambda_min(S).  Where |floor| exceeds 3 max|S_ij|, and so
    dominates A, lambda_min(S) >= -3 max|S_ij| > floor anyway.  A NaN or
    overflow leaves a radicand that is not positive: not cleared.
    """
    with np.errstate(all="ignore"):
        shift = floor + _CERTIFICATE_MARGIN * np.max(np.abs(sym), axis=(-2, -1))
        r1 = sym[:, 0, 0].real - shift
        l11 = np.sqrt(r1)
        l21 = sym[:, 1, 0] / l11
        l31 = sym[:, 2, 0] / l11
        r2 = sym[:, 1, 1].real - shift - (l21.real ** 2 + l21.imag ** 2)
        l32 = (sym[:, 2, 1] - l31 * l21.conj()) / np.sqrt(r2)
        r3 = (sym[:, 2, 2].real - shift - (l31.real ** 2 + l31.imag ** 2)
              - (l32.real ** 2 + l32.imag ** 2))
    return (r1 > 0.0) & (r2 > 0.0) & (r3 > 0.0)


def validate_density_matrix(rho, trace_tol: float = DENSITY_TRACE_TOL,
                            eig_floor: float = DENSITY_EIGENVALUE_FLOOR) -> np.ndarray:
    """Check trace, Hermiticity and positivity; return the Hermitized state.

    ``rho`` is one 3x3 matrix or a stack ``(m, 3, 3)`` checked member by
    member.  Raises InvariantViolation when any bound is broken; for a
    stack the message is that of the first failing member.

    Positivity is the smallest ``eigvalsh`` eigenvalue of the Hermitized
    state against ``eig_floor``.  A member whose shifted closed-form
    Cholesky factor exists (:func:`_cholesky_clears`) is certified to
    pass that test without the eigensolve; only the others go to
    ``eigvalsh``, which decides them and gives the reported eigenvalue,
    so every outcome and message is that of ``eigvalsh`` alone.
    """
    rho = numerics.as_complex_matrix(rho, stack=True)
    if rho.shape[-2:] != (DIM, DIM):
        raise DimensionMismatch(f"expected 3x3 density matrix, got {rho.shape}")
    adjoint = np.swapaxes(rho, -1, -2).conj()
    asym = np.max(np.abs(rho - adjoint), axis=(-2, -1)).reshape(-1)
    drift = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).reshape(-1)
    sym = 0.5 * (rho + adjoint)
    members = sym.reshape(-1, DIM, DIM)
    uncertain = ~_cholesky_clears(members, eig_floor)
    lowest = np.full(len(members), np.inf)
    if np.any(uncertain):
        lowest[uncertain] = np.min(np.linalg.eigvalsh(members[uncertain]), axis=-1)
    failed = (asym > DENSITY_HERMITICITY_TOL) | (drift > trace_tol) | (lowest < eig_floor)
    if np.any(failed):
        k = int(np.argmax(failed))
        if asym[k] > DENSITY_HERMITICITY_TOL:
            raise InvariantViolation(f"Hermiticity violated by {asym[k]:.3e}")
        if drift[k] > trace_tol:
            raise InvariantViolation(f"trace deviates from 1 by {drift[k]:.3e}")
        raise InvariantViolation(f"negative eigenvalue {lowest[k]:.3e}")
    return sym


def _steady_states(template, diag) -> np.ndarray:
    """Steady states of the generators ``template`` with each row of the
    ``(m, 9)`` array ``diag`` on its diagonal, an ``(m, 3, 3)`` array; each
    member's state is bit for bit its own alone.

    The generators live in one ``(m, 9, 9)`` array.  It first holds the
    members of L^T, so that its transposed view holds L column-major,
    and row 0 of each L, linearly dependent on rows 4 and 8 through
    trace preservation, is replaced there by the trace row:
    :func:`numerics.solve_in_place` solves those systems where they lie.
    Off their diagonals the members share the template and the trace
    row, so each member's largest |entry|, against which the solve gates
    its pivots, is the larger of one maximum over those shared entries
    and the member's largest |diagonal entry|, with no pass over |.| of
    the whole array.
    The generators are then written over the factors, now as L, for the
    residuals ||L vec(rho)||_inf.  A singular solve, then a residual
    above ``STEADY_STATE_RESIDUAL``, raises DegenerateSteadyState with
    the message of the first failing member; the states are then
    validated.
    """
    lv = np.empty((len(diag),) + template.shape, dtype=complex)
    lv[...] = template.T
    lv[:, _DIAG, _DIAG] = diag
    a = lv.transpose(0, 2, 1)
    a[:, 0, :] = _TRACE_ROW
    shared = template.copy()
    shared[0] = _TRACE_ROW
    shared[_DIAG, _DIAG] = 0.0
    scale = np.maximum(np.max(np.abs(shared)),
                       np.max(np.abs(np.diagonal(a, axis1=-2, axis2=-1)), axis=-1))
    x = np.repeat(_UNIT_TRACE[None], len(a), axis=0)
    try:
        numerics.solve_in_place(a, x, scale)
    except SingularMatrix as exc:
        raise DegenerateSteadyState(f"singular steady-state solve: {exc}") from exc
    lv[...] = template
    lv[:, _DIAG, _DIAG] = diag
    residual = np.max(np.abs((lv @ x[..., None])[..., 0]), axis=-1)
    # "not within bound", so that a solve that overflowed to NaN fails too
    failed = ~(residual <= STEADY_STATE_RESIDUAL)
    if np.any(failed):
        k = int(np.argmax(failed))
        raise DegenerateSteadyState(
            f"steady-state residual {residual[k]:.3e} exceeds "
            f"{STEADY_STATE_RESIDUAL:.0e} (nullity > 1?)")
    return validate_density_matrix(devectorize(x))


def steady_state(lv) -> np.ndarray:
    """Unique unit-trace state in the kernel of the 9x9 Liouvillian ``lv``.

    The one-member case of :func:`_steady_states`: ``lv`` is the template
    and its own diagonal the member's, which writes ``lv`` back bit for
    bit.  Raises DimensionMismatch unless ``lv`` is one 9x9 matrix, and
    DegenerateSteadyState when the solve is singular or the residual
    against L exceeds ``STEADY_STATE_RESIDUAL``.
    """
    lv = numerics.as_complex_matrix(lv)
    if lv.shape != (DIM * DIM, DIM * DIM):
        raise DimensionMismatch(f"expected 9x9 Liouvillian, got {lv.shape}")
    return _steady_states(lv, lv.diagonal()[None])[0]


def steady_state_block(h, diagonals, dec: Decoherence) -> np.ndarray:
    """Steady states of the generators of ``h`` with its diagonal replaced
    by each row of the real ``(m, 3)`` array ``diagonals``, each bit for
    bit ``steady_state`` of its ``build_liouvillian``: an ``(m, 3, 3)``
    array, from one :func:`_steady_states` generator array.
    """
    return _steady_states(*_template_and_diagonals(h, diagonals, dec))


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
    rho = devectorize(props @ vectorize(rho0))
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
    return _unit(0, 0)


def level_projector(level: int) -> np.ndarray:
    """|i><i| for a 1-based level label."""
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {level}")
    return _unit(level - 1, level - 1)

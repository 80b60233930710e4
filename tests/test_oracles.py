"""Independent extended-precision oracles for the steady state and the
propagator.

The oracle builds the generator entry by entry from the master equation
(README "Conventions") in 30-digit ``mpmath`` arithmetic, from the same
double-precision Hamiltonian and rates the package is given, so it shares
no code with ``build_liouvillian``, the block diagonals, the LU solve or
the Pade exponential.  The steady state is an ``mpmath.lu_solve`` of the
trace-row system, the propagator an ``mpmath.expm`` of L t.  Each
property asserts componentwise agreement within 1e-14 of the oracle's
largest entry, or the package's typed error.  A steady state is a
backward-stable LU solve, so its error also scales with the Skeel
condition number of the trace-row matrix: a narrow transition under a
strong drive (gamma12 = 1e-5 beside Omega12 = 0.1 gives 2e4) costs
digits, and the bound grows with that number past 1e-14 / (4 u).
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delta_eita import (
    Decoherence,
    DegenerateSteadyState,
    Drive,
    DriveSet,
    InvariantViolation,
    build_liouvillian,
    numerics,
    propagate,
    rotating_hamiltonian,
    steady_state,
    sweep_detuning,
)
from delta_eita.lindblad import ground_state, level_projector, maximally_mixed

DIGITS = 30
AGREEMENT = 1e-14
UNIT_ROUNDOFF = 2.0 ** -53


def mp_generator(h, dec):
    """L of the master equation, column 3b + a = vec(L |a><b|), with
    rho[i, j] at 3j + i, in ``DIGITS``-digit arithmetic."""
    hm = [[mpmath.mpc(complex(h[i, j])) for j in range(3)] for i in range(3)]
    channels = [(dec.gamma12, 0, 1), (dec.gamma13, 0, 2), (dec.gamma23, 1, 2),
                (dec.gphi2, 1, 1), (dec.gphi3, 2, 2)]
    lv = mpmath.zeros(9, 9)
    for b in range(3):
        for a in range(3):
            col = 3 * b + a
            for j in range(3):
                # -i (H |a><b| - |a><b| H)
                lv[3 * b + j, col] += -1j * hm[j][a]
                lv[3 * j + a, col] -= -1j * hm[b][j]
            for rate, p, q in channels:
                # D[|p><q|]: c rho c^+ moves |q><q| to |p><p|; the
                # anticommutator with c^+ c = |q><q| damps row and column q
                rate = mpmath.mpf(rate)
                if a == q and b == q:
                    lv[3 * p + p, col] += rate
                lv[col, col] -= rate * ((a == q) + (b == q)) / 2
    return lv


def to_complex(m):
    return np.array(m.tolist(), dtype=complex)


def oracle_state(h, dec):
    """The unit-trace kernel vector of L: row 0, dependent on rows 4 and 8
    through trace preservation, replaced by the trace row."""
    with mpmath.workdps(DIGITS):
        a = mp_generator(h, dec)
        for k in range(9):
            a[0, k] = 1 if k in (0, 4, 8) else 0
        rhs = mpmath.zeros(9, 1)
        rhs[0] = 1
        return to_complex(mpmath.lu_solve(a, rhs))[:, 0].reshape(3, 3).T


def oracle_propagator(h, dec, t):
    with mpmath.workdps(DIGITS):
        return to_complex(mpmath.expm(mp_generator(h, dec) * mpmath.mpf(t)))


def assert_agrees(got, oracle, condition=1.0):
    bound = max(AGREEMENT, 4.0 * UNIT_ROUNDOFF * condition)
    assert np.max(np.abs(got - oracle)) <= bound * np.max(np.abs(oracle))


def skeel_condition(lv):
    """|| |A^-1| |A| ||_inf of the trace-row matrix A of ``lv``."""
    a = lv.copy()
    a[0] = np.eye(3).reshape(9)
    return np.max(np.abs(np.linalg.inv(a)) @ np.abs(a) @ np.ones(9))


STOCK = (DriveSet(Drive(0.2), Drive(0.2), Drive(1.0)), Decoherence(0.1, 1.0, 0.1))


def test_generator_matches_build_liouvillian():
    # the oracle's own construction, against the package's, to roundoff
    drives = DriveSet(Drive(0.3, 0.4), Drive(0.2, 0.7, 0.37), Drive(1.2, -1.1, 0.3))
    dec = Decoherence(gamma12=0.1, gamma13=1.0, gamma23=0.1, gphi2=0.03, gphi3=0.07)
    h = rotating_hamiltonian(drives)
    with mpmath.workdps(DIGITS):
        assert_agrees(build_liouvillian(h, dec), to_complex(mp_generator(h, dec)))


# near-singular rates down to 1e-10 and drives down to 1e-6, as well as
# ordinary ones
def powers(lowest):
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(lowest, -1))


rate = powers(-10) | st.floats(0.01, 1.0)
magnitude = st.sampled_from([0.0, 1e-6]) | powers(-6) | st.floats(1e-6, 3.0)
phase = st.floats(0.0, 6.28)


@st.composite
def atoms(draw):
    """Drives and rates; one draw in four sits at the exceptional point
    Omega23 = Gamma3 - gamma12 / 2 of the EIT / Autler-Townes crossover."""
    gamma = draw(rate)
    dec = Decoherence(gamma12=gamma, gamma13=draw(st.floats(0.05, 2.0)),
                      gamma23=draw(st.sampled_from([gamma]) | rate),
                      gphi2=draw(st.sampled_from([0.0]) | rate),
                      gphi3=draw(st.sampled_from([0.0]) | rate))
    omega23 = draw(magnitude)
    if draw(st.integers(0, 3)) == 0:
        omega23 = max(dec.big_gamma3 - 0.5 * dec.gamma12, 0.0)
    drives = DriveSet(Drive(draw(magnitude), draw(phase)),
                      Drive(draw(magnitude), draw(phase), draw(st.floats(-4.0, 4.0))),
                      Drive(omega23, draw(phase), draw(st.floats(-2.0, 2.0))))
    return drives, dec


@settings(max_examples=30, deadline=None, derandomize=True)
@given(atom=atoms())
@example(atom=STOCK)
# the stock rates at the exceptional point Omega23 = Gamma3 - gamma12 / 2
@example(atom=(DriveSet(Drive(0.2), Drive(0.2), Drive(0.5)), Decoherence(0.1, 1.0, 0.1)))
# Skeel condition 2e4: off by up to 2.9e-12; at 2e6 the Hermiticity gate raises
@example(atom=(DriveSet(Drive(0.1, 1.0), Drive(0.0), Drive(0.0)), Decoherence(1e-5, 1.0, 1e-5)))
@example(atom=(DriveSet(Drive(0.1), Drive(0.0), Drive(0.0)), Decoherence(1e-7, 1.0, 1e-7)))
def test_steady_state_and_sweep_block_match_oracle(atom):
    # steady_state and the sweep's block path on a grid around the drawn
    # probe detuning, each against the oracle at every point
    drives, dec = atom
    grid = drives.d13.detuning + np.array([-0.5, 0.0, 0.25])
    oracles, conditions, failures = [], [], []
    for d in grid:
        h = rotating_hamiltonian(drives.with_probe_detuning(d))
        lv = build_liouvillian(h, dec)
        oracles.append(oracle_state(h, dec))
        conditions.append(skeel_condition(lv))
        try:
            assert_agrees(steady_state(lv), oracles[-1], conditions[-1])
        except (DegenerateSteadyState, InvariantViolation) as exc:
            failures.append((type(exc), f"at delta13={d:g}: {exc}"))
    if failures:
        with pytest.raises(failures[0][0]) as block:
            sweep_detuning(drives, dec, grid)
        assert str(block.value) == failures[0][1]
        return
    table = sweep_detuning(drives, dec, grid)
    for rho31, populations, oracle, condition in zip(table.rho31, table.populations,
                                                     oracles, conditions):
        # the reported row, against the state's largest entry
        assert_agrees(np.append(rho31, populations),
                      np.append(oracle[2, 0] * np.exp(1j * drives.d13.phase),
                                oracle.diagonal().real), condition)


def excited_state():
    return level_projector(3)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(atom=atoms(), t=st.sampled_from([0.5, 5.0]) | st.floats(0.0, 20.0),
       initial=st.sampled_from([ground_state, maximally_mixed, excited_state]))
@example(atom=STOCK, t=5.0, initial=ground_state)
@example(atom=STOCK, t=5.0, initial=maximally_mixed)
@example(atom=STOCK, t=5.0, initial=excited_state)
def test_propagator_matches_oracle(atom, t, initial):
    drives, dec = atom
    h = rotating_hamiltonian(drives)
    lv = build_liouvillian(h, dec)
    oracle = oracle_propagator(h, dec, t)
    assert_agrees(numerics.expm(lv * t), oracle)
    expected = (oracle @ initial().reshape(9, order="F")).reshape(3, 3, order="F")
    assert_agrees(propagate(lv, initial(), [t])[0], expected)

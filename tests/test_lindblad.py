import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_eita import (
    Decoherence,
    DegenerateSteadyState,
    DimensionMismatch,
    Drive,
    DriveSet,
    InvariantViolation,
    NotHermitian,
    build_liouvillian,
    devectorize,
    dissipator_superop,
    evolve,
    propagate,
    rotating_hamiltonian,
    steady_state,
    validate_density_matrix,
    vectorize,
)
from delta_eita import lindblad
from delta_eita.lindblad import (
    DENSITY_EIGENVALUE_FLOOR,
    DENSITY_HERMITICITY_TOL,
    DENSITY_TRACE_TOL,
    EVOLVE_EIGENVALUE_FLOOR,
    EVOLVE_TRACE_TOL,
    ground_state,
    level_projector,
    maximally_mixed,
)


def unit(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def random_hermitian(rng):
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return 0.5 * (x + x.conj().T)


def random_density(rng):
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def direct_master_rhs(h, rho, dec):
    """Reference right-hand side by direct matrix products."""
    out = -1j * (h @ rho - rho @ h)
    channels = (
        (dec.gamma12, unit(0, 1)), (dec.gamma13, unit(0, 2)),
        (dec.gamma23, unit(1, 2)), (dec.gphi2, unit(1, 1)),
        (dec.gphi3, unit(2, 2)),
    )
    for rate, c in channels:
        cd = c.conj().T
        out = out + rate * (c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c))
    return out


class TestVectorization:
    def test_round_trip_identity(self):
        rho = np.eye(3, dtype=complex) / 3.0
        np.testing.assert_array_equal(devectorize(vectorize(rho)), rho)

    def test_column_stacking_convention(self):
        rho = np.arange(9.0).reshape(3, 3) + 0j
        v = vectorize(rho)
        for i in range(3):
            for j in range(3):
                assert v[j * 3 + i] == rho[i, j]

    def test_random_round_trip_exact(self, rng):
        rho = random_density(rng)
        np.testing.assert_array_equal(devectorize(vectorize(rho)), rho)


class TestDissipator:
    def test_zero_operator(self):
        np.testing.assert_array_equal(dissipator_superop(np.zeros((3, 3))),
                                      np.zeros((9, 9)))

    def test_lowering_action(self):
        d = dissipator_superop(unit(0, 2))  # |1><3|
        rho = unit(2, 2)                    # |3><3|
        out = devectorize(d @ vectorize(rho))
        np.testing.assert_allclose(out, unit(0, 0) - unit(2, 2), atol=1e-15)

    def test_against_direct_formula(self, rng):
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        d = dissipator_superop(c)
        for _ in range(10):
            rho = random_hermitian(rng)
            direct = c @ rho @ c.conj().T - 0.5 * (
                c.conj().T @ c @ rho + rho @ c.conj().T @ c)
            via_superop = devectorize(d @ vectorize(rho))
            assert np.max(np.abs(via_superop - direct)) <= 1e-12


class TestBuildLiouvillian:
    def test_zero_case(self):
        dec = Decoherence(gamma12=1e-300, gamma13=0.0, gamma23=0.0)
        lv = build_liouvillian(np.zeros((3, 3)), dec)
        assert np.max(np.abs(lv)) <= 1e-299

    def test_matches_direct_rhs_on_matrix_units(self, stock_drives, stock_dec):
        dec = Decoherence(gamma12=0.1, gamma13=1.0, gamma23=0.1,
                          gphi2=0.03, gphi3=0.07)
        h = rotating_hamiltonian(stock_drives.with_probe_detuning(0.37))
        lv = build_liouvillian(h, dec)
        for i in range(3):
            for j in range(3):
                e = unit(i, j)
                got = devectorize(lv @ vectorize(e))
                expected = direct_master_rhs(h, e, dec)
                assert np.max(np.abs(got - expected)) <= 1e-12

    def test_pure_decay_exponential(self):
        dec = Decoherence(gamma12=0.0, gamma13=1.0, gamma23=0.0)
        lv = build_liouvillian(np.zeros((3, 3)), dec)
        rho = evolve(lv, level_projector(3), 1.0)
        assert rho[2, 2].real == pytest.approx(np.exp(-1.0), abs=1e-8)
        assert rho[0, 0].real == pytest.approx(1.0 - np.exp(-1.0), abs=1e-8)

    def test_rejects_non_hermitian(self, stock_dec):
        h = np.zeros((3, 3), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            build_liouvillian(h, stock_dec)

    def test_trace_and_hermiticity_preservation(self, stock_drives, stock_dec, rng):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        for _ in range(20):
            rho = random_hermitian(rng)
            drho = devectorize(lv @ vectorize(rho))
            assert abs(np.trace(drho)) <= 1e-12
            assert np.max(np.abs(drho - drho.conj().T)) <= 1e-12


def liouvillian_block(h, diagonals, dec):
    """The ``(m, 9, 9)`` generators a sweep block's residuals are taken on:
    the template with each member's diagonal written on it, as
    ``lindblad._steady_states`` writes them."""
    template, diag = lindblad._template_and_diagonals(h, diagonals, dec)
    lv = np.repeat(template[None], len(diag), axis=0)
    lv[:, range(9), range(9)] = diag
    return lv


class TestLiouvillianBlock:
    # zero magnitudes with these phases give h entries with -0 parts
    @pytest.mark.parametrize("drives", [
        DriveSet(Drive(0.2), Drive(0.2), Drive(1.0)),
        DriveSet(Drive(0.0, 5.5), Drive(0.3, 0.7), Drive(0.0, 2.0, 0.3)),
        DriveSet(Drive(0.0), Drive(0.0, 4.0), Drive(0.0)),
    ], ids=["stock", "signed-zeros", "undriven"])
    @pytest.mark.parametrize("dec", [
        Decoherence(gamma12=0.1, gamma13=1.0, gamma23=0.1),
        Decoherence(gamma12=0.0, gamma13=1.0, gamma23=0.0, gphi2=0.05, gphi3=0.2),
        Decoherence(gamma12=5e-324, gamma13=0.0, gamma23=0.3, gphi3=1e-300),
    ], ids=["decay", "dephasing", "tiny-rates"])
    def test_members_are_single_builds(self, rng, drives, dec):
        h = rotating_hamiltonian(drives)
        diagonals = rng.normal(size=(60, 3))
        diagonals[::4] = 0.0
        diagonals[1::4] = -0.0
        diagonals[2::4, 1:] *= -0.0
        lv = liouvillian_block(h, diagonals, dec)
        for d, member in zip(diagonals, lv):
            np.fill_diagonal(h, d)
            assert member.tobytes() == build_liouvillian(h, dec).tobytes()

    def test_overflowing_member_raises_as_alone(self, stock_drives, stock_dec):
        h = rotating_hamiltonian(stock_drives)
        diagonals = np.array([[0.0, 0.3, 0.2], [0.0, 1e308, -1e308]])
        np.fill_diagonal(h, diagonals[1])
        with pytest.raises(InvariantViolation) as alone:
            build_liouvillian(h, stock_dec)
        with pytest.raises(InvariantViolation) as block:
            liouvillian_block(h, diagonals, stock_dec)
        assert str(block.value) == str(alone.value)


class TestSteadyState:
    def test_solve_overflowing_to_nan_is_degenerate(self):
        # at |delta13| = 1.79e308 these pivots pass the gate, but the
        # triangular solve overflows and leaves NaN in the solution
        drives = DriveSet(Drive(0.0, 4.5), Drive(0.42, 5.44), Drive(0.0, 1.96, 0.64))
        dec = Decoherence(gamma12=0.29, gamma13=0.45, gamma23=0.28, gphi2=0.44, gphi3=0.15)
        for delta13 in (1.79e308, -1.79e308):
            lv = build_liouvillian(rotating_hamiltonian(drives.with_probe_detuning(delta13)), dec)
            with pytest.raises(DegenerateSteadyState, match="^steady-state residual nan exceeds"):
                steady_state(lv)

    def test_stack_of_liouvillians_is_refused(self, stock_drives, stock_dec):
        # a stack goes through steady_state_block, not steady_state
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        with pytest.raises(DimensionMismatch):
            steady_state(np.stack([lv, lv]))

    def test_undriven_relaxes_to_ground(self):
        dec = Decoherence(gamma12=0.1, gamma13=1.0, gamma23=0.1)
        drives = DriveSet(Drive(0.0), Drive(0.0), Drive(0.0))
        rho = steady_state(build_liouvillian(rotating_hamiltonian(drives), dec))
        np.testing.assert_allclose(rho, ground_state(), atol=1e-12)

    def test_transparency_at_window_center(self, stock_drives, stock_dec):
        # residual absorption at zero detuning is far below the flanking peak
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        center = steady_state(lv)[2, 0].imag
        flank = steady_state(build_liouvillian(
            rotating_hamiltonian(stock_drives.with_probe_detuning(-0.5)),
            stock_dec))[2, 0].imag
        assert abs(center) <= 0.05 * abs(flank)

    def test_matches_long_time_evolution(self, stock_drives, stock_dec, rng):
        for delta in rng.uniform(-2.0, 2.0, 3):
            lv = build_liouvillian(
                rotating_hamiltonian(stock_drives.with_probe_detuning(delta)),
                stock_dec)
            direct = steady_state(lv)
            settled = evolve(lv, maximally_mixed(), 1e3)
            assert np.max(np.abs(direct - settled)) <= 1e-8

    def test_matches_null_eigenvector_oracle(self, stock_drives, stock_dec):
        lv = build_liouvillian(rotating_hamiltonian(
            stock_drives.with_probe_detuning(0.4)), stock_dec)
        w, v = np.linalg.eig(lv)
        null = v[:, np.argmin(np.abs(w))]
        rho_eig = devectorize(null)
        rho_eig = rho_eig / np.trace(rho_eig)
        rho_eig = 0.5 * (rho_eig + rho_eig.conj().T)
        assert np.max(np.abs(rho_eig - steady_state(lv))) <= 1e-8

    def test_disconnected_level_is_degenerate(self):
        # level 3 neither decays nor is driven: nullity 2
        dec = Decoherence(gamma12=0.1, gamma13=0.0, gamma23=0.0)
        drives = DriveSet(Drive(0.5), Drive(0.0), Drive(0.0))
        lv = build_liouvillian(rotating_hamiltonian(drives), dec)
        with pytest.raises(DegenerateSteadyState):
            steady_state(lv)

    def test_unitary_only_generator_is_degenerate(self, stock_drives):
        h = rotating_hamiltonian(stock_drives)
        lv = -1j * (np.kron(np.eye(3), h) - np.kron(h.T, np.eye(3)))
        with pytest.raises(DegenerateSteadyState):
            steady_state(lv)


class TestSpectralStability:
    def test_eigenvalues_in_left_half_plane(self, stock_drives, stock_dec):
        for delta in (-1.0, 0.0, 0.7):
            lv = build_liouvillian(
                rotating_hamiltonian(stock_drives.with_probe_detuning(delta)),
                stock_dec)
            w = np.linalg.eigvals(lv)
            assert np.max(w.real) <= 1e-10
            assert int(np.sum(np.abs(w) < 1e-10)) == 1

    def test_left_null_vector(self, stock_drives, stock_dec):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        trace_vec = np.zeros(9)
        trace_vec[[0, 4, 8]] = 1.0
        assert np.max(np.abs(trace_vec @ lv)) <= 1e-10


class TestEvolve:
    def test_frozen_dynamics(self, rng):
        rho0 = random_density(rng)
        rho = evolve(np.zeros((9, 9)), rho0, 3.0)
        assert np.max(np.abs(rho - 0.5 * (rho0 + rho0.conj().T))) <= 1e-12

    def test_two_channel_decay(self):
        dec = Decoherence(gamma12=0.0, gamma13=0.1, gamma23=0.1)
        lv = build_liouvillian(np.zeros((3, 3)), dec)
        rho = evolve(lv, level_projector(3), 5.0)
        assert rho[2, 2].real == pytest.approx(np.exp(-0.2 * 5.0), abs=1e-8)

    def test_against_propagator_oracle(self, stock_drives, stock_dec):
        # independent oracle: fixed-step RK4 on vec(rho) at dt = 1e-3
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        rho0 = maximally_mixed()
        dt = 1e-3
        v = vectorize(rho0)
        for _ in range(20000):
            k1 = lv @ v
            k2 = lv @ (v + dt / 2 * k1)
            k3 = lv @ (v + dt / 2 * k2)
            k4 = lv @ (v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        via_rk4 = devectorize(v)
        assert np.max(np.abs(evolve(lv, rho0, 20.0) - via_rk4)) <= 1e-8

    def test_rejects_negative_time(self, stock_drives, stock_dec):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        with pytest.raises(ValueError):
            evolve(lv, ground_state(), -1.0)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_rejects_non_finite_time(self, stock_drives, stock_dec, t):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        with pytest.raises(ValueError, match="finite"):
            evolve(lv, ground_state(), t)


class TestPropagate:
    def test_zero_time_row_is_the_initial_state(self, rng, stock_drives, stock_dec):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        for rho0 in (ground_state(), validate_density_matrix(random_density(rng))):
            states = propagate(lv, rho0, np.linspace(0.0, 10.0, 5))
            assert states[0].tobytes() == rho0.tobytes()

    def test_rows_equal_single_evolve_calls(self, stock_drives, stock_dec):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        times = np.linspace(0.0, 20.0, 201)
        states = propagate(lv, level_projector(3), times)
        for t, state in zip(times, states):
            assert evolve(lv, level_projector(3), t).tobytes() == state.tobytes()

    @pytest.mark.parametrize("case", ["trace-loss", "negative-rate"])
    def test_failing_stack_raises_as_first_failing_sample(self, stock_drives, stock_dec, case):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        if case == "trace-loss":
            lv = lv - 1e-9 * np.eye(9)
        else:
            # 3 -> 1 decay at a net negative rate drives pop1 below zero
            lv = lv - 2.0 * dissipator_superop(unit(0, 2))
        times = np.linspace(0.0, 50.0, 11)
        with pytest.raises(InvariantViolation) as stacked:
            propagate(lv, level_projector(3), times)
        for t in times:
            try:
                evolve(lv, level_projector(3), t)
            except InvariantViolation as alone:
                assert str(stacked.value) == str(alone)
                break
        else:
            pytest.fail("no sample fails alone")

    @pytest.mark.parametrize("times, message", [
        ([1.0, -1.0, np.nan], ">= 0, got -1.0"),
        ([1.0, np.inf, -1.0], "finite, got inf"),
    ])
    def test_first_bad_time_is_reported(self, stock_drives, stock_dec, times, message):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        with pytest.raises(ValueError, match=message):
            propagate(lv, ground_state(), times)

    @pytest.mark.parametrize("times, first", [
        ([0.0, 1.0, 1e60, 1e30], "1e+60"),
        ([0.0, 1.7e308, 1e60], "1.7e+308"),
    ], ids=["powers-overflow", "lt-overflows"])
    def test_overflowing_propagator_is_reported(self, stock_drives, stock_dec, times, first):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        with pytest.raises(InvariantViolation) as exc:
            propagate(lv, ground_state(), times)
        assert str(exc.value) == f"propagator exp(L t) is not finite at t={first}"


def eigvalsh_gate(rho, trace_tol=DENSITY_TRACE_TOL, eig_floor=DENSITY_EIGENVALUE_FLOOR):
    """Reference ``validate_density_matrix``: positivity from ``eigvalsh``
    of every member, with no certificate in front of it."""
    rho = np.asarray(rho, dtype=complex)
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


def gate_outcome(gate, rho, **tolerances):
    """The returned bytes, or the type and message of the exception."""
    try:
        return gate(rho, **tolerances).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


#: A drawn member: its spectrum kind, the offset of its lowest eigenvalue
#: from the floor ("edge"), the scale of its other eigenvalues, a defect
#: and the seed of its eigenvectors.
_MEMBERS = st.tuples(
    st.sampled_from(["mixed", "rank1", "rank2", "edge", "edge", "zero"]),
    st.sampled_from([0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-10, -1e-10]),
    st.sampled_from([1.0, 1.0, 1e3]) | st.floats(1.0, 1e6),
    st.sampled_from([None, None, None, None, "asym", "trace"]),
    st.integers(0, 2**32 - 1))


def drawn_state(kind, offset, scale, defect, seed, floor):
    """U diag(w) U^H for a random unitary U and a spectrum w of ``kind``;
    "edge" puts the lowest eigenvalue at ``floor + offset`` below two
    eigenvalues of size ``scale``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    p = rng.uniform(0.05, 0.95)
    w = {"mixed": rng.dirichlet(np.ones(3)) * scale,
         "rank1": np.array([0.0, 0.0, scale]),
         "rank2": np.array([0.0, p, 1.0 - p]) * scale,
         "edge": np.array([floor + offset, p * scale, (1.0 - p) * scale]),
         "zero": np.zeros(3)}[kind]
    rho = (u * w) @ u.conj().T
    if defect == "asym":
        rho[0, 1] += 1e-9
    elif defect == "trace":
        rho *= 1.0 + 1e-7
    return rho


class TestValidateDensityMatrix:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(members=st.lists(_MEMBERS, min_size=1, max_size=9),
           failing_middle=st.booleans(),
           evolve_gates=st.booleans(),
           any_trace=st.booleans())
    def test_same_outcome_as_eigvalsh_gate(self, members, failing_middle, evolve_gates,
                                           any_trace):
        # both floors; scaled members only reach the positivity check past
        # an unbounded trace tolerance
        floor = EVOLVE_EIGENVALUE_FLOOR if evolve_gates else DENSITY_EIGENVALUE_FLOOR
        tolerances = {"eig_floor": floor,
                      "trace_tol": np.inf if any_trace
                      else EVOLVE_TRACE_TOL if evolve_gates else DENSITY_TRACE_TOL}
        stack = [drawn_state(*m, floor) for m in members]
        if failing_middle:
            stack.insert(len(stack) // 2, np.diag([1.0 - 2.0 * floor, 0.0, 2.0 * floor]))
        stack = np.array(stack)
        assert (gate_outcome(validate_density_matrix, stack, **tolerances)
                == gate_outcome(eigvalsh_gate, stack, **tolerances))
        assert (gate_outcome(validate_density_matrix, stack[0], **tolerances)
                == gate_outcome(eigvalsh_gate, stack[0], **tolerances))

    def test_accepts_valid(self, rng):
        validate_density_matrix(random_density(rng))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantViolation):
            validate_density_matrix(np.eye(3) * 0.5)

    def test_rejects_non_hermitian(self):
        rho = np.eye(3, dtype=complex) / 3.0
        rho[0, 1] = 0.1
        with pytest.raises(InvariantViolation):
            validate_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation):
            validate_density_matrix(rho)


def test_evolve_uses_default_step(stock_drives, stock_dec):
    lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
    rho = evolve(lv, level_projector(3), 0.2)   # exact propagator, no step to choose
    validate_density_matrix(rho)


class TestRandomizedRobustness:
    def test_steady_state_invariants_across_random_parameters(self, rng):
        # every solvable configuration yields a valid state
        for _ in range(25):
            mags = rng.uniform(0.0, 2.5, 3)
            phases = rng.uniform(0.0, 2 * np.pi, 3)
            dets = rng.uniform(-3.0, 3.0, 2)
            drives = DriveSet(Drive(mags[0], phases[0]),
                              Drive(mags[1], phases[1], dets[0]),
                              Drive(mags[2], phases[2], dets[1]))
            dec = Decoherence(gamma12=rng.uniform(0.0, 0.5),
                              gamma13=rng.uniform(0.1, 2.0),
                              gamma23=rng.uniform(0.0, 0.5),
                              gphi2=rng.uniform(0.0, 0.3),
                              gphi3=rng.uniform(0.0, 0.3))
            lv = build_liouvillian(rotating_hamiltonian(drives), dec)
            rho = steady_state(lv)
            validate_density_matrix(rho)
            assert np.max(np.abs(lv @ vectorize(rho))) <= 1e-10

    def test_generator_stability_across_random_parameters(self, rng):
        for _ in range(10):
            drives = DriveSet(Drive(rng.uniform(0, 2)), Drive(rng.uniform(0, 2)),
                              Drive(rng.uniform(0, 2)))
            dec = Decoherence(gamma12=rng.uniform(0.01, 1.0), gamma13=1.0,
                              gamma23=rng.uniform(0.0, 1.0))
            lv = build_liouvillian(rotating_hamiltonian(drives), dec)
            assert np.max(np.linalg.eigvals(lv).real) <= 1e-10

import numpy as np
import pytest

from delta_eita import (
    Decoherence,
    Drive,
    DriveSet,
    FluxoniumParams,
    ValidationError,
    global_phase,
    rotating_hamiltonian,
)


def lab_hamiltonian(t, drives, levels):
    """Lab-frame Hamiltonian at time ``t`` for bare level frequencies
    ``levels = (w1, w2, w3)``:

        H(t) = sum_i w_i |i><i|
               - (1/2) sum_{i>j} Omega_ij exp(-i phi_ij)
                 exp(-i (w_ij + delta_ij) t) |i><j| + h.c.

    with w_ij = w_i - w_j.  At t = 0 the drive part coincides with the
    rotating-frame drive part.
    """
    h = np.diag(np.asarray(levels, dtype=complex))
    for row, col, drive in ((1, 0, drives.d12), (2, 0, drives.d13), (2, 1, drives.d23)):
        amp = -0.5 * drive.magnitude * np.exp(-1j * drive.phase)
        h[row, col] = amp * np.exp(-1j * (levels[row] - levels[col] + drive.detuning) * t)
        h[col, row] = np.conj(h[row, col])
    return h


class TestDerivedDetuning:
    @pytest.mark.parametrize("d13, d23, expected", [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 1.0),      # with the pump on resonance, delta12 tracks delta13
        (0.7, 0.2, 0.5),
    ])
    def test_values(self, d13, d23, expected):
        drives = DriveSet(Drive(0.2), Drive(0.2, detuning=d13), Drive(1.0, detuning=d23))
        assert drives.d12.detuning == pytest.approx(expected, abs=1e-15)

    def test_drive_set_enforces_constraint(self):
        drives = DriveSet(d12=Drive(0.2, detuning=99.0),  # ignored, always derived
                          d13=Drive(0.2, detuning=0.7),
                          d23=Drive(1.0, detuning=0.2))
        assert drives.d12.detuning == pytest.approx(0.5, abs=1e-15)

    def test_probe_retune_rederives(self):
        drives = DriveSet(Drive(0.2), Drive(0.2), Drive(1.0, detuning=0.3))
        moved = drives.with_probe_detuning(1.1)
        assert moved.d12.detuning == pytest.approx(1.1 - 0.3, abs=1e-15)


class TestDriveValidation:
    def test_negative_magnitude(self):
        with pytest.raises(ValueError):
            Drive(-0.1)

    def test_phase_folding(self):
        assert Drive(1.0, phase=-np.pi).phase == pytest.approx(np.pi)
        assert Drive(1.0, phase=2 * np.pi + 0.5).phase == pytest.approx(0.5)

    def test_decoherence_needs_decay_to_ground(self):
        with pytest.raises(ValueError):
            Decoherence(gamma12=0.0, gamma13=0.0, gamma23=0.5)

    @pytest.mark.parametrize("build, message", [
        (lambda: Drive(float("inf")), "drive magnitude must be >= 0, got inf"),
        (lambda: Drive(1.0, detuning=float("nan")), "drive phase/detuning must be finite"),
        (lambda: Decoherence(1.0, -1.0, 0.0), "gamma13 must be a finite rate >= 0, got -1.0"),
        (lambda: FluxoniumParams(ej=9.0, ec=0.0, el=0.52), "ec must be > 0, got 0.0"),
        (lambda: FluxoniumParams(ej=9.0, ec=2.5, el=0.52, basis_size=29),
         "basis_size must be >= 30, got 29"),
    ], ids=["magnitude", "detuning", "rate", "energy", "basis"])
    def test_model_types_raise_validation_error(self, build, message):
        # a ValidationError is a ValueError too, so both kinds of caller catch it
        with pytest.raises(ValidationError) as got:
            build()
        assert isinstance(got.value, ValueError) and str(got.value) == message


class TestRotatingHamiltonian:
    def test_all_zero(self):
        h = rotating_hamiltonian(DriveSet(Drive(0.0), Drive(0.0), Drive(0.0)))
        np.testing.assert_array_equal(h, np.zeros((3, 3)))

    def test_stock_entries(self):
        # Omega13 = Omega12 = 0.2, Omega23 = 1, resonant, phases 0
        h = rotating_hamiltonian(DriveSet(Drive(0.2), Drive(0.2), Drive(1.0)))
        np.testing.assert_allclose(np.diag(h), np.zeros(3), atol=0)
        assert h[0, 2] == pytest.approx(-0.1, abs=0)
        assert h[2, 0] == pytest.approx(-0.1, abs=0)
        assert h[0, 1] == pytest.approx(-0.1, abs=0)
        assert h[1, 0] == pytest.approx(-0.1, abs=0)
        assert h[1, 2] == pytest.approx(-0.5, abs=0)
        assert h[2, 1] == pytest.approx(-0.5, abs=0)

    def test_hermitian_for_random_drive_sets(self, rng):
        for _ in range(100):
            mags = rng.uniform(0.0, 3.0, 3)
            phases = rng.uniform(0.0, 2 * np.pi, 3)
            dets = rng.uniform(-2.0, 2.0, 2)
            drives = DriveSet(
                Drive(mags[0], phases[0]),
                Drive(mags[1], phases[1], dets[0]),
                Drive(mags[2], phases[2], dets[1]),
            )
            h = rotating_hamiltonian(drives)
            np.testing.assert_array_equal(h, h.conj().T)

    def test_trace_identity(self, rng):
        for _ in range(20):
            d13, d23 = rng.uniform(-3.0, 3.0, 2)
            drives = DriveSet(Drive(0.1), Drive(0.4, detuning=d13),
                              Drive(0.9, detuning=d23))
            h = rotating_hamiltonian(drives)
            expected = -d13 - (d13 - d23)
            assert np.trace(h).real == pytest.approx(expected, abs=1e-14)
            assert np.trace(h).imag == 0.0


class TestLabHamiltonian:
    def test_undriven_diagonal(self):
        levels = (1.0, 4.0, 9.0)
        drives = DriveSet(Drive(0.0), Drive(0.0), Drive(0.0))
        h = lab_hamiltonian(0.0, drives, levels)
        np.testing.assert_array_equal(h, np.diag([1.0, 4.0, 9.0]))

    def test_time_zero_matches_rotating_drive_part(self):
        levels = (0.0, 5.0, 8.0)
        drives = DriveSet(Drive(0.3, 0.4), Drive(0.7, 1.1, 0.2), Drive(1.2, 2.0, -0.1))
        lab = lab_hamiltonian(0.0, drives, levels)
        rot = rotating_hamiltonian(drives)
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(lab[off], rot[off], atol=1e-15)

    def test_hermitian_at_any_time(self, rng):
        levels = (0.0, 3.0, 7.0)
        drives = DriveSet(Drive(0.5, 0.2), Drive(0.8, 1.0, 0.4), Drive(1.0, 2.2, -0.3))
        for t in rng.uniform(0.0, 10.0, 25):
            h = lab_hamiltonian(t, drives, levels)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-16)

    def test_frame_equivalence(self):
        """Integrating the lab-frame dynamics and rotating the result matches
        the rotating-frame dynamics (no dissipation involved)."""
        levels = (0.0, 5.0, 8.0)
        drives = DriveSet(
            Drive(0.3, 0.9),
            Drive(0.5, 0.0, detuning=0.2),
            Drive(0.8, 1.7, detuning=-0.4),
        )

        def commutator_rhs(h, rho):
            return -1j * (h @ rho - rho @ h)

        def integrate(hfun, rho0, t_final, steps):
            rho = rho0.astype(complex)
            dt = t_final / steps
            for k in range(steps):
                t = k * dt
                k1 = commutator_rhs(hfun(t), rho)
                k2 = commutator_rhs(hfun(t + dt / 2), rho + dt / 2 * k1)
                k3 = commutator_rhs(hfun(t + dt / 2), rho + dt / 2 * k2)
                k4 = commutator_rhs(hfun(t + dt), rho + dt * k3)
                rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            return rho

        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[0, 0] = 0.6
        rho0[1, 1] = 0.4
        rho0[0, 1] = rho0[1, 0] = 0.2
        t_final = 2.0
        steps = 4000

        rho_lab = integrate(lambda t: lab_hamiltonian(t, drives, levels), rho0,
                            t_final, steps)
        h_rot = rotating_hamiltonian(drives)
        rho_rot = integrate(lambda t: h_rot, rho0, t_final, steps)

        # frame transform: diag phases at the drive frequencies
        w = np.array([
            0.0,
            levels[1] - levels[0] + drives.d12.detuning,
            levels[2] - levels[0] + drives.d13.detuning,
        ])
        u = np.diag(np.exp(1j * w * t_final))
        transformed = u @ rho_lab @ u.conj().T
        assert np.max(np.abs(transformed - rho_rot)) <= 1e-6


class TestGlobalPhase:
    def test_zero(self):
        assert global_phase(DriveSet(Drive(1.0), Drive(1.0), Drive(1.0))) == 0.0

    def test_single_phase(self):
        drives = DriveSet(Drive(1.0, np.pi / 2), Drive(1.0), Drive(1.0))
        assert global_phase(drives) == pytest.approx(np.pi / 2)

    def test_mod_2pi(self):
        drives = DriveSet(Drive(1.0, np.pi), Drive(1.0, np.pi), Drive(1.0, np.pi))
        assert global_phase(drives) == pytest.approx(np.pi)

    def test_with_loop_phase_helper(self):
        drives = DriveSet(Drive(0.2, 1.0), Drive(0.2, 2.0), Drive(1.0, 0.3))
        for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
            assert global_phase(drives.with_loop_phase(phi)) == pytest.approx(phi)

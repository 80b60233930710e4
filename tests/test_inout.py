import warnings

import numpy as np
import pytest

from delta_eita import (
    Decoherence,
    DegenerateSteadyState,
    Drive,
    DriveSet,
    LevelFrequencies,
    homodyne_signal,
    output_amplitude,
    reflection_spectrum,
    sweep_detuning,
)
from delta_eita.inout import check_mode_separation, reflection_from_table, write_reflection_csv


class TestOutputAmplitude:
    def test_decoupled_line(self):
        assert output_amplitude(0.3 + 0.1j, 0.0, 0.5 + 0.5j) == 0.3 + 0.1j

    def test_arithmetic(self):
        assert output_amplitude(0.0, 1.0, 0.1j) == pytest.approx(0.1j)

    def test_affine_in_coherence(self, rng):
        for _ in range(50):
            a_in = complex(rng.normal(), rng.normal())
            g = float(rng.uniform(0.0, 5.0))
            r1 = complex(rng.normal(), rng.normal())
            r2 = complex(rng.normal(), rng.normal())
            lhs = output_amplitude(a_in, g, r1) - output_amplitude(a_in, g, r2)
            assert lhs == pytest.approx(np.sqrt(g) * (r1 - r2), abs=1e-12)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            output_amplitude(0.0, -1.0, 0.0)


class TestHomodyne:
    def test_in_phase_quadrature(self):
        assert homodyne_signal(3.0 + 4.0j, 0.0) == pytest.approx(3.0)

    def test_out_of_phase_quadrature(self):
        assert homodyne_signal(3.0 + 4.0j, np.pi / 2) == pytest.approx(4.0)

    def test_phase_sweep_traces_sinusoid(self):
        a_out = 3.0 + 4.0j
        phases = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        signal = np.array([homodyne_signal(a_out, p) for p in phases])
        assert signal.max() == pytest.approx(abs(a_out), rel=1e-3)
        assert signal.min() == pytest.approx(-abs(a_out), rel=1e-3)

    def test_quadrature_sum_identity(self, rng):
        for _ in range(50):
            a_out = complex(rng.normal(), rng.normal())
            i = homodyne_signal(a_out, 0.0)
            q = homodyne_signal(a_out, np.pi / 2)
            assert i * i + q * q == pytest.approx(abs(a_out) ** 2, abs=1e-12)


class TestReflectionSpectrum:
    def test_far_detuned_transparency(self, stock_drives, stock_dec):
        points = reflection_spectrum(stock_drives, stock_dec, 1.0 + 0j,
                                     [-50.0, 50.0])
        for p in points:
            assert abs(p.a_out - 1.0) <= 1e-2 * np.sqrt(stock_dec.gamma13)

    def test_q_quadrature_reproduces_absorption(self, stock_drives, stock_dec):
        grid = np.linspace(-2.0, 2.0, 101)
        table = sweep_detuning(stock_drives, stock_dec, grid)
        points = reflection_from_table(table, 1.0 + 0j)
        scale = np.sqrt(stock_dec.gamma13)
        for point, absorption in zip(points, table.absorption):
            assert point.homodyne_Q == pytest.approx(scale * absorption, abs=1e-12)

    def test_output_depends_on_pumps_only_through_coherence(self):
        # identical coherence values give identical output fields no matter
        # which drives produced them
        a = output_amplitude(1.0, 1.0, 0.2 - 0.1j)
        b = output_amplitude(1.0, 1.0, 0.2 - 0.1j)
        assert a == b

    def test_degenerate_configuration_propagates(self):
        dec = Decoherence(gamma12=0.1, gamma13=0.0, gamma23=0.0)
        drives = DriveSet(Drive(0.5), Drive(0.0), Drive(0.0))
        with pytest.raises(DegenerateSteadyState):
            reflection_spectrum(drives, dec, 1.0, [0.0, 1.0])

    def test_tie_probe_to_input_convention(self, stock_drives, stock_dec):
        a_in = 0.25
        points = reflection_spectrum(stock_drives, stock_dec, a_in, [0.0, 0.5],
                                     tie_probe_to_input=True)
        expected_probe = 2.0 * np.sqrt(stock_dec.gamma13) * a_in
        manual = reflection_spectrum(
            stock_drives.with_probe_magnitude(expected_probe), stock_dec, a_in,
            [0.0, 0.5])
        assert points == manual

    def test_mode_separation_warning(self, stock_dec):
        close = LevelFrequencies(0.0, 1.0, 2.0)   # separations ~ 1 = gamma13
        with pytest.warns(UserWarning):
            check_mode_separation(close, stock_dec)
        spaced = LevelFrequencies(0.0, 60.0, 140.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_mode_separation(spaced, stock_dec)

    def test_csv_columns(self, stock_drives, stock_dec, tmp_path):
        points = reflection_spectrum(stock_drives, stock_dec, 1.0, [-1.0, 1.0])
        path = tmp_path / "reflect.csv"
        write_reflection_csv(points, path, {"a_in": 1.0})
        lines = path.read_text().splitlines()
        assert lines[0] == "# a_in = 1.0"
        assert lines[1] == "delta13,re_aout,im_aout,homodyne_I,homodyne_Q"
        row = lines[2].split(",")
        assert float(row[0]) == -1.0
        assert float(row[3]) == pytest.approx(points[0].homodyne_I)


class TestTransientReflection:
    def test_compose_evolution_with_output(self, stock_drives, stock_dec):
        # the reflected mean field can track a transient coherence
        from delta_eita import build_liouvillian, evolve, rotating_hamiltonian
        from delta_eita.lindblad import ground_state
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        rho = ground_state()
        trace = []
        for _ in range(5):
            rho = evolve(lv, rho, 0.5)
            trace.append(output_amplitude(1.0, stock_dec.gamma13, rho[2, 0]))
        assert all(np.isfinite(a.real) and np.isfinite(a.imag) for a in trace)
        # transient approaches the steady-state value
        from delta_eita import steady_state
        settled = output_amplitude(1.0, stock_dec.gamma13,
                                   steady_state(lv)[2, 0])
        assert abs(trace[-1] - settled) < abs(trace[0] - settled)

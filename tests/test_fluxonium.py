import numpy as np
import pytest

from delta_eita import (
    BasisTooSmall,
    FluxoniumParams,
    NoSignChange,
    build_device_hamiltonian,
    find_balanced_bias,
    flux_sweep,
    scale_decay_rates,
    spectrum_at,
)
from delta_eita.fluxonium import BASIS_STEP, _bisect, _oscillator_ops, write_fluxonium_csv
from delta_eita.verify import realspace_levels

DEVICE = FluxoniumParams(ej=9.0, ec=2.5, el=0.52)


class TestHarmonicLimit:
    # vanishing junction energy: exact oscillator physics
    TINY = FluxoniumParams(ej=1e-12, ec=2.5, el=0.52)

    def test_levels_independent_of_flux(self):
        w = np.sqrt(8.0 * 2.5 * 0.52)
        for flux in (0.0, 0.1, 0.23):
            s = spectrum_at(self.TINY, flux)
            assert s.w10 == pytest.approx(w, rel=1e-9)
            assert s.w20 == pytest.approx(2.0 * w, rel=1e-9)

    def test_ladder_matrix_elements(self):
        n_zpf = (0.52 / (8.0 * 2.5)) ** 0.25 / np.sqrt(2.0)
        s = spectrum_at(self.TINY, 0.07)
        assert s.t12 == pytest.approx(n_zpf, rel=1e-9)
        assert s.t23 == pytest.approx(np.sqrt(2.0) * n_zpf, rel=1e-9)
        assert s.t13 <= 1e-9


class TestDeviceHamiltonian:
    def test_hermitian(self):
        # real float64, and symmetric to the last bit
        for basis_size in (None, 120):
            h = build_device_hamiltonian(DEVICE, 0.37, basis_size=basis_size)
            assert h.dtype == np.float64
            assert np.array_equal(h, h.T)

    def test_basis_refinement_cauchy(self):
        w_small = np.linalg.eigvalsh(build_device_hamiltonian(DEVICE, 0.08))[:3]
        w_large = np.linalg.eigvalsh(
            build_device_hamiltonian(DEVICE, 0.08, basis_size=120))[:3]
        assert np.max(np.abs(w_small - w_large)) <= 1e-6

    def test_convergence_guard_raises(self):
        # a heavy, wide-well device is nowhere near converged with 30 states
        cramped = FluxoniumParams(ej=30.0, ec=0.3, el=0.1, basis_size=30)
        with pytest.raises(BasisTooSmall):
            spectrum_at(cramped, 0.4)

    def test_matches_realspace_grid_oracle(self):
        s = spectrum_at(DEVICE, 0.08)
        w10, w20 = realspace_levels(DEVICE, 0.08)
        assert abs(s.w10 - w10) <= 1e-4
        assert abs(s.w20 - w20) <= 1e-4

    @pytest.mark.parametrize("size", [100.9, 30.5, float("nan"), float("inf")])
    def test_basis_size_must_be_whole(self, size):
        with pytest.raises(ValueError, match="basis_size must be a whole number"):
            FluxoniumParams(ej=9.0, ec=2.5, el=0.52, basis_size=size)

    @pytest.mark.parametrize("size", [100, 100.0, np.int64(100), np.float64(100.0)])
    def test_basis_size_whole_numbers_are_kept(self, size):
        p = FluxoniumParams(ej=9.0, ec=2.5, el=0.52, basis_size=size)
        assert p.basis_size == 100 and type(p.basis_size) is int

    def test_basis_size_minimum(self):
        with pytest.raises(ValueError):
            FluxoniumParams(ej=9.0, ec=2.5, el=0.52, basis_size=20)


def direct_hamiltonian(p, flux, n):
    """The device Hamiltonian formed term by term, as written: complex
    charge i n_zpf (a^dag - a), the shifted-phase square including its
    constant, and a final symmetrization."""
    phi_zpf = (8.0 * p.ec / p.el) ** 0.25 / np.sqrt(2.0)
    n_zpf = (p.el / (8.0 * p.ec)) ** 0.25 / np.sqrt(2.0)
    ladder = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    phi = phi_zpf * (ladder + ladder.T)
    charge = 1j * n_zpf * (ladder.T - ladder)
    w, v = np.linalg.eigh(phi)
    cos_phi = (v * np.cos(w)) @ v.T
    shifted = phi - (2.0 * np.pi * flux) * np.eye(n)
    h = (4.0 * p.ec * (charge @ charge) - p.ej * cos_phi
         + 0.5 * p.el * (shifted @ shifted))
    return 0.5 * (h + h.conj().T), charge


def observables(h, h_big, charge):
    """Level spacings, |<i|charge|j>| of the lowest three states and the
    lowest-three shift between the two bases."""
    w, v = np.linalg.eigh(h)
    w_big = np.linalg.eigvalsh(h_big)
    states = v[:, :3]
    t = np.abs(states.conj().T @ charge @ states)
    return (np.array([w[1] - w[0], w[2] - w[0]]), t[[0, 0, 1], [1, 2, 2]],
            np.max(np.abs(w[:3] - w_big[:3])))


class TestCachedTermsMatchDirectForm:
    # the stock device and two benchmark pool devices (one hot, one cold)
    @pytest.mark.parametrize("p", [
        DEVICE,
        FluxoniumParams(ej=8.735, ec=2.473, el=0.55),
        FluxoniumParams(ej=9.462, ec=2.348, el=0.543),
    ], ids=["stock", "pool-d1", "pool-d10"])
    @pytest.mark.parametrize("flux", [0.0, 0.08, 0.13, 0.37, 0.5])
    def test_spacings_couplings_and_shift(self, p, flux):
        n, big = p.basis_size, p.basis_size + BASIS_STEP
        h, charge = direct_hamiltonian(p, flux, n)
        want = observables(h, direct_hamiltonian(p, flux, big)[0], charge)
        got = observables(build_device_hamiltonian(p, flux),
                          build_device_hamiltonian(p, flux, basis_size=big),
                          _oscillator_ops(p.ec, p.el, n)[1])
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12
        s = spectrum_at(p, flux)
        assert np.max(np.abs(np.array(s.levels[1:]) - want[0])) <= 1e-12
        assert np.max(np.abs(np.array([s.t12, s.t13, s.t23]) - want[1])) <= 1e-12


class TestSpectrumSymmetries:
    def test_flux_inversion(self):
        plus = spectrum_at(DEVICE, 0.13)
        minus = spectrum_at(DEVICE, -0.13)
        assert abs(plus.w10 - minus.w10) <= 1e-9
        assert abs(plus.w20 - minus.w20) <= 1e-9
        for name in ("t12", "t13", "t23"):
            assert abs(getattr(plus, name) - getattr(minus, name)) <= 1e-9

    def test_parity_suppression_at_zero_flux(self):
        s = spectrum_at(DEVICE, 0.0)
        assert s.t13 <= 1e-3 * s.t12      # 0 <-> 2 parity-forbidden
        assert s.t12 > 0.0 and s.t23 > 0.0

    def test_comparable_couplings_mid_range(self):
        # away from the symmetric points all three couplings are within a
        # decade of each other
        for flux in (0.08, 0.15, 0.25):
            s = spectrum_at(DEVICE, flux)
            values = (s.t12, s.t13, s.t23)
            assert min(values) >= 0.1 * max(values)


class TestFluxSweep:
    def test_singleton_equals_spectrum_at(self):
        assert flux_sweep(DEVICE, [0.11])[0] == spectrum_at(DEVICE, 0.11)

    def test_requires_monotone_grid(self):
        with pytest.raises(ValueError):
            flux_sweep(DEVICE, [0.0, 0.2, 0.1])

    def test_symmetric_pairs_agree(self):
        spectra = flux_sweep(DEVICE, [-0.2, -0.1, 0.1, 0.2])
        for neg, pos in ((0, 3), (1, 2)):
            assert spectra[neg].w10 == pytest.approx(spectra[pos].w10, abs=1e-9)
            assert spectra[neg].t23 == pytest.approx(spectra[pos].t23, abs=1e-9)

    def test_csv_round_trip(self, tmp_path):
        spectra = flux_sweep(DEVICE, [0.05, 0.1])
        path = tmp_path / "flux.csv"
        write_fluxonium_csv(spectra, path, DEVICE)
        lines = path.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "flux,w1,w2,t12,t13,t23"
        first = [l for l in lines if not l.startswith("#")][1].split(",")
        assert float(first[0]) == 0.05
        assert float(first[1]) == spectra[0].w10


def capped(fn, limit=1000):
    """``fn`` that counts its calls and fails beyond ``limit``, so that a
    bisection that never ends fails instead of hanging."""

    def wrapper(x):
        wrapper.calls += 1
        if wrapper.calls > limit:
            raise AssertionError(f"more than {limit} calls")
        return fn(x)

    wrapper.calls = 0
    return wrapper


class TestBalancedBias:
    def test_synthetic_root_at_quarter(self):
        # engineered imbalance antisymmetric about 0.25
        root = _bisect(lambda f: np.sin(2.0 * np.pi * (f - 0.25)), 0.0, 0.45, 1e-7)
        assert root == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("lo, hi, tol", [
        (1.0, 0.0, 1e-5), (0.0, 0.0, 1e-5), (np.nan, 1.0, 1e-5), (0.0, np.inf, 1e-5),
        (0.0, 1.0, 0.0), (0.0, 1.0, -1e-5), (0.0, 1.0, np.nan), (0.0, 1.0, np.inf),
    ])
    def test_bisect_rejects_bad_bracket_or_tolerance(self, lo, hi, tol):
        with pytest.raises(ValueError):
            _bisect(capped(lambda f: f - 0.3), lo, hi, tol)

    def test_bisect_stops_at_adjacent_floats(self):
        # a tolerance below the float spacing at the root ends when the
        # midpoint rounds to an end; this step is never 0, so no midpoint
        # hits the root exactly
        fn = capped(lambda f: -1.0 if f <= 0.3 else 1.0)
        root = _bisect(fn, 0.0, 1.0, 1e-300)
        assert abs(root - 0.3) <= np.spacing(0.3)
        assert fn.calls < 100

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_balanced_bias(DEVICE, 0.3, 0.45)

    def test_device_crossing_near_expected_bias(self):
        bias = find_balanced_bias(DEVICE, 0.01, 0.2)
        assert 0.0 < bias < 0.2
        s = spectrum_at(DEVICE, bias)
        assert s.t12 == pytest.approx(s.t23, abs=1e-3)
        # contingent on the literature device energies: close to 0.08
        assert bias == pytest.approx(0.08, abs=0.02)


class TestDecayScaling:
    def test_unit_scaling(self):
        s = spectrum_at(DEVICE, 0.08)
        est = scale_decay_rates(3.0, s.t12, s)
        assert est.gamma12 == pytest.approx(3.0, rel=1e-12)

    def test_quadratic_law(self):
        s = spectrum_at(DEVICE, 0.08)
        one = scale_decay_rates(1.0, 1.0, s)
        # doubling a matrix element quadruples its rate
        doubled = scale_decay_rates(1.0, 0.5, s)
        assert doubled.gamma13 == pytest.approx(4.0 * one.gamma13, rel=1e-12)

    def test_ratio_preservation(self):
        s = spectrum_at(DEVICE, 0.12)
        est = scale_decay_rates(11.0, 0.2, s)
        assert est.gamma13 / est.gamma12 == pytest.approx(
            (s.t13 / s.t12) ** 2, rel=1e-12)

    def test_literature_rates_order_of_magnitude(self):
        # contingent: 11 MHz at zero flux maps to roughly 25 / 2.6 / 2.6 MHz
        bias = find_balanced_bias(DEVICE, 0.01, 0.2)
        t_ref = spectrum_at(DEVICE, 0.0).t12
        est = scale_decay_rates(11.0, t_ref, spectrum_at(DEVICE, bias))
        assert est.gamma13 == pytest.approx(25.0, rel=1.0)
        assert est.gamma12 == pytest.approx(2.6, rel=1.0)
        assert est.gamma23 == pytest.approx(2.6, rel=1.0)

    def test_rejects_bad_reference(self):
        s = spectrum_at(DEVICE, 0.08)
        for gamma_ref, t_ref in ((0.0, 1.0), (1.0, 0.0), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError):
                scale_decay_rates(gamma_ref, t_ref, s)


def test_flux_sweep_error_carries_flux():
    cramped = FluxoniumParams(ej=30.0, ec=0.3, el=0.1, basis_size=30)
    with pytest.raises(BasisTooSmall, match="at flux=0.4"):
        flux_sweep(cramped, [0.4])

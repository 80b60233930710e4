import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from delta_eita import (
    BasisTooSmall,
    FluxoniumParams,
    InvariantViolation,
    NoSignChange,
    ValidationError,
    build_device_hamiltonian,
    find_balanced_bias,
    flux_sweep,
    fluxonium,
    scale_decay_rates,
    spectrum_at,
)
from delta_eita.fluxonium import (
    BASIS_CONVERGENCE_GHZ,
    BASIS_STEP,
    BIAS_TOLERANCE,
    COUPLING_CONVERGENCE,
    DecayEstimate,
    FluxoniumSpectrum,
    _ladder_ops,
    write_fluxonium_csv,
)
from delta_eita.verify import realspace_levels

ROOT = Path(__file__).resolve().parent.parent

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

    @pytest.mark.parametrize("ec, el, name, scale", [
        (5e-324, 0.52, "(el / 8 ec)^(1/4)", "inf"),
        (2.5, 5e-324, "(8 ec / el)^(1/4)", "inf"),
        (1e300, 1e-12, "(8 ec / el)^(1/4)", "inf"),
        (1e-300, 1e300, "(8 ec / el)^(1/4)", "0.0"),
    ])
    def test_zero_point_scales_must_be_finite_and_positive(self, ec, el, name, scale):
        message = (f"zero-point scale {name} must be finite and > 0, "
                   f"got {scale} for ec={ec}, el={el}")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FluxoniumParams(ej=9.0, ec=ec, el=el)


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
                          _ladder_ops(p.ec, p.el, n)[1])
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12
        s = spectrum_at(p, flux)
        assert np.max(np.abs(np.array(s.levels[1:]) - want[0])) <= 1e-12
        assert np.max(np.abs(np.array([s.t12, s.t13, s.t23]) - want[1])) <= 1e-12


def complex_lowest_three(p, flux, size):
    """The lowest three eigenvalues of H(f) and (t12, t13, t23) among
    their states, from numpy's ``eigh`` of H(f) made complex."""
    w, v = np.linalg.eigh(build_device_hamiltonian(p, flux, basis_size=size).astype(complex))
    states = v[:, :3]
    t = np.abs(states.conj().T @ _ladder_ops(p.ec, p.el, size)[1] @ states)
    return w[:3], t[[0, 0, 1], [1, 2, 2]]


def complex_oracle(p, flux):
    """``spectrum_at`` from two complex eigendecompositions, at basis n and
    n + BASIS_STEP, applying both gates: ``(levels, (t12, t13, t23))``, or
    the BasisTooSmall message."""
    n, big = p.basis_size, p.basis_size + BASIS_STEP
    (w, t), (w_big, t_big) = (complex_lowest_three(p, flux, size) for size in (n, big))
    shift = np.max(np.abs(w - w_big))
    if shift > BASIS_CONVERGENCE_GHZ:
        return (f"lowest eigenvalues shift by {shift:.3e} GHz when the basis grows "
                f"from {n} to {big}")
    moved, largest = np.max(np.abs(t - t_big)), np.max(t)
    if moved > COUPLING_CONVERGENCE * largest:
        return (f"charge couplings move by {moved:.3e} when the basis grows from {n} to "
                f"{big}, above {COUPLING_CONVERGENCE:.0e} of the largest, {largest:.3e}")
    return (0.0, w[1] - w[0], w[2] - w[0]), tuple(t)


#: The stock device and the 11 other benchmark pool devices, d1 ... d11,
#: drawn from ej 8.5-9.5, ec 2.3-2.7, el 0.46-0.58 GHz.
BENCH_DEVICES = [DEVICE] + [FluxoniumParams(ej=ej, ec=ec, el=el) for ej, ec, el in (
    (8.735, 2.473, 0.55), (8.966, 2.603, 0.538), (9.134, 2.577, 0.579),
    (9.036, 2.339, 0.576), (9.045, 2.545, 0.533), (9.361, 2.523, 0.553),
    (9.428, 2.645, 0.517), (9.023, 2.392, 0.48), (8.625, 2.384, 0.545),
    (9.462, 2.348, 0.543), (9.1, 2.611, 0.558))]


#: The stock device and three benchmark pool devices (d1, d8, d10).
POOL_DEVICES = {"stock": DEVICE, "pool-d1": BENCH_DEVICES[1], "pool-d8": BENCH_DEVICES[8],
                "pool-d10": BENCH_DEVICES[10]}

#: A heavy device whose levels pass the 1e-6 GHz gate at basis 100 while
#: its couplings are unconverged: it printed g12 = 3.37 MHz against a
#: converged 3.15 before the couplings were gated.
HEAVY = FluxoniumParams(ej=20.0, ec=0.5, el=0.2)


class TestBasisCheckFromEigenvalues:
    # the check at basis n + BASIS_STEP is the solve at basis n, repeated:
    # one real eigendecomposition, whose eigenvalues and couplings agree
    # with a complex one, and so does every outcome of the two gates

    @pytest.mark.parametrize("p", POOL_DEVICES.values(), ids=POOL_DEVICES.keys())
    @pytest.mark.parametrize("flux", [0.0, 0.01, 0.25, 0.5])
    def test_check_solve_matches_complex_eigh(self, p, flux):
        big = p.basis_size + BASIS_STEP
        for got, want in zip(fluxonium._lowest_three(p, flux, big),
                             complex_lowest_three(p, flux, big)):
            assert got.shape == (3,) and np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("p", POOL_DEVICES.values(), ids=POOL_DEVICES.keys())
    @pytest.mark.parametrize("flux", [0.0, 0.01, 0.25, 0.5])
    def test_levels_and_couplings_match_a_complex_oracle(self, p, flux):
        levels, couplings = complex_oracle(p, flux)
        s = spectrum_at(p, flux)
        assert np.max(np.abs(np.array(s.levels) - levels)) <= 1e-12
        assert np.max(np.abs(np.array([s.t12, s.t13, s.t23]) - couplings)) <= 1e-12

    @pytest.mark.parametrize("p", POOL_DEVICES.values(), ids=POOL_DEVICES.keys())
    def test_basis_too_small_for_the_same_sizes(self, p):
        # each device passes from the mid-40s or -50s on, not monotonically;
        # at zero flux the coupling gate fails at a size the levels pass
        raised, gates = [], set()
        for n in range(30, 61):
            small = dataclasses.replace(p, basis_size=n)
            want = complex_oracle(small, 0.0)
            if isinstance(want, str):
                with pytest.raises(BasisTooSmall) as err:
                    spectrum_at(small, 0.0)
                assert str(err.value) == want
                raised.append(n)
                gates.add(want.split()[0])
            else:
                s = spectrum_at(small, 0.0)
                assert np.max(np.abs(np.array(s.levels) - want[0])) <= 1e-12
        assert raised[0] == 30 and 45 < max(raised) < 60
        assert gates == {"lowest", "charge"}

    def test_unconverged_couplings_name_the_first_failing_flux(self):
        # at flux 0.01 the levels pass their gate and the couplings do not;
        # 100 more basis states converge them
        with pytest.raises(BasisTooSmall, match=r"^at flux=0\.01: charge couplings move by "
                                                r"1\.68\de-07 when the basis grows from 100 to 120"):
            flux_sweep(HEAVY, STOCK_GRID)
        assert complex_oracle(HEAVY, 0.01).startswith("charge couplings move by 1.68")
        spectrum_at(dataclasses.replace(HEAVY, basis_size=200), 0.01)


@pytest.mark.parametrize("p", BENCH_DEVICES, ids=[f"d{i}" for i in range(12)])
def test_levels_match_an_extrapolated_realspace_oracle(p):
    # an independent discretization: the real-space finite-difference
    # levels at spacing dx and dx / 2 (2049 and 4097 points on one span),
    # Richardson-extrapolated past their O(dx^2) error, which alone is
    # up to 1.5e-4 GHz at 2048 points
    for flux in (0.0, 0.08, 0.25, 0.5):
        coarse, fine = (np.array(realspace_levels(p, flux, npts)) for npts in (2049, 4097))
        oracle = (4.0 * fine - coarse) / 3.0
        s = spectrum_at(p, flux)
        assert np.max(np.abs(np.array([s.w10, s.w20]) - oracle)) <= 1e-7


def test_stdout_does_not_depend_on_blas_threads(tmp_path):
    # the CSV cells do, in their last bits, at a thread count the caller
    # sets: both real ``eigh`` solves, at basis n and n + 20, reduce H(f)
    # to tridiagonal form with threaded BLAS (README "Conventions"); the
    # basis-n one reaches the CSV, the other only the two gates, whose
    # bounds sit far above those bits; on a single-CPU host every thread
    # count runs one thread
    argv = [sys.executable, "-m", "delta_eita.cli",
            "--config", str(ROOT / "configs" / "fluxonium.ini"), "--out", "out"]
    stdout = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
            **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                            threads))
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        stdout[threads] = proc.stdout
    assert stdout["1"].startswith("fluxonium n=50 ") and "balanced_bias=" in stdout["1"]
    assert stdout["2"] == stdout["1"]


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


#: The stock flux grid of ``configs/fluxonium.ini``.
STOCK_GRID = np.linspace(0.01, 0.5, 50)


def synthetic(imbalance):
    """A ``spectrum_at`` stand-in whose t12 - t23 is ``imbalance(flux)``."""

    def spectrum(p, flux):
        spectrum.calls += 1
        if spectrum.calls > 1000:
            raise AssertionError("more than 1000 calls")
        f = imbalance(flux)
        return FluxoniumSpectrum(flux=float(flux), levels=(0.0, 1.0, 2.0),
                                 t12=max(f, 0.0), t13=1.0, t23=max(-f, 0.0))

    spectrum.calls = 0
    return spectrum


def tight_root(p, lo, hi):
    """Root of t12 - t23 on a sign-changing [lo, hi] by plain bisection to
    a 1e-13 bracket: an oracle independent of the refinement."""

    def imbalance(flux):
        s = spectrum_at(p, flux)
        return s.t12 - s.t23

    f_lo = imbalance(lo)
    assert (f_lo < 0.0) != (imbalance(hi) < 0.0)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if (imbalance(mid) < 0.0) == (f_lo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sign_change_cells(spectra):
    f = [s.t12 - s.t23 for s in spectra]
    return [k for k in range(len(f) - 1) if (f[k] < 0.0) != (f[k + 1] < 0.0)]


class TestBalancedBias:
    def test_synthetic_root_at_quarter(self, monkeypatch):
        # engineered imbalance antisymmetric about 0.25
        spectrum = synthetic(lambda f: np.sin(2.0 * np.pi * (f - 0.25)))
        ends = [spectrum(DEVICE, 0.0), spectrum(DEVICE, 0.45)]
        monkeypatch.setattr(fluxonium, "spectrum_at", spectrum)
        root = find_balanced_bias(DEVICE, ends)
        assert abs(root.flux - 0.25) <= BIAS_TOLERANCE
        assert spectrum.calls - 2 <= 10

    def test_refinement_stops_at_adjacent_floats(self, monkeypatch):
        # at 3e4 the float spacing, 3.6e-12, exceeds the 1e-12 bracket
        # width, so only adjacent ends stop the step imbalance
        step = 30000.3
        spectrum = synthetic(lambda f: -1.0 if f <= step else 1.0)
        ends = [spectrum(DEVICE, 0.0), spectrum(DEVICE, 1e5)]
        monkeypatch.setattr(fluxonium, "spectrum_at", spectrum)
        root = find_balanced_bias(DEVICE, ends)
        assert abs(root.flux - step) <= np.spacing(step) and np.spacing(step) > BIAS_TOLERANCE
        assert spectrum.calls < 100

    def test_exact_zero_at_grid_point_is_returned_as_is(self, monkeypatch):
        spectrum = synthetic(lambda f: 1.0 - f)
        spectra = [spectrum(DEVICE, f) for f in (-1.0, 0.0, 1.0, 2.0)]
        monkeypatch.setattr(fluxonium, "spectrum_at", None)  # no evaluation
        assert find_balanced_bias(DEVICE, spectra) is spectra[2]
        assert find_balanced_bias(DEVICE, spectra[:3]) is spectra[2]
        assert find_balanced_bias(DEVICE, spectra[::-1]) is spectra[2]  # a decreasing grid

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange, match=r"^no sign change on \[0\.3, 0\.45\]: "
                                               r"f\(lo\)=-?\d\.\d{3}e[-+]\d\d, "
                                               r"f\(hi\)=-?\d\.\d{3}e[-+]\d\d$"):
            find_balanced_bias(DEVICE, flux_sweep(DEVICE, (0.3, 0.45)))

    def test_no_spectra_is_no_sign_change(self):
        with pytest.raises(NoSignChange, match=r"^no sign change: no spectra to search$"):
            find_balanced_bias(DEVICE, [])

    def test_device_crossing_near_expected_bias(self):
        s = find_balanced_bias(DEVICE, flux_sweep(DEVICE, (0.01, 0.2)))
        assert 0.0 < s.flux < 0.2
        assert s == spectrum_at(DEVICE, s.flux)
        assert s.t12 == pytest.approx(s.t23, abs=1e-12)
        # contingent on the literature device energies: close to 0.08
        assert s.flux == pytest.approx(0.08, abs=0.02)

    @pytest.mark.parametrize("energies, printed", [
        ((9.0, 2.5, 0.52), "0.07657"),     # stock, bench pool d0
        ((9.045, 2.545, 0.533), "0.07485"),  # pool d5: 0.07484 by the 1e-5 bisection
        ((9.023, 2.392, 0.48), "0.08954"),   # pool d8: 0.08953 by the 1e-5 bisection
    ])
    def test_bias_is_the_correctly_rounded_root(self, energies, printed, spectrum_at_calls):
        p = FluxoniumParams(*energies)
        spectra = flux_sweep(p, STOCK_GRID)
        [cell] = sign_change_cells(spectra)
        spectrum_at_calls.calls = 0
        s = find_balanced_bias(p, spectra)
        assert spectrum_at_calls.calls <= 10
        root = tight_root(p, STOCK_GRID[cell], STOCK_GRID[cell + 1])
        assert abs(s.flux - root) <= BIAS_TOLERANCE
        assert f"{s.flux:.5f}" == f"{root:.5f}" == printed

    def test_two_roots_in_range(self, spectrum_at_calls):
        # t12 = t23 twice: the ends of the range have the same sign
        p = FluxoniumParams(ej=6.0, ec=1.0, el=0.8)
        spectra = flux_sweep(p, STOCK_GRID)
        cells = sign_change_cells(spectra)
        assert [STOCK_GRID[k] for k in cells] == pytest.approx([0.05, 0.30], abs=0.01)
        spectrum_at_calls.calls = 0
        roots = [find_balanced_bias(p, spectra[k:k + 2]) for k in cells]
        assert spectrum_at_calls.calls <= 10 * len(cells)
        assert find_balanced_bias(p, spectra) == roots[0]
        for k, s in zip(cells, roots):
            assert abs(s.flux - tight_root(p, STOCK_GRID[k], STOCK_GRID[k + 1])) <= BIAS_TOLERANCE


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
        balanced = find_balanced_bias(DEVICE, flux_sweep(DEVICE, STOCK_GRID))
        t_ref = spectrum_at(DEVICE, 0.0).t12
        est = scale_decay_rates(11.0, t_ref, balanced)
        assert est.gamma13 == pytest.approx(25.0, rel=1.0)
        assert est.gamma12 == pytest.approx(2.6, rel=1.0)
        assert est.gamma23 == pytest.approx(2.6, rel=1.0)

    def test_rejects_bad_reference(self):
        s = spectrum_at(DEVICE, 0.08)
        for gamma_ref, t_ref in ((0.0, 1.0), (1.0, 0.0), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError):
                scale_decay_rates(gamma_ref, t_ref, s)


#: Input checks: each call, the exception type it raises and its message.
INPUT_CHECKS = [
    pytest.param(lambda: flux_sweep(DEVICE, []), ValidationError,
                 "flux grid must be a nonempty 1-d sequence", id="flux-sweep-empty-grid"),
    pytest.param(lambda: flux_sweep(DEVICE, [[0.0, 0.1]]), ValidationError,
                 "flux grid must be a nonempty 1-d sequence", id="flux-sweep-2d-grid"),
    pytest.param(lambda: FluxoniumSpectrum(0.0, (0.0, 2.0, 1.0), 0.1, 0.1, 0.1), ValueError,
                 "levels must be ascending", id="spectrum-descending-levels"),
    pytest.param(lambda: FluxoniumSpectrum(0.0, (0.0, 1.0, 2.0), -0.1, 0.1, 0.1), ValueError,
                 "t12 must be >= 0", id="spectrum-negative-t12"),
    pytest.param(lambda: FluxoniumSpectrum(0.0, (0.0, 1.0, 2.0), 0.1, -0.1, 0.1), ValueError,
                 "t13 must be >= 0", id="spectrum-negative-t13"),
    pytest.param(lambda: FluxoniumSpectrum(0.0, (0.0, 1.0, 2.0), 0.1, 0.1, -0.1), ValueError,
                 "t23 must be >= 0", id="spectrum-negative-t23"),
    pytest.param(lambda: DecayEstimate(-1.0, 1.0, 1.0), ValueError, "gamma12 must be >= 0",
                 id="decay-negative-gamma12"),
    pytest.param(lambda: DecayEstimate(1.0, -1.0, 1.0), ValueError, "gamma13 must be >= 0",
                 id="decay-negative-gamma13"),
    pytest.param(lambda: DecayEstimate(1.0, 1.0, -1.0), ValueError, "gamma23 must be >= 0",
                 id="decay-negative-gamma23"),
]


@pytest.mark.parametrize("call, error, message", INPUT_CHECKS)
def test_input_check(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert (type(got.value), str(got.value)) == (error, message)


def test_flux_sweep_error_carries_flux():
    cramped = FluxoniumParams(ej=30.0, ec=0.3, el=0.1, basis_size=30)
    with pytest.raises(BasisTooSmall, match="at flux=0.4"):
        flux_sweep(cramped, [0.4])


def flux_free_hamiltonian(p, n):
    """h_osc - ej cos(phi), formed term by term from the ladder operators,
    outside the cache."""
    phi, k = _ladder_ops(p.ec, p.el, n)
    h_osc = 4.0 * p.ec * (k @ k.T) + 0.5 * p.el * (phi @ phi)
    w, v = np.linalg.eigh(phi)
    cos_phi = (v * np.cos(w)) @ v.T
    return 0.5 * (h_osc + h_osc.T) - p.ej * (0.5 * (cos_phi + cos_phi.T))


def dense_hamiltonian(h0, p, flux, n):
    """H(f) with the ladder operators formed per call and the flux term
    subtracted as a dense matrix, h0 - c phi."""
    return h0 - (2.0 * np.pi * flux * p.el) * _ladder_ops(p.ec, p.el, n)[0]


def spectrum_bytes(flux, levels, t):
    """The floats of a FluxoniumSpectrum, as bytes: +0.0 and -0.0 differ."""
    return np.array([flux, *levels, *t], dtype=float).tobytes()


class TestCachedOperators:
    # each basis size's operators are built once; a flux bias subtracts
    # phi's band from the cached h0 and gives the dense form's bytes

    @pytest.mark.parametrize("p", BENCH_DEVICES + [TestHarmonicLimit.TINY],
                             ids=[f"d{i}" for i in range(12)] + ["harmonic"])
    def test_same_bytes_as_the_dense_flux_term(self, p):
        n, big = p.basis_size, p.basis_size + BASIS_STEP
        h0 = {size: flux_free_hamiltonian(p, size) for size in (n, big)}
        for flux in [0.0, -0.0, 0.13, -0.13, *STOCK_GRID]:
            for size in (n, big):
                assert (build_device_hamiltonian(p, flux, basis_size=size).tobytes()
                        == dense_hamiltonian(h0[size], p, flux, size).tobytes())
            w, v = np.linalg.eigh(dense_hamiltonian(h0[n], p, flux, n))
            t = np.abs(v[:, :3].T @ _ladder_ops(p.ec, p.el, n)[1] @ v[:, :3])
            s = spectrum_at(p, flux)
            assert (spectrum_bytes(s.flux, s.levels, (s.t12, s.t13, s.t23))
                    == spectrum_bytes(flux, (0.0, float(w[1] - w[0]), float(w[2] - w[0])),
                                      t[[0, 0, 1], [1, 2, 2]]))

    def test_an_entry_holds_two_read_only_matrices(self):
        ops = fluxonium._flux_free_hamiltonian(DEVICE.ec, DEVICE.el, DEVICE.ej, 100)
        assert [a.shape for a in ops] == [(100, 100), (100, 100), (99,)]
        assert not any(a.flags.writeable for a in ops)
        assert np.array_equal(ops.k, _ladder_ops(DEVICE.ec, DEVICE.el, 100)[1])
        h = build_device_hamiltonian(DEVICE, 0.1)
        assert h.flags.writeable and not np.shares_memory(h, ops.h0)

    @pytest.mark.parametrize("energies, flux", [
        ((9.0, 1e307, 1e307), 0.0),   # 4 ec k k^T overflows h0
        ((9.0, 2.5, 0.52), 1e308),    # 2 pi flux el overflows
    ], ids=["h0", "flux-term"])
    def test_overflow_raises_on_a_first_and_a_cached_call(self, energies, flux):
        p = FluxoniumParams(*energies)
        fluxonium._flux_free_hamiltonian.cache_clear()
        for hits in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvariantViolation, match=r"^device Hamiltonian is not "
                                                             r"finite: energies or flux overflow$"):
                    spectrum_at(p, flux)
            info = fluxonium._flux_free_hamiltonian.cache_info()
            assert (info.hits, info.misses) == (hits, 1)

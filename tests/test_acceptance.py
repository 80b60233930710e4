"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4b asks the narrow-dip width estimate to hold at Omega23 = 3,
where the window lies between split peaks; no correct program meets its
bound, so it keeps the stated bound and fails honestly, with the measured
numbers in the printed detail.  Criteria 7b (closed form vs exact
coherence) and 8a (Kramers-Kronig residual of the response) describe
weak-probe (linear) response: they assert their bounds at
Omega12 = Omega13 = 0.05 and print the stock-drive (0.2) figure, which the
bound does not cover, in the detail line.  See also the Verification
section of the README.
"""

import time
from pathlib import Path

from delta_eita import verify
from delta_eita.cli import main

REPO = Path(__file__).resolve().parent.parent

_SUITE_START = time.perf_counter()


def report(criterion: str, result: verify.CheckResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {criterion} [{result.name}] {status}: {result.detail}")
    assert result.passed, f"{criterion}: {result.detail}"


def test_criterion_01_oracle_equivalence():
    report("1 steady-state vs long-time evolution", verify.check_steady_vs_longtime())


def test_criterion_02_invariant_suite():
    report("2 invariant suite", verify.check_invariant_suite())


def test_criterion_03_gain_sandwich_shape():
    report("3 window between absorption and gain", verify.check_gain_sandwich_profile())


def test_criterion_04_split_peaks():
    report("4a split-peak symmetry", verify.check_autler_townes_symmetry())


def test_criterion_04_window_width_formula():
    report("4b window width vs narrow-dip estimate", verify.check_window_width_formula())


def test_criterion_05_population_inversion():
    report("5 inversion positive for all profiles", verify.check_population_inversion())


def test_criterion_06_phase_mirror():
    report("6a loop-phase pi mirror", verify.check_phase_mirror())


def test_criterion_06_gain_window():
    report("6b loop-phase 3pi/2 gain window", verify.check_phase_gain_window())


def test_criterion_06_plain_absorption():
    report("6c loop-phase pi/2 plain absorption", verify.check_phase_plain_absorption())


def test_criterion_07_mirror_identity():
    report("7a closed-form mirror identity", verify.check_closed_form_mirror_identity())


def test_criterion_07_tracks_full_solution():
    report("7b closed form tracks full solution", verify.check_closed_form_tracks_full())


def test_criterion_08_kramers_kronig_response():
    report("8a causality residual of the response", verify.check_kramers_kronig_response())


def test_criterion_08_kramers_kronig_lorentzian():
    report("8b causality residual of the Lorentzian pair",
           verify.check_kramers_kronig_lorentzian())


def test_criterion_09_fluxonium_limits():
    report("9a fluxonium limits and oracles", verify.check_fluxonium_limits())


def test_criterion_09_fluxonium_bias_and_rates():
    report("9b balanced bias and rate estimates", verify.check_fluxonium_bias_and_rates())


def test_criterion_10_inout_identities():
    report("10 input-output identities", verify.check_inout_identities())


def test_criterion_11_csv_determinism(tmp_path, capsys):
    # end-to-end: the shipped config through the CLI twice; --workers is
    # parsed and ignored, so this pins that passing 1 or 8 changes nothing
    config = REPO / "configs" / "eita.ini"
    out1 = tmp_path / "w1"
    out8 = tmp_path / "w8"
    code1 = main(["--config", str(config), "--out", str(out1), "--workers", "1"])
    code8 = main(["--config", str(config), "--out", str(out8), "--workers", "8"])
    capsys.readouterr()
    identical = (out1 / "eita.csv").read_bytes() == (out8 / "eita.csv").read_bytes()
    result = verify.CheckResult(
        name="csv_determinism",
        passed=(code1 == 0 and code8 == 0 and identical),
        detail=f"exit codes ({code1}, {code8}), byte-identical: {identical}")
    report("11 worker-count determinism", result)


def test_suite_runtime_budget():
    # the acceptance checks above must finish well inside the 2-minute budget
    elapsed = time.perf_counter() - _SUITE_START
    result = verify.CheckResult(
        name="runtime_budget", passed=elapsed < 120.0,
        detail=f"acceptance suite elapsed {elapsed:.1f}s (< 120s)")
    report("11 runtime budget", result)

"""The verify registry and its error guard."""

from delta_eita import verify
from delta_eita.errors import NoSignChange

#: Every check `--mode verify` prints, in order.
CHECK_NAMES = [
    "steady_vs_longtime_evolution",
    "state_and_generator_invariants",
    "gain_sandwich_profile",
    "eit_autler_townes_symmetry",
    "eit_window_width_formula",
    "population_inversion_positive",
    "loop_phase_mirror",
    "loop_phase_gain_window",
    "loop_phase_plain_absorption",
    "closed_form_mirror_identity",
    "closed_form_tracks_full",
    "kramers_kronig_response",
    "kramers_kronig_lorentzian",
    "fluxonium_limits",
    "fluxonium_bias_and_rates",
    "inout_identities",
    "csv_determinism",
]


def test_run_all_runs_every_check_once_in_order():
    assert [r.name for r in verify.run_all()] == CHECK_NAMES


def test_package_error_becomes_a_fail_result(monkeypatch):
    def no_bias(*args, **kwargs):
        raise NoSignChange("w21 - w10 does not change sign on [0.01, 0.2]")

    monkeypatch.setattr(verify, "find_balanced_bias", no_bias)
    result = verify.check_fluxonium_bias_and_rates()
    assert result == verify.CheckResult(
        "fluxonium_bias_and_rates", False,
        "raised NoSignChange: w21 - w10 does not change sign on [0.01, 0.2]")

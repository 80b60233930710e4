from pathlib import Path

import numpy as np
import pytest

from delta_eita import ParseError, ValidationError
from delta_eita.cli import main
from delta_eita.config import MAX_BASIS_SIZE, MAX_GRID_POINTS, dump_config, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_EIT = """\
[run]
mode = sweep

[atom]
units = gamma13
gamma12 = 0.1
gamma13 = 1.0
gamma23 = 0.1

[drives.d12]
magnitude = 0.0

[drives.d13]
magnitude = 0.2
detuning = 0.0

[drives.d23]
magnitude = 1.0
detuning = 0.0

[sweep]
lo = -2.0
hi = 2.0
points = 41

[output]
dir = out
basename = eit_min
"""


class TestParseConfig:
    def test_minimal_round_trip(self):
        cfg = parse_config(MINIMAL_EIT)
        again = parse_config(dump_config(cfg))
        assert again == cfg

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_config_round_trips(self, path):
        cfg = parse_config(path.read_text(encoding="utf-8"))
        assert parse_config(dump_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        bad = MINIMAL_EIT.replace("gamma23 = 0.1", "gamma23 = 0.1\ngama13 = 1.0")
        with pytest.raises(ParseError):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL_EIT + "\n[plotting]\nstyle = dark\n")

    def test_delta12_not_settable(self):
        bad = MINIMAL_EIT.replace("[drives.d12]\nmagnitude = 0.0",
                                  "[drives.d12]\nmagnitude = 0.0\ndetuning = 0.3")
        with pytest.raises(ValidationError, match="derived"):
            parse_config(bad)

    def test_single_point_sweep_rejected(self):
        bad = MINIMAL_EIT.replace("points = 41", "points = 1")
        with pytest.raises(ValidationError):
            parse_config(bad)

    def test_sizes_are_bounded_from_above(self):
        assert parse_config(MINIMAL_EIT.replace(
            "points = 41", f"points = {MAX_GRID_POINTS}")).grid_points == MAX_GRID_POINTS
        with pytest.raises(ValidationError, match=f"points <= {MAX_GRID_POINTS}"):
            parse_config(MINIMAL_EIT.replace("points = 41", f"points = {MAX_GRID_POINTS + 1}"))
        fluxonium = (CONFIG_DIR / "fluxonium.ini").read_text(encoding="utf-8")
        cfg = parse_config(fluxonium.replace("basis_size = 100", f"basis_size = {MAX_BASIS_SIZE}"))
        assert cfg.fluxonium.basis_size == MAX_BASIS_SIZE
        with pytest.raises(ValidationError, match=f"basis_size must be <= {MAX_BASIS_SIZE}"):
            parse_config(fluxonium.replace("basis_size = 100",
                                           f"basis_size = {MAX_BASIS_SIZE + 1}"))

    def test_negative_rate_rejected(self):
        bad = MINIMAL_EIT.replace("gamma12 = 0.1", "gamma12 = -0.1")
        with pytest.raises(ValidationError):
            parse_config(bad)

    def test_bad_number_is_parse_error(self):
        bad = MINIMAL_EIT.replace("gamma12 = 0.1", "gamma12 = fast")
        with pytest.raises(ParseError):
            parse_config(bad)

    def test_mhz_units_scale_rates(self):
        text = MINIMAL_EIT.replace("units = gamma13", "units = MHz")
        cfg = parse_config(text)
        assert cfg.dec.gamma13 == pytest.approx(2.0 * np.pi * 1.0)
        assert cfg.drives.d13.magnitude == pytest.approx(2.0 * np.pi * 0.2)
        assert cfg.grid_lo == pytest.approx(-2.0 * 2.0 * np.pi)

    def test_missing_mode_rejected(self):
        without = MINIMAL_EIT.replace("[run]\nmode = sweep\n", "")
        with pytest.raises(ValidationError):
            parse_config(without)
        assert parse_config(without, mode="steady").mode == "steady"


class TestMainModes:
    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_steady_prints_positive_inversion(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL_EIT.replace("mode = sweep", "mode = steady"))
        assert main(["--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "inversion=" in out
        assert float(out.split("inversion=")[1].split()[0]) > 0.0

    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL_EIT)
        out_dir = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out_dir), "--workers", "1"]) == 0
        csv = out_dir / "eit_min.csv"
        assert csv.exists()
        header = [l for l in csv.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "delta13,re_rho31,im_rho31,pop1,pop2,pop3,inversion"
        assert "class=" in capsys.readouterr().out

    def test_worker_counts_are_deterministic(self, tmp_path):
        # --workers is parsed and ignored; this pins that the flag changes
        # no CSV byte
        cfg = self.write(tmp_path, MINIMAL_EIT)
        one = tmp_path / "w1"
        many = tmp_path / "w4"
        assert main(["--config", cfg, "--out", str(one), "--workers", "1"]) == 0
        assert main(["--config", cfg, "--out", str(many), "--workers", "4"]) == 0
        assert (one / "eit_min.csv").read_bytes() == (many / "eit_min.csv").read_bytes()

    def test_evolve_writes_trajectory(self, tmp_path, capsys):
        text = MINIMAL_EIT.replace("mode = sweep", "mode = evolve")
        text += "\n[evolve]\nt = 5.0\ninitial = excited\n"
        cfg = self.write(tmp_path, text)
        out_dir = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out_dir)]) == 0
        lines = (out_dir / "eit_min.csv").read_text().splitlines()
        assert lines[0] == "t,pop1,pop2,pop3,re_rho31,im_rho31"
        assert len(lines) == 202

    def test_phase_sweep_writes_per_phase(self, tmp_path):
        text = MINIMAL_EIT.replace("mode = sweep", "mode = phase-sweep")
        text = text.replace("points = 41", "points = 41\nphases = 0.0,3.141592653589793")
        cfg = self.write(tmp_path, text)
        out_dir = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out_dir), "--workers", "1"]) == 0
        files = sorted(p.name for p in out_dir.glob("*.csv"))
        assert len(files) == 2

    def test_reflect_mode(self, tmp_path):
        cfg = self.write(tmp_path, (CONFIG_DIR / "reflect.ini").read_text()
                         .replace("points = 801", "points = 21"))
        out_dir = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out_dir), "--workers", "1"]) == 0
        lines = (out_dir / "reflect.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "delta13,re_aout,im_aout,homodyne_I,homodyne_Q"

    def test_fluxonium_mode(self, tmp_path, capsys):
        text = (CONFIG_DIR / "fluxonium.ini").read_text()
        text = text.replace("lo = 0.01\nhi = 0.5\npoints = 50",
                            "lo = 0.05\nhi = 0.12\npoints = 3")
        cfg = self.write(tmp_path, text)
        out_dir = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "balanced_bias=0.07" in out
        assert (out_dir / "fluxonium.csv").exists()

    def test_stock_fluxonium_summary(self, tmp_path, capsys):
        # the full stock sweep and bisection: a moved bisection midpoint or
        # coupling changes this line
        out_dir = tmp_path / "out"
        assert main(["--config", str(CONFIG_DIR / "fluxonium.ini"),
                     "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == (
            f"fluxonium n=50 csv={out_dir / 'fluxonium.csv'} balanced_bias=0.07657 "
            "decay_mhz=(g12=2.64,g13=25.4,g23=2.64)\n")

    def test_stock_phase_scan_summary(self, tmp_path, capsys):
        # min_inversion at pi/2 and 3pi/2 and the window centre at pi/2 are
        # mirror ties between +-delta decided in the last bit of the solve:
        # a solver that rounds differently can flip their signs
        out_dir = tmp_path / "out"
        assert main(["--config", str(CONFIG_DIR / "phase_scan.ini"),
                     "--out", str(out_dir)]) == 0
        tail = "split_estimate=[-0.5,+0.5] fwhm_estimate=1.009 csv="
        assert capsys.readouterr().out == "".join(
            f"phase-sweep phi={phi} n=801 {line} {tail}"
            f"{out_dir / f'phase_scan_phi{phi}.csv'}\n" for phi, line in [
                ("0.0000", "class=EITA peaks=[-0.5037:+0.2135 +0.2628:-0.03505 "
                           "+0.7721:+0.03426] window_center=+0.0343 fwhm=0.3997 "
                           "min_inversion=0.7249@-0.43"),
                ("1.5708", "class=ABSORPTION peaks=[-0.2794:+0.1988 +0:+0.1847 "
                           "+0.2794:+0.1988] window_center=-0.2794 fwhm=1.229 "
                           "min_inversion=0.8551@-0.43"),
                ("3.1416", "class=EITA peaks=[-0.7721:+0.03426 -0.2628:-0.03505 "
                           "+0.5037:+0.2135] window_center=-0.0343 fwhm=0.3997 "
                           "min_inversion=0.7249@+0.43"),
                ("4.7124", "class=AMPLIFICATION_WINDOW peaks=[-0.6462:+0.1492 "
                           "+0:-0.1241 +0.6462:+0.1492] window_center=+0 fwhm=0 "
                           "min_inversion=0.7782@-0.38"),
            ])

    def test_every_csv_cell_is_a_plain_float(self, tmp_path):
        # a numpy scalar's repr, e.g. np.float64(0.5), must not reach a CSV
        eit = MINIMAL_EIT + "\n[evolve]\nt = 1.0\n"
        texts = {
            "steady": eit.replace("mode = sweep", "mode = steady"),
            "sweep": eit,
            "phase-sweep": eit.replace("mode = sweep", "mode = phase-sweep")
                              .replace("points = 41", "points = 41\nphases = 0.0,1.5"),
            "evolve": eit.replace("mode = sweep", "mode = evolve"),
            "reflect": (CONFIG_DIR / "reflect.ini").read_text()
                       .replace("points = 801", "points = 21"),
            "fluxonium": (CONFIG_DIR / "fluxonium.ini").read_text()
                         .replace("lo = 0.01\nhi = 0.5\npoints = 50",
                                  "lo = 0.05\nhi = 0.12\npoints = 3"),
        }
        for mode, text in texts.items():
            cfg = self.write(tmp_path, text)
            out_dir = tmp_path / mode
            assert main(["--config", cfg, "--out", str(out_dir)]) == 0, mode
            csvs = list(out_dir.glob("*.csv"))
            assert mode == "steady" or csvs, mode
            for csv in csvs:
                rows = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
                for row in rows[1:]:
                    for cell in row.split(","):
                        float(cell)

    def test_dump_config_round_trips(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL_EIT)
        assert main(["--config", cfg, "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        assert parse_config(dumped) == parse_config(MINIMAL_EIT)

    def test_mode_override_flag(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL_EIT)
        assert main(["--config", cfg, "--mode", "steady"]) == 0
        assert "steady" in capsys.readouterr().out


class TestExitCodes:
    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_missing_file(self):
        assert main(["--config", "/nonexistent/run.ini"]) == 1

    def test_parse_error(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL_EIT + "\nnot-a-section\n")
        assert main(["--config", cfg]) == 1

    def test_validation_error(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL_EIT.replace("points = 41", "points = 1"))
        assert main(["--config", cfg]) == 2

    @pytest.mark.parametrize("config, old, new", [
        ("eita", "points = 801", "points = 100000000000"),
        ("fluxonium", "points = 50", "points = 100000000000"),
        ("fluxonium", "basis_size = 100", "basis_size = 1000000"),
    ], ids=["sweep-points", "flux-points", "basis-size"])
    def test_oversized_config_is_validation_error(self, tmp_path, capsys, config, old, new):
        # 8e11 bytes of grid or 8e12 bytes per operator: rejected, not allocated
        text = (CONFIG_DIR / f"{config}.ini").read_text(encoding="utf-8")
        cfg = self.write(tmp_path, text.replace(old, new))
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("validation error: ")
        assert not (tmp_path / "out").exists()

    def test_numerical_error(self, tmp_path):
        # disconnected level 3: degenerate steady state
        text = MINIMAL_EIT.replace("mode = sweep", "mode = steady")
        text = text.replace("gamma13 = 1.0", "gamma13 = 0.0")
        text = text.replace("gamma23 = 0.1", "gamma23 = 0.0")
        text = text.replace("[drives.d13]\nmagnitude = 0.2", "[drives.d13]\nmagnitude = 0.0")
        text = text.replace("[drives.d23]\nmagnitude = 1.0", "[drives.d23]\nmagnitude = 0.0")
        text = text.replace("[drives.d12]\nmagnitude = 0.0", "[drives.d12]\nmagnitude = 0.5")
        cfg = self.write(tmp_path, text)
        assert main(["--config", cfg]) == 3

    def test_evolve_overflow_is_numerical_error(self, tmp_path, capsys):
        # the propagator's powers overflow long before t = 1e60; with
        # warnings as errors, an overflow warning would fail this test
        text = (CONFIG_DIR / "eita.ini").read_text(encoding="utf-8")
        cfg = self.write(tmp_path, text + "\n[evolve]\nt = 1e60\n")
        assert main(["--config", cfg, "--mode", "evolve", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical error: propagator exp(L t) is not finite at t=5e+57\n"

    def test_overflowing_delta12_is_validation_error(self, tmp_path, capsys):
        # delta12 = delta13 - delta23 = -1e308 - 1e308 is not finite
        text = (MINIMAL_EIT.replace("[drives.d23]\nmagnitude = 1.0\ndetuning = 0.0",
                                    "[drives.d23]\nmagnitude = 1.0\ndetuning = 1e308")
                .replace("lo = -2.0\nhi = 2.0", "lo = -1e308\nhi = 0.0"))
        cfg = self.write(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "validation error: delta12 = delta13 - delta23 is not finite at delta13=-1e+308\n")

    @pytest.mark.parametrize("mode, prefix", [
        ("steady", ""), ("sweep", "at delta13=-2: "), ("evolve", "")])
    def test_overflowing_rates_are_numerical_errors(self, tmp_path, capsys, mode, prefix):
        # the rates of level 3 sum to 2e308 in the Liouvillian; with warnings
        # as errors, an overflow warning would fail this test
        text = MINIMAL_EIT.replace("gamma12 = 0.1\ngamma13 = 1.0\ngamma23 = 0.1",
                                   "gamma12 = 1e308\ngamma13 = 1e308\ngamma23 = 1e308")
        cfg = self.write(tmp_path, text)
        assert main(["--config", cfg, "--mode", mode, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            f"numerical error: {prefix}Liouvillian is not finite: rates or drives overflow\n")

    @pytest.mark.parametrize("text", [
        MINIMAL_EIT.replace("lo = -2.0", "lo = -inf"),
        MINIMAL_EIT.replace("hi = 2.0", "hi = inf"),
        MINIMAL_EIT.replace("mode = sweep", "mode = evolve") + "\n[evolve]\nt = inf\n",
        MINIMAL_EIT.replace("mode = sweep", "mode = evolve") + "\n[evolve]\nt = nan\n",
        MINIMAL_EIT.replace("mode = sweep", "mode = phase-sweep")
                   .replace("points = 41", "points = 41\nphases = 0.0,nan"),
        MINIMAL_EIT.replace("mode = sweep", "mode = reflect") + "\n[reflect]\na_in_re = nan\n",
    ], ids=["lo-inf", "hi-inf", "t-inf", "t-nan", "phases-nan", "a_in-nan"])
    def test_non_finite_input_is_validation_error(self, tmp_path, text):
        cfg = self.write(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_phases_sharing_a_csv_name_are_rejected(self, tmp_path, capsys):
        text = (MINIMAL_EIT.replace("mode = sweep", "mode = phase-sweep")
                .replace("points = 41", "points = 41\nphases = 0.00001,0.5,0.00002"))
        cfg = self.write(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "validation error: two phases would write one CSV, _phi0.0000\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, mode, message", [
        ("fluxonium", "sweep", "mode 'sweep' needs [atom] and all three [drives.*] sections"),
        ("eita", "fluxonium", "mode 'fluxonium' needs a [fluxonium] section"),
    ], ids=["fluxonium-as-sweep", "eita-as-fluxonium"])
    def test_mode_override_checks_its_sections(self, tmp_path, capsys, config, mode, message):
        argv = ["--config", str(CONFIG_DIR / f"{config}.ini"), "--mode", mode,
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        MINIMAL_EIT.replace("mode = sweep", "mode = sweep\nworkers = 2"),
        MINIMAL_EIT + "\n[evolve]\ndt = 0.001\n",
    ], ids=["run-workers", "evolve-dt"])
    def test_removed_keys_are_parse_errors(self, tmp_path, text):
        assert main(["--config", self.write(tmp_path, text)]) == 1


class TestUnitsOverride:
    def test_units_flag_rescales(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL_EIT.replace("mode = sweep", "mode = steady"),
                        encoding="utf-8")
        assert main(["--config", str(path), "--dump-config"]) == 0
        plain = capsys.readouterr().out
        assert main(["--config", str(path), "--units", "MHz", "--dump-config"]) == 0
        scaled = capsys.readouterr().out
        cfg_plain = parse_config(plain)
        cfg_scaled = parse_config(scaled)
        assert cfg_scaled.dec.gamma13 == pytest.approx(
            2.0 * np.pi * cfg_plain.dec.gamma13)

    @pytest.mark.parametrize("spelling", ["UNITS = MHz", "units: MHz"])
    def test_flag_replaces_any_spelling_of_the_key(self, tmp_path, capsys, spelling):
        # configparser folds key case and accepts ':', so both name [atom] units
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL_EIT.replace("units = gamma13", spelling), encoding="utf-8")
        for units in ("gamma13", "MHz"):
            assert main(["--config", str(path), "--units", units, "--dump-config"]) == 0
            expected = MINIMAL_EIT.replace("units = gamma13", f"units = {units}")
            assert capsys.readouterr().out == dump_config(parse_config(expected))

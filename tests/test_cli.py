import configparser
import contextlib
import dataclasses
import functools
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delta_eita import ParseError, ValidationError, flux_sweep, fluxonium, lindblad, numerics
from delta_eita.cli import main
from delta_eita.config import (
    INITIAL_STATES,
    MAX_BASIS_SIZE,
    MAX_GRID_POINTS,
    MODES,
    UNITS,
    _SCHEMA,
    _bool,
    _floats,
    dump_config,
    parse_config,
)
from delta_eita.fluxonium import write_fluxonium_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
#: ``--dump-config`` of each shipped config, as ``<config>.<units>.ini``.
DUMP_DIR = Path(__file__).resolve().parent / "dumps"

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


FLUXONIUM = (CONFIG_DIR / "fluxonium.ini").read_text(encoding="utf-8")


def edit(text, old, new):
    assert old in text, old
    return text.replace(old, new)


def case(name, text, error, message, **overrides):
    return pytest.param(text, overrides, error, message, id=name)


#: Every way parse_config turns a config down, with the exact exception
#: type and message; ``None`` marks a config that must be accepted.
CONFIG_OUTCOMES = [
    case("duplicate-section", MINIMAL_EIT + "\n[run]\nmode = steady\n", ParseError,
         "malformed config: While reading from '<string>' [line 30]: "
         "section 'run' already exists"),
    case("duplicate-key", edit(MINIMAL_EIT, "gamma12 = 0.1", "gamma12 = 0.1\ngamma12 = 0.2"),
         ParseError, "malformed config: While reading from '<string>' [line  7]: "
         "option 'gamma12' in section 'atom' already exists"),
    case("line-outside-section", "mode = sweep\n" + MINIMAL_EIT, ParseError,
         "malformed config: File contains no section headers.\n"
         "file: '<string>', line: 1\n'mode = sweep\\n'"),
    case("unknown-section", MINIMAL_EIT + "\n[plotting]\nstyle = dark\n", ParseError,
         "unknown section [plotting]"),
    case("unknown-key", edit(MINIMAL_EIT, "gamma23 = 0.1", "gamma23 = 0.1\ngama13 = 1.0"),
         ParseError, "unknown key 'gama13' in section [atom]"),
    case("unknown-key-from-default", "[DEFAULT]\nphase = 0.5\n\n" + MINIMAL_EIT, ParseError,
         "unknown key 'phase' in section [run]"),
    case("not-a-number", edit(MINIMAL_EIT, "gamma12 = 0.1", "gamma12 = fast"), ParseError,
         "[atom] gamma12 = 'fast' is not a number"),
    case("points-not-an-integer", edit(MINIMAL_EIT, "points = 41", "points = 8.5"), ParseError,
         "[sweep] points = '8.5' is not an integer"),
    case("basis-size-not-an-integer", edit(FLUXONIUM, "basis_size = 100", "basis_size = 1e3"),
         ParseError, "[fluxonium] basis_size = '1e3' is not an integer"),
    case("basis-size-not-whole", edit(FLUXONIUM, "basis_size = 100", "basis_size = 50.5"),
         ParseError, "[fluxonium] basis_size = '50.5' is not an integer"),
    case("not-a-boolean", MINIMAL_EIT + "\n[reflect]\ntie_probe_to_input = maybe\n",
         ParseError, "[reflect] tie_probe_to_input = 'maybe' is not a boolean"),
    case("empty-boolean", MINIMAL_EIT + "\n[reflect]\ntie_probe_to_input =\n",
         ParseError, "[reflect] tie_probe_to_input = '' is not a boolean"),
    case("not-a-float-list", edit(MINIMAL_EIT, "points = 41", "points = 41\nphases = 1,x"),
         ParseError, "[sweep] phases = '1,x' is not a float list"),
    case("gamma12-inf", edit(MINIMAL_EIT, "gamma12 = 0.1", "gamma12 = inf"), ValidationError,
         "[atom] gamma12 = 'inf' is not finite"),
    case("lo-nan", edit(MINIMAL_EIT, "lo = -2.0", "lo = nan"), ValidationError,
         "[sweep] lo = 'nan' is not finite"),
    case("phases-inf", edit(MINIMAL_EIT, "points = 41", "points = 41\nphases = 0.0,inf"),
         ValidationError, "[sweep] phases = '0.0,inf' is not finite"),
    case("missing-mode", edit(MINIMAL_EIT, "[run]\nmode = sweep\n", ""), ValidationError,
         "missing [run] mode"),
    case("empty-mode", edit(MINIMAL_EIT, "mode = sweep", "mode ="), ValidationError,
         f"mode must be one of {MODES}, got ''"),
    case("unknown-mode", edit(MINIMAL_EIT, "mode = sweep", "mode = scan"), ValidationError,
         f"mode must be one of {MODES}, got 'scan'"),
    case("unknown-mode-override", MINIMAL_EIT, ValidationError,
         f"mode must be one of {MODES}, got 'scan'", mode="scan"),
    case("mode-on-continuation-line", edit(MINIMAL_EIT, "mode = sweep", "mode =\n  steady"),
         None, None),
    case("unknown-units", edit(MINIMAL_EIT, "units = gamma13", "units = GHz"), ValidationError,
         "units must be one of ('gamma13', 'MHz'), got 'GHz'"),
    case("unknown-units-override", MINIMAL_EIT, ValidationError,
         "units must be one of ('gamma13', 'MHz'), got 'GHz'", units="GHz"),
    case("d12-detuning", edit(MINIMAL_EIT, "[drives.d12]\nmagnitude = 0.0",
                              "[drives.d12]\nmagnitude = 0.0\ndetuning = 0.3"),
         ValidationError, "delta12 is derived from delta13 - delta23, not settable "
         "([drives.d12] detuning)"),
    case("d12-detuning-unparsable", edit(MINIMAL_EIT, "[drives.d12]\nmagnitude = 0.0",
                                         "[drives.d12]\nmagnitude = 0.0\ndetuning = x"),
         ValidationError, "delta12 is derived from delta13 - delta23, not settable "
         "([drives.d12] detuning)"),
    case("points-below-2", edit(MINIMAL_EIT, "points = 41", "points = 1"), ValidationError,
         "sweep needs points >= 2, got 1"),
    case("points-above-max",
         edit(MINIMAL_EIT, "points = 41", f"points = {MAX_GRID_POINTS + 1}"), ValidationError,
         f"sweep needs points <= {MAX_GRID_POINTS}, got {MAX_GRID_POINTS + 1}"),
    case("lo-not-below-hi", edit(MINIMAL_EIT, "lo = -2.0", "lo = 2.0"), ValidationError,
         "sweep needs lo < hi, got [2.0, 2.0]"),
    case("empty-phases", edit(edit(MINIMAL_EIT, "mode = sweep", "mode = phase-sweep"),
                              "points = 41", "points = 41\nphases = ,"),
         ValidationError, "phase-sweep needs a nonempty [sweep] phases list"),
    case("negative-t", edit(MINIMAL_EIT, "mode = sweep", "mode = evolve")
         + "\n[evolve]\nt = -1.0\n", ValidationError, "evolve t must be >= 0, got -1.0"),
    case("unknown-initial", MINIMAL_EIT + "\n[evolve]\ninitial = thermal\n", ValidationError,
         "evolve initial must be one of ('ground', 'mixed', 'excited'), got 'thermal'"),
    case("fluxonium-without-section", MINIMAL_EIT, ValidationError,
         "mode 'fluxonium' needs a [fluxonium] section", mode="fluxonium"),
    case("basis-size-above-max",
         edit(FLUXONIUM, "basis_size = 100", f"basis_size = {MAX_BASIS_SIZE + 1}"),
         ValidationError, f"basis_size must be <= {MAX_BASIS_SIZE}, got {MAX_BASIS_SIZE + 1}"),
    case("basis-size-below-30", edit(FLUXONIUM, "basis_size = 100", "basis_size = 29"),
         ValidationError, "basis_size must be >= 30, got 29"),
    case("ej-zero", edit(FLUXONIUM, "ej = 9.0", "ej = 0"), ValidationError,
         "ej must be > 0, got 0.0"),
    case("gamma-ref-zero", edit(FLUXONIUM, "gamma_ref_mhz = 11.0", "gamma_ref_mhz = 0"),
         ValidationError, "gamma_ref_mhz must be > 0, got 0.0"),
    case("negative-rate", edit(MINIMAL_EIT, "gamma12 = 0.1", "gamma12 = -0.1"),
         ValidationError, "gamma12 must be a finite rate >= 0, got -0.1"),
    case("negative-magnitude", edit(MINIMAL_EIT, "magnitude = 0.2", "magnitude = -0.2"),
         ValidationError, "drive magnitude must be >= 0, got -0.2"),
    case("no-decay-to-ground", edit(edit(MINIMAL_EIT, "gamma12 = 0.1", "gamma12 = 0"),
                                    "gamma13 = 1.0", "gamma13 = 0.0"),
         ValidationError, "at least one of gamma12, gamma13 must be > 0"),
    case("missing-drives-section",
         edit(MINIMAL_EIT, "[drives.d23]\nmagnitude = 1.0\ndetuning = 0.0\n", ""),
         ValidationError, "mode 'sweep' needs [atom] and all three [drives.*] sections"),
    # fluxonium reads no atom value, so a partial [atom] is never parsed
    case("fluxonium-ignores-partial-atom", FLUXONIUM + "\n[atom]\ngamma12 = garbage\n",
         None, None),
]


#: A value other than the default for every _SCHEMA key, except
#: [drives.d12] detuning, which a config may not set.
EVERY_KEY = {
    "run": {"mode": "reflect"},
    "atom": {"units": "MHz", "gamma12": "0.2", "gamma13": "0.9", "gamma23": "0.3",
             "gphi2": "0.05", "gphi3": "0.07"},
    "drives.d12": {"magnitude": "0.25", "phase": "0.5"},
    "drives.d13": {"magnitude": "0.15", "phase": "1.5", "detuning": "0.1"},
    "drives.d23": {"magnitude": "1.2", "phase": "2.5", "detuning": "-0.2"},
    "sweep": {"lo": "-3.0", "hi": "3.5", "points": "61", "phases": "0.25,1.25"},
    "evolve": {"t": "4.0", "initial": "mixed"},
    "fluxonium": {"ej": "8.0", "ec": "2.0", "el": "0.6", "basis_size": "60",
                  "gamma_ref_mhz": "9.0"},
    "reflect": {"a_in_re": "0.5", "a_in_im": "-0.25", "tie_probe_to_input": "true"},
    "output": {"dir": "results", "basename": "every_key"},
}


def render(sections):
    return "\n".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                     for name, keys in sections.items())


class TestParseConfig:
    @pytest.mark.parametrize("text, overrides, error, message", CONFIG_OUTCOMES)
    def test_outcome_table(self, text, overrides, error, message):
        if error is None:
            parse_config(text, **overrides)
            return
        with pytest.raises(error) as got:
            parse_config(text, **overrides)
        assert (type(got.value), str(got.value)) == (error, message)

    def test_every_schema_key_is_read_and_dumped(self):
        keys = {(name, key) for name in EVERY_KEY for key in EVERY_KEY[name]}
        assert {(name, key) for name in _SCHEMA for key in _SCHEMA[name]} - keys == {
            ("drives.d12", "detuning")}
        for name, key in keys:
            convert, default, _ = _SCHEMA[name][key]
            assert convert(EVERY_KEY[name][key]) != default, (name, key)
        cfg = parse_config(render(EVERY_KEY))
        fields = {(name, key): _SCHEMA[name][key][2].split(".") for name, key in keys}
        assert [k for k, field in sorted(fields.items())
                if functools.reduce(getattr, field, cfg) is None] == []
        dump = dump_config(cfg)
        # the dump is in internal units, so it re-parses as a gamma13 config
        assert parse_config(dump) == dataclasses.replace(cfg, units="gamma13")
        dumped = configparser.ConfigParser(interpolation=None)
        dumped.read_string(dump)
        assert [k for k in sorted(keys) if not dumped.has_option(*k)] == []
        assert dumped.get("atom", "units") == "gamma13"
        # each key reaches the RunConfig at its field: back at its default,
        # the field differs
        for name, key in keys:
            without = {n: {k: v for k, v in kv.items() if (n, k) != (name, key)}
                       for n, kv in EVERY_KEY.items()}
            if (name, key) == ("run", "mode"):
                with pytest.raises(ValidationError, match="missing"):
                    parse_config(render(without))
            else:
                field = fields[name, key]
                assert functools.reduce(getattr, field, parse_config(render(without))) != \
                    functools.reduce(getattr, field, cfg), (name, key)

    def test_minimal_round_trip(self):
        cfg = parse_config(MINIMAL_EIT)
        again = parse_config(dump_config(cfg))
        assert again == cfg

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_config_round_trips(self, path):
        cfg = parse_config(path.read_text(encoding="utf-8"))
        assert parse_config(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("units", UNITS)
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_config_dump_bytes(self, path, units, capsys):
        # a round trip passes whatever the order of sections and keys;
        # these bytes also pin the order and the spelling of each value
        assert main(["--config", str(path), "--units", units, "--dump-config"]) == 0
        expected = (DUMP_DIR / f"{path.stem}.{units}.ini").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

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
        cfg = parse_config(FLUXONIUM.replace("basis_size = 100", f"basis_size = {MAX_BASIS_SIZE}"))
        assert cfg.fluxonium.basis_size == MAX_BASIS_SIZE
        with pytest.raises(ValidationError, match=f"basis_size must be <= {MAX_BASIS_SIZE}"):
            parse_config(FLUXONIUM.replace("basis_size = 100",
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

    def test_evolve_csv_does_not_depend_on_the_gauge(self, tmp_path):
        # phi12 = phi13 = 1 is the stock loop phase 0 in another gauge: the
        # raw rho31 turns by exp(-i phi13), the reported rho31 exp(i phi13)
        # does not, and the populations never do
        stock = (CONFIG_DIR / "eita.ini").read_text(encoding="utf-8").replace(
            "mode = sweep", "mode = evolve") + "\n[evolve]\nt = 5.0\n"
        shifted = stock.replace("magnitude = 0.2\nphase = 0.0",
                                "magnitude = 0.2\nphase = 1.0")
        assert shifted.count("phase = 1.0") == 2
        tables = []
        for name, text in (("stock", stock), ("shifted", shifted)):
            assert main(["--config", self.write(tmp_path, text),
                         "--out", str(tmp_path / name)]) == 0
            tables.append(np.loadtxt(tmp_path / name / "eita.csv", delimiter=",",
                                     skiprows=1))
        assert np.max(np.abs(tables[1][-1, 4:])) > 0.1
        assert np.max(np.abs(tables[0] - tables[1])) <= 1e-12

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

    def test_stock_fluxonium_summary(self, tmp_path, capsys, spectrum_at_calls):
        # the full stock sweep and refinement: a moved root or coupling
        # changes this line; the bias comes from the sweep's own spectra, so
        # the run makes the sweep's 50 spectra, 6 to refine the root and 1
        # at zero flux for the decay rates (70 by bisection)
        out_dir = tmp_path / "out"
        assert main(["--config", str(CONFIG_DIR / "fluxonium.ini"),
                     "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == (
            f"fluxonium n=50 csv={out_dir / 'fluxonium.csv'} balanced_bias=0.07657 "
            "decay_mhz=(g12=2.64,g13=25.4,g23=2.64)\n")
        assert spectrum_at_calls.calls == 50 + 6 + 1
        cfg = parse_config((CONFIG_DIR / "fluxonium.ini").read_text(encoding="utf-8"))
        write_fluxonium_csv(flux_sweep(cfg.fluxonium, cfg.grid()), tmp_path / "sweep.csv",
                            cfg.fluxonium)
        assert (out_dir / "fluxonium.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()

    def test_stock_fluxonium_builds_each_basis_once(self, tmp_path, spectrum_at_calls):
        # a work count, the same on any host: each spectrum_at solves at
        # basis 100 and 120, and each solve looks its cached operators up
        # twice (for H(f) and for the couplings); only the first lookup at
        # each size builds them
        fluxonium._flux_free_hamiltonian.cache_clear()
        assert main(["--config", str(CONFIG_DIR / "fluxonium.ini"),
                     "--out", str(tmp_path / "out")]) == 0
        solves = 2 * spectrum_at_calls.calls
        info = fluxonium._flux_free_hamiltonian.cache_info()
        assert (solves, info.misses, info.hits, info.currsize) == (114, 2, 2 * solves - 2, 2)

    def test_first_of_two_balanced_biases(self, tmp_path, capsys):
        # t12 = t23 near 0.053 and near 0.30: the ends of the range have the
        # same sign, and the first root in grid order is printed
        text = (CONFIG_DIR / "fluxonium.ini").read_text(encoding="utf-8")
        text = text.replace("ej = 9.0\nec = 2.5\nel = 0.52", "ej = 6.0\nec = 1.0\nel = 0.8")
        out_dir = tmp_path / "out"
        assert main(["--config", self.write(tmp_path, text), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == (
            f"fluxonium n=50 csv={out_dir / 'fluxonium.csv'} balanced_bias=0.05277 "
            "decay_mhz=(g12=11,g13=0.0328,g23=11)\n")

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

    @pytest.mark.parametrize("argv", [[], ["--config", "run.ini", "--units", "foo"]],
                             ids=["no-config", "bad-units"])
    def test_malformed_command_line_exits_2_from_argparse(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith("usage: delta-eita")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[run]\nmode = steady\xff\n")
        assert main(["--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read config: 'utf-8' codec")

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

    @pytest.mark.parametrize("a_in", ["1e308", "1.5e308"])
    def test_overflowing_tied_probe_is_validation_error(self, tmp_path, capsys, a_in):
        # 2 sqrt(gamma13) |a_in| overflows; |a_in| alone does at 1.5e308; with
        # warnings as errors, an overflow warning would fail this test
        text = (CONFIG_DIR / "reflect.ini").read_text(encoding="utf-8")
        text = (text.replace("a_in_re = 1.0", f"a_in_re = {a_in}")
                .replace("a_in_im = 0.0", f"a_in_im = {a_in}")
                .replace("tie_probe_to_input = false", "tie_probe_to_input = true"))
        assert main(["--config", self.write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
        value = complex(float(a_in), float(a_in))
        assert capsys.readouterr().err == (
            "validation error: tied probe magnitude 2 sqrt(gamma13) |a_in| is not finite "
            f"for a_in={value}\n")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("fluxonium, sweep, code, message", [
        ("ej = 1.0\nec = 5e-324", "lo = -4\nhi = 3", 2,
         "validation error: zero-point scale (el / 8 ec)^(1/4) must be finite and > 0, "
         "got inf for ec=5e-324, el=0.52"),
        ("ej = 1.0\nec = 0.001\nel = 1e300", "lo = -1e12\nhi = 3", 3,
         "numerical error: at flux=-1e+12: device Hamiltonian is not finite: "
         "energies or flux overflow"),
    ], ids=["zero-point-scale", "flux-term"])
    def test_overflowing_fluxonium_ends_in_a_typed_code(self, tmp_path, capsys, fluxonium,
                                                         sweep, code, message):
        # both raised numpy's RuntimeWarning, then an untyped ValueError
        # (exit 1) from the eigensolver's finiteness check
        text = f"[run]\nmode = fluxonium\n[fluxonium]\n{fluxonium}\nbasis_size = 30\n" \
               f"[sweep]\n{sweep}\n"
        assert main(["--config", self.write(tmp_path, text), "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("text, message", [
        ("[run]\nmode = fluxonium\n[fluxonium]\nbasis_size = 30\n"
         "[sweep]\nlo = 0\nhi = 5e-324\npoints = 5\n", "flux grid must be monotone"),
        (MINIMAL_EIT.replace("lo = -2.0\nhi = 2.0", "lo = -1.7e308\nhi = 1.7e308"),
         "sweep span hi - lo is not finite for [-1.7e+308, 1.7e+308]"),
        (MINIMAL_EIT.replace("units = gamma13", "units = MHz").replace("lo = -2.0", "lo = -1e308"),
         "sweep span hi - lo is not finite for [-inf, 12.566370614359172]"),
    ], ids=["repeated-flux", "span-overflow", "span-overflow-in-mhz"])
    def test_degenerate_grid_is_validation_error(self, tmp_path, capsys, text, message):
        # each raised numpy's RuntimeWarning or an untyped ValueError (exit 1)
        assert main(["--config", self.write(tmp_path, text), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"


#: The values a schema-drawn config takes for its numbers: zero, signs,
#: the smallest subnormal, tiny, stock-sized, huge and near-overflow.
EXTREMES = (0.0, 1.0, -1.0, 5e-324, 1e-300, 1e-12, 0.2, 3.0, 1e6, 1e100, 1e300, -1e300)


#: Keys a drawn config always sets when their section is present: the
#: mode, one rate, the sizes, and both fluxonium energies whose ratio sets
#: the oscillator's zero-point scales.
ALWAYS_SET = ("mode", "gamma13", "points", "basis_size", "ec", "el")


@st.composite
def schema_configs(draw):
    """Config text drawn from ``config._SCHEMA``: the sections its mode
    needs and each other section or key present or not, with a value of
    its type (``ALWAYS_SET`` are always present).  Sizes are bounded
    (``points`` <= 200, ``basis_size`` 30-60), ``lo`` <= 0 < ``hi``, and
    rates, magnitudes, energies and ``t`` have a valid sign, so that most
    configs reach the solvers (the ``parse_config`` outcome table covers
    the invalid values).  ``verify`` is left out: it runs its own checks,
    whatever the config says."""
    mode = draw(st.sampled_from([m for m in MODES if m != "verify"]))
    needed = {"run", "sweep"} | ({"fluxonium"} if mode == "fluxonium" else
                                 {"atom", "drives.d12", "drives.d13", "drives.d23"})
    nonnegative = st.sampled_from([v for v in EXTREMES if v >= 0.0]).map(repr)
    positive = st.sampled_from([v for v in EXTREMES if v > 0.0]).map(repr)
    special = {
        "mode": st.just(mode),
        "units": st.sampled_from(UNITS),
        "magnitude": nonnegative,
        **dict.fromkeys(["gamma12", "gamma13", "gamma23", "gphi2", "gphi3", "t"], nonnegative),
        **dict.fromkeys(["ej", "ec", "el", "gamma_ref_mhz", "hi"], positive),
        "lo": st.sampled_from([v for v in EXTREMES if v <= 0.0]).map(repr),
        "points": st.integers(0, 200),
        "initial": st.sampled_from(INITIAL_STATES),
        "basis_size": st.integers(30, 60),
    }
    by_type = {float: st.sampled_from(EXTREMES).map(repr),
               _bool: st.sampled_from(["true", "false"]),
               _floats: st.lists(st.sampled_from(EXTREMES), max_size=4).map(
                   lambda xs: ",".join(map(repr, xs)))}
    lines = []
    for section, keys in _SCHEMA.items():
        if section == "output" or not (section in needed or draw(st.booleans())):
            continue
        lines.append(f"[{section}]")
        for key, (convert, _, _) in keys.items():
            if section == "drives.d12" and key == "detuning":
                continue  # listed only to be refused
            if key in ALWAYS_SET or draw(st.booleans()):
                value = draw(special[key] if key in special else by_type[convert])
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=schema_configs())
def test_every_schema_config_ends_in_a_typed_exit_code(tmp_path_factory, text):
    out = tmp_path_factory.mktemp("out")
    path = out / "run.ini"
    path.write_text(text + f"[output]\ndir = {out}\n", encoding="utf-8")
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error")
        code = main(["--config", str(path)])
    # every value has its key's type, so no config is a parse error (1)
    assert code in (0, 2, 3, 4), err.getvalue()


#: The numerics entry points whose work a run is counted in.
WORK = ("solve_in_place", "hermitian_eig", "expm")


@pytest.fixture
def work(monkeypatch):
    """Each call of a WORK function, as the leading size of its first
    argument (LU members, basis size, propagator members), by name."""
    sizes = {name: [] for name in WORK}
    for name in WORK:
        def spy(a, *args, _name=name, _call=getattr(numerics, name)):
            sizes[_name].append(len(a))
            return _call(a, *args)
        monkeypatch.setattr(numerics, name, spy)
    return sizes


#: The work of each shipped config and mode: one 801-member LU stack per
#: sweep, one 1-member LU for a steady state, two real eigensolves
#: (basis 100 and 120) for each of a fluxonium run's 57 flux points, one
#: 201-member propagator stack for an evolution.
WORK_COUNTS = [
    ("eita", None, {"solve_in_place": [801]}),
    ("eit", None, {"solve_in_place": [801]}),
    ("lwi", None, {"solve_in_place": [801]}),
    ("reflect", None, {"solve_in_place": [801]}),
    ("phase_scan", None, {"solve_in_place": [801] * 4}),
    ("eita", "steady", {"solve_in_place": [1]}),
    ("fluxonium", None, {"hermitian_eig": [100, 120] * 57}),
    ("eita", "evolve", {"expm": [201]}),
]


@pytest.mark.parametrize("config, mode, expected", WORK_COUNTS,
                         ids=[f"{c}-{m or 'own'}" for c, m, _ in WORK_COUNTS])
def test_work_counts(tmp_path, work, config, mode, expected):
    # counts of work done are the same on any host: a change that adds
    # work fails here, and one that removes work restates its count
    argv = ["--config", str(CONFIG_DIR / f"{config}.ini"), "--out", str(tmp_path)]
    assert main(argv + (["--mode", mode] if mode else [])) == 0
    assert work == {name: expected.get(name, []) for name in WORK}


@pytest.fixture
def certificates(monkeypatch):
    """``[checked, uncertain]``: the states ``validate_density_matrix``
    puts to the Cholesky certificate, and how many of them it leaves to
    ``eigvalsh``."""
    counts = [0, 0]

    def spy(sym, floor, _clears=lindblad._cholesky_clears):
        cleared = _clears(sym, floor)
        counts[0] += len(cleared)
        counts[1] += int(np.count_nonzero(~cleared))
        return cleared

    monkeypatch.setattr(lindblad, "_cholesky_clears", spy)
    return counts


#: The states each shipped config and mode validates: one per sweep point,
#: one steady state, and an evolution's 201 samples plus its initial state.
#: Verify's count (16,587 in a fresh process) shrinks once its cached stock
#: corpus is built, so only its uncertain count is pinned.
CERTIFIED = [
    ("eita", None, 801), ("eit", None, 801), ("lwi", None, 801), ("reflect", None, 801),
    ("phase_scan", None, 4 * 801), ("fluxonium", None, 0), ("eita", "sweep", 801),
    ("eita", "reflect", 801), ("eita", "phase-sweep", 4 * 801), ("eita", "steady", 1),
    ("eita", "evolve", 201 + 1), ("eita", "verify", None),
]


@pytest.mark.parametrize("config, mode, checked", CERTIFIED,
                         ids=[f"{c}-{m or 'own'}" for c, m, _ in CERTIFIED])
def test_certificate_clears_every_state(tmp_path, certificates, config, mode, checked):
    # no state of a shipped run reaches eigvalsh: the certificate decides
    # them all, and a run that validates more states restates its count
    argv = ["--config", str(CONFIG_DIR / f"{config}.ini"), "--out", str(tmp_path)]
    rc = main(argv + (["--mode", mode] if mode else []))
    assert rc == 0 or mode == "verify"  # verify exits 3 while check 4b fails
    assert certificates[1] == 0
    assert certificates[0] == checked or checked is None and certificates[0] > 0


#: The BLAS thread variables the command line sets to 1 unless they are set.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def env_without_thread_vars() -> dict:
    """This process's environment less THREAD_VARS, with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(CONFIG_DIR.parent / "src"), os.environ.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("config", sorted(path.stem for path in CONFIG_DIR.glob("*.ini")))
def test_one_blas_thread_by_default(tmp_path, config):
    # a fresh process with the thread variables unset runs like one with
    # them set to 1: on a host with more than one CPU, OpenBLAS would
    # otherwise start a thread per CPU, and the fluxonium CSV cells differ
    # in their last bits between one thread and two
    env = env_without_thread_vars()
    runs = {}
    for threads in ("unset", "1"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "delta_eita.cli", "--config", str(CONFIG_DIR / f"{config}.ini"),
             "--out", str(out)], capture_output=True, text=True, timeout=300,
            env=env if threads == "unset" else dict(env, **dict.fromkeys(THREAD_VARS, threads)))
        assert proc.returncode == 0, proc.stderr
        runs[threads] = (proc.stdout.replace(str(out), "<out>"),
                         {path.name: path.read_bytes() for path in out.glob("*.csv")})
    assert runs["unset"][1]
    assert runs["unset"] == runs["1"]


def test_thread_variables_left_alone_once_numpy_is_loaded():
    # too late to choose this process's BLAS threads, the defaults would
    # only reach the children it starts
    env = env_without_thread_vars()
    script = ("import os; {}import delta_eita.cli; "
              "print([os.environ.get(v) for v in {!r}])")
    printed = {}
    for first in ("", "import numpy; "):
        proc = subprocess.run([sys.executable, "-c", script.format(first, THREAD_VARS)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        printed[first] = proc.stdout.strip()
    assert printed[""] == str(["1"] * 3)
    assert printed["import numpy; "] == str([None] * 3)


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

    @pytest.mark.parametrize("config", ["eita", "phase_scan", "reflect"])
    def test_mhz_csvs_name_the_unit_of_their_cells(self, tmp_path, config):
        # an MHz config holds its detunings as angular frequencies inside
        path = CONFIG_DIR / f"{config}.ini"
        lo = parse_config(path.read_text(encoding="utf-8")).grid_lo
        assert main(["--config", str(path), "--units", "MHz", "--out", str(tmp_path)]) == 0
        csvs = sorted(tmp_path.glob("*.csv"))
        assert csvs
        for csv in csvs:
            lines = csv.read_text(encoding="utf-8").splitlines()
            assert "# units = 'rad/us'" in lines
            header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
            assert lines[header].startswith("delta13,")
            assert lines[header + 1].split(",")[0] == repr(2.0 * np.pi * lo)

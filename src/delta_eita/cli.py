"""Command-line front end: parse a config, run the requested mode, emit CSV.

Exit codes: 0 success, 1 parse error, 2 validation error, 3 numerical
error, 4 resolution/window error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .atom import rotating_hamiltonian
from .config import RunConfig, dump_config, parse_config
from .csvout import write_csv
from .errors import (
    DeltaEitaError,
    InsufficientResolution,
    NoSignChange,
    ParseError,
    ValidationError,
    WindowTooNarrow,
)
from .fluxonium import (
    find_balanced_bias,
    flux_sweep,
    scale_decay_rates,
    spectrum_at,
    write_fluxonium_csv,
)
from .inout import reflection_spectrum, write_reflection_csv
from .lindblad import (
    build_liouvillian,
    ground_state,
    level_projector,
    maximally_mixed,
    propagate,
    steady_state,
)
from .spectroscopy import (
    SpectrumTable,
    autler_townes_positions,
    find_peaks,
    population_inversion_scan,
    sweep_detuning,
    transparency_fwhm_estimate,
    write_spectrum_csv,
)


def _out_path(cfg: RunConfig, default_base: str, suffix: str = "") -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = cfg.basename or default_base
    return out / f"{base}{suffix}.csv"


def _summarize_sweep(table: SpectrumTable, path) -> str:
    report = find_peaks(table)
    min_inv, at = population_inversion_scan(table)
    peaks = " ".join(f"{p:+.4g}:{h:+.4g}"
                     for p, h in zip(report.peak_positions, report.peak_heights))
    om23 = table.drives.d23.magnitude
    at_lo, at_hi = autler_townes_positions(om23)
    est = transparency_fwhm_estimate(table.dec, om23)
    return (f"class={report.classification} peaks=[{peaks}] "
            f"window_center={report.window_center:+.4g} fwhm={report.fwhm:.4g} "
            f"min_inversion={min_inv:.4g}@{at:+.4g} "
            f"split_estimate=[{at_lo:+.4g},{at_hi:+.4g}] fwhm_estimate={est:.4g} "
            f"csv={path}")


def _csv_units(cfg: RunConfig) -> str:
    """The unit of a spectrum CSV's detunings and rates: an MHz config
    holds them as angular frequencies, 2pi x MHz = rad/us."""
    return "rad/us" if cfg.units == "MHz" else cfg.units


def run(cfg: RunConfig) -> int:
    """Execute one mode; returns the process exit status."""
    if cfg.mode == "steady":
        lv = build_liouvillian(rotating_hamiltonian(cfg.drives), cfg.dec)
        rho = steady_state(lv)
        inversion = (rho[0, 0] - rho[2, 2]).real
        entries = " ".join(
            f"rho{i + 1}{j + 1}={rho[i, j]:.6g}" for i in range(3) for j in range(3))
        print(f"steady delta13={cfg.drives.d13.detuning:g} {entries} "
              f"inversion={inversion:.6g}")
        return 0

    if cfg.mode == "sweep":
        table = sweep_detuning(cfg.drives, cfg.dec, cfg.grid())
        path = _out_path(cfg, "sweep")
        write_spectrum_csv(table, path, {"units": _csv_units(cfg)})
        print(f"sweep n={len(table)} {_summarize_sweep(table, path)}")
        return 0

    if cfg.mode == "phase-sweep":
        labels = [f"_phi{phi:.4f}" for phi in cfg.phases]
        clash = next((label for label in labels if labels.count(label) > 1), None)
        if clash:
            raise ValidationError(f"two phases would write one CSV, {clash}")
        for phi, label in zip(cfg.phases, labels):
            drives = cfg.drives.with_loop_phase(phi)
            table = sweep_detuning(drives, cfg.dec, cfg.grid())
            path = _out_path(cfg, "phase_sweep", label)
            write_spectrum_csv(table, path, {"units": _csv_units(cfg)})
            print(f"phase-sweep phi={phi:.4f} n={len(table)} "
                  f"{_summarize_sweep(table, path)}")
        return 0

    if cfg.mode == "evolve":
        lv = build_liouvillian(rotating_hamiltonian(cfg.drives), cfg.dec)
        rho = {"ground": ground_state(), "mixed": maximally_mixed(),
               "excited": level_projector(3)}[cfg.evolve_initial]
        times = np.linspace(0.0, cfg.evolve_t, 201)
        states = propagate(lv, rho, times)
        pops = states.diagonal(axis1=1, axis2=2).real
        path = _out_path(cfg, "evolve")
        write_csv(path, ("t", "pop1", "pop2", "pop3", "re_rho31", "im_rho31"),
                  (times, *pops.T, states[:, 2, 0].real, states[:, 2, 0].imag))
        p1, p2, p3 = pops[-1]
        print(f"evolve t={cfg.evolve_t:g} initial={cfg.evolve_initial} "
              f"pops=({p1:.6g},{p2:.6g},{p3:.6g}) csv={path}")
        return 0

    if cfg.mode == "fluxonium":
        grid = cfg.grid()
        spectra = flux_sweep(cfg.fluxonium, grid)
        path = _out_path(cfg, "fluxonium")
        write_fluxonium_csv(spectra, path, cfg.fluxonium)
        msg = f"fluxonium n={len(spectra)} csv={path}"
        try:
            bias = find_balanced_bias(cfg.fluxonium, grid[0], grid[-1])
            msg += f" balanced_bias={bias:.5f}"
            if cfg.gamma_ref_mhz:
                t_ref = spectrum_at(cfg.fluxonium, 0.0).t12
                est = scale_decay_rates(cfg.gamma_ref_mhz, t_ref, spectrum_at(cfg.fluxonium, bias))
                msg += (f" decay_mhz=(g12={est.gamma12:.3g},"
                        f"g13={est.gamma13:.3g},g23={est.gamma23:.3g})")
        except NoSignChange:
            msg += " balanced_bias=none-in-range"
        print(msg)
        return 0

    if cfg.mode == "reflect":
        reflection = reflection_spectrum(cfg.drives, cfg.dec, cfg.a_in, cfg.grid(),
                                         tie_probe_to_input=cfg.tie_probe_to_input)
        path = _out_path(cfg, "reflect")
        write_reflection_csv(reflection, path, {
            "a_in": cfg.a_in, "gamma13": cfg.dec.gamma13,
            "loop_phase": reflection.table.loop_phase, "units": _csv_units(cfg),
        })
        edge = max(abs(a - cfg.a_in) for a in reflection.a_out[[0, -1]].tolist())
        print(f"reflect n={len(reflection.a_out)} edge_|aout-ain|={edge:.4g} csv={path}")
        return 0

    if cfg.mode == "verify":
        from . import verify  # no other mode needs it; importing it takes ~10 ms

        results = verify.run_all()
        failed = 0
        for res in results:
            print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
            failed += 0 if res.passed else 1
        print(f"verify: {len(results) - failed}/{len(results)} checks passed")
        return 0 if failed == 0 else 3

    raise ValidationError(f"unhandled mode {cfg.mode!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="delta-eita",
        description="Steady-state and time-domain simulator for a loop-driven "
                    "three-level artificial atom coupled to a transmission line.")
    parser.add_argument("--config", required=True, help="path to an INI run config")
    parser.add_argument("--mode", default=None, help="override the config mode")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="ignored; accepted so existing command lines keep working")
    parser.add_argument("--units", default=None, choices=("gamma13", "MHz"),
                        help="override the [atom] units flag")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the normalized config and exit")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text, units=args.units, mode=args.mode, out_dir=args.out)
        if args.dump_config:
            print(dump_config(cfg), end="")
            return 0
        return run(cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (InsufficientResolution, WindowTooNarrow) as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return 4
    except DeltaEitaError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: parse a config, run the requested mode, emit CSV.

Exit codes: 0 success, 1 parse error, 2 validation error, 3 numerical
error, 4 resolution/window error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .config import RunConfig, dump_config, parse_config, with_overrides
from .errors import (
    DeltaEitaError,
    InsufficientResolution,
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
from .inout import reflection_from_table, write_reflection_csv
from .lindblad import (
    build_liouvillian,
    evolve,
    ground_state,
    level_projector,
    maximally_mixed,
    steady_state,
)
from .atom import global_phase, rotating_hamiltonian
from .errors import NoSignChange
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
        write_spectrum_csv(table, path, {"units": cfg.units})
        print(f"sweep n={len(table)} {_summarize_sweep(table, path)}")
        return 0

    if cfg.mode == "phase-sweep":
        for phi in cfg.phases:
            drives = cfg.drives.with_loop_phase(phi)
            table = sweep_detuning(drives, cfg.dec, cfg.grid())
            path = _out_path(cfg, "phase_sweep", f"_phi{phi:.4f}")
            write_spectrum_csv(table, path, {"units": cfg.units})
            print(f"phase-sweep phi={phi:.4f} n={len(table)} "
                  f"{_summarize_sweep(table, path)}")
        return 0

    if cfg.mode == "evolve":
        lv = build_liouvillian(rotating_hamiltonian(cfg.drives), cfg.dec)
        rho = {"ground": ground_state(), "mixed": maximally_mixed(),
               "excited": level_projector(3)}[cfg.evolve_initial]
        lines = ["t,pop1,pop2,pop3,re_rho31,im_rho31"]
        for t in np.linspace(0.0, cfg.evolve_t, 201):
            current = evolve(lv, rho, t)
            pops = np.diag(current).real
            row = (t, pops[0], pops[1], pops[2], current[2, 0].real, current[2, 0].imag)
            lines.append(",".join(repr(float(v)) for v in row))
        path = _out_path(cfg, "evolve")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"evolve t={cfg.evolve_t:g} initial={cfg.evolve_initial} "
              f"pops=({pops[0]:.6g},{pops[1]:.6g},{pops[2]:.6g}) csv={path}")
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
        drives = cfg.drives
        if cfg.tie_probe_to_input:
            drives = drives.with_probe_magnitude(
                2.0 * np.sqrt(cfg.dec.gamma13) * abs(cfg.a_in))
        table = sweep_detuning(drives, cfg.dec, cfg.grid())
        points = reflection_from_table(table, cfg.a_in)
        path = _out_path(cfg, "reflect")
        write_reflection_csv(points, path, {
            "a_in": cfg.a_in, "gamma13": cfg.dec.gamma13,
            "loop_phase": global_phase(drives), "units": cfg.units,
        })
        edge = max(abs(points[0].a_out - cfg.a_in), abs(points[-1].a_out - cfg.a_in))
        print(f"reflect n={len(points)} edge_|aout-ain|={edge:.4g} csv={path}")
        return 0

    if cfg.mode == "verify":
        results = verify_mod.run_all()
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
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        if args.units is not None:
            text = _override_units(text, args.units)
        cfg = parse_config(text)
        cfg = with_overrides(cfg, mode=args.mode, out_dir=args.out)
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


def _override_units(text: str, units: str) -> str:
    """Rewrite (or insert) the [atom] units key before parsing."""
    lines = text.splitlines()
    out = []
    in_atom = False
    replaced = False
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("["):
            if in_atom and not replaced:
                out.append(f"units = {units}")
                replaced = True
            in_atom = stripped == "[atom]"
        elif in_atom and stripped.split("=")[0].strip() == "units":
            out.append(f"units = {units}")
            replaced = True
            continue
        out.append(line)
    if in_atom and not replaced:
        out.append(f"units = {units}")
    return "\n".join(out)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: parse a config, run the requested mode, emit CSV.

Exit codes: 0 success, 1 parse error, 2 validation error, 3 numerical
error, 4 resolution/window error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# One BLAS thread unless the caller set a count: the threaded Householder
# reduction in the fluxonium eigensolves rounds differently, so the CSV
# bits would depend on the host's cores.  OpenBLAS reads these variables
# once, when numpy loads, so they are set before anything imports numpy;
# once numpy is loaded they could no longer change this process's BLAS,
# only that of every child it starts, so they are then left alone.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np

# Each mode imports the package modules it runs inside its own branch,
# so a run loads no module that only other modes need (a fluxonium run
# loads neither lindblad nor spectroscopy nor inout); only the config and
# the errors every mode shares are imported here.
from .config import RunConfig, dump_config, parse_config
from .errors import (
    DeltaEitaError,
    InsufficientResolution,
    NoSignChange,
    ParseError,
    ValidationError,
    WindowTooNarrow,
)

if TYPE_CHECKING:
    from .spectroscopy import SpectrumTable


def _out_path(cfg: RunConfig, default_base: str, suffix: str = "") -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = cfg.basename or default_base
    return out / f"{base}{suffix}.csv"


def _summarize_sweep(table: SpectrumTable, path) -> str:
    from . import spectroscopy

    report = spectroscopy.find_peaks(table)
    min_inv, at = spectroscopy.population_inversion_scan(table)
    peaks = " ".join(f"{p:+.4g}:{h:+.4g}"
                     for p, h in zip(report.peak_positions, report.peak_heights))
    om23 = table.drives.d23.magnitude
    at_lo, at_hi = spectroscopy.autler_townes_positions(om23)
    est = spectroscopy.transparency_fwhm_estimate(table.dec, om23)
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
        from . import atom, lindblad

        lv = lindblad.build_liouvillian(atom.rotating_hamiltonian(cfg.drives), cfg.dec)
        rho = lindblad.steady_state(lv)
        inversion = (rho[0, 0] - rho[2, 2]).real
        entries = " ".join(
            f"rho{i + 1}{j + 1}={rho[i, j]:.6g}" for i in range(3) for j in range(3))
        print(f"steady delta13={cfg.drives.d13.detuning:g} {entries} "
              f"inversion={inversion:.6g}")
        return 0

    if cfg.mode == "sweep":
        from . import spectroscopy

        table = spectroscopy.sweep_detuning(cfg.drives, cfg.dec, cfg.grid())
        path = _out_path(cfg, "sweep")
        spectroscopy.write_spectrum_csv(table, path, {"units": _csv_units(cfg)})
        print(f"sweep n={len(table)} {_summarize_sweep(table, path)}")
        return 0

    if cfg.mode == "phase-sweep":
        from . import spectroscopy

        labels = [f"_phi{phi:.4f}" for phi in cfg.phases]
        clash = next((label for label in labels if labels.count(label) > 1), None)
        if clash:
            raise ValidationError(f"two phases would write one CSV, {clash}")
        for phi, label in zip(cfg.phases, labels):
            drives = cfg.drives.with_loop_phase(phi)
            table = spectroscopy.sweep_detuning(drives, cfg.dec, cfg.grid())
            path = _out_path(cfg, "phase_sweep", label)
            spectroscopy.write_spectrum_csv(table, path, {"units": _csv_units(cfg)})
            print(f"phase-sweep phi={phi:.4f} n={len(table)} "
                  f"{_summarize_sweep(table, path)}")
        return 0

    if cfg.mode == "evolve":
        from . import atom, csvout, lindblad, spectroscopy

        lv = lindblad.build_liouvillian(atom.rotating_hamiltonian(cfg.drives), cfg.dec)
        rho = {"ground": lindblad.ground_state(), "mixed": lindblad.maximally_mixed(),
               "excited": lindblad.level_projector(3)}[cfg.evolve_initial]
        times = np.linspace(0.0, cfg.evolve_t, 201)
        rho31, pops = spectroscopy._reported(cfg.drives, lindblad.propagate(lv, rho, times))
        path = _out_path(cfg, "evolve")
        csvout.write_csv(path, ("t", "pop1", "pop2", "pop3", "re_rho31", "im_rho31"),
                         (times, *pops.T, rho31.real, rho31.imag))
        p1, p2, p3 = pops[-1]
        print(f"evolve t={cfg.evolve_t:g} initial={cfg.evolve_initial} "
              f"pops=({p1:.6g},{p2:.6g},{p3:.6g}) csv={path}")
        return 0

    if cfg.mode == "fluxonium":
        from . import fluxonium

        spectra = fluxonium.flux_sweep(cfg.fluxonium, cfg.grid())
        path = _out_path(cfg, "fluxonium")
        fluxonium.write_fluxonium_csv(spectra, path, cfg.fluxonium)
        msg = f"fluxonium n={len(spectra)} csv={path}"
        try:
            balanced = fluxonium.find_balanced_bias(cfg.fluxonium, spectra)
            msg += f" balanced_bias={balanced.flux:.5f}"
            if cfg.gamma_ref_mhz:
                t_ref = fluxonium.spectrum_at(cfg.fluxonium, 0.0).t12
                est = fluxonium.scale_decay_rates(cfg.gamma_ref_mhz, t_ref, balanced)
                msg += (f" decay_mhz=(g12={est.gamma12:.3g},"
                        f"g13={est.gamma13:.3g},g23={est.gamma23:.3g})")
        except NoSignChange:
            msg += " balanced_bias=none-in-range"
        print(msg)
        return 0

    if cfg.mode == "reflect":
        from . import inout

        reflection = inout.reflection_spectrum(cfg.drives, cfg.dec, cfg.a_in, cfg.grid(),
                                               tie_probe_to_input=cfg.tie_probe_to_input)
        path = _out_path(cfg, "reflect")
        inout.write_reflection_csv(reflection, path, {
            "a_in": cfg.a_in, "gamma13": cfg.dec.gamma13,
            "loop_phase": reflection.table.loop_phase, "units": _csv_units(cfg),
        })
        edge = max(abs(a - cfg.a_in) for a in reflection.a_out[[0, -1]].tolist())
        print(f"reflect n={len(reflection.a_out)} edge_|aout-ain|={edge:.4g} csv={path}")
        return 0

    if cfg.mode == "verify":
        from . import verify

        results = verify.run_all()
        failed = 0
        for res in results:
            print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
            failed += 0 if res.passed else 1
        print(f"verify: {len(results) - failed}/{len(results)} checks passed")
        return 0 if failed == 0 else 3

    raise ValidationError(f"unhandled mode {cfg.mode!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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

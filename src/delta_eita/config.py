"""Strict INI-style run configuration.

``_SCHEMA`` is the one list of sections and keys, each with its type and
default; any other section or key is a ParseError.  ``[drives.d12]
detuning`` is listed only to be refused: delta12 is derived.

``units = gamma13`` (default) keeps all atom-section rates, drive
magnitudes and detunings as given; ``units = MHz`` reads them as
(rate)/2pi in MHz and multiplies by 2pi internally.  Fluxonium energies
are always GHz.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .atom import Decoherence, Drive, DriveSet
from .errors import ParseError, ValidationError
from .fluxonium import EXAMPLE_EC, EXAMPLE_EJ, EXAMPLE_EL, FluxoniumParams

MODES = ("steady", "sweep", "phase-sweep", "evolve", "fluxonium", "reflect", "verify")
UNITS = ("gamma13", "MHz")
INITIAL_STATES = ("ground", "mixed", "excited")


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw) from None


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


_KINDS = {float: "a number", int: "an integer", _bool: "a boolean", _floats: "a float list"}

_DRIVE = {"magnitude": (float, 0.0), "phase": (float, 0.0), "detuning": (float, 0.0)}

#: section -> key -> (converter, default); a key's value is
#: ``converter(raw)``, or the default when the key is absent.
_SCHEMA = {
    "run": {"mode": (str.strip, None)},
    "atom": {"units": (str.strip, "gamma13"), "gamma12": (float, 0.0),
             "gamma13": (float, 0.0), "gamma23": (float, 0.0), "gphi2": (float, 0.0),
             "gphi3": (float, 0.0)},
    "drives.d12": _DRIVE,
    "drives.d13": _DRIVE,
    "drives.d23": _DRIVE,
    "sweep": {"lo": (float, -4.0), "hi": (float, 4.0), "points": (int, 801),
              "phases": (_floats, (0.0, np.pi / 2, np.pi, 3 * np.pi / 2))},
    "evolve": {"t": (float, 10.0), "initial": (str.strip, "ground")},
    "fluxonium": {"ej": (float, EXAMPLE_EJ), "ec": (float, EXAMPLE_EC),
                  "el": (float, EXAMPLE_EL), "basis_size": (int, FluxoniumParams.basis_size),
                  "gamma_ref_mhz": (float, None)},
    "reflect": {"a_in_re": (float, 1.0), "a_in_im": (float, 0.0),
                "tie_probe_to_input": (_bool, False)},
    "output": {"dir": (str.strip, "out"), "basename": (str.strip, "")},
}

#: Upper bounds on the two sizes a config sets, each keeping a run under
#: ~1 GB: a sweep holds ~0.75 KB per grid point at its peak (the table and
#: its CSV text), and a fluxonium run ~85 B per squared basis state (its
#: two cached flux-free Hamiltonians, at basis_size and basis_size + 20,
#: and the two real eigendecompositions with their workspace, one size
#: after the other); at basis 2000 a run peaks at ~350 MB with one BLAS
#: thread.  A larger value is a ValidationError before anything is
#: allocated.
MAX_GRID_POINTS = 1_000_000
MAX_BASIS_SIZE = 2_000


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description, in internal (angular) units."""

    mode: str
    units: str
    drives: DriveSet | None
    dec: Decoherence | None
    grid_lo: float
    grid_hi: float
    grid_points: int
    phases: tuple[float, ...]
    evolve_t: float
    evolve_initial: str
    fluxonium: FluxoniumParams | None
    gamma_ref_mhz: float | None
    a_in: complex
    tie_probe_to_input: bool
    out_dir: str
    basename: str

    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_lo, self.grid_hi, self.grid_points)


def _value(parser: configparser.ConfigParser, section: str, key: str):
    """The typed value of ``[section] key``, or its default when absent."""
    convert, default = _SCHEMA[section][key]
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        value = convert(raw)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key} = {raw!r} is not {_KINDS[convert]}") from exc
    if convert in (float, _floats) and not np.all(np.isfinite(value)):
        raise ValidationError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def parse_config(text: str, units: str | None = None, mode: str | None = None,
                 out_dir: str | None = None) -> RunConfig:
    """Parse and validate a config document.

    ``units``, ``mode`` and ``out_dir``, when given, replace the
    ``[atom] units``, ``[run] mode`` and ``[output] dir`` values before
    anything is validated, so the sections a mode needs are checked for
    the mode that runs.  Unknown sections or keys raise ParseError;
    non-finite numbers and values breaking model invariants raise
    ValidationError.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ParseError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ParseError(f"unknown key {key!r} in section [{section}]")

    def get(section, key):
        return _value(parser, section, key)

    if mode is None:
        mode = get("run", "mode")
    if mode is None:
        raise ValidationError("missing [run] mode")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")

    if units is None:
        units = get("atom", "units")
    if units not in UNITS:
        raise ValidationError(f"units must be one of {UNITS}, got {units!r}")
    scale = 2.0 * np.pi if units == "MHz" else 1.0

    if parser.has_option("drives.d12", "detuning"):
        raise ValidationError(
            "delta12 is derived from delta13 - delta23, not settable "
            "([drives.d12] detuning)")

    drives = None
    dec = None
    driven = all(parser.has_section(name)
                 for name in ("atom", "drives.d12", "drives.d13", "drives.d23"))
    if mode in ("steady", "sweep", "phase-sweep", "evolve", "reflect") and not driven:
        raise ValidationError(f"mode {mode!r} needs [atom] and all three [drives.*] sections")
    if driven:
        dec = Decoherence(**{rate: scale * get("atom", rate)
                             for rate in ("gamma12", "gamma13", "gamma23", "gphi2", "gphi3")})
        drives = DriveSet(*(Drive(magnitude=scale * get(name, "magnitude"),
                                  phase=get(name, "phase"),
                                  detuning=scale * get(name, "detuning"))
                            for name in ("drives.d12", "drives.d13", "drives.d23")))

    grid_lo = get("sweep", "lo")
    grid_hi = get("sweep", "hi")
    grid_points = get("sweep", "points")
    if mode in ("sweep", "phase-sweep", "fluxonium", "reflect"):
        if grid_points < 2:
            raise ValidationError(f"sweep needs points >= 2, got {grid_points}")
        if grid_points > MAX_GRID_POINTS:
            raise ValidationError(
                f"sweep needs points <= {MAX_GRID_POINTS}, got {grid_points}")
        if not grid_lo < grid_hi:
            raise ValidationError(f"sweep needs lo < hi, got [{grid_lo}, {grid_hi}]")
    if mode != "fluxonium":
        # detuning grid shares the atom units; a fluxonium grid is flux
        grid_lo *= scale
        grid_hi *= scale
    if mode in ("sweep", "phase-sweep", "fluxonium", "reflect") and \
            not np.isfinite(grid_hi - grid_lo):
        raise ValidationError(f"sweep span hi - lo is not finite for [{grid_lo}, {grid_hi}]")

    phases = get("sweep", "phases")
    if mode == "phase-sweep" and len(phases) == 0:
        raise ValidationError("phase-sweep needs a nonempty [sweep] phases list")

    evolve_t = get("evolve", "t")
    if mode == "evolve" and evolve_t < 0.0:
        raise ValidationError(f"evolve t must be >= 0, got {evolve_t}")
    evolve_initial = get("evolve", "initial")
    if evolve_initial not in INITIAL_STATES:
        raise ValidationError(
            f"evolve initial must be one of {INITIAL_STATES}, got {evolve_initial!r}")

    fluxonium = None
    if mode == "fluxonium" and not parser.has_section("fluxonium"):
        raise ValidationError("mode 'fluxonium' needs a [fluxonium] section")
    if parser.has_section("fluxonium"):
        basis_size = get("fluxonium", "basis_size")
        if basis_size > MAX_BASIS_SIZE:
            raise ValidationError(
                f"basis_size must be <= {MAX_BASIS_SIZE}, got {basis_size}")
        fluxonium = FluxoniumParams(ej=get("fluxonium", "ej"), ec=get("fluxonium", "ec"),
                                    el=get("fluxonium", "el"), basis_size=basis_size)
    gamma_ref_mhz = get("fluxonium", "gamma_ref_mhz")
    if gamma_ref_mhz is not None and gamma_ref_mhz <= 0.0:
        raise ValidationError(f"gamma_ref_mhz must be > 0, got {gamma_ref_mhz}")

    a_in = complex(get("reflect", "a_in_re"), get("reflect", "a_in_im"))
    tie = get("reflect", "tie_probe_to_input")

    return RunConfig(
        mode=mode,
        units=units,
        drives=drives,
        dec=dec,
        grid_lo=grid_lo,
        grid_hi=grid_hi,
        grid_points=grid_points,
        phases=tuple(phases),
        evolve_t=evolve_t,
        evolve_initial=evolve_initial,
        fluxonium=fluxonium,
        gamma_ref_mhz=gamma_ref_mhz,
        a_in=a_in,
        tie_probe_to_input=tie,
        out_dir=get("output", "dir") if out_dir is None else out_dir,
        basename=get("output", "basename"),
    )


def dump_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to config text (internal units, so the
    dump always carries ``units = gamma13``); re-parsing reproduces the
    same RunConfig, with ``units = "gamma13"``."""
    lines = ["[run]", f"mode = {cfg.mode}"]
    if cfg.dec is not None and cfg.drives is not None:
        lines += [
            "", "[atom]", "units = gamma13",
            f"gamma12 = {cfg.dec.gamma12!r}",
            f"gamma13 = {cfg.dec.gamma13!r}",
            f"gamma23 = {cfg.dec.gamma23!r}",
            f"gphi2 = {cfg.dec.gphi2!r}",
            f"gphi3 = {cfg.dec.gphi3!r}",
        ]
        for name in ("d12", "d13", "d23"):
            drive = getattr(cfg.drives, name)
            lines += ["", f"[drives.{name}]",
                      f"magnitude = {drive.magnitude!r}",
                      f"phase = {drive.phase!r}"]
            if name != "d12":
                lines.append(f"detuning = {drive.detuning!r}")
    lines += ["", "[sweep]",
              f"lo = {cfg.grid_lo!r}", f"hi = {cfg.grid_hi!r}",
              f"points = {cfg.grid_points}",
              "phases = " + ",".join(repr(p) for p in cfg.phases)]
    lines += ["", "[evolve]", f"t = {cfg.evolve_t!r}",
              f"initial = {cfg.evolve_initial}"]
    if cfg.fluxonium is not None:
        lines += ["", "[fluxonium]",
                  f"ej = {cfg.fluxonium.ej!r}", f"ec = {cfg.fluxonium.ec!r}",
                  f"el = {cfg.fluxonium.el!r}",
                  f"basis_size = {cfg.fluxonium.basis_size}"]
        if cfg.gamma_ref_mhz is not None:
            lines.append(f"gamma_ref_mhz = {cfg.gamma_ref_mhz!r}")
    lines += ["", "[reflect]",
              f"a_in_re = {cfg.a_in.real!r}", f"a_in_im = {cfg.a_in.imag!r}",
              f"tie_probe_to_input = {str(cfg.tie_probe_to_input).lower()}"]
    lines += ["", "[output]", f"dir = {cfg.out_dir}"]
    if cfg.basename:
        lines.append(f"basename = {cfg.basename}")
    return "\n".join(lines) + "\n"

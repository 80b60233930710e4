"""Strict INI-style run configuration.

Sections and keys (anything else is a ParseError):

    [run]        mode
    [atom]       units, gamma12, gamma13, gamma23, gphi2, gphi3
    [drives.d12] magnitude, phase           (detuning is derived, not settable)
    [drives.d13] magnitude, phase, detuning
    [drives.d23] magnitude, phase, detuning
    [sweep]      lo, hi, points, phases
    [evolve]     t, initial
    [fluxonium]  ej, ec, el, basis_size, gamma_ref_mhz
    [reflect]    a_in_re, a_in_im, tie_probe_to_input
    [output]     dir, basename

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

_SCHEMA = {
    "run": ("mode",),
    "atom": ("units", "gamma12", "gamma13", "gamma23", "gphi2", "gphi3"),
    "drives.d12": ("magnitude", "phase", "detuning"),
    "drives.d13": ("magnitude", "phase", "detuning"),
    "drives.d23": ("magnitude", "phase", "detuning"),
    "sweep": ("lo", "hi", "points", "phases"),
    "evolve": ("t", "initial"),
    "fluxonium": ("ej", "ec", "el", "basis_size", "gamma_ref_mhz"),
    "reflect": ("a_in_re", "a_in_im", "tie_probe_to_input"),
    "output": ("dir", "basename"),
}

DEFAULT_PHASES = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)


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


class _Section:
    """Typed accessors over one config section with strict key tracking."""

    def __init__(self, name, mapping):
        self.name = name
        self.mapping = dict(mapping) if mapping is not None else None

    def present(self) -> bool:
        return self.mapping is not None

    def _raw(self, key):
        if self.mapping is None:
            return None
        return self.mapping.get(key)

    def _finite(self, key, raw, values):
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"[{self.name}] {key} = {raw!r} is not finite")
        return values

    def getfloat(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ParseError(f"[{self.name}] {key} = {raw!r} is not a number") from exc
        return self._finite(key, raw, value)

    def getint(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ParseError(f"[{self.name}] {key} = {raw!r} is not an integer") from exc

    def getstr(self, key, default=None):
        raw = self._raw(key)
        return default if raw is None else raw.strip()

    def getbool(self, key, default=False):
        raw = self._raw(key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ParseError(f"[{self.name}] {key} = {raw!r} is not a boolean")

    def getfloats(self, key, default=()):
        raw = self._raw(key)
        if raw is None:
            return tuple(default)
        try:
            values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError as exc:
            raise ParseError(f"[{self.name}] {key} = {raw!r} is not a float list") from exc
        return self._finite(key, raw, values)


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

    def sec(name):
        return _Section(name, parser[name] if parser.has_section(name) else None)

    run = sec("run")
    atom = sec("atom")
    d12 = sec("drives.d12")
    d13 = sec("drives.d13")
    d23 = sec("drives.d23")
    sweep = sec("sweep")
    evolve = sec("evolve")
    flx = sec("fluxonium")
    reflect = sec("reflect")
    output = sec("output")

    if mode is None:
        mode = run.getstr("mode")
    if mode is None:
        raise ValidationError("missing [run] mode")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")

    if units is None:
        units = atom.getstr("units", "gamma13")
    if units not in UNITS:
        raise ValidationError(f"units must be one of {UNITS}, got {units!r}")
    scale = 2.0 * np.pi if units == "MHz" else 1.0

    if d12.present() and d12._raw("detuning") is not None:
        raise ValidationError(
            "delta12 is derived from delta13 - delta23, not settable "
            "([drives.d12] detuning)")

    drives = None
    dec = None
    atom_modes = ("steady", "sweep", "phase-sweep", "evolve", "reflect")
    if atom.present() or mode in atom_modes:
        if not (atom.present() and d12.present() and d13.present() and d23.present()):
            if mode in atom_modes:
                raise ValidationError(
                    f"mode {mode!r} needs [atom] and all three [drives.*] sections")
        else:
            try:
                dec = Decoherence(
                    gamma12=scale * atom.getfloat("gamma12", 0.0),
                    gamma13=scale * atom.getfloat("gamma13", 0.0),
                    gamma23=scale * atom.getfloat("gamma23", 0.0),
                    gphi2=scale * atom.getfloat("gphi2", 0.0),
                    gphi3=scale * atom.getfloat("gphi3", 0.0),
                )
                drives = DriveSet(
                    d12=Drive(magnitude=scale * d12.getfloat("magnitude", 0.0),
                              phase=d12.getfloat("phase", 0.0)),
                    d13=Drive(magnitude=scale * d13.getfloat("magnitude", 0.0),
                              phase=d13.getfloat("phase", 0.0),
                              detuning=scale * d13.getfloat("detuning", 0.0)),
                    d23=Drive(magnitude=scale * d23.getfloat("magnitude", 0.0),
                              phase=d23.getfloat("phase", 0.0),
                              detuning=scale * d23.getfloat("detuning", 0.0)),
                )
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc

    grid_lo = sweep.getfloat("lo", -4.0)
    grid_hi = sweep.getfloat("hi", 4.0)
    grid_points = sweep.getint("points", 801)
    if mode in ("sweep", "phase-sweep", "fluxonium", "reflect"):
        if grid_points < 2:
            raise ValidationError(f"sweep needs points >= 2, got {grid_points}")
        if not grid_lo < grid_hi:
            raise ValidationError(f"sweep needs lo < hi, got [{grid_lo}, {grid_hi}]")
    if mode != "fluxonium":
        # detuning grid shares the atom units; a fluxonium grid is flux
        grid_lo *= scale
        grid_hi *= scale

    phases = sweep.getfloats("phases", DEFAULT_PHASES)
    if mode == "phase-sweep" and len(phases) == 0:
        raise ValidationError("phase-sweep needs a nonempty [sweep] phases list")

    evolve_t = evolve.getfloat("t", 10.0)
    if mode == "evolve" and evolve_t < 0.0:
        raise ValidationError(f"evolve t must be >= 0, got {evolve_t}")
    evolve_initial = evolve.getstr("initial", "ground")
    if evolve_initial not in INITIAL_STATES:
        raise ValidationError(
            f"evolve initial must be one of {INITIAL_STATES}, got {evolve_initial!r}")

    fluxonium = None
    if mode == "fluxonium" and not flx.present():
        raise ValidationError("mode 'fluxonium' needs a [fluxonium] section")
    if flx.present():
        try:
            fluxonium = FluxoniumParams(
                ej=flx.getfloat("ej", EXAMPLE_EJ),
                ec=flx.getfloat("ec", EXAMPLE_EC),
                el=flx.getfloat("el", EXAMPLE_EL),
                basis_size=flx.getint("basis_size", FluxoniumParams.basis_size),
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    gamma_ref_mhz = flx.getfloat("gamma_ref_mhz", None)
    if gamma_ref_mhz is not None and gamma_ref_mhz <= 0.0:
        raise ValidationError(f"gamma_ref_mhz must be > 0, got {gamma_ref_mhz}")

    a_in = complex(reflect.getfloat("a_in_re", 1.0), reflect.getfloat("a_in_im", 0.0))
    tie = reflect.getbool("tie_probe_to_input", False)

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
        out_dir=output.getstr("dir", "out") if out_dir is None else out_dir,
        basename=output.getstr("basename", ""),
    )


def dump_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to config text (internal units, so the
    dump always carries ``units = gamma13``); re-parsing reproduces the
    same RunConfig."""
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

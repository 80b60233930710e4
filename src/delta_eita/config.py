"""Strict INI-style run configuration.

``_SCHEMA`` is the one list of sections and keys, each with its type, its
default and the RunConfig field that holds its value; any other section or
key is a ParseError, and ``dump_config`` writes the keys back from their
fields.  ``[drives.d12] detuning`` is listed only to be refused: delta12 is
derived, so it has no field.

``units = gamma13`` (default) keeps all atom-section rates, drive
magnitudes and detunings as given; ``units = MHz`` reads them as
(rate)/2pi in MHz and multiplies by 2pi internally.  Fluxonium energies
are always GHz.
"""

from __future__ import annotations

import configparser
import functools
from dataclasses import dataclass

import numpy as np

from .atom import Decoherence, Drive, DriveSet
from .errors import ParseError, ValidationError
from .fluxonium import EXAMPLE_EC, EXAMPLE_EJ, EXAMPLE_EL, FluxoniumParams

MODES = ("steady", "sweep", "phase-sweep", "evolve", "fluxonium", "reflect", "verify")
#: The modes whose grid must hold 2 or more points over a finite span lo < hi,
#: and the modes that need [atom] and all three [drives.*] sections.
GRID_MODES = ("sweep", "phase-sweep", "fluxonium", "reflect")
DRIVEN_MODES = ("steady", "sweep", "phase-sweep", "evolve", "reflect")
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

#: How ``dump_config`` spells a value, by its key's converter.
_SPELLINGS = {float: repr, int: str, str.strip: str, _bool: lambda flag: str(flag).lower(),
              _floats: lambda values: ",".join(map(repr, values))}


def _drive(name: str) -> dict:
    """The keys of ``[drives.<name>]``; delta12 is derived, so ``[drives.d12]
    detuning`` fills no field."""
    return {key: (float, 0.0, None if (name, key) == ("d12", "detuning") else
                  f"drives.{name}.{key}") for key in ("magnitude", "phase", "detuning")}


#: section -> key -> (converter, default, field); a key's value is
#: ``converter(raw)``, or the default when the key is absent, and ``field``
#: is the dotted RunConfig attribute that holds it in internal units.
_SCHEMA = {
    "run": {"mode": (str.strip, None, "mode")},
    "atom": {"units": (str.strip, "gamma13", "units"), "gamma12": (float, 0.0, "dec.gamma12"),
             "gamma13": (float, 0.0, "dec.gamma13"), "gamma23": (float, 0.0, "dec.gamma23"),
             "gphi2": (float, 0.0, "dec.gphi2"), "gphi3": (float, 0.0, "dec.gphi3")},
    "drives.d12": _drive("d12"),
    "drives.d13": _drive("d13"),
    "drives.d23": _drive("d23"),
    "sweep": {"lo": (float, -4.0, "grid_lo"), "hi": (float, 4.0, "grid_hi"),
              "points": (int, 801, "grid_points"),
              "phases": (_floats, (0.0, np.pi / 2, np.pi, 3 * np.pi / 2), "phases")},
    "evolve": {"t": (float, 10.0, "evolve_t"),
               "initial": (str.strip, "ground", "evolve_initial")},
    "fluxonium": {"ej": (float, EXAMPLE_EJ, "fluxonium.ej"),
                  "ec": (float, EXAMPLE_EC, "fluxonium.ec"),
                  "el": (float, EXAMPLE_EL, "fluxonium.el"),
                  "basis_size": (int, FluxoniumParams.basis_size, "fluxonium.basis_size"),
                  "gamma_ref_mhz": (float, None, "gamma_ref_mhz")},
    "reflect": {"a_in_re": (float, 1.0, "a_in.real"), "a_in_im": (float, 0.0, "a_in.imag"),
                "tie_probe_to_input": (_bool, False, "tie_probe_to_input")},
    "output": {"dir": (str.strip, "out", "out_dir"), "basename": (str.strip, "", "basename")},
}

#: Upper bounds on the two sizes a config sets, each keeping a run under
#: ~1 GB: a sweep holds ~0.75 KB per grid point at its peak (the table and
#: its CSV text), and a fluxonium run ~95 B per squared basis state (its
#: two cache entries, at basis_size and basis_size + 20, each the
#: flux-free Hamiltonian and the charge operator, and the two real
#: eigendecompositions with their workspace, one size after the other); at
#: basis 2000 a run peaks at ~380 MB with one BLAS thread.  A larger value
#: is a ValidationError before anything is allocated.
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
    convert, default, _ = _SCHEMA[section][key]
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

    get = functools.partial(_value, parser)

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

    drives = dec = None
    driven = all(parser.has_section(name)
                 for name in ("atom", "drives.d12", "drives.d13", "drives.d23"))
    if mode in DRIVEN_MODES and not driven:
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
    if mode in GRID_MODES:
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
    if mode in GRID_MODES and not np.isfinite(grid_hi - grid_lo):
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
        a_in=complex(get("reflect", "a_in_re"), get("reflect", "a_in_im")),
        tie_probe_to_input=get("reflect", "tie_probe_to_input"),
        out_dir=get("output", "dir") if out_dir is None else out_dir,
        basename=get("output", "basename"),
    )


def dump_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to config text; re-parsing reproduces the
    same RunConfig, with ``units = "gamma13"``.

    Each ``_SCHEMA`` key is written from its field in schema order, except:
    ``units`` is always ``gamma13`` (the values are internal); a key
    without a field, an unset ``gamma_ref_mhz`` and an empty ``basename``
    are left out; so is a section whose object the config does not hold
    (``[atom]`` and ``[drives.*]`` without drives, ``[fluxonium]``
    without a device).
    """
    sections = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key, (convert, default, field) in keys.items():
            if field is None:
                continue
            path = field.split(".")
            if len(path) > 1 and getattr(cfg, path[0]) is None:
                break
            value = "gamma13" if field == "units" else functools.reduce(getattr, path, cfg)
            if value is None or value == default == "":
                continue
            lines.append(f"{key} = {_SPELLINGS[convert](value)}")
        else:
            sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"

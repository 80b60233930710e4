"""Seeded workload definitions: input pools, INI rendering and op streams.

Every workload draws its operations from a fixed pool of inputs.  The
pool is the same for every seed, so reference outputs can be stored with
the benchmark (``reference.json``); the run seed chooses which pool
inputs each pass runs and in what order.

A run is a sequence of passes.  A pass runs one op for each of a fixed
list of slots, in seeded order, and a timed run ends on a pass
boundary.  Every slot belongs to a group of ops that cost the same (one
op kind at one size), so every pass costs the same whatever the seed,
and each group runs several times in a run: ``run.py`` uses the median
latency of each group, which a few seconds of host slowdown move less
than the wall time of the whole run.

``warm`` and ``cli_cold`` are the benchmark's workloads.  A ``warm``
pass is one pass of each op family, ``spectra``, ``device`` and
``dynamics``, shuffled together in one interpreter; each family can also
be run on its own to attribute a change to it.

Only the standard library is used here, so generated inputs do not
depend on the numpy version: the same seed gives byte-identical INI
files and op sequences.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("warm", "cli_cold")
#: In-process op families; a ``warm`` pass is one pass of each.
FAMILIES = ("spectra", "device", "dynamics")

#: Fixed seed of the input pools.  Changing it invalidates reference.json.
POOL_SEED = 20100422

#: Shipped configs run by ``cli_cold`` (file stem, ``--mode`` override).
CLI_COLD_ITEMS = (
    ("eita", "steady"), ("reflect", None), ("eita", "evolve"), ("eita", None),
    ("fluxonium", None), ("lwi", None), ("eit", None), ("phase_scan", None),
)
#: A ``cli_cold`` pass runs each config once and the stock ``eita`` sweep
#: two more times.  With one op of each, the median op fell in the gap
#: between two cost tiers and jumped from run to run; with three stock
#: sweeps it falls among the 801-point sweeps.
CLI_COLD_EXTRA = {("eita", None): 2}

#: A ``spectra`` pass runs one op of each kind, each on a seeded choice of
#: the pool's parameter sets (the per-point cost does not depend on them).
SPECTRA_KINDS = ("sweep", "reflect", "phase-sweep", "kk")
SPECTRA_POOL = 6

#: A ``device`` pass runs ``DEVICE_HOT_PER_PASS`` distinct devices of a hot
#: set whose oscillator operators fit the fluxonium LRU cache (16 entries,
#: two per (EC, EL)) and one device of a cold set that mostly does not.
DEVICE_HOT = 6
DEVICE_COLD = 6
DEVICE_HOT_PER_PASS = 4

#: A ``dynamics`` pass runs one evolve op per duration.  The variants of a
#: duration share the drive magnitudes and decay rates, so the default
#: RK4 step (set by the Liouvillian's norm) and the cost are the same;
#: they differ in loop phase and initial state.
DYNAMICS_T = (5.0, 10.0, 20.0)
DYNAMICS_VARIANTS = 4

#: Ops per pass; a timed run ends on a pass boundary.
PASS = {"spectra": len(SPECTRA_KINDS), "device": DEVICE_HOT_PER_PASS + 1,
        "dynamics": len(DYNAMICS_T),
        "cli_cold": len(CLI_COLD_ITEMS) + sum(CLI_COLD_EXTRA.values())}
PASS["warm"] = sum(PASS[f] for f in FAMILIES)

#: Parameter ranges, in the paper's regime (rates in units of gamma13,
#: fluxonium energies in GHz).  Item 0 of each pool is the stock set.
SPECTRA_RANGES = {"omega12": (0.15, 0.25), "omega13": (0.15, 0.25),
                  "omega23": (0.8, 1.2), "loop_phase": (0.0, 2 * math.pi),
                  "gamma12": (0.05, 0.15), "gamma23": (0.05, 0.15)}
DEVICE_RANGES = {"ej": (8.5, 9.5), "ec": (2.3, 2.7), "el": (0.46, 0.58)}
DYNAMICS_RANGES = {"omega12": (0.1, 0.3), "omega13": (0.1, 0.3),
                   "omega23": (0.8, 1.2), "loop_phase": (0.0, 2 * math.pi),
                   "gamma12": (0.05, 0.15), "gamma23": (0.05, 0.15)}

STOCK_ATOM = {"omega12": 0.2, "omega13": 0.2, "omega23": 1.0, "loop_phase": 0.0,
              "gamma12": 0.1, "gamma23": 0.1}
STOCK_DEVICE = {"ej": 9.0, "ec": 2.5, "el": 0.52}

INITIAL_STATES = ("ground", "mixed", "excited")


@dataclass(frozen=True)
class Item:
    """One pool entry: a reference key, an op kind and its input."""

    key: str
    kind: str
    group: str                  # ops of one group cost the same
    ini: str | None = None      # generated INI text
    config: str | None = None   # shipped config stem (cli_cold)
    mode: str | None = None     # --mode override (cli_cold)
    ini_name: str | None = None  # file the op reads (kk reuses the sweep INI)


def _draw(rng: random.Random, ranges: dict, digits: int = 4) -> dict:
    return {k: round(rng.uniform(lo, hi), digits) for k, (lo, hi) in ranges.items()}


def _atom_ini(p: dict, mode: str, extra: str = "") -> str:
    return (
        f"[run]\nmode = {mode}\n\n"
        f"[atom]\nunits = gamma13\ngamma12 = {p['gamma12']!r}\ngamma13 = 1.0\n"
        f"gamma23 = {p['gamma23']!r}\n\n"
        f"[drives.d12]\nmagnitude = {p['omega12']!r}\nphase = {p['loop_phase']!r}\n\n"
        f"[drives.d13]\nmagnitude = {p['omega13']!r}\nphase = 0.0\ndetuning = 0.0\n\n"
        f"[drives.d23]\nmagnitude = {p['omega23']!r}\nphase = 0.0\ndetuning = 0.0\n"
        f"{extra}")


def _spectra_items() -> list[Item]:
    rng = random.Random(f"spectra-pool:{POOL_SEED}")
    sweep = "\n[sweep]\nlo = -4.0\nhi = 4.0\npoints = 801\n"
    items = []
    for i in range(SPECTRA_POOL):
        p = STOCK_ATOM if i == 0 else _draw(rng, SPECTRA_RANGES)
        for kind in ("sweep", "reflect", "phase-sweep"):
            extra = sweep
            if kind == "reflect":
                extra += "\n[reflect]\na_in_re = 1.0\na_in_im = 0.0\n"
            items.append(Item(f"spectra/p{i}/{kind}", kind, f"spectra/{kind}",
                              ini=_atom_ini(p, kind, extra), ini_name=f"p{i}-{kind}.ini"))
        items.append(Item(f"spectra/p{i}/kk", "kk", "spectra/kk", ini_name=f"p{i}-sweep.ini"))
    return items


def _device_items() -> list[Item]:
    rng = random.Random(f"device-pool:{POOL_SEED}")
    items = []
    for i in range(DEVICE_HOT + DEVICE_COLD):
        d = STOCK_DEVICE if i == 0 else _draw(rng, DEVICE_RANGES, 3)
        ini = (f"[run]\nmode = fluxonium\n\n"
               f"[fluxonium]\nej = {d['ej']!r}\nec = {d['ec']!r}\nel = {d['el']!r}\n"
               f"basis_size = 100\ngamma_ref_mhz = 11.0\n\n"
               f"[sweep]\nlo = 0.01\nhi = 0.5\npoints = 50\n")
        group = "device/hot" if i < DEVICE_HOT else "device/cold"
        items.append(Item(f"device/d{i}", "fluxonium", group, ini=ini, ini_name=f"d{i}.ini"))
    return items


def _dynamics_items() -> list[Item]:
    """``DYNAMICS_VARIANTS`` inputs per duration; item 0 is the stock atom
    from the ground state at t = 10."""
    rng = random.Random(f"dynamics-pool:{POOL_SEED}")
    items = []
    for t in DYNAMICS_T:
        rates = STOCK_ATOM if t == 10.0 else _draw(rng, DYNAMICS_RANGES)
        for v in range(DYNAMICS_VARIANTS):
            phase = rates["loop_phase"] if v == 0 else round(rng.uniform(0.0, 2 * math.pi), 4)
            p = dict(rates, loop_phase=phase)
            initial = INITIAL_STATES[v % len(INITIAL_STATES)]
            extra = f"\n[evolve]\nt = {t!r}\ninitial = {initial}\n"
            name = f"t{t:g}-v{v}"
            items.append(Item(f"dynamics/{name}", "evolve", f"dynamics/t{t:g}",
                              _atom_ini(p, "evolve", extra), ini_name=f"{name}.ini"))
    stock = next(k for k, it in enumerate(items) if it.key == "dynamics/t10-v0")
    items.insert(0, items.pop(stock))
    return items


def _cli_cold_items() -> list[Item]:
    items = []
    for stem, mode in CLI_COLD_ITEMS:
        key = f"cli_cold/{stem}" + (f"-{mode}" if mode else "")
        items.append(Item(key, "cli", key, config=stem, mode=mode))
    return items


def pool(workload: str) -> list[Item]:
    """The fixed input pool of a workload or op family."""
    if workload == "warm":
        return [it for family in FAMILIES for it in pool(family)]
    return {"spectra": _spectra_items, "device": _device_items,
            "dynamics": _dynamics_items, "cli_cold": _cli_cold_items}[workload]()


def warmup_items(workload: str) -> list[Item]:
    """The fixed, untimed first ops: the stock input of each family."""
    if workload == "cli_cold":
        return [pool(workload)[CLI_COLD_ITEMS.index(("eita", None))]]
    if workload == "warm":
        return [pool(family)[0] for family in FAMILIES]
    return [pool(workload)[0]]


def _one_pass(family: str, items: list[Item], rng: random.Random) -> list[Item]:
    """The inputs of one pass of a family, before shuffling."""
    if family == "spectra":
        return [rng.choice([it for it in items if it.kind == kind]) for kind in SPECTRA_KINDS]
    if family == "device":
        hot = [it for it in items if it.group == "device/hot"]
        cold = [it for it in items if it.group == "device/cold"]
        return rng.sample(hot, DEVICE_HOT_PER_PASS) + [rng.choice(cold)]
    if family == "dynamics":
        return [rng.choice([it for it in items if it.group == f"dynamics/t{t:g}"])
                for t in DYNAMICS_T]
    extra = [it for it, cfg in zip(items, CLI_COLD_ITEMS)
             for _ in range(CLI_COLD_EXTRA.get(cfg, 0))]
    return list(items) + extra  # cli_cold


def op_stream(workload: str, seed: int):
    """Endless seeded sequence of pool items, in passes of ``PASS[workload]``."""
    rng = random.Random(f"{workload}:{seed}")
    families = FAMILIES if workload == "warm" else (workload,)
    pools = {family: pool(family) for family in families}
    while True:
        ops = [it for family in families for it in _one_pass(family, pools[family], rng)]
        rng.shuffle(ops)
        yield from ops


def describe() -> dict:
    """Loop type, op mix and parameter ranges of every workload and family."""
    return {
        "loop": "closed, 1 client, next op starts when the previous one ends; "
                "a run is whole passes of a fixed mix, each in seeded order",
        "warm": {"pass": {f: PASS[f] for f in FAMILIES}, "families": list(FAMILIES)},
        "spectra": {"pass": list(SPECTRA_KINDS), "pool": SPECTRA_POOL,
                    "ranges": SPECTRA_RANGES, "points": {"sweep": 801, "kk": 4001},
                    "workers": 1},
        "device": {"pass": f"{DEVICE_HOT_PER_PASS} hot + 1 cold device",
                   "pool": {"hot": DEVICE_HOT, "cold": DEVICE_COLD},
                   "ranges": DEVICE_RANGES, "flux_points": 50},
        "dynamics": {"pass": {"t": list(DYNAMICS_T)}, "variants": DYNAMICS_VARIANTS,
                     "ranges": DYNAMICS_RANGES, "initial": list(INITIAL_STATES),
                     "samples": 201},
        "cli_cold": {"pass": [f"{s}" + (f" --mode {m}" if m else "")
                              + (f" x{1 + CLI_COLD_EXTRA[(s, m)]}" if (s, m) in CLI_COLD_EXTRA else "")
                              for s, m in CLI_COLD_ITEMS],
                     "workers": "usable cores"},
    }

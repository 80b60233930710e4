"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces each target function at every ``delta_eita``
module namespace where it is bound (``steady_state`` is also bound in
``spectroscopy``, ``evolve`` in ``cli``, ...), so calls through any of
those names record a span: function, start, end and parent span.  Spans
stay in flat in-memory arrays until ``dump``; ``summarize`` turns them
into per-function calls, busy time and self time, where self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from time import perf_counter

#: (module, function) pairs traced; the module is the layer.
TARGETS = (
    ("spectroscopy", "probe_response"),
    ("lindblad", "steady_state"),
    ("lindblad", "build_liouvillian"),
    ("lindblad", "validate_density_matrix"),
    ("numerics", "solve_linear"),
    ("numerics", "as_complex_matrix"),
    ("atom", "rotating_hamiltonian"),
    ("spectroscopy", "sweep_detuning"),
    ("cli", "parallel_sweep"),
    ("spectroscopy", "find_peaks"),
    ("spectroscopy", "kramers_kronig_residual"),
    ("spectroscopy", "hilbert_transform"),
    ("lindblad", "evolve"),
    ("fluxonium", "flux_sweep"),
    ("fluxonium", "spectrum_at"),
    ("fluxonium", "build_device_hamiltonian"),
    ("fluxonium", "find_balanced_bias"),
    ("numerics", "hermitian_eig"),
    ("numerics", "expm"),
    ("config", "parse_config"),
    ("cli", "main"),
    ("spectroscopy", "write_spectrum_csv"),
    ("fluxonium", "write_fluxonium_csv"),
    ("inout", "reflection_from_table"),
    ("inout", "write_reflection_csv"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)
LAYERS = ("config", "cli", "atom", "lindblad", "numerics", "spectroscopy",
          "fluxonium", "inout")


def _rk4_steps(lindblad, args, kwargs) -> int:
    """RK4 steps ``lindblad.evolve`` takes for (lv, rho0, t, dt), computed
    from its arguments the way its loop advances."""
    names = ("lv", "rho0", "t", "dt")
    bound = dict(zip(names, args), **kwargs)
    dt = bound.get("dt")
    if dt is None:
        dt = lindblad.default_timestep(bound["lv"])
    t = float(bound["t"])
    return max(0, math.ceil(t / dt - 1e-9)) if t > 0 else 0


class Tracer:
    """Collects spans for the targets while installed."""

    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {"lindblad.evolve.rk4_steps": 0}
        self.missing = []
        self._stack = [-1]
        self._patches = []

    def _wrap(self, index: int, func, after=None):
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(start)
            fn.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "delta_eita" or name.startswith("delta_eita.")]
        for index, (mod_name, func_name) in enumerate(TARGETS):
            mod = importlib.import_module(f"delta_eita.{mod_name}")
            original = getattr(mod, func_name, None)
            if original is None:
                self.missing.append(NAMES[index])
                continue
            after = None
            if NAMES[index] == "lindblad.evolve":
                def after(args, kwargs, _mod=mod):
                    self.counters["lindblad.evolve.rk4_steps"] += _rk4_steps(_mod, args, kwargs)
            wrapper = self._wrap(index, original, after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))
        return self

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write the spans as ``.npz`` (names, fn, parent, start, end)."""
        import numpy as np
        np.savez(path, names=np.array(NAMES), fn=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 counters=np.array([self.counters["lindblad.evolve.rk4_steps"]]))

    def summarize(self) -> dict:
        return summarize(self.fn, self.parent, self.start, self.end, self.counters)


def load(path) -> dict:
    """Summary of a span file written by ``Tracer.dump``."""
    import numpy as np
    with np.load(path) as z:
        return summarize(z["fn"].tolist(), z["parent"].tolist(), z["start"].tolist(),
                         z["end"].tolist(), {"lindblad.evolve.rk4_steps": int(z["counters"][0])})


def summarize(fn, parent, start, end, counters) -> dict:
    """Totals per traced function: calls, busy_s, self_s, plus counters.

    Also reports ``root_s`` (time covered by spans without a parent) and
    ``find_balanced_bias.evals`` (``spectrum_at`` spans below a
    ``find_balanced_bias`` span).
    """
    n_fn = len(NAMES)
    calls = [0] * n_fn
    busy = [0.0] * n_fn
    child = [0.0] * len(fn)
    dur = [e - s for s, e in zip(start, end)]
    root = 0.0
    for sid, (f, p) in enumerate(zip(fn, parent)):
        calls[f] += 1
        busy[f] += dur[sid]
        if p >= 0:
            child[p] += dur[sid]
        else:
            root += dur[sid]
    own = [0.0] * n_fn
    for sid, f in enumerate(fn):
        own[f] += dur[sid] - child[sid]
    fbb = NAMES.index("fluxonium.find_balanced_bias")
    spec = NAMES.index("fluxonium.spectrum_at")
    evals = 0
    for sid, f in enumerate(fn):
        if f != spec:
            continue
        p = parent[sid]
        while p >= 0 and fn[p] != fbb:
            p = parent[p]
        evals += p >= 0
    out = {"calls": dict(zip(NAMES, calls)), "busy_s": dict(zip(NAMES, busy)),
           "self_s": dict(zip(NAMES, own)), "root_s": root,
           "fluxonium.find_balanced_bias.evals": evals}
    out.update(counters)
    return out


def merge(summaries) -> dict:
    """Sum several summaries (one per traced process)."""
    total = None
    for s in summaries:
        if total is None:
            total = {k: (dict(v) if isinstance(v, dict) else v) for k, v in s.items()}
            continue
        for k, v in s.items():
            if isinstance(v, dict):
                for name, x in v.items():
                    total[k][name] += x
            else:
                total[k] += v
    return total

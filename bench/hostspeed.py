"""Host-speed calibration: a fixed kernel timed after every in-process op.

The hosts this benchmark runs on are shared.  For tens of seconds at a
time the same code runs up to about 30 % slower or faster, because of
other tenants (stolen CPU time, contended caches), so the wall time of a
whole run moves with the host.  This kernel runs the same kind of code
as the package (small dense LAPACK solves, a 100x100 eigensolve, small
numpy array operations and interpreter work), but none of the package's
own code, and slows down with it.  On a 2-vCPU Xeon host, dividing by it
cut the run-to-run spread of ``warm``'s ``ops_per_s`` from 0.064 to
0.022 of the median over five runs.

``run.py`` divides each op's time by the kernel's slowdown around that
op, so the end-to-end times read as on a host where the kernel takes
``REFERENCE_S``.  A change to the package does not change the kernel.
"""

from __future__ import annotations

import json
import re
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

#: Kernel time that counts as slowdown 1 (its median on a quiet 2-vCPU
#: Xeon host).  It only sets the scale of the reported times.
REFERENCE_S = 0.021
#: Kernel samples (one after each op) whose median gives an op's slowdown.
WINDOW = 9

_RNG = np.random.default_rng(20100422)
_A = _RNG.random((9, 9)) + 1j * _RNG.random((9, 9))
_B = _RNG.random(9) + 0j
_EYE = np.eye(3)
_H = _RNG.random((100, 100))
_H = _H + _H.T
_DOC = {f"k{i}": [i, str(i) * 3, {"x": i / 7.0, "y": [1, 2, 3]}] for i in range(800)}
_TEXT = json.dumps(_DOC)
_KEY = re.compile(r'"k\d+"')


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds.

    Its parts stand for the package's three kinds of work: 9x9 complex
    solves and small array operations (steady-state sweeps), a 100x100
    symmetric eigensolve (fluxonium levels), a loop of 9x9 matrix-vector
    products (RK4), plus plain interpreter work.
    """
    t0 = perf_counter()
    json.loads(json.dumps(_DOC))
    _KEY.findall(_TEXT)
    for _ in range(130):
        scipy.linalg.solve(_A, _B, check_finite=False)
    for _ in range(100):
        np.kron(_A, _EYE)
        np.linalg.norm(_A, np.inf)
        (_A @ _A.conj().T).trace()
    np.linalg.eigh(_H)
    v = _B
    for _ in range(300):
        v = _B + 1e-3 * (_A @ v)
    return perf_counter() - t0


def slowdowns(samples: list[float]) -> list[float]:
    """Slowdown at each op: the median of the kernel times within
    ``WINDOW // 2`` ops either side, over ``REFERENCE_S``."""
    half = WINDOW // 2
    return [statistics.median(samples[max(0, k - half):k + half + 1]) / REFERENCE_S
            for k in range(len(samples))]

import numpy as np
import pytest

from delta_eita import Decoherence, Drive, DriveSet, fluxonium, numerics


@pytest.fixture
def stock_drives():
    """The canonical loop drive set (Omega12 = Omega13 = 0.2, Omega23 = 1)."""
    return DriveSet(d12=Drive(0.2), d13=Drive(0.2), d23=Drive(1.0))


@pytest.fixture
def stock_dec():
    """gamma13 = 1, gamma12 = gamma23 = 0.1, no pure dephasing."""
    return Decoherence(gamma12=0.1, gamma13=1.0, gamma23=0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _solve(a, b):
    """``numerics.solve_in_place`` on column-major copies of ``a``, one
    matrix or a stack ``(m, n, n)``, with the length-n rhs ``b`` shared by
    every member; the solution has shape ``a.shape[:-1]``."""
    a = np.asarray(a, dtype=complex)
    stack = a.reshape((-1,) + a.shape[-2:])
    lu = np.swapaxes(np.swapaxes(stack, -1, -2).copy(), -1, -2)
    x = np.repeat(np.asarray(b, dtype=complex)[None], len(lu), axis=0)
    numerics.solve_in_place(lu, x, np.max(np.abs(lu), axis=(-2, -1)))
    return x.reshape(a.shape[:-1])


@pytest.fixture
def solve():
    """The pivoted LU solve of one matrix or a stack, through
    ``numerics.solve_in_place``, the package's one LU entry point."""
    return _solve


@pytest.fixture
def spectrum_at_calls(monkeypatch):
    """``fluxonium.spectrum_at``, wrapped to count its calls in ``.calls``,
    in place of the function in ``fluxonium``, through which the command
    line and the module's own sweeps call it."""
    spectrum = fluxonium.spectrum_at

    def counted(p, flux):
        counted.calls += 1
        return spectrum(p, flux)

    counted.calls = 0
    monkeypatch.setattr(fluxonium, "spectrum_at", counted)
    return counted

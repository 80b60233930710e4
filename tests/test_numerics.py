import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.linalg import lu_factor

from delta_eita import DimensionMismatch, NotHermitian, SingularMatrix
from delta_eita import build_liouvillian, numerics, rotating_hamiltonian, sweep_detuning
from delta_eita.config import parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.fixture(scope="module")
def stock_sweep_systems():
    """Every ``(stack, rhs, solution)`` the stock ``configs/eita.ini`` sweep
    solves, the rhs one row per member."""
    cfg = parse_config((CONFIG_DIR / "eita.ini").read_text(encoding="utf-8"))
    systems = []
    solve = numerics.solve_in_place

    def spy(a, x):
        stack, rhs = np.array(a), x.copy()
        solve(a, x)
        systems.append((stack, rhs, x.copy()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "solve_in_place", spy)
        sweep_detuning(cfg.drives, cfg.dec, cfg.grid())
    assert sum(len(a) for a, _, _ in systems) == cfg.grid_points
    return systems


class TestSolveLinear:
    def test_identity(self, rng):
        b = random_complex(rng, 3)
        np.testing.assert_allclose(numerics.solve_linear(np.eye(3), b), b, atol=0)

    def test_diagonal(self):
        x = numerics.solve_linear(np.diag([2.0, 4.0]), [2.0, 8.0])
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-15)

    def test_random_system_residual(self, rng):
        a = random_complex(rng, (9, 9)) + 3.0 * np.eye(9)
        b = random_complex(rng, 9)
        x = numerics.solve_linear(a, b)
        residual = np.max(np.abs(a @ x - b))
        assert residual <= 1e-10 * (1.0 + np.max(np.abs(b)))

    def test_singular_matrix(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            numerics.solve_linear(a, [1.0, 1.0])

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrix):
            numerics.solve_linear(np.zeros((2, 2)), [1.0, 0.0])

    def test_stack_matches_members(self, rng):
        stack = random_complex(rng, (3, 9, 9)) + 3.0 * np.eye(9)
        b = random_complex(rng, 9)
        x = numerics.solve_linear(stack, b)
        for member, xm in zip(stack, x):
            np.testing.assert_array_equal(xm, numerics.solve_linear(member, b))

    def test_stack_raises_for_first_singular_member(self, rng):
        good = random_complex(rng, (9, 9)) + 3.0 * np.eye(9)
        singular = good.copy()
        singular[4] = 2.0 * singular[1]
        b = random_complex(rng, 9)
        with pytest.raises(SingularMatrix) as alone:
            numerics.solve_linear(singular, b)
        with pytest.raises(SingularMatrix) as stacked:
            numerics.solve_linear(np.stack([good, singular, np.zeros((9, 9)), good]), b)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(SingularMatrix, match="^zero matrix$"):
            numerics.solve_linear(np.stack([good, np.zeros((9, 9)), singular]), b)

    def test_empty_stack(self):
        x = numerics.solve_linear(np.zeros((0, 9, 9)), np.ones(9))
        assert x.shape == (0, 9) and x.dtype == complex

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            numerics.solve_linear(np.eye(3), [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            numerics.solve_linear(np.ones((2, 3)), [1.0, 2.0])

    def test_relative_pivot_gate(self):
        b = np.ones(9)
        passes = np.diag([1.0] * 8 + [2e-12])
        np.testing.assert_array_equal(numerics.solve_linear(passes, b), b / np.diag(passes))
        fails = np.diag([1.0] * 8 + [5e-13])
        message = "^relative pivot 5.000e-13 below 1e-12$"
        with pytest.raises(SingularMatrix, match=message):
            numerics.solve_linear(fails, b)
        with pytest.raises(SingularMatrix, match=message):
            numerics.solve_linear(np.stack([passes, fails, np.zeros((9, 9))]), b)


#: BLAS threads of a fresh interpreter: on more than one, OpenBLAS's
#: ``zgetrs`` behind ``lu_solve`` takes a parallel triangular solve that
#: rounds differently from ``solve_linear``
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_python(code: str, **env) -> str:
    """stdout of ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def lu_factor_solutions(systems, tmp_path) -> list[np.ndarray]:
    """scipy's ``lu_factor``/``lu_solve`` solution of each ``(stack, rhs)``,
    the rhs shared or one per member, computed with the BLAS on one thread."""
    np.savez(tmp_path / "systems.npz", *[m for system in systems for m in system])
    run_python(f"""
import numpy as np
from scipy.linalg import lu_factor, lu_solve
z = np.load({str(tmp_path / "systems.npz")!r})
m = [z[f"arr_{{k}}"] for k in range(len(z.files))]
np.savez({str(tmp_path / "solutions.npz")!r}, *[
    lu_solve(lu_factor(a, check_finite=False), b[..., None], check_finite=False)[..., 0]
    for a, b in zip(m[::2], m[1::2])])
""", **ONE_BLAS_THREAD)
    z = np.load(tmp_path / "solutions.npz")
    return [z[f"arr_{k}"] for k in range(len(systems))]


class TestSolveLinearAgainstScipy:
    """scipy's ``lu_factor``/``lu_solve`` on one BLAS thread as a test-only
    oracle."""

    def test_solutions_on_stock_sweep(self, stock_sweep_systems, tmp_path):
        # the CSVs and the mirror-tie stdout lines rely on equality, not closeness
        expected = lu_factor_solutions([s[:2] for s in stock_sweep_systems], tmp_path)
        for (stack, rhs, solved), x in zip(stock_sweep_systems, expected):
            np.testing.assert_array_equal(solved, x)
            assert np.all(rhs == rhs[0])
            np.testing.assert_array_equal(numerics.solve_linear(stack, rhs[0]), x)

    def test_solutions_on_random_stacks(self, rng, tmp_path):
        systems = [(random_complex(rng, shape), random_complex(rng, shape[-1]))
                   for shape in [(500, 9, 9), (50, 4, 4), (9, 9)]]
        for (stack, b), x in zip(systems, lu_factor_solutions(systems, tmp_path)):
            np.testing.assert_array_equal(numerics.solve_linear(stack, b), x)

    def test_solutions_do_not_depend_on_blas_threads(self):
        # on a single-CPU host every thread count runs one thread
        code = f"""
import hashlib
import numpy as np
from delta_eita import numerics, sweep_detuning
from delta_eita.config import parse_config
cfg = parse_config(open({str(CONFIG_DIR / "eita.ini")!r}, encoding="utf-8").read())
rng = np.random.default_rng(7)
stack = rng.normal(size=(200, 9, 9)) + 1j * rng.normal(size=(200, 9, 9))
digest = hashlib.sha256(numerics.solve_linear(stack, rng.normal(size=9)).tobytes())
digest.update(sweep_detuning(cfg.drives, cfg.dec, cfg.grid()).rho31.tobytes())
print(digest.hexdigest())
"""
        digests = {threads: run_python(code, **dict.fromkeys(ONE_BLAS_THREAD, threads))
                   for threads in ("1", "2", "4")}
        assert len(set(digests.values())) == 1, digests

    def test_gate_reports_the_pivot_of_lu_factor(self, rng):
        stack = random_complex(rng, (20, 9, 9))
        stack[7, 5] = 2.0 * stack[7, 2] - stack[7, 6] + 3e-14 * random_complex(rng, 9)
        lu, _ = lu_factor(stack[7], check_finite=False)
        expected = np.min(np.abs(np.diag(lu))) / np.max(np.abs(stack[7]))
        assert expected < numerics.SINGULARITY_THRESHOLD
        with pytest.raises(SingularMatrix) as err:
            numerics.solve_linear(stack, np.ones(9))
        assert str(err.value) == f"relative pivot {expected:.3e} below 1e-12"

    def test_sweep_solved_before_scipy_is_imported(self):
        # the CLI solves with scipy not imported; the oracle tests above run
        # after this file's scipy import, so check that state in a fresh
        # interpreter
        code = f"""
import sys
import numpy as np
from delta_eita import numerics, sweep_detuning
from delta_eita.config import parse_config
cfg = parse_config(open({str(CONFIG_DIR / "eita.ini")!r}, encoding="utf-8").read())
solved, solve = [], numerics.solve_in_place

def spy(a, x):
    stack, rhs = np.array(a), x.copy()
    solve(a, x)
    solved.append((stack, rhs, x))

numerics.solve_in_place = spy
sweep_detuning(cfg.drives, cfg.dec, cfg.grid())
assert "scipy" not in sys.modules
from scipy.linalg import lu_factor, lu_solve
for a, b, x in solved:
    np.testing.assert_array_equal(
        x, lu_solve(lu_factor(a, check_finite=False), b[..., None], check_finite=False)[..., 0])
print(sum(len(a) for a, _, _ in solved))
"""
        assert run_python(code, **ONE_BLAS_THREAD) == "801\n"

    @pytest.mark.parametrize("first, second", [(1 + 1j, 2.0), (2.0, 1 + 1j)],
                             ids=["complex-first", "real-first"])
    def test_exact_tie_picks_the_first_row(self, first, second):
        # |Re| + |Im| is 2 in both rows of column 0 (|.| is not); the first
        # row as pivot leaves exactly 2**-43 as the second pivot, the other
        # row would leave it 2**-43 times sqrt(2) or 1 / sqrt(2)
        a = np.array([[first, first], [second, second + 2.0**-43]], dtype=complex)
        relative = 2.0**-43 / np.max(np.abs(a))
        with pytest.raises(SingularMatrix,
                           match=f"^relative pivot {relative:.3e} below 1e-12$"):
            numerics.solve_linear(a, [1.0, 1.0])


def taylor_expm_oracle(a, terms=60):
    """Plain Taylor sum; independent of the scaling-and-squaring path."""
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def assert_matches_scipy_expm(a):
    """``numerics.expm(a)`` within 1e-13 of scipy's, relative to its largest entry."""
    expected = scipy_expm(a)
    error = np.max(np.abs(numerics.expm(a) - expected)) / np.max(np.abs(expected))
    assert error <= 1e-13, error


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(numerics.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        lam = np.array([0.3 - 1.2j, -0.7 + 0.4j])
        out = numerics.expm(np.diag(lam))
        np.testing.assert_allclose(out, np.diag(np.exp(lam)), rtol=1e-12)

    def test_against_taylor_oracle(self, rng):
        a = random_complex(rng, (9, 9))
        a *= 5.0 / np.linalg.norm(a, np.inf)
        expected = taylor_expm_oracle(a)
        got = numerics.expm(a)
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_inverse_property(self, rng):
        a = random_complex(rng, (6, 6))
        a *= 10.0 / np.linalg.norm(a, np.inf)
        prod = numerics.expm(a) @ numerics.expm(-a)
        assert np.max(np.abs(prod - np.eye(6))) <= 1e-8

    def test_large_norm(self, rng):
        a = random_complex(rng, (4, 4))
        a *= 1e3 / np.linalg.norm(a, np.inf)
        half = numerics.expm(a / 2.0)
        full = numerics.expm(a)
        assert np.max(np.abs(half @ half - full)) <= 1e-9 * np.max(np.abs(full))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            numerics.expm(np.ones((2, 3)))

    def test_stack_members_equal_single_calls(self, rng):
        norms = np.geomspace(1e-3, 1e3, 13)
        stack = random_complex(rng, (len(norms) + 3, 9, 9))
        stack[:len(norms)] *= (norms / np.linalg.norm(stack[:len(norms)], 1, axis=(1, 2)))[:, None, None]
        stack[-3] = 0.0
        stack[-2] = np.diag(random_complex(rng, 9))
        stack[-1] = np.diag(np.ones(8), 1)          # nilpotent: A^2 != 0, A^9 = 0
        got = numerics.expm(stack)
        for member, expected in zip(stack, got):
            assert numerics.expm(member).tobytes() == expected.tobytes()

    def test_matches_scipy_on_random_matrices(self, rng):
        # at ||A||_1 = 1e3 exp is ill-conditioned enough that two correct
        # algorithms differ by up to ~1e-13 relative (p99 9e-14 in 300 draws)
        for norm in np.repeat(np.geomspace(1e-3, 1e3, 7), 4):
            a = random_complex(rng, (9, 9))
            assert_matches_scipy_expm(a * norm / np.linalg.norm(a, 1))

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 100.0])
    def test_matches_scipy_on_defective_jordan_block(self, t):
        jordan = np.diag(np.full(9, -1.0 + 0.5j)) + np.diag(np.ones(8), 1)
        assert_matches_scipy_expm(jordan * t)

    def test_matches_scipy_on_long_time_liouvillian(self, stock_drives, stock_dec):
        lv = build_liouvillian(rotating_hamiltonian(stock_drives), stock_dec)
        assert_matches_scipy_expm(1000.0 * lv)


class TestHermitianEig:
    def test_diagonal_sorted(self):
        w, _ = numerics.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)

    def test_exchange_matrix(self):
        w, _ = numerics.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_50x50(self, rng):
        x = random_complex(rng, (50, 50))
        a = 0.5 * (x + x.conj().T)
        w, v = numerics.hermitian_eig(a)
        assert np.max(np.abs(a @ v - v @ np.diag(w))) <= 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(50))) <= 1e-9

    def test_eigenvalue_sum_is_trace(self, rng):
        x = random_complex(rng, (12, 12))
        a = 0.5 * (x + x.conj().T)
        w, _ = numerics.hermitian_eig(a)
        assert abs(np.sum(w) - np.trace(a).real) <= 1e-9

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            numerics.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))



def test_matrices_must_be_square():
    with pytest.raises(DimensionMismatch, match="square"):
        numerics.as_complex_matrix(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch, match="square"):
        numerics.as_complex_matrix(np.ones((4, 3, 2)), stack=True)
    assert numerics.as_complex_matrix(np.ones((4, 2, 2)), stack=True).shape == (4, 2, 2)


def test_scale_complex_rounds_like_the_scalar_product(rng):
    z = random_complex(rng, 4001)
    for c in (np.exp(-0.5j * np.pi), np.exp(0.9j), np.sqrt(2.0)):
        scaled = numerics.scale_complex(z, c)
        assert scaled.tobytes() == np.array([w * c for w in z.tolist()]).tobytes()
        assert numerics.scale_complex(z[7], c) == z.tolist()[7] * c

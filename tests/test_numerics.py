from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from delta_eita import DimensionMismatch, NotHermitian, SingularMatrix
from delta_eita import numerics, sweep_detuning
from delta_eita.config import parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.fixture(scope="module")
def stock_sweep_systems():
    """Every ``(stack, rhs)`` the stock ``configs/eita.ini`` sweep solves."""
    cfg = parse_config((CONFIG_DIR / "eita.ini").read_text(encoding="utf-8"))
    systems = []
    solve = numerics.solve_linear

    def spy(a, b):
        systems.append((np.array(a), np.array(b)))
        return solve(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "solve_linear", spy)
        sweep_detuning(cfg.drives, cfg.dec, cfg.grid())
    assert sum(len(a) for a, _ in systems) == cfg.grid_points
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


def lu_factor_solution(stack, b):
    return lu_solve(lu_factor(stack, check_finite=False), b[:, None],
                    check_finite=False)[..., 0]


class TestSolveLinearAgainstScipy:
    """scipy's ``lu_factor``/``lu_solve`` as a test-only oracle."""

    def test_solutions_on_stock_sweep(self, stock_sweep_systems):
        # the CSVs and the mirror-tie stdout lines rely on equality, not closeness
        for stack, b in stock_sweep_systems:
            np.testing.assert_array_equal(numerics.solve_linear(stack, b),
                                          lu_factor_solution(stack, b))

    def test_solutions_on_random_stacks(self, rng):
        for shape in [(500, 9, 9), (50, 4, 4), (9, 9)]:
            stack = random_complex(rng, shape)
            b = random_complex(rng, shape[-1])
            np.testing.assert_array_equal(numerics.solve_linear(stack, b),
                                          lu_factor_solution(stack, b))

    def test_gate_reports_the_pivot_of_lu_factor(self, rng):
        stack = random_complex(rng, (20, 9, 9))
        stack[7, 5] = 2.0 * stack[7, 2] - stack[7, 6] + 3e-14 * random_complex(rng, 9)
        lu, _ = lu_factor(stack[7], check_finite=False)
        expected = np.min(np.abs(np.diag(lu))) / np.max(np.abs(stack[7]))
        assert expected < numerics.SINGULARITY_THRESHOLD
        with pytest.raises(SingularMatrix) as err:
            numerics.solve_linear(stack, np.ones(9))
        assert str(err.value) == f"relative pivot {expected:.3e} below 1e-12"

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

import numpy as np
import pytest

from delta_eita import DimensionMismatch, NotHermitian, SingularMatrix
from delta_eita import numerics


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestKron:
    def test_identity_case(self):
        out = numerics.kron(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(out, np.eye(4))

    def test_scalar_factor(self):
        out = numerics.kron([[0, 1], [0, 0]], [[2]])
        np.testing.assert_array_equal(out, [[0, 2], [0, 0]])

    def test_against_double_loop_oracle(self, rng):
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (3, 3))
        expected = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        expected[i * 3 + k, j * 3 + l] = a[i, j] * b[k, l]
        np.testing.assert_allclose(numerics.kron(a, b), expected, atol=0)

    def test_associativity(self, rng):
        a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
        left = numerics.kron(numerics.kron(a, b), c)
        right = numerics.kron(a, numerics.kron(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            numerics.kron([[np.nan, 0], [0, 1]], np.eye(2))


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


import re
import warnings

import numpy as np
import pytest

from newtonbench import linalg, newton
from newtonbench.errors import NonFiniteResult, ShapeMismatch, SingularMatrix

from oracles import gauss_jordan_inverse, rel_err


def random_spd(rng, m, scale=1.0):
    B = rng.standard_normal((m, m))
    return B @ B.T * scale / m + 0.1 * np.eye(m)


class TestSolveTikhonov:
    # the right-hand sides must match the system's rows, so their pin names that shape
    @pytest.mark.parametrize(
        "solve,message",
        [
            (lambda: linalg.TikhonovSolver(np.zeros((0, 0)), 1.0), "must be 2-D and nonempty"),
            (
                lambda: linalg.TikhonovSolver(np.eye(2), 1.0).solve_mat(np.zeros((2, 0))),
                r"B must have shape \(2, \*\)",
            ),
            (
                lambda: linalg.woodbury_solve(np.zeros((0, 3)), 1.0, np.ones((1, 3))),
                "must be 2-D and nonempty",
            ),
            (lambda: newton.inject_fisher(np.zeros((0, 3)), 1.0), "must be 2-D and nonempty"),
        ],
        ids=["solver", "rhs", "woodbury", "inject-fisher"],
    )
    def test_every_matrix_must_be_nonempty(self, solve, message):
        with pytest.raises(ShapeMismatch, match=f"{message}, got shape"):
            solve()

    @pytest.mark.parametrize("rhs", [np.ones((3, 1)), np.ones(2), np.ones((2, 1, 1))])
    def test_rhs_rows_must_match_the_system(self, rhs):
        message = rf"^B must have shape \(2, \*\), got shape {re.escape(str(rhs.shape))}$"
        with pytest.raises(ShapeMismatch, match=message):
            linalg.TikhonovSolver(np.eye(2), 1.0).solve_mat(rhs)

    @pytest.mark.parametrize("strict", [False, True], ids=["default", "warnings-as-errors"])
    def test_an_overflowing_matrix_fails_at_construction(self, strict):
        # sym(M) overflows to inf, whose eigenvalues come back NaN: named when
        # the solver is built, not at its first solve
        with warnings.catch_warnings():
            if strict:
                warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match=r"^eigenvalues of sym\(M\) must be finite"):
                linalg.TikhonovSolver(np.full((2, 2), 1e308), 0.1)

    def test_zero_matrix_unit_lambda_is_identity(self):
        x = linalg.TikhonovSolver(np.zeros((2, 2)), 1.0).solve(np.array([3.0, 4.0]))
        np.testing.assert_allclose(x, [3.0, 4.0], rtol=0, atol=0)

    def test_identity_plus_lambda_halves(self):
        x = linalg.TikhonovSolver(np.eye(2), 1.0).solve(np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_matches_gauss_jordan_oracle(self):
        rng = np.random.default_rng(7)
        M = random_spd(rng, 3)
        g = rng.standard_normal(3)
        x = linalg.TikhonovSolver(M, 0.1).solve(g)
        expected = gauss_jordan_inverse(M + 0.1 * np.eye(3)) @ g
        np.testing.assert_allclose(x, expected, atol=1e-10)

    def test_residual_bound_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 12))
            M = rng.standard_normal((m, m))
            M = 0.5 * (M + M.T)
            lam = float(rng.uniform(0.01, 2.0))
            g = rng.standard_normal(m)
            x = linalg.TikhonovSolver(M, lam).solve(g)
            A = 0.5 * (M + M.T) + lam * np.eye(m)
            resid = np.max(np.abs(A @ x - g))
            assert resid <= 1e-8 * (1 + np.max(np.abs(g)))

    def test_asymmetric_input_is_symmetrized(self):
        M = np.array([[2.0, 2.0], [0.0, 2.0]])
        x = linalg.TikhonovSolver(M, 0.0).solve(np.array([1.0, 1.0]))
        sym = 0.5 * (M + M.T)
        np.testing.assert_allclose(sym @ x, [1.0, 1.0], atol=1e-12)

    def test_norm_nonincreasing_in_lambda_for_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            M = random_spd(rng, m)
            g = rng.standard_normal(m)
            lams = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
            norms = [np.linalg.norm(linalg.TikhonovSolver(M, lam).solve(g)) for lam in lams]
            for lo, hi in zip(norms[:-1], norms[1:]):
                assert hi <= lo * (1 + 1e-12)

    def test_singular_zero_matrix_zero_lambda(self):
        with pytest.raises(SingularMatrix):
            linalg.TikhonovSolver(np.zeros((3, 3)), 0.0).solve(np.ones(3))

    def test_singular_rank_deficient(self):
        M = np.outer([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(SingularMatrix):
            linalg.TikhonovSolver(M, 0.0).solve(np.array([1.0, 0.0]))

    def test_the_pivot_threshold_is_one_part_in_1e12(self):
        # eigenvalue ratios on either side of PIVOT_RTOL: 1e-10 solves, 1e-13 does not
        x = linalg.TikhonovSolver(np.diag([1.0, 1e-10]), 0.0).solve(np.ones(2))
        assert rel_err(x, np.array([1.0, 1e10])) <= 1e-12
        with pytest.raises(SingularMatrix, match="^eigenvalue 1.000e-13 below 1e-12 "):
            linalg.TikhonovSolver(np.diag([1.0, 1e-13]), 0.0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            linalg.TikhonovSolver(np.eye(2), -0.5).solve(np.ones(2))

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_rejects_nonfinite_lambda_up_front(self, lam):
        # not a late NonFiniteResult from the solve, nor a SingularMatrix
        with pytest.raises(ValueError, match="lam must be a finite real number >= 0"):
            linalg.TikhonovSolver(np.eye(2), lam)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteResult):
            M = np.array([[np.nan, 0.0], [0.0, 1.0]])
            linalg.TikhonovSolver(M, 1.0).solve(np.ones(2))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeMismatch):
            linalg.TikhonovSolver(np.eye(2), 1.0).solve(np.ones(3))
        with pytest.raises(ShapeMismatch):
            linalg.TikhonovSolver(np.ones((2, 3)), 1.0).solve(np.ones(2))

    def test_an_empty_rhs_vector_is_named(self):
        with pytest.raises(ShapeMismatch, match=r"^g must have shape \(2,\), got shape \(0,\)$"):
            linalg.TikhonovSolver(np.eye(2), 1.0).solve([])


class TestWoodburySolve:
    def test_single_row(self):
        x = linalg.woodbury_solve(np.array([[1.0, 0.0]]), 1.0, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(x, [[0.5, 0.0]], atol=1e-12)

    def test_large_lambda_dominates(self):
        rng = np.random.default_rng(5)
        G = rng.uniform(-1.0, 1.0, (4, 6))
        g = rng.standard_normal(6)
        x = linalg.woodbury_solve(G, 1e6, g[None, :])[0]
        assert rel_err(x, g / 1e6) <= 1e-6

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(17)
        G = rng.standard_normal((8, 20))
        g = rng.standard_normal(20)
        lam = 0.3
        x = linalg.woodbury_solve(G, lam, g[None, :])[0]
        direct = linalg.TikhonovSolver(G.T @ G / 8, lam).solve(g)
        np.testing.assert_allclose(x, direct, rtol=1e-8, atol=1e-10)

    def test_equivalence_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(1, 33))
            G = rng.standard_normal((n, m))
            g = rng.standard_normal(m)
            lam = float(rng.uniform(0.05, 5.0))
            x = linalg.woodbury_solve(G, lam, g[None, :])[0]
            direct = linalg.TikhonovSolver(G.T @ G / n, lam).solve(g)
            denom = max(np.max(np.abs(direct)), 1e-12)
            assert np.max(np.abs(x - direct)) / denom <= 1e-8

    def test_block_equals_row_by_row(self):
        rng = np.random.default_rng(29)
        G = rng.standard_normal((5, 12))
        B = rng.standard_normal((7, 12))
        X = linalg.woodbury_solve(G, 0.4, B)
        rows = [linalg.woodbury_solve(G, 0.4, b[None, :])[0] for b in B]
        np.testing.assert_allclose(X, rows, rtol=1e-12, atol=1e-14)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            linalg.woodbury_solve(np.ones((1, 2)), 0.0, np.ones((1, 2)))


def one_row_hessian(grad, y):
    """newton.batch_hessian's finite-difference route on a single sample."""
    # grad maps every row of the probe's stack; a wrong-length row comes back
    # as a wrong-shape stack for newton to reject
    probe = newton.LossProbe(grad=lambda rows: np.apply_along_axis(grad, -1, rows))
    return newton.batch_hessian(probe, np.asarray(y, dtype=np.float64)[None, :])[1]


class TestFiniteDiffHessian:
    def test_quadratic_gives_identity(self):
        H = one_row_hessian(lambda y: y, [0.3, -0.7])
        np.testing.assert_allclose(H, np.eye(2), atol=1e-7)

    def test_bilinear(self):
        grad = lambda y: np.array([y[1], y[0]])
        H = one_row_hessian(grad, [1.0, 2.0])
        np.testing.assert_allclose(H, [[0.0, 1.0], [1.0, 0.0]], atol=1e-7)

    def test_quartic_diagonal(self):
        grad = lambda y: 4.0 * y ** 3
        H = one_row_hessian(grad, [1.0, 2.0])
        np.testing.assert_allclose(H, np.diag([12.0, 48.0]), atol=1e-4)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        grad = lambda y: A @ y  # Hessian A is asymmetric on purpose
        y = rng.standard_normal(4)
        H = one_row_hessian(grad, y)
        assert np.array_equal(H, H.T)

    def test_nonfinite_probe_raises(self):
        def grad(y):
            return np.array([np.inf, 0.0])
        with pytest.raises(NonFiniteResult):
            one_row_hessian(grad, np.zeros(2))

    def test_wrong_shape_probe_raises(self):
        with pytest.raises(ShapeMismatch):
            one_row_hessian(lambda y: np.zeros(3), np.zeros(2))

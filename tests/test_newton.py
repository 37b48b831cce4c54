"""Target construction, the induced square loss, and the split-step checks."""

import warnings

import numpy as np
import pytest

from newtonbench import diffsort, linalg, net, newton
from newtonbench.errors import ConfigError, NonFiniteResult, ShapeMismatch, SingularMatrix

from oracles import gauss_jordan_inverse, rel_err


def quadratic_probe(a_mat, b_vec):
    """Per-sample loss 0.5 y^T A y + b^T y with symmetric A."""
    a = np.asarray(a_mat, dtype=np.float64)
    b = np.asarray(b_vec, dtype=np.float64)
    return newton.LossProbe(
        value=lambda y: float(
            np.sum(0.5 * np.einsum("ni,ij,nj->n", y, a, y) + y @ b)
        ),
        grad=lambda y: y @ a + b,
        hessian=lambda y: a.copy(),
    )


def mse_probe(targets):
    t = np.asarray(targets, dtype=np.float64)
    return newton.LossProbe(
        value=lambda y: 0.5 * float(np.sum((y - t) ** 2)),
        grad=lambda y: y - t,
        hessian=lambda y: np.eye(t.shape[1]),
    )


def random_spd(rng, m, shift=0.5):
    mat = rng.standard_normal((m, m))
    return mat @ mat.T / m + shift * np.eye(m)


class TestHessianTargets:
    def test_mse_collapse(self):
        rng = np.random.default_rng(0)
        y_star = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 4))
        probe = mse_probe(y_star)
        target = newton.newton_target_hessian(y, probe, 0.0)
        assert np.max(np.abs(target.z_star - y_star)) <= 1e-12
        value, grad = newton.newton_loss_eval(y, target)
        assert np.max(np.abs(grad - probe.grad(y))) <= 1e-12

    def test_identity_hessian_scales_gradient(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((5, 3))
        b = rng.standard_normal(3)
        probe = quadratic_probe(np.eye(3), b)
        lam = 0.7
        target = newton.newton_target_hessian(y, probe, lam)
        expected = y - probe.grad(y) / (1.0 + lam)
        assert np.max(np.abs(target.z_star - expected)) <= 1e-12

    def test_random_quadratic_against_gauss_jordan(self):
        rng = np.random.default_rng(2)
        m = 6
        a = random_spd(rng, m)
        b = rng.standard_normal(m)
        y = rng.standard_normal((7, m))
        probe = quadratic_probe(a, b)
        lam = 0.1
        target = newton.newton_target_hessian(y, probe, lam)
        inv = gauss_jordan_inverse(a + lam * np.eye(m))
        expected = y - probe.grad(y) @ inv.T
        assert rel_err(target.z_star, expected) <= 1e-8

    def test_finite_diff_fallback_matches_analytic(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 4)
        b = rng.standard_normal(4)
        y = rng.standard_normal((3, 4))
        probe = quadratic_probe(a, b)
        blind = newton.LossProbe(value=probe.value, grad=probe.grad)
        t_fd = newton.newton_target_hessian(y, blind, 0.2)
        t_an = newton.newton_target_hessian(y, probe, 0.2)
        assert rel_err(t_fd.z_star, t_an.z_star) <= 1e-7

    def test_singular_regularized_hessian_raises(self):
        probe = quadratic_probe(-np.eye(3), np.ones(3))
        with pytest.raises(SingularMatrix):
            newton.newton_target_hessian(np.zeros((2, 3)), probe, 1.0)

    def test_config_dispatch(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((3, 2))
        probe = quadratic_probe(random_spd(rng, 2), rng.standard_normal(2))
        cfg = newton.NewtonConfig(variant="hessian", lam=0.3)
        via_cfg = newton.newton_target(y, probe, cfg)
        direct = newton.newton_target_hessian(y, probe, 0.3)
        assert np.array_equal(via_cfg.z_star, direct.z_star)

    def test_from_parts_matches_probe_route(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 3)
        b = rng.standard_normal(3)
        y = rng.standard_normal((4, 3))
        probe = quadratic_probe(a, b)
        t1 = newton.newton_target_hessian(y, probe, 0.05)
        t2 = newton.newton_target_from_parts(y, probe.grad(y), a, 0.05)
        assert np.array_equal(t1.z_star, t2.z_star)

    def test_from_parts_names_non_finite_grads(self):
        grads = np.array([[1.0, np.nan]])
        with pytest.raises(NonFiniteResult, match="^grads must be finite, got nan$"):
            newton.newton_target_from_parts(np.zeros((1, 2)), grads, np.eye(2), 0.1)


class TestFisherTargets:
    def test_single_row_worked_example(self):
        probe = newton.LossProbe(
            value=lambda y: 0.0,
            grad=lambda y: np.array([[1.0, 0.0]]),
        )
        target = newton.newton_target_fisher(np.zeros((1, 2)), probe, 1.0)
        assert np.max(np.abs(target.z_star - np.array([[-0.5, 0.0]]))) <= 1e-12

    def test_large_lambda_recovers_gradient_direction(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((5, 4))
        g = rng.standard_normal((5, 4))
        probe = newton.LossProbe(value=lambda v: 0.0, grad=lambda v: g)
        target = newton.newton_target_fisher(y, probe, 1e8)
        u = (target.z_star - y).ravel()
        v = -g.ravel()
        cos = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert cos >= 1.0 - 1e-9

    def test_direct_and_woodbury_agree(self):
        rng = np.random.default_rng(7)
        n, m = 8, 20
        y = rng.standard_normal((n, m))
        g = rng.standard_normal((n, m))
        probe = newton.LossProbe(value=lambda v: 0.0, grad=lambda v: g)
        t_dir = newton.newton_target_fisher(y, probe, 0.5, inversion="direct")
        t_wood = newton.newton_target_fisher(y, probe, 0.5, inversion="woodbury")
        assert rel_err(t_dir.z_star, t_wood.z_star) <= 1e-8

    def test_zero_lambda_rejected(self):
        probe = newton.LossProbe(
            value=lambda y: 0.0, grad=lambda y: np.ones_like(y)
        )
        with pytest.raises(ValueError):
            newton.newton_target_fisher(np.zeros((2, 3)), probe, 0.0)

    def test_fisher_is_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = rng.standard_normal((rng.integers(1, 9), 5))
            fisher = g.T @ g / g.shape[0]
            assert np.min(np.linalg.eigvalsh(fisher)) >= -1e-10
            v = rng.standard_normal(5)
            assert v @ fisher @ v >= -1e-10


class TestNewtonLossEval:
    def test_empty_batch_is_a_shape_mismatch(self):
        empty = np.zeros((0, 3))
        with pytest.raises(ShapeMismatch, match=r"^y must be 2-D and nonempty, got shape \(0, 3"):
            newton.newton_loss_eval(empty, newton.NewtonTarget(z_star=empty))

    def test_zero_at_target(self):
        z = np.arange(6.0).reshape(2, 3)
        target = newton.NewtonTarget(z_star=z.copy())
        value, grad = newton.newton_loss_eval(z, target)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_unit_example(self):
        target = newton.NewtonTarget(z_star=np.zeros((1, 2)))
        value, grad = newton.newton_loss_eval(np.array([[1.0, 0.0]]), target)
        assert abs(value - 0.5) <= 1e-15
        assert np.array_equal(grad, np.array([[1.0, 0.0]]))

    def test_value_is_mean_reduced(self):
        y = np.array([[2.0], [0.0]])
        target = newton.NewtonTarget(z_star=np.zeros((2, 1)))
        value, _ = newton.newton_loss_eval(y, target)
        assert abs(value - 1.0) <= 1e-15  # (0.5*4 + 0) / 2

    def test_sgd_step_is_damped_newton_step(self):
        rng = np.random.default_rng(9)
        m = 5
        a = random_spd(rng, m)
        b = rng.standard_normal(m)
        y = rng.standard_normal((6, m))
        probe = quadratic_probe(a, b)
        lam, eta = 0.3, 0.7
        target = newton.newton_target_hessian(y, probe, lam)
        _, grad = newton.newton_loss_eval(y, target)
        stepped = y - eta * grad
        inv = gauss_jordan_inverse(a + lam * np.eye(m))
        reference = y - eta * probe.grad(y) @ inv.T
        assert rel_err(stepped, reference) <= 1e-8

    def test_shape_mismatch(self):
        target = newton.NewtonTarget(z_star=np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            newton.newton_loss_eval(np.zeros((3, 2)), target)

    @pytest.mark.parametrize(
        "use",
        [
            lambda t: newton.newton_loss_eval(np.zeros((1, 2)), t),
            newton.newton_loss_probe,  # its value used to read nan
        ],
        ids=["eval", "probe"],
    )
    def test_non_finite_target_raises(self, use):
        target = newton.NewtonTarget(z_star=np.array([[0.0, np.nan]]))
        with pytest.raises(NonFiniteResult, match="^target.z_star must be finite, got nan$"):
            use(target)


class TestFixpointAndLimits:
    def test_newton_loss_is_its_own_fixpoint(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((4, 3))
        probe = quadratic_probe(random_spd(rng, 3), rng.standard_normal(3))
        target = newton.newton_target_hessian(y, probe, 0.2)
        wrapped = newton.newton_loss_probe(target)
        assert np.array_equal(wrapped.hessian(y), np.eye(3))
        again = newton.newton_target_hessian(y, wrapped, 0.0)
        assert np.max(np.abs(again.z_star - target.z_star)) <= 1e-10

    def test_lambda_limit_hessian(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((4, 3))
        probe = quadratic_probe(random_spd(rng, 3), rng.standard_normal(3))
        lam = 1e10
        target = newton.newton_target_hessian(y, probe, lam)
        assert rel_err(lam * (target.z_star - y), -probe.grad(y)) <= 1e-6

    def test_lambda_limit_fisher(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 3))
        probe = newton.LossProbe(value=lambda v: 0.0, grad=lambda v: g)
        lam = 1e10
        target = newton.newton_target_fisher(y, probe, lam)
        assert rel_err(lam * (target.z_star - y), -g) <= 1e-6


class TestInjectFisher:
    def test_single_row_example(self):
        out = newton.inject_fisher(np.array([[1.0, 0.0]]), 1.0)
        assert np.max(np.abs(out - np.array([[0.5, 0.0]]))) <= 1e-15

    def test_large_lambda_passthrough(self):
        rng = np.random.default_rng(13)
        g = rng.uniform(-1.0, 1.0, size=(6, 4))
        lam = 1e8
        out = newton.inject_fisher(g, lam)
        assert rel_err(out, g / lam) <= 1e-6

    def test_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            newton.inject_fisher(np.ones((2, 2)), 0.0)

    def test_an_overflowing_second_moment_is_a_numeric_failure(self):
        # under warnings as errors too: numpy's overflow warning in the
        # product does not pre-empt the package's own non-finite check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match="^M must be finite, got inf$"):
                newton.inject_fisher(np.full((3, 4), 1e200), 0.1)

    def test_sgd_equivalence_with_fisher_targets(self):
        # One SGD step on the fisher-target square loss must match one SGD
        # step where the mean-reduced output gradients are whitened in place.
        rng = np.random.default_rng(14)
        model = net.Mlp.init([3, 6, 2], ["tanh", "identity"], seed=21)
        x = rng.standard_normal((5, 3))
        t = rng.standard_normal((5, 2))
        probe = mse_probe(t)
        lam, eta = 0.4, 0.05
        n = x.shape[0]

        target_path = net.clone_model(model)
        y, tape = net.forward(target_path, x)
        target = newton.newton_target_fisher(y, probe, lam)
        _, rows = newton.newton_loss_eval(y, target)
        grads = net.backward(target_path, tape, rows)
        net.optimizer_step(
            net.OptimizerState.create("sgd", eta, target_path), target_path, grads
        )

        inject_path = net.clone_model(model)
        y2, tape2 = net.forward(inject_path, x)
        mean_rows = probe.grad(y2) / n
        injected = newton.inject_fisher(mean_rows, lam)
        grads2 = net.backward(inject_path, tape2, n * injected)
        net.optimizer_step(
            net.OptimizerState.create("sgd", eta, inject_path), inject_path, grads2
        )

        dev = np.max(
            np.abs(net.get_flat_params(target_path) - net.get_flat_params(inject_path))
        )
        assert dev <= 1e-8


class TestSplitStepGd:
    def test_zero_gradient_probe_deviates_nowhere(self):
        model = net.Mlp.init([2, 4, 3], ["tanh", "identity"], seed=0)
        x = np.random.default_rng(15).standard_normal((4, 2))
        probe = newton.LossProbe(
            value=lambda y: 0.0, grad=lambda y: np.zeros_like(y)
        )
        out = newton.split_step_check_gd(model, x, probe, eta=0.1)
        assert out["max_param_deviation"] == 0.0

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_rejects_a_non_finite_step(self, eta):
        model = net.Mlp.init([2, 3, 1], ["tanh", "identity"], seed=0)
        probe = newton.LossProbe(grad=lambda y: y)
        with pytest.raises(ConfigError, match="^eta must be a finite real number > 0"):
            newton.split_step_check_gd(model, np.ones((2, 2)), probe, eta=eta)

    def test_mse_probe(self):
        rng = np.random.default_rng(16)
        model = net.Mlp.init([3, 8, 2], ["tanh", "identity"], seed=1)
        x = rng.standard_normal((6, 3))
        probe = mse_probe(rng.standard_normal((6, 2)))
        out = newton.split_step_check_gd(model, x, probe, eta=0.3)
        assert out["max_param_deviation"] <= 1e-10

    def test_ranking_probe(self):
        rng = np.random.default_rng(17)
        n = 5
        model = net.Mlp.init([4, 10, n], ["tanh", "identity"], seed=2)
        x = rng.standard_normal((3, 4))
        truth = diffsort.hard_rank(rng.standard_normal(n))
        cfg = diffsort.SortConfig(method="neuralsort")

        def rows(y):
            return np.stack(
                [diffsort.ranking_loss(row, truth, cfg)[1] for row in y]
            )

        probe = newton.LossProbe(
            value=lambda y: float(
                sum(diffsort.ranking_loss(row, truth, cfg)[0] for row in y)
            ),
            grad=rows,
        )
        out = newton.split_step_check_gd(model, x, probe, eta=0.5)
        assert out["max_param_deviation"] <= 1e-8


class TestSplitStepNewton:
    def test_quadratic_probe_one_parameter_model(self):
        # Single weight, frozen bias: both Newton paths land on the
        # analytic minimizer of the composite quadratic in one step.
        model = net.Mlp.init([1, 1], ["identity"], seed=3)
        x = np.array([1.7])
        a, b = 2.0, 0.7
        probe = quadratic_probe(np.array([[a]]), np.array([b]))
        out = newton.split_step_check_newton(
            model, x, probe, eta=1.0, trainable="weights"
        )
        assert out["max_param_deviation"] <= 1e-8
        y_new, _ = net.forward(model, x[None, :])  # model itself unchanged
        stepped = net.clone_model(model)
        w = net.get_flat_params(stepped)
        # replay the direct path to confirm the minimizer claim
        y0, tape = net.forward(stepped, x[None, :])
        g = net.backward(stepped, tape, probe.grad(y0))[0]
        h = a * x[0] * x[0]
        w[0] -= g / h
        stepped.flat[...] = w
        y1, _ = net.forward(stepped, x[None, :])
        assert abs(y1[0, 0] - (-b / a)) <= 1e-10

    def test_quartic_probe_tanh_model(self):
        # Biases stay frozen: with a single input point, weight and bias of
        # the hidden unit only enter through w*x + b, an exactly flat
        # direction of the composite loss, so the all-parameter Hessian is
        # singular by construction.
        rng = np.random.default_rng(19)
        model = net.Mlp.init([1, 1, 1], ["tanh", "identity"], seed=4)
        x = rng.standard_normal(1)
        probe = newton.LossProbe(
            value=lambda y: float(np.sum(y**4 + y**2)),
            grad=lambda y: 4.0 * y**3 + 2.0 * y,
        )
        out = newton.split_step_check_newton(
            model, x, probe, eta=0.5, trainable="weights"
        )
        assert out["max_param_deviation"] <= 1e-6

    def test_flat_probe_linear_model_raises(self):
        model = net.Mlp.init([2, 1], ["identity"], seed=5)
        x = np.ones(2)
        probe = newton.LossProbe(
            value=lambda y: float(np.sum(3.0 * y)),
            grad=lambda y: 3.0 * np.ones_like(y),
            hessian=lambda y: np.zeros((1, 1)),
        )
        with pytest.raises(SingularMatrix):
            newton.split_step_check_newton(
                model, x, probe, eta=0.1, trainable="weights"
            )

    def test_flat_probe_z_path_raises(self):
        # With curvature in the model the direct Hessian need not be
        # singular, but some path always divides by the zero loss curvature.
        model = net.Mlp.init([2, 3, 1], ["tanh", "identity"], seed=6)
        x = np.ones(2)
        probe = newton.LossProbe(
            value=lambda y: float(np.sum(3.0 * y)),
            grad=lambda y: 3.0 * np.ones_like(y),
            hessian=lambda y: np.zeros((1, 1)),
        )
        with pytest.raises(SingularMatrix):
            newton.split_step_check_newton(model, x, probe, eta=0.1)

    def test_batch_shape_guard(self):
        model = net.Mlp.init([2, 1], ["identity"], seed=7)
        probe = quadratic_probe(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(ShapeMismatch):
            newton.split_step_check_newton(model, np.ones((3, 2)), probe, eta=0.1)


class TestBatchHessian:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_batch_is_a_shape_mismatch(self, shape):
        probe = newton.LossProbe(grad=lambda v: v)
        with pytest.raises(ShapeMismatch, match="^y_bar must be 2-D and nonempty"):
            newton.batch_hessian(probe, np.zeros(shape))

    def test_finite_diff_on_quartic(self):
        rng = np.random.default_rng(20)
        y = rng.standard_normal((3, 2))
        probe = newton.LossProbe(
            value=lambda v: float(np.sum(v**4)),
            grad=lambda v: 4.0 * v**3,
        )
        _, h = newton.batch_hessian(probe, y)
        expected = np.diag(np.mean(12.0 * y**2, axis=0))
        assert rel_err(h, expected) <= 1e-5

    def test_finite_diff_route_is_one_stacked_grad_call(self):
        rng = np.random.default_rng(21)
        y = 3.0 * rng.standard_normal((3, 4))
        stacks = []

        def grad(v):
            stacks.append(v.copy())
            return 4.0 * v**3

        grads, _ = newton.batch_hessian(newton.LossProbe(grad=grad), y)
        assert [s.shape for s in stacks] == [(9, 3, 4)]
        assert np.array_equal(grads, grad(y))
        # row 0 is y; shift j moves coordinate j of every row up, shift m + j down
        stack, step = stacks[0], newton.FD_STEP * max(1.0, np.max(np.abs(y)))
        assert np.array_equal(stack[0], y)
        for j in range(4):
            up, down = y.copy(), y.copy()
            up[:, j] += step
            down[:, j] -= step
            assert np.array_equal(stack[1 + j], up)
            assert np.array_equal(stack[5 + j], down)

    def test_analytic_route_is_one_grad_and_one_hessian_call(self):
        rng = np.random.default_rng(22)
        a = random_spd(rng, 3)
        y = rng.standard_normal((4, 3))
        calls = []
        probe = newton.LossProbe(
            grad=lambda v: calls.append(("grad", v.shape)) or v @ a,
            hessian=lambda v: calls.append(("hessian", v.shape)) or a,
        )
        grads, h = newton.batch_hessian(probe, y)
        assert sorted(calls) == [("grad", (4, 3)), ("hessian", (4, 3))]
        assert np.array_equal(grads, y @ a)
        assert np.array_equal(h, 0.5 * (a + a.T))

    def test_symmetrization_is_exact(self):
        probe = newton.LossProbe(
            value=lambda y: 0.0,
            grad=lambda y: y,
            hessian=lambda y: np.array([[1.0, 0.25], [0.75, 2.0]]),
        )
        _, h = newton.batch_hessian(probe, np.zeros((2, 2)))
        assert np.array_equal(h, h.T)
        assert h[0, 1] == 0.5

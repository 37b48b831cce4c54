import numpy as np
import pytest

from newtonbench import net
from newtonbench.errors import NonFiniteResult, ShapeMismatch

from oracles import rel_err


def make_model(sizes, activations, seed=0):
    return net.Mlp.init(sizes, activations, seed)


class TestForward:
    def test_identity_layer_passes_input_through(self):
        model = net.Mlp([np.eye(3)], [np.zeros(3)], ["identity"])
        x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]])
        y, _ = net.forward(model, x)
        np.testing.assert_array_equal(y, x)

    def test_zero_weights_broadcast_bias(self):
        model = net.Mlp([np.zeros((2, 3))], [np.array([0.5, -1.0])], ["identity"])
        y, _ = net.forward(model, np.ones((4, 3)))
        np.testing.assert_array_equal(y, np.tile([0.5, -1.0], (4, 1)))

    def test_width_mismatch_raises(self):
        model = make_model([3, 2], ["relu"])
        with pytest.raises(ShapeMismatch):
            net.forward(model, np.ones((2, 4)))


class TestBackward:
    def test_zero_output_grads_give_zero_param_grads(self):
        model = make_model([3, 4, 2], ["tanh", "identity"], seed=1)
        x = np.random.default_rng(1).standard_normal((5, 3))
        _, tape = net.forward(model, x)
        grads = net.backward(model, tape, np.zeros((5, 2)))
        for g in grads.weights + grads.biases:
            assert not g.any()

    def test_single_linear_layer_outer_product(self):
        model = net.Mlp([np.zeros((2, 3))], [np.zeros(2)], ["identity"])
        x = np.array([[1.0, 2.0, 3.0]])
        _, tape = net.forward(model, x)
        g = np.array([[0.5, -1.0]])
        grads = net.backward(model, tape, g)
        np.testing.assert_allclose(grads.weights[0], np.outer(g[0], x[0]))
        np.testing.assert_allclose(grads.biases[0], g[0])

    def test_mse_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        model = make_model([4, 6, 3], ["tanh", "identity"], seed=7)
        x = rng.standard_normal((8, 4))
        target = rng.standard_normal((8, 3))

        def loss_at(flat):
            probe = make_model([4, 6, 3], ["tanh", "identity"], seed=7)
            net.set_flat_params(probe, flat)
            y, _ = net.forward(probe, x)
            return 0.5 * np.mean(np.sum((y - target) ** 2, axis=1))

        y, tape = net.forward(model, x)
        grads = net.backward(model, tape, y - target)
        analytic = net.flat_grads(grads)

        flat0 = net.get_flat_params(model)
        h = 1e-6
        idx = rng.choice(flat0.size, size=20, replace=False)
        for j in idx:
            fp, fm = flat0.copy(), flat0.copy()
            fp[j] += h
            fm[j] -= h
            fd = (loss_at(fp) - loss_at(fm)) / (2 * h)
            assert rel_err(np.array([analytic[j]]), np.array([fd])) <= 1e-5 or abs(
                analytic[j] - fd
            ) <= 1e-8

    def test_relu_path(self):
        model = make_model([3, 5, 1], ["relu", "identity"], seed=3)
        x = np.random.default_rng(3).standard_normal((6, 3))
        y, tape = net.forward(model, x)
        grads = net.backward(model, tape, np.ones_like(y))
        flat0 = net.get_flat_params(model)

        def loss_at(flat):
            probe = make_model([3, 5, 1], ["relu", "identity"], seed=3)
            net.set_flat_params(probe, flat)
            out, _ = net.forward(probe, x)
            return float(np.mean(np.sum(out, axis=1)))

        analytic = net.flat_grads(grads)
        h = 1e-6
        for j in [0, 7, 11, flat0.size - 1]:
            fp, fm = flat0.copy(), flat0.copy()
            fp[j] += h
            fm[j] -= h
            fd = (loss_at(fp) - loss_at(fm)) / (2 * h)
            assert abs(analytic[j] - fd) <= 1e-5 * max(1.0, abs(fd))


class TestOptimizer:
    def test_sgd_basic_step(self):
        model = net.Mlp([np.array([[1.0]])], [np.zeros(1)], ["identity"])
        state = net.OptimizerState.create("sgd", 0.1, model)
        grads = net.ParamGrads(weights=[np.array([[2.0]])], biases=[np.zeros(1)])
        net.optimizer_step(state, model, grads)
        np.testing.assert_allclose(model.weights[0], [[0.8]])

    def test_zero_grad_leaves_params(self):
        for kind in ("sgd", "adam"):
            model = make_model([2, 2], ["identity"], seed=5)
            before = net.get_flat_params(model).copy()
            state = net.OptimizerState.create(kind, 0.01, model)
            zero = net.ParamGrads(
                weights=[np.zeros_like(W) for W in model.weights],
                biases=[np.zeros_like(b) for b in model.biases],
            )
            net.optimizer_step(state, model, zero)
            np.testing.assert_array_equal(net.get_flat_params(model), before)

    def test_adam_first_step_closed_form(self):
        model = net.Mlp([np.array([[1.0, -1.0]])], [np.zeros(1)], ["identity"])
        state = net.OptimizerState.create("adam", 0.001, model)
        g = np.array([[0.3, -4.0]])
        grads = net.ParamGrads(weights=[g.copy()], biases=[np.zeros(1)])
        net.optimizer_step(state, model, grads)
        # first step: m_hat = g, v_hat = g^2, so update = -lr * g / (|g| + eps)
        expected = np.array([[1.0, -1.0]]) - 0.001 * g / (np.abs(g) + net.ADAM_EPS)
        np.testing.assert_allclose(model.weights[0], expected, atol=1e-9)

    def test_nonfinite_grads_raise(self):
        model = make_model([2, 2], ["identity"])
        state = net.OptimizerState.create("sgd", 0.1, model)
        bad = net.ParamGrads(
            weights=[np.full((2, 2), np.nan)], biases=[np.zeros(2)]
        )
        with pytest.raises(NonFiniteResult):
            net.optimizer_step(state, model, bad)


class TestDeterminismAndCheckpoint:
    def test_seeded_init_bit_identical(self):
        a = make_model([5, 8, 3], ["tanh", "identity"], seed=123)
        b = make_model([5, 8, 3], ["tanh", "identity"], seed=123)
        np.testing.assert_array_equal(net.get_flat_params(a), net.get_flat_params(b))


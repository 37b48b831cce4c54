import re

import numpy as np
import pytest

from newtonbench import net
from newtonbench.errors import ConfigError, NonFiniteResult, ShapeMismatch

from oracles import PerArrayOptimizer, rel_err


def make_model(sizes, activations, seed=0):
    return net.Mlp.init(sizes, activations, seed)


def layout(weights, biases):
    """(W0, b0, W1, b1, ...) flattened, built without the package."""
    return np.concatenate([p for W, b in zip(weights, biases) for p in (np.ravel(W), b)])


class TestParameterLayout:
    @pytest.mark.parametrize("sizes", [[3, 0, 1], [0, 4, 1], [3, 4, 0]])
    def test_init_rejects_an_empty_layer(self, sizes):
        with pytest.raises(ShapeMismatch, match="^every layer size must be >= 1"):
            net.Mlp.init(sizes, ["tanh", "identity"], 0)

    def test_views_alias_flat_in_layer_order(self):
        model = make_model([3, 4, 2], ["tanh", "identity"], seed=8)
        model.biases[0][...] = [0.1, 0.2, 0.3, 0.4]
        model.biases[1][...] = [-0.5, -0.6]
        np.testing.assert_array_equal(model.flat, layout(model.weights, model.biases))
        offsets = (0, 12, 16, 24)
        views = [model.weights[0], model.biases[0], model.weights[1], model.biases[1]]
        for start, view in zip(offsets, views):
            assert np.shares_memory(view, model.flat)
            view.flat[0] = 7.0 + start
            assert model.flat[start] == 7.0 + start
        model.flat[...] = np.arange(26.0)
        np.testing.assert_array_equal(model.weights[1], np.arange(16.0, 24.0).reshape(2, 4))
        np.testing.assert_array_equal(model.biases[1], [24.0, 25.0])
        assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
        np.testing.assert_array_equal(net.get_flat_params(model), model.flat)
        assert not np.shares_memory(net.get_flat_params(model), model.flat)

    def test_backward_vector_has_the_flat_layout(self):
        rng = np.random.default_rng(9)
        model = make_model([3, 4, 2], ["tanh", "identity"], seed=9)
        model.biases[0][...] = rng.standard_normal(4)
        x = rng.standard_normal((5, 3))
        g = rng.standard_normal((5, 2))
        _, tape = net.forward(model, x)
        grads = net.backward(model, tape, g)
        # the two layers backpropagated by hand
        (W0, W1), (b0, _) = model.weights, model.biases
        a1 = np.tanh(x @ W0.T + b0)
        delta1 = g / len(x)
        delta0 = (delta1 @ W1) * (1.0 - a1 * a1)
        expected = layout([delta0.T @ x, delta1.T @ a1], [delta0.sum(0), delta1.sum(0)])
        assert grads.shape == net.get_flat_params(model).shape
        np.testing.assert_allclose(grads, expected, rtol=1e-13, atol=1e-15)

    def test_constructor_copies_its_inputs(self):
        W, b = np.ones((2, 3)), np.zeros(2)
        model = net.Mlp([W], [b], ["identity"])
        W[...] = 5.0
        b[...] = 7.0
        np.testing.assert_array_equal(model.flat, np.append(np.ones(6), np.zeros(2)))

    def test_rejects_ragged_or_empty_layer_lists(self):
        with pytest.raises(ShapeMismatch):
            net.Mlp([], [], [])
        with pytest.raises(ShapeMismatch):
            net.Mlp([np.ones((2, 3))], [], ["identity"])

    def test_clone_is_independent(self):
        model = make_model([3, 4, 2], ["tanh", "identity"], seed=10)
        before = model.flat.copy()
        clone = net.clone_model(model)
        np.testing.assert_array_equal(clone.flat, before)
        clone.weights[0][...] = 3.0
        clone.flat[-1] = 4.0
        np.testing.assert_array_equal(model.flat, before)
        model.biases[1][...] = 5.0
        assert not np.any(clone.biases[1] == 5.0)
        assert clone.activations == model.activations
        assert clone.activations is not model.activations


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_a_non_finite_batch_is_named_as_the_input(self, bad):
        # not blamed on the forward pass
        model = make_model([2, 3, 1], ["tanh", "identity"])
        with pytest.raises(NonFiniteResult, match=f"^batch must be finite, got {bad}$"):
            net.forward(model, [[bad, 1.0]])

    @pytest.mark.parametrize("shape", [(0, 2), (2,), (1, 2, 1)])
    def test_a_batch_must_be_a_nonempty_stack_of_rows(self, shape):
        model = make_model([2, 3, 1], ["tanh", "identity"])
        message = rf"^batch must have shape \(\*, 2\), got shape {re.escape(str(shape))}$"
        with pytest.raises(ShapeMismatch, match=message):
            net.forward(model, np.ones(shape))


class TestBackward:
    def test_zero_output_grads_give_zero_param_grads(self):
        model = make_model([3, 4, 2], ["tanh", "identity"], seed=1)
        x = np.random.default_rng(1).standard_normal((5, 3))
        _, tape = net.forward(model, x)
        grads = net.backward(model, tape, np.zeros((5, 2)))
        assert not grads.any()

    def test_single_linear_layer_outer_product(self):
        model = net.Mlp([np.zeros((2, 3))], [np.zeros(2)], ["identity"])
        x = np.array([[1.0, 2.0, 3.0]])
        _, tape = net.forward(model, x)
        g = np.array([[0.5, -1.0]])
        grads = net.backward(model, tape, g)
        np.testing.assert_allclose(grads[:6].reshape(2, 3), np.outer(g[0], x[0]))
        np.testing.assert_allclose(grads[6:], g[0])

    def test_mse_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        model = make_model([4, 6, 3], ["tanh", "identity"], seed=7)
        x = rng.standard_normal((8, 4))
        target = rng.standard_normal((8, 3))

        def loss_at(flat):
            probe = make_model([4, 6, 3], ["tanh", "identity"], seed=7)
            probe.flat[...] = flat
            y, _ = net.forward(probe, x)
            return 0.5 * np.mean(np.sum((y - target) ** 2, axis=1))

        y, tape = net.forward(model, x)
        analytic = net.backward(model, tape, y - target)

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
        analytic = net.backward(model, tape, np.ones_like(y))
        flat0 = net.get_flat_params(model)

        def loss_at(flat):
            probe = make_model([3, 5, 1], ["relu", "identity"], seed=3)
            probe.flat[...] = flat
            out, _ = net.forward(probe, x)
            return float(np.mean(np.sum(out, axis=1)))

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
        net.optimizer_step(state, model, np.array([2.0, 0.0]))
        np.testing.assert_allclose(model.weights[0], [[0.8]])

    def test_zero_grad_leaves_params(self):
        for kind in ("sgd", "adam"):
            model = make_model([2, 2], ["identity"], seed=5)
            before = net.get_flat_params(model).copy()
            state = net.OptimizerState.create(kind, 0.01, model)
            net.optimizer_step(state, model, np.zeros_like(model.flat))
            np.testing.assert_array_equal(net.get_flat_params(model), before)

    def test_adam_first_step_closed_form(self):
        model = net.Mlp([np.array([[1.0, -1.0]])], [np.zeros(1)], ["identity"])
        state = net.OptimizerState.create("adam", 0.001, model)
        g = np.array([[0.3, -4.0]])
        net.optimizer_step(state, model, np.append(g.ravel(), 0.0))
        # first step: m_hat = g, v_hat = g^2, so update = -lr * g / (|g| + eps)
        expected = np.array([[1.0, -1.0]]) - 0.001 * g / (np.abs(g) + net.ADAM_EPS)
        np.testing.assert_allclose(model.weights[0], expected, atol=1e-9)

    def test_nonfinite_grads_raise(self):
        model = make_model([2, 2], ["identity"])
        state = net.OptimizerState.create("sgd", 0.1, model)
        bad = np.zeros(6)
        bad[:4] = np.nan
        with pytest.raises(NonFiniteResult):
            net.optimizer_step(state, model, bad)


    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize(
        "sizes,acts",
        [([4, 6, 3], ["tanh", "identity"]), ([5, 8, 8, 2], ["relu", "tanh", "identity"])],
    )
    def test_bit_equal_to_per_array_reference(self, kind, sizes, acts):
        rng = np.random.default_rng(len(sizes))
        model = net.Mlp.init(sizes, acts, np.random.SeedSequence((31, sizes[0])))
        lr = 0.05 if kind == "sgd" else 0.001
        ref = PerArrayOptimizer(
            kind, lr, model.weights, model.biases,
            net.ADAM_BETA1, net.ADAM_BETA2, net.ADAM_EPS,
        )
        state = net.OptimizerState.create(kind, lr, model)
        for _ in range(50):
            gw = [rng.standard_normal(W.shape) * 10.0 ** rng.uniform(-4, 2) for W in model.weights]
            gb = [rng.standard_normal(b.shape) * 10.0 ** rng.uniform(-4, 2) for b in model.biases]
            model, state = net.optimizer_step(state, model, layout(gw, gb))
            ref.update(gw, gb)
        n = len(model.weights)
        np.testing.assert_array_equal(model.flat, layout(ref.params[:n], ref.params[n:]))
        assert state.step == 50

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("lr", [np.nan, np.inf, -1.0, 0.0])
    def test_rejects_bad_learning_rates(self, kind, lr):
        model = make_model([2, 2], ["identity"])
        with pytest.raises(ConfigError, match="lr must be a finite real number > 0"):
            net.OptimizerState.create(kind, lr, model)

    def test_rejects_a_gradient_of_the_wrong_length(self):
        model = make_model([2, 2], ["identity"])
        state = net.OptimizerState.create("sgd", 0.1, model)
        with pytest.raises(ShapeMismatch):
            net.optimizer_step(state, model, np.zeros(5))


class TestDeterminismAndCheckpoint:
    def test_seeded_init_bit_identical(self):
        a = make_model([5, 8, 3], ["tanh", "identity"], seed=123)
        b = make_model([5, 8, 3], ["tanh", "identity"], seed=123)
        np.testing.assert_array_equal(net.get_flat_params(a), net.get_flat_params(b))


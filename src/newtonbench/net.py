"""Minimal feed-forward network with manual backprop and SGD/Adam.

The model is a plain MLP on feature vectors. Forward returns its output
and a tape, the list [batch, a_1, ..., a_L] of the batch and each layer's
activation. Backward reads each layer's input and, from its output, the
activation's derivative (relu a > 0, tanh 1 - a^2, identity 1), so no
pre-activation is kept and tanh is not recomputed. It returns the
batch-averaged parameter gradients of the linearized loss
(1/N) sum_i <output_grads[i], y[i]> as one vector laid out like the
model's flat parameters, so SGD and Adam are each one vector update.
Nothing here owns training state beyond the optimizer moments.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteResult, ShapeMismatch, checked, checked_real

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and floor

# name -> (the activation, applied in place; its derivative from its output)
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0.0),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: 1.0 - a * a),
    "identity": (lambda z: z, np.ones_like),
}


class Mlp:
    """Stack of dense layers whose parameters live in one float64 vector.

    flat holds every parameter layer by layer, the (out, in) weight matrix
    then the bias; weights[l] and biases[l] are views into it.  The
    constructor copies its inputs, once errors.checked has found each of
    them finite and of its layer's shape.
    """

    def __init__(self, weights, biases, activations):
        if not (len(weights) == len(biases) == len(activations) > 0):
            raise ShapeMismatch("layer lists must have equal, nonzero length")
        parts, self._shapes = [], []
        for idx, (W, b, act) in enumerate(zip(weights, biases, activations)):
            if act not in _ACTIVATIONS:
                raise ConfigError(f"unknown activation {act!r}")
            # each layer takes the width the previous one emits
            W = checked(W, f"weights[{idx}]", (None, self._shapes[-1][0] if idx else None))
            parts += [W.ravel(), checked(b, f"biases[{idx}]", (len(W),))]
            self._shapes.append(W.shape)
        self.flat = np.concatenate(parts)
        self.weights, self.biases = self.layer_views(self.flat)
        self.activations = list(activations)

    def layer_views(self, vec):
        """Per-layer (weights, biases) views of a vector laid out like flat."""
        weights, biases = [], []
        pos = 0
        for out, inp in self._shapes:
            weights.append(vec[pos : pos + out * inp].reshape(out, inp))
            pos += out * inp
            biases.append(vec[pos : pos + out])
            pos += out
        return weights, biases

    @property
    def sizes(self):
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]

    @classmethod
    def init(cls, sizes, activations, seed):
        """Seeded uniform init scaled by fan-in, zero biases."""
        if len(activations) != len(sizes) - 1:
            raise ConfigError("need one activation per layer")
        if min(sizes) < 1:
            raise ShapeMismatch(f"every layer size must be >= 1, got {list(sizes)}")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, activations)


def clone_model(model):
    """Independent copy; mutating the clone leaves the original untouched."""
    return Mlp(model.weights, model.biases, model.activations)


def forward(model, batch):
    """Run the batch through the model, returning outputs and the tape
    [batch, a_1, ..., a_L]; the outputs are a_L, which backward reads."""
    tape = [checked(batch, "batch", (None, model.weights[0].shape[1]))]
    for W, b, act in zip(model.weights, model.biases, model.activations):
        z = tape[-1] @ W.T
        z += b  # the bias and the activation write into the fresh product
        tape.append(_ACTIVATIONS[act][0](z))
    if not np.all(np.isfinite(tape[-1])):
        raise NonFiniteResult("forward pass produced non-finite outputs")
    return tape[-1], tape


def backward(model, tape, output_grads):
    """Parameter gradients of (1/N) sum_i <output_grads[i], y[i]>."""
    n = tape[0].shape[0]
    delta = checked(output_grads, "output_grads", (n, model.weights[-1].shape[0])) / n
    grad = np.empty_like(model.flat)
    grads_w, grads_b = model.layer_views(grad)
    for l in range(len(model.weights) - 1, -1, -1):
        delta = delta * _ACTIVATIONS[model.activations[l]][1](tape[l + 1])
        grads_w[l][...] = delta.T @ tape[l]
        grads_b[l][...] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l]
    return grad


@dataclass
class OptimizerState:
    kind: str
    lr: float
    step: int = 0
    m: np.ndarray = None  # Adam's moments, laid out like the model's flat
    v: np.ndarray = None

    @classmethod
    def create(cls, kind, lr, model):
        if kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {kind!r}")
        checked_real(lr, "lr", 0, strict=True)
        state = cls(kind=kind, lr=lr)
        if kind == "adam":
            state.m = np.zeros_like(model.flat)
            state.v = np.zeros_like(model.flat)
        return state


def optimizer_step(state, model, grads):
    """Apply one SGD or Adam update to model.flat in place; returns (model, state).

    grads is one vector laid out like model.flat, as backward returns it.
    """
    grads = checked(grads, "grads", model.flat.shape)
    state.step += 1
    if state.kind == "sgd":
        model.flat -= state.lr * grads
        return model, state
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grads * grads
    model.flat -= state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)
    return model, state


def get_flat_params(model):
    """A copy of the parameter vector, (W0, b0, W1, b1, ...) flattened."""
    return model.flat.copy()

"""Minimal feed-forward network with manual backprop and SGD/Adam.

The model is a plain MLP on feature vectors. Forward records a tape of
per-layer inputs and pre-activations; backward consumes it to produce
batch-averaged parameter gradients of the linearized loss
(1/N) sum_i <output_grads[i], y[i]>. Nothing here owns training state
beyond the optimizer moments.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteResult, ShapeMismatch

ACTIVATIONS = ("relu", "tanh", "identity")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and floor


def _act(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _act_deriv(name, z):
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


@dataclass
class ActivationTape:
    inputs: list       # a_{l-1} per layer, inputs[0] is the batch
    preacts: list      # z_l per layer


@dataclass
class ParamGrads:
    weights: list
    biases: list


class Mlp:
    """Stack of dense layers, weights stored as (out, in) matrices."""

    def __init__(self, weights, biases, activations):
        if not (len(weights) == len(biases) == len(activations)):
            raise ShapeMismatch("layer lists must have equal length")
        for idx, (W, b, act) in enumerate(zip(weights, biases, activations)):
            if act not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {act!r}")
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise ShapeMismatch(f"layer {idx}: weight {W.shape} vs bias {b.shape}")
            if idx > 0 and W.shape[1] != weights[idx - 1].shape[0]:
                raise ShapeMismatch(
                    f"layer {idx} expects width {W.shape[1]}, "
                    f"previous layer emits {weights[idx - 1].shape[0]}"
                )
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise NonFiniteResult(f"layer {idx} has non-finite parameters")
        self.weights = [np.asarray(W, dtype=np.float64) for W in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.activations = list(activations)

    @property
    def sizes(self):
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]

    @classmethod
    def init(cls, sizes, activations, seed):
        """Seeded uniform init scaled by fan-in, zero biases."""
        if len(activations) != len(sizes) - 1:
            raise ConfigError("need one activation per layer")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, activations)


def clone_model(model):
    """Independent copy; mutating the clone leaves the original untouched."""
    return Mlp(
        [W.copy() for W in model.weights],
        [b.copy() for b in model.biases],
        list(model.activations),
    )


def forward(model, batch):
    """Run the batch through the model, returning outputs and a tape."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"inputs must be 2-d, got shape {x.shape}")
    if x.shape[1] != model.weights[0].shape[1]:
        raise ShapeMismatch(
            f"input width {x.shape[1]} != model width {model.weights[0].shape[1]}"
        )
    inputs, preacts = [], []
    a = x
    for W, b, act in zip(model.weights, model.biases, model.activations):
        inputs.append(a)
        z = a @ W.T + b
        preacts.append(z)
        a = _act(act, z)
    if not np.all(np.isfinite(a)):
        raise NonFiniteResult("forward pass produced non-finite outputs")
    return a, ActivationTape(inputs=inputs, preacts=preacts)


def backward(model, tape, output_grads):
    """Parameter gradients of (1/N) sum_i <output_grads[i], y[i]>."""
    g = np.asarray(output_grads, dtype=np.float64)
    n = tape.inputs[0].shape[0]
    if g.shape != (n, model.weights[-1].shape[0]):
        raise ShapeMismatch(
            f"output grads shape {g.shape}, expected ({n}, {model.weights[-1].shape[0]})"
        )
    delta = g / n
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    for l in range(len(model.weights) - 1, -1, -1):
        delta = delta * _act_deriv(model.activations[l], tape.preacts[l])
        grads_w[l] = delta.T @ tape.inputs[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l]
    return ParamGrads(weights=grads_w, biases=grads_b)


@dataclass
class OptimizerState:
    kind: str
    lr: float
    step: int = 0
    m_w: list = field(default_factory=list)
    m_b: list = field(default_factory=list)
    v_w: list = field(default_factory=list)
    v_b: list = field(default_factory=list)

    @classmethod
    def create(cls, kind, lr, model):
        if kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {kind!r}")
        if lr <= 0:
            raise ConfigError(f"learning rate must be > 0, got {lr}")
        state = cls(kind=kind, lr=lr)
        if kind == "adam":
            state.m_w = [np.zeros_like(W) for W in model.weights]
            state.m_b = [np.zeros_like(b) for b in model.biases]
            state.v_w = [np.zeros_like(W) for W in model.weights]
            state.v_b = [np.zeros_like(b) for b in model.biases]
        return state


def optimizer_step(state, model, grads):
    """Apply one SGD or Adam update in place; returns (model, state)."""
    for gW, gb in zip(grads.weights, grads.biases):
        if not (np.all(np.isfinite(gW)) and np.all(np.isfinite(gb))):
            raise NonFiniteResult("non-finite parameter gradients")
    state.step += 1
    if state.kind == "sgd":
        for W, b, gW, gb in zip(model.weights, model.biases, grads.weights, grads.biases):
            W -= state.lr * gW
            b -= state.lr * gb
        return model, state
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    params = list(zip(model.weights, state.m_w, state.v_w, grads.weights)) + list(
        zip(model.biases, state.m_b, state.v_b, grads.biases)
    )
    for theta, m, v, g in params:
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        theta -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return model, state


def get_flat_params(model):
    parts = []
    for W, b in zip(model.weights, model.biases):
        parts.append(W.ravel())
        parts.append(b)
    return np.concatenate(parts)


def set_flat_params(model, flat):
    flat = np.asarray(flat, dtype=np.float64)
    pos = 0
    for W, b in zip(model.weights, model.biases):
        W[...] = flat[pos : pos + W.size].reshape(W.shape)
        pos += W.size
        b[...] = flat[pos : pos + b.size]
        pos += b.size
    if pos != flat.size:
        raise ShapeMismatch(f"flat vector has {flat.size} entries, model needs {pos}")
    return model


def flat_grads(grads):
    parts = []
    for gW, gb in zip(grads.weights, grads.biases):
        parts.append(gW.ravel())
        parts.append(gb)
    return np.concatenate(parts)


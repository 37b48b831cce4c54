"""Gaussian stochastic-smoothing estimators for black-box derivatives.

Perturbing a function with Gaussian noise makes it differentiable in
expectation; the score-function identities give unbiased Monte-Carlo
estimators of the smoothed gradient, Hessian, and Jacobian that only
evaluate the function itself:

    grad  ~ mean[(f(y+e) - b) * e / sigma^2]
    hess  ~ mean[(f(y+e) - b) * (e e^T / sigma^4 - I / sigma^2)]

with e ~ N(0, sigma^2 I). The optional baseline b = f(y) cuts variance
without changing the expectation. fy_loss_grad is the perturbed-argmax
loss gradient mean[argmax(y+e)] - w_star, which never needs a loss value.

Draws come from a counter-based Philox stream keyed by cfg.seed, so
estimates are bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteResult, ShapeMismatch


@dataclass
class SmoothingConfig:
    sigma: float
    samples: int
    variance_reduction: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")


def _draws(cfg, m):
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    return cfg.sigma * rng.standard_normal((cfg.samples, m))


def _probe_scalar(f, points):
    vals = np.array([float(f(p)) for p in points])
    if not np.all(np.isfinite(vals)):
        raise NonFiniteResult("black-box probe returned non-finite values")
    return vals


def smooth_grad(f, y, cfg):
    """Score-function gradient estimate of the Gaussian-smoothed f at y."""
    y = np.asarray(y, dtype=np.float64)
    eps = _draws(cfg, y.shape[0])
    b = float(f(y)) if cfg.variance_reduction else 0.0
    vals = _probe_scalar(f, y + eps)
    return ((vals - b)[:, None] * eps).mean(axis=0) / cfg.sigma**2


def smooth_hessian(f, y, cfg):
    """Estimate of the smoothed Hessian, symmetrized exactly."""
    y = np.asarray(y, dtype=np.float64)
    m = y.shape[0]
    eps = _draws(cfg, m)
    b = float(f(y)) if cfg.variance_reduction else 0.0
    vals = _probe_scalar(f, y + eps)
    w = vals - b
    # mean_i w_i (e_i e_i^T / s^4 - I / s^2), accumulated as matrix products
    outer = (eps * w[:, None]).T @ eps / (cfg.samples * cfg.sigma**4)
    h = outer - np.mean(w) / cfg.sigma**2 * np.eye(m)
    return 0.5 * (h + h.T)


def smooth_jacobian(f, y, cfg):
    """Per-row smoothed gradients of a vector function, sharing one draw set."""
    y = np.asarray(y, dtype=np.float64)
    m = y.shape[0]
    eps = _draws(cfg, m)
    base = np.asarray(f(y), dtype=np.float64)
    if base.ndim != 1:
        raise ShapeMismatch(f"vector black box must return 1-d output, got {base.shape}")
    k = base.shape[0]
    vals = np.empty((cfg.samples, k))
    for i in range(cfg.samples):
        out = np.asarray(f(y + eps[i]), dtype=np.float64)
        if out.shape != (k,):
            raise ShapeMismatch(f"output dim changed between probes: {out.shape}")
        vals[i] = out
    if not np.all(np.isfinite(vals)):
        raise NonFiniteResult("black-box probe returned non-finite values")
    b = base if cfg.variance_reduction else np.zeros(k)
    return (vals - b).T @ eps / (cfg.samples * cfg.sigma**2)


def fy_loss_grad(y, w_star, argmax_solver, cfg):
    """Gradient of the perturbed Fenchel-Young loss: E[argmax(y+e)] - w_star.

    Only argmax calls are made; the loss value itself is never formed.
    """
    y = np.asarray(y, dtype=np.float64)
    w_star = np.asarray(w_star, dtype=np.float64)
    if w_star.shape != y.shape:
        raise ShapeMismatch(
            f"target indicator shape {w_star.shape} != score shape {y.shape}"
        )
    eps = _draws(cfg, y.shape[0])
    acc = np.zeros_like(y)
    for i in range(cfg.samples):
        w = np.asarray(argmax_solver(y + eps[i]), dtype=np.float64)
        if w.shape != y.shape:
            raise ShapeMismatch(f"argmax output shape {w.shape} != {y.shape}")
        acc += w
    grad = acc / cfg.samples - w_star
    if not np.all(np.isfinite(grad)):
        raise NonFiniteResult("perturbed argmax returned non-finite values")
    return grad

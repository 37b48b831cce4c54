"""Gaussian stochastic-smoothing estimators for black-box derivatives.

Perturbing a function with Gaussian noise makes it differentiable in
expectation; the score-function identities give unbiased Monte-Carlo
estimators of the smoothed gradient, Hessian, and Jacobian that only
evaluate the function itself:

    grad  ~ mean[(f(y+e) - b) * e / sigma^2]
    hess  ~ mean[(f(y+e) - b) * (e e^T / sigma^4 - I / sigma^2)]

with e ~ N(0, sigma^2 I). The baseline b = f(y) cuts variance without
changing the expectation. fy_loss_grad is the perturbed-argmax loss
gradient mean[argmax(y+e)] - w_star, which never needs a loss value.

Every estimator reduces one probe of f at y plus a draw set. Draws come
from a counter-based Philox stream keyed by cfg.seed, so estimates are
bit-reproducible; configs are frozen, and estimators called with equal
configs share one read-only draw block.  The black box is a per-point f,
called once per draw and once at y, or a Stacked one, called once on the
whole (samples, m) stack of perturbed points and once on y as a one-row
stack.  The point, every black-box output and every estimate pass
errors.checked, so a non-finite value raises NonFiniteResult instead of
entering a result.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch, checked


@dataclass(frozen=True)
class Stacked:
    """A black box whose f maps a (k, m) stack of points to their k outputs."""

    f: object


@dataclass(frozen=True)
class SmoothingConfig:
    sigma: float
    samples: int
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be finite and > 0, got {self.sigma}")
        # smooth_hessian divides by sigma**4: it must neither overflow nor
        # fall below the normal range, where its reciprocal overflows
        try:
            fourth = float(self.sigma) ** 4
        except OverflowError:
            fourth = np.inf
        if not np.finfo(float).tiny <= fourth < np.inf:
            raise ConfigError(
                f"sigma**4 must be a finite normal float, got sigma={self.sigma}"
            )
        if not (isinstance(self.samples, (int, np.integer)) and self.samples >= 1):
            raise ConfigError(f"samples must be an integer >= 1, got {self.samples!r}")
        # the Philox key of the draws
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**128):
            raise ConfigError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")


@functools.lru_cache(maxsize=8)  # smooth_grad and smooth_hessian share a row's draws
def _draws(cfg, m):
    """The read-only (samples, m) draw block of cfg."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    eps = cfg.sigma * rng.standard_normal((cfg.samples, m))
    eps.setflags(write=False)
    return eps


def _probe(f, y, cfg, shape=()):
    """(eps, vals): the draws and f at every y + eps[i], stacked; every
    output must be finite and have the given shape."""
    eps = _draws(cfg, y.shape[0])
    points = y + eps
    # the black box's own errors propagate
    outs = f.f(points) if isinstance(f, Stacked) else [f(p) for p in points]
    try:
        vals = np.asarray(outs, dtype=np.float64)
    except ValueError:
        raise ShapeMismatch("black-box output shape changed between probes") from None
    return eps, checked(vals, "black-box probe", (cfg.samples, *shape))


def _base(f, y, shape=()):
    """f at y itself, checked as each draw is; a Stacked f gets a one-row stack."""
    if isinstance(f, Stacked):
        return checked(f.f(y[None]), "black-box base value", (1, *shape))[0]
    return checked(f(y), "black-box base value", shape)


def smooth_grad(f, y, cfg):
    """Score-function gradient estimate of the Gaussian-smoothed f at y."""
    y = checked(y, "y", (None,))
    eps, vals = _probe(f, y, cfg)
    w = vals - _base(f, y)
    return checked((w[:, None] * eps).mean(axis=0) / cfg.sigma**2, "gradient estimate", y.shape)


def smooth_hessian(f, y, cfg):
    """Estimate of the smoothed Hessian, symmetrized exactly."""
    y = checked(y, "y", (None,))
    eps, vals = _probe(f, y, cfg)
    w = vals - _base(f, y)
    # mean_i w_i (e_i e_i^T / s^4 - I / s^2), accumulated as matrix products
    outer = (eps * w[:, None]).T @ eps / (cfg.samples * cfg.sigma**4)
    h = outer - np.mean(w) / cfg.sigma**2 * np.eye(y.shape[0])
    return checked(0.5 * (h + h.T), "hessian estimate", h.shape)


def smooth_jacobian(f, y, cfg):
    """(mean, jac) of a vector function from one draw set: the smoothed
    output mean[f(y+e)] and its per-row smoothed gradients."""
    y = checked(y, "y", (None,))
    base = _base(f, y, (None,))
    eps, vals = _probe(f, y, cfg, base.shape)
    mean = checked(vals.mean(axis=0), "mean estimate", base.shape)
    jac = (vals - base).T @ eps / (cfg.samples * cfg.sigma**2)
    return mean, checked(jac, "jacobian estimate", jac.shape)


def fy_loss_grad(y, w_star, argmax_solver, cfg):
    """Gradient of the perturbed Fenchel-Young loss: E[argmax(y+e)] - w_star.

    Only argmax calls are made; the loss value itself is never formed.
    """
    y = checked(y, "y", (None,))
    w_star = checked(w_star, "w_star", y.shape)
    return _probe(argmax_solver, y, cfg, y.shape)[1].mean(axis=0) - w_star

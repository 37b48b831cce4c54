"""Gaussian stochastic-smoothing estimators for black-box derivatives.

Perturbing a function with Gaussian noise makes it differentiable in
expectation; the score-function identities give unbiased Monte-Carlo
estimators of the smoothed gradient, Hessian, and Jacobian that only
evaluate the function itself:

    grad  ~ mean[(f(y+e) - b) * e / sigma^2]
    hess  ~ mean[(f(y+e) - b) * (e e^T / sigma^4 - I / sigma^2)]

with e ~ N(0, sigma^2 I). The baseline b = f(y) cuts variance without
changing the expectation.  smooth_jacobian's mean of an argmax, less the
target w_star, is the perturbed Fenchel-Young loss gradient.

Every estimator reduces one evaluation of f on a draw set. Draws come
from a counter-based Philox stream keyed by cfg.seed, so estimates are
bit-reproducible: one module Philox generator is re-keyed per config, its
counter back at 0, which gives the bytes of a Philox(key=cfg.seed) built
fresh without the cost of building one.  Configs are frozen, and estimators
called with equal configs share one read-only draw block.  Means are
np.add.reduce / n, the sum np.mean divides, without its Python wrapper.
The black box sees the (samples + 1, m) stack [y + e; y], whose last row
gives the baseline f(y).  A per-point f is called once per row, a Stacked
one once on the whole stack.
The point, every black-box output and every estimate pass errors.checked,
so a non-finite value raises NonFiniteResult instead of entering a result.
"""

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch, checked, checked_int, checked_real


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
        checked_real(self.sigma, "sigma", 0, strict=True)
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
        checked_int(self.samples, "samples", 1)
        # the Philox key of the draws
        if checked_int(self.seed, "seed", 0) >= 2**128:
            raise ConfigError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")


_PHILOX = np.random.Philox(0)
_RNG = np.random.Generator(_PHILOX)
_RNG_LOCK = threading.Lock()  # a re-key and its draws must not interleave with another's


@functools.lru_cache(maxsize=8)  # smooth_grad and smooth_hessian share a row's draws
def _draws(cfg, m):
    """The read-only (samples, m) draw block of cfg: the first draws of
    Philox(key=cfg.seed), whose 128-bit key is two 64-bit words, low first."""
    seed, zeros = int(cfg.seed), np.zeros(4, np.uint64)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, seed >> 64], np.uint64)
    with _RNG_LOCK:
        # counter 0 and an empty buffer, the state Philox(key=seed) starts in
        _PHILOX.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": key},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        eps = cfg.sigma * _RNG.standard_normal((cfg.samples, m))
    eps.setflags(write=False)
    return eps


@functools.lru_cache(maxsize=8)
def _eye(m):
    """The read-only m x m identity."""
    eye = np.eye(m)
    eye.setflags(write=False)
    return eye


def _probe(f, y, cfg, shape=()):
    """(eps, vals, fy): the draws, f at every y + eps[i] and f(y), from one
    evaluation of f on the stack [y + eps; y].  The point must be a finite
    nonempty vector, and every output finite and of the given shape."""
    y = checked(y, "y", (None,))
    eps = _draws(cfg, y.shape[0])
    points = np.concatenate((y + eps, y[None]))
    # the black box's own errors propagate
    outs = f.f(points) if isinstance(f, Stacked) else [f(p) for p in points]
    try:
        vals = np.asarray(outs, dtype=np.float64)
    except ValueError:
        raise ShapeMismatch("black-box output shape changed between probes") from None
    vals = checked(vals, "black-box probe", (len(points), *shape))
    return eps, vals[: cfg.samples], vals[-1]


def smooth_grad(f, y, cfg):
    """Score-function gradient estimate of the Gaussian-smoothed f at y."""
    eps, vals, fy = _probe(f, y, cfg)
    g = np.add.reduce((vals - fy)[:, None] * eps) / cfg.samples / cfg.sigma**2
    return checked(g, "gradient estimate", eps.shape[1:])


def smooth_hessian(f, y, cfg):
    """Estimate of the smoothed Hessian, symmetrized exactly."""
    eps, vals, fy = _probe(f, y, cfg)
    w = vals - fy
    # mean_i w_i (e_i e_i^T / s^4 - I / s^2), accumulated as matrix products
    outer = (eps * w[:, None]).T @ eps / (cfg.samples * cfg.sigma**4)
    h = outer - np.add.reduce(w) / cfg.samples / cfg.sigma**2 * _eye(eps.shape[1])
    return checked(0.5 * (h + h.T), "hessian estimate", h.shape)


def smooth_jacobian(f, y, cfg):
    """(mean, jac) of a vector function from one draw set: the smoothed
    output mean[f(y+e)] and its per-row smoothed gradients."""
    eps, vals, fy = _probe(f, y, cfg, (None,))
    mean = checked(np.add.reduce(vals) / cfg.samples, "mean estimate", fy.shape)
    jac = (vals - fy).T @ eps / (cfg.samples * cfg.sigma**2)
    return mean, checked(jac, "jacobian estimate", jac.shape)

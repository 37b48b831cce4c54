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

Every estimator takes a point y with its config, or an (N, m) batch with
one config per row, all of one sigma and samples.  The black box sees one
stack: each row's (samples + 1, m) block [y + e; y], whose last row gives
the baseline f(y).  A per-point f is called once per point of it, a Stacked
one once on the whole stack.  Row j of a batch's estimate is, bit for bit,
the estimate at y[j] alone: means reduce the draws of all rows at once, and
the Hessian and Jacobian take one matrix product per row.  Draws come from
a counter-based Philox stream keyed by cfg.seed, so estimates are
bit-reproducible: one module Philox generator is re-keyed per config, its
counter back at 0, which gives the bytes of a Philox(key=cfg.seed) built
fresh without the cost of building one.  Configs are frozen, and equal ones
share one read-only draw block while it is among the last 256 drawn.  Means
are np.add.reduce / n, the sum np.mean divides, without its Python wrapper.
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


@functools.lru_cache(maxsize=256)  # smooth_grad and smooth_hessian share a batch's draws
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


def _probe(f, y, cfg, shape=()):
    """(eps, vals, fy, cfg, at): an (N, m) batch's (N, samples, m) draws, f at
    every y[j] + eps[j, i] and at every y[j], from one evaluation of f on the
    stack of every row's [y[j] + eps[j]; y[j]], the shared config, and the
    index that turns the batch's estimates back into a point's.  The rows
    must be finite and nonempty, and every output finite and of the given shape."""
    point = isinstance(cfg, SmoothingConfig)
    cfgs = [cfg] if point else list(cfg)
    y = checked(y, "y", (None,))[None] if point else checked(y, "y", (len(cfgs), None))
    if len({(c.sigma, c.samples) for c in cfgs}) != 1:
        raise ConfigError("a batch's configs must share one sigma and one samples")
    n, m = y.shape
    eps = np.stack([_draws(c, m) for c in cfgs])
    points = np.concatenate((y[:, None] + eps, y[:, None]), axis=1).reshape(-1, m)
    # the black box's own errors propagate
    outs = f.f(points) if isinstance(f, Stacked) else [f(p) for p in points]
    try:
        vals = np.asarray(outs, dtype=np.float64)
    except ValueError:
        raise ShapeMismatch("black-box output shape changed between probes") from None
    vals = checked(vals, "black-box probe", (len(points), *shape)).reshape(n, -1, *vals.shape[1:])
    return eps, vals[:, :-1], vals[:, -1], cfgs[0], 0 if point else ...


def smooth_grad(f, y, cfg):
    """Score-function gradient estimate of the Gaussian-smoothed f at y."""
    eps, vals, fy, c, at = _probe(f, y, cfg)
    g = np.add.reduce((vals - fy[:, None])[..., None] * eps, axis=1) / c.samples / c.sigma**2
    return checked(g, "gradient estimate", eps.shape[::2])[at]


def smooth_hessian(f, y, cfg):
    """Estimate of the smoothed Hessian, symmetrized exactly."""
    eps, vals, fy, c, at = _probe(f, y, cfg)
    w = vals - fy[:, None]
    # mean_i w_i (e_i e_i^T / s^4 - I / s^2), accumulated as matrix products
    outer = (eps * w[..., None]).swapaxes(1, 2) @ eps / (c.samples * c.sigma**4)
    mean_w = np.add.reduce(w, axis=1) / c.samples / c.sigma**2
    h = outer - mean_w[:, None, None] * np.eye(eps.shape[2])
    return checked(0.5 * (h + h.swapaxes(1, 2)), "hessian estimate", h.shape)[at]


def smooth_jacobian(f, y, cfg):
    """(mean, jac) of a vector function from one draw set: the smoothed
    output mean[f(y+e)] and its per-row smoothed gradients."""
    eps, vals, fy, c, at = _probe(f, y, cfg, (None,))
    mean = checked(np.add.reduce(vals, axis=1) / c.samples, "mean estimate", fy.shape)
    jac = (vals - fy[:, None]).swapaxes(1, 2) @ eps / (c.samples * c.sigma**2)
    return mean[at], checked(jac, "jacobian estimate", jac.shape)[at]

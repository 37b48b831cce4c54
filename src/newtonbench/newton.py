"""Locally quadratic replacement losses built from curvature information.

Given a batch of network outputs y_1..y_N and a loss with per-sample
gradients, this module computes target outputs

    z_i = y_i - (C + lam I)^{-1} grad_i

where C is either the batch-averaged loss Hessian or the empirical Fisher
matrix of the gradients, and lam >= 0 is a Tikhonov strength.  Training then
proceeds on the induced square loss 0.5 * ||z - y||^2, whose gradient steers
y_i toward z_i.  A single gradient descent step on that square loss equals a
damped Newton step on the original loss, which is the point: hard losses with
awkward curvature get replaced by a well-conditioned quadratic around the
current iterate.

Conventions shared with the rest of the package:
  * probe.value(Y), if given, is the total loss over the batch (sum over rows),
  * probe.grad(Y) returns unscaled per-sample gradient rows (N x m), and the
    rows of every batch in a stack (..., N, m) of batches,
  * probe.hessian(Y), when present, returns the batch-averaged m x m Hessian,
  * batch_hessian returns (gradient rows, Hessian) from one probe.grad call,
  * the 1/N mean reduction happens in net.backward, so newton_loss_eval also
    returns unscaled per-sample gradient rows.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ShapeMismatch, checked, checked_real
from . import linalg
from . import net

FD_STEP = np.cbrt(np.finfo(np.float64).eps)  # batch_hessian's step per max(1, max|y|)


@dataclass
class LossProbe:
    """Callbacks exposing a loss to the target constructors.

    grad:  Y (..., N, m) -> same shape, row i of each batch is the gradient
           of sample i's loss with respect to that row (no batch scaling).
    value: optional, Y (N x m) -> float, total loss of the batch; the
           target constructors never call it.
    hessian: optional, Y (N x m) -> m x m batch-averaged Hessian; used
             when present, finite differences of grad otherwise.
    """

    grad: Callable[[np.ndarray], np.ndarray]
    value: Optional[Callable[[np.ndarray], float]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class NewtonConfig:
    """Settings for building targets inside a training loop."""

    variant: str = "hessian"  # "hessian" | "fisher"
    lam: float = 0.1

    def __post_init__(self):
        if self.variant not in ("hessian", "fisher"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        checked_real(self.lam, "lam", 0)


@dataclass
class NewtonTarget:
    """Frozen targets z* for one batch.  No gradient flows through z_star."""

    z_star: np.ndarray  # N x m


def batch_hessian(probe, y_bar):
    """Gradient rows and batch-averaged m x m Hessian of the probed loss at y_bar.

    One probe.grad call gives both: on y_bar beside an analytic probe.hessian,
    or on a (2m+1, N, m) stack of y_bar and its shifts up, then down, in one
    coordinate of every row at once (per-sample losses), whose central
    differences give the Hessian.  The Hessian is symmetrized exactly.
    """
    y = checked(y_bar, "y_bar", (None, None))
    n, m = y.shape
    if probe.hessian is not None:
        grads = checked(probe.grad(y), "probe.grad output", y.shape)
        h = probe.hessian(y)
    else:
        step = FD_STEP * max(1.0, np.max(np.abs(y)))
        stack = np.broadcast_to(y, (2 * m + 1, n, m)).copy()
        j = np.arange(m)
        stack[1 + j, :, j] += step
        stack[1 + m + j, :, j] -= step
        g = checked(probe.grad(stack), "probe.grad output", stack.shape)
        grads = g[0]
        # cols[j, i, k] = d grad_k(y_i) / d y_ij; average the per-sample
        # Hessians H_i[k, j] over i
        cols = (g[1 : m + 1] - g[m + 1 :]) / (2.0 * step)
        h = np.mean(cols, axis=1).T
    h = checked(h, "hessian", (m, m))
    return grads, 0.5 * (h + h.T)


def newton_target_hessian(y_bar, probe, lam):
    """Targets z_i = y_i - (H + lam I)^{-1} grad_i with the averaged Hessian.

    One factorization of H + lam I is shared across all rows.  Raises
    SingularMatrix when the regularized Hessian is not invertible.
    """
    return newton_target_from_parts(y_bar, *batch_hessian(probe, y_bar), lam)


def newton_target_fisher(y_bar, probe, lam, inversion="direct"):
    """Targets from the empirical Fisher F = (1/N) sum_i grad_i grad_i^T.

    F is rank-deficient whenever N < m, so lam > 0 is required.  The
    "woodbury" inversion solves every row through one N x N inner system
    (linalg.woodbury_solve); "direct" is inject_fisher on the rows scaled
    by 1/N, rescaled by N.
    """
    y = checked(y_bar, "y_bar", (None, None))
    grads = checked(probe.grad(y), "probe.grad output", y.shape)
    n = y.shape[0]
    if inversion == "direct":
        steps = n * inject_fisher(grads / n, lam)
    elif inversion == "woodbury":
        steps = linalg.woodbury_solve(grads, lam, grads)
    else:
        raise ConfigError(f"unknown inversion {inversion!r}")
    return NewtonTarget(checked(y - steps, "z_star", y.shape))


def newton_target(y_bar, probe, cfg: NewtonConfig) -> NewtonTarget:
    """Dispatch on cfg.variant; the entry point used by the trainers."""
    if cfg.variant == "hessian":
        return newton_target_hessian(y_bar, probe, cfg.lam)
    return newton_target_fisher(y_bar, probe, cfg.lam)


def newton_target_from_parts(y_bar, grads, hessian, lam):
    """Build targets from precomputed gradient rows and curvature matrix.

    The one Hessian-target solve: newton_target_hessian ends here, and the
    trainers call it directly with the gradient rows and curvature their
    tasks estimate (finite differences, or smoothing for black boxes).
    The solver symmetrizes the curvature and checks its shape.
    """
    y = checked(y_bar, "y_bar", (None, None))
    g = checked(grads, "grads", y.shape)
    solver = linalg.TikhonovSolver(hessian, lam)
    return NewtonTarget(checked(y - solver.solve_mat(g.T).T, "z_star", y.shape))


def newton_loss_eval(y, target: NewtonTarget):
    """Value and per-sample gradient rows of the induced square loss.

    value = (1/N) sum_i 0.5 * ||z_i - y_i||^2, gradient row i = y_i - z_i.
    The rows are unscaled, matching the LossProbe convention; net.backward
    applies the 1/N mean reduction.
    """
    y = checked(y, "y", (None, None))
    z = checked(target.z_star, "target.z_star", y.shape)
    diff = y - z
    value = 0.5 * float(np.sum(diff * diff)) / y.shape[0]
    checked(value, "loss value", ())  # an overflowing difference makes it inf
    return value, diff


def newton_loss_probe(target: NewtonTarget) -> LossProbe:
    """Wrap frozen targets as a probe, e.g. to feed back into the target ops.

    The wrapped loss is quadratic with identity Hessian, so rebuilding
    targets from it at lam = 0 reproduces z_star.
    """
    z = checked(target.z_star, "target.z_star", (None, None))

    def value(y):
        d = np.asarray(y, dtype=np.float64) - z
        return 0.5 * float(np.sum(d * d))

    def grad(y):
        return np.asarray(y, dtype=np.float64) - z

    def hessian(y):
        return np.eye(z.shape[1])

    return LossProbe(value=value, grad=grad, hessian=hessian)


def inject_fisher(batch_grads, lam):
    """Whiten mean-reduced output gradients with their own second moment.

    For gradient rows g_i as produced by a mean-reduced backward pass
    (g_i = grad_i / N), returns rows of G (N G^T G + lam I)^{-1}.  Since
    N G^T G equals the empirical Fisher of the unscaled gradients, feeding
    the result into the same backward pass reproduces Fisher target training
    without ever forming targets.  Requires lam > 0.
    """
    g = checked(batch_grads, "batch_grads", (None, None))
    checked_real(lam, "lam", 0, strict=True)
    with np.errstate(over="ignore"):  # an overflow meets TikhonovSolver's finite check
        moment = len(g) * (g.T @ g)
    return linalg.TikhonovSolver(moment, lam).solve_mat(g.T).T


def split_step_check_gd(model, batch, probe, eta):
    """Compare direct GD on loss(f(x)) against the z-then-theta split.

    Direct path: one SGD step with the probe's output gradients.  Split
    path: unit step z = y - grad, then one SGD step on the square loss
    0.5 * ||z - y||^2 toward the frozen z.  The two parameter vectors agree
    up to rounding; returns {"max_param_deviation": ...}.
    """
    checked_real(eta, "eta", 0, strict=True)
    direct = net.clone_model(model)
    y, tape = net.forward(direct, batch)
    grads = net.backward(direct, tape, probe.grad(y))
    net.optimizer_step(net.OptimizerState.create("sgd", eta, direct), direct, grads)

    split = net.clone_model(model)
    y2, tape2 = net.forward(split, batch)
    z = y2 - probe.grad(y2)  # unit z-space step
    grads2 = net.backward(split, tape2, y2 - z)
    net.optimizer_step(net.OptimizerState.create("sgd", eta, split), split, grads2)

    dev = np.max(np.abs(direct.flat - split.flat))
    return {"max_param_deviation": float(dev)}


def _trainable_mask(model, trainable):
    """Boolean mask over the flat parameter vector."""
    mask = np.full(model.flat.size, True)
    for b in model.layer_views(mask)[1]:
        b[...] = trainable == "all"
    return mask


def split_step_check_newton(model, x, probe, eta, trainable="all"):
    """Compare a damped Newton step in theta against the z-then-theta split.

    Only valid for scalar model output (m = 1) and a single input point.
    Second derivatives with respect to the parameters are taken by central
    finite differences of the backward pass (batch_hessian on a one-row
    probe), on both paths.  The z-space Newton step is newton_target_hessian
    at lam = 0, so a flat probe raises SingularMatrix; so does a parameter
    Hessian without invertible structure on either path.  trainable="weights"
    freezes the biases, which keeps the parameter Hessian full rank for
    models that are linear in their parameters (a rank-one Hessian
    otherwise).
    Returns {"max_param_deviation": ...}.
    """
    checked_real(eta, "eta", 0, strict=True)
    inputs = np.asarray(x, dtype=np.float64)
    if inputs.ndim == 1:
        inputs = inputs[None, :]
    if inputs.ndim != 2 or inputs.shape[0] != 1:
        raise ShapeMismatch("newton split check wants a single input point")
    if model.sizes[-1] != 1:
        raise ShapeMismatch("newton split check wants scalar model output")
    if trainable not in ("all", "weights"):
        raise ConfigError(f"unknown trainable selector {trainable!r}")
    mask = _trainable_mask(model, trainable)
    theta0 = model.flat[mask]

    def theta_grad(theta, out_grad_fn):
        work = net.clone_model(model)
        work.flat[mask] = theta
        y, tape = net.forward(work, inputs)
        return net.backward(work, tape, out_grad_fn(y))[mask]

    def newton_step(out_grad_fn):
        rows = LossProbe(grad=lambda t: np.apply_along_axis(theta_grad, -1, t, out_grad_fn))
        g, h = batch_hessian(rows, theta0[None, :])
        return theta0 - eta * linalg.TikhonovSolver(h, 0.0).solve(g[0])

    theta_direct = newton_step(probe.grad)
    z = newton_target_hessian(net.forward(model, inputs)[0], probe, 0.0).z_star
    theta_split = newton_step(lambda y: y - z)

    dev = np.max(np.abs(theta_direct - theta_split))
    return {"max_param_deviation": float(dev)}

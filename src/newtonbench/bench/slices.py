"""Gradient slices: sweep one input coordinate, record the loss gradient.

The resulting tables show how a ranking loss gradient behaves far from the
optimum, and how the empirical-Fisher transform reshapes it.
"""

import numpy as np

from .. import diffsort, newton
from ..errors import ConfigError, checked_int, checked_real


def gradient_slice(method, y_base, coord, lo, hi, steps, tau=None, beta=None,
                   fisher_lambda=None):
    """Rows of (swept coordinate value, gradient components) of method's
    ranking loss, whose ground truth is descending order.

    With fisher_lambda set, each gradient g is recorded as g (g g^T + lam I)^-1
    instead, the single-sample form of the batch Fisher transform.
    """
    scfg = diffsort.SortConfig(method=method, tau=tau, beta=beta)
    y_base = np.asarray(y_base, dtype=np.float64).ravel()
    n = y_base.size
    if fisher_lambda is not None:
        checked_real(fisher_lambda, "fisher_lambda", 0, strict=True)
    if not np.all(np.isfinite(y_base)):
        raise ConfigError(f"base vector must be finite, got {y_base.tolist()}")
    if checked_int(coord, "coord", 0) >= n:
        raise ConfigError(f"coord {coord} out of range for n={n}")
    checked_int(steps, "steps", 2)
    checked_real(lo, "lo")
    checked_real(hi, "hi")
    if not np.isfinite(float(hi) - float(lo)):  # linspace needs the width too
        raise ConfigError(f"sweep bounds and their width must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ConfigError(f"empty sweep range [{lo}, {hi}]")

    truth = diffsort.GroundTruthRanking(range(n))
    grid = np.linspace(lo, hi, steps)
    table = np.empty((steps, n + 1))
    for k, t in enumerate(grid):
        y = y_base.copy()
        y[coord] = t
        g = diffsort.ranking_loss(y, truth, scfg)[1]
        if fisher_lambda is not None:
            g = newton.inject_fisher(g[None, :], fisher_lambda)[0]
        table[k, 0] = t
        table[k, 1:] = g
    return table

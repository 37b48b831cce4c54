"""Gradient slices: sweep one input coordinate, record the loss gradient.

The resulting tables show how a ranking loss gradient behaves far from the
optimum, and how the empirical-Fisher transform reshapes it.
"""

import numpy as np

from .. import diffsort, newton
from ..errors import ConfigError
from .report import _fmt


def gradient_slice(grad_fn, y_base, coord, lo, hi, steps, fisher_lambda=None):
    """Rows of (swept coordinate value, gradient components).

    grad_fn maps a length-n vector to its length-n loss gradient. With
    fisher_lambda set, each gradient g is recorded as g (g g^T + lam I)^-1
    instead, the single-sample form of the batch Fisher transform.
    """
    y_base = np.asarray(y_base, dtype=np.float64).ravel()
    n = y_base.size
    if fisher_lambda is not None and not 0 < fisher_lambda < np.inf:
        raise ConfigError(f"fisher injection needs a finite lambda > 0, got {fisher_lambda}")
    if not np.all(np.isfinite(y_base)):
        raise ConfigError(f"base vector must be finite, got {y_base.tolist()}")
    if not 0 <= coord < n:
        raise ConfigError(f"coord {coord} out of range for n={n}")
    if steps < 2:
        raise ConfigError(f"need at least 2 sweep points, got {steps}")
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ConfigError(f"sweep bounds must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ConfigError(f"empty sweep range [{lo}, {hi}]")

    grid = np.linspace(lo, hi, steps)
    table = np.empty((steps, n + 1))
    for k, t in enumerate(grid):
        y = y_base.copy()
        y[coord] = t
        g = np.asarray(grad_fn(y), dtype=np.float64).ravel()
        if g.size != n:
            raise ConfigError(f"grad_fn returned {g.size} components, expected {n}")
        if fisher_lambda is not None:
            g = newton.inject_fisher(g[None, :], fisher_lambda)[0]
        table[k, 0] = t
        table[k, 1:] = g
    return table


def ranking_grad_fn(method, n, tau=None, beta=None):
    """Gradient of a ranking loss whose ground truth is descending order."""
    scfg = diffsort.SortConfig(method=method, tau=tau, beta=beta)
    truth = diffsort.truth_from_order(tuple(range(n)))

    def grad_fn(y):
        return diffsort.ranking_loss(np.asarray(y, dtype=np.float64), truth, scfg)[1]

    return grad_fn


def slice_tsv(table, coord):
    """Plot-ready TSV with the swept coordinate first."""
    n = table.shape[1] - 1
    header = [f"y{coord}"] + [f"g{j}" for j in range(n)]
    lines = ["\t".join(header)]
    for row in table:
        lines.append("\t".join(_fmt(float(v)) for v in row))
    return "\n".join(lines) + "\n"

"""Self-contained numeric checks behind the `check` CLI subcommands.

Each check returns a plain dict with an "ok" flag so the CLI can print the
numbers and pick an exit code without depending on a test runner.
"""

import numpy as np

from .. import diffsort, net, newton, shortest_path
from ..errors import ConfigError

GRAD_TOL = 1e-5
GD_LEMMA_TOL = 1e-10
NEWTON_LEMMA_TOL = 1e-6
ORACLE_COST_TOL = 1e-9


def _central_fd_grad(value_fn, y, h):
    g = np.empty_like(y)
    for j in range(y.size):
        yp = y.copy()
        ym = y.copy()
        yp[j] += h
        ym[j] -= h
        g[j] = (value_fn(yp) - value_fn(ym)) / (2.0 * h)
    return g


def check_grad(seed=0, count=50, n=5):
    """Analytic ranking-loss gradients against central differences."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 401)))
    h = np.cbrt(np.finfo(np.float64).eps)
    per_method = {}
    for method in ("neuralsort", "softsort", "dsn_logistic", "dsn_cauchy"):
        scfg = diffsort.SortConfig(method=method)
        worst = 0.0
        for _ in range(count):
            y = rng.normal(0.0, 1.0, size=n)
            truth = diffsort.truth_from_order(tuple(rng.permutation(n)))
            analytic = diffsort.ranking_loss(y, truth, scfg)[1]
            fd = _central_fd_grad(
                lambda v: diffsort.ranking_loss(v, truth, scfg)[0], y, h
            )
            scale = max(np.max(np.abs(fd)), np.max(np.abs(analytic)), 1e-12)
            worst = max(worst, np.max(np.abs(analytic - fd)) / scale)
        per_method[method] = worst
    max_err = max(per_method.values())
    return {
        "per_method": per_method,
        "max_rel_err": max_err,
        "tolerance": GRAD_TOL,
        "ok": bool(max_err <= GRAD_TOL),
    }


def _quartic_scalar_probe():
    # per-sample loss 0.25 y^4: steep enough that the split and direct
    # Newton steps would visibly disagree if either stepped wrong
    return newton.LossProbe(
        value=lambda y: float(np.sum(0.25 * y**4)),
        grad=lambda y: y**3,
        hessian=lambda y: np.array([[float(np.mean(3.0 * y**2))]]),
    )


def check_lemmas(seed=0):
    """Split-step equivalences: plain GD and the scalar Newton case."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 402)))
    model = net.Mlp.init(
        [4, 6, 3], ["tanh", "identity"], np.random.SeedSequence((seed, 403))
    )
    x = rng.normal(0.0, 1.0, size=(8, 4))
    targets = rng.normal(0.0, 1.0, size=(8, 3))
    probe = newton.LossProbe(
        value=lambda y: float(0.5 * np.sum((y - targets) ** 2)),
        grad=lambda y: y - targets,
    )
    gd = net.clone_model(model)
    gd_dev = newton.split_step_check_gd(gd, x, probe, eta=0.05)[
        "max_param_deviation"
    ]

    scalar = net.Mlp.init(
        [1, 1, 1], ["tanh", "identity"], np.random.SeedSequence((seed, 404))
    )
    x1 = rng.normal(0.0, 1.0, size=1)
    newton_dev = newton.split_step_check_newton(
        scalar, x1, _quartic_scalar_probe(), eta=0.5, trainable="weights"
    )["max_param_deviation"]
    return {
        "gd_deviation": gd_dev,
        "newton_deviation": newton_dev,
        "gd_tolerance": GD_LEMMA_TOL,
        "newton_tolerance": NEWTON_LEMMA_TOL,
        "ok": bool(gd_dev <= GD_LEMMA_TOL and newton_dev <= NEWTON_LEMMA_TOL),
    }


def check_oracles(seed=0, grids_per_size=100, sizes=(3, 4, 5)):
    """Dijkstra against exhaustive path enumeration on random grids."""
    if grids_per_size < 1:
        raise ConfigError(f"need at least one grid per size, got {grids_per_size}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 405)))
    max_rel = 0.0
    mask_mismatches = 0
    ambiguous = 0
    total = 0
    for size in sizes:
        for _ in range(grids_per_size):
            costs = rng.uniform(0.1, 2.0, size=(size, size))
            inst = shortest_path.GridInstance(
                height=size, width=size, node_costs=costs
            )
            result = shortest_path.dijkstra_grid(inst)
            dij_cost = shortest_path.path_cost(inst, result)
            best, mask, unique = shortest_path.brute_force_shortest(inst)
            max_rel = max(max_rel, abs(dij_cost - best) / best)
            if unique:
                if not np.array_equal(result, mask):
                    mask_mismatches += 1
            else:
                ambiguous += 1
            total += 1
    return {
        "grids": total,
        "max_cost_rel_err": max_rel,
        "mask_mismatches": mask_mismatches,
        "ambiguous": ambiguous,
        "tolerance": ORACLE_COST_TOL,
        "ok": bool(max_rel <= ORACLE_COST_TOL and mask_mismatches == 0),
    }

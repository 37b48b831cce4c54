"""The training loop of the ranking and shortest-path benchmarks.

One loop serves both tasks; a task only supplies its data, its metrics, and
output_grads: the loss gradient rows at the network outputs and, for
nl_hessian, their batch-averaged curvature.  Three modes then share one
dispatch (output_rows):
  baseline    plain loss gradients into the backward pass,
  nl_hessian  regression toward curvature-corrected targets (the batch
              Hessian route; finite differences or smoothing estimates
              stand in where no analytic Hessian exists),
  nl_fisher   gradient whitening by the empirical Fisher, applied in place
              of the output gradients; equivalent to Fisher targets.

Every run is a pure function of its config: data, model init, batch order,
and smoothing draws all derive from cfg.seed through separate seed streams.
"""

import time
from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import expit

from ..errors import ConfigError
from .. import diffsort, net, newton, shortest_path, smoothing
from . import datagen
from .report import TrainReport

RANK_METHODS = ("neuralsort", "softsort", "dsn_logistic", "dsn_cauchy")
PATH_METHODS = ("ss_loss", "ss_algorithm", "fy")
MODES = ("baseline", "nl_hessian", "nl_fisher")

COST_FLOOR = 0.1  # matches datagen.cost_readout so scales line up

# Regularization presets, keyed by (mode, method); the rank task switches
# tables at length n > 7.  Chosen once from a coarse sweep at desk scale.
LAMBDA_PRESETS = {
    ("rank", "small"): {
        ("nl_hessian", "neuralsort"): 0.01,
        ("nl_hessian", "softsort"): 10.0,
        ("nl_hessian", "dsn_logistic"): 0.1,
        ("nl_hessian", "dsn_cauchy"): 0.1,
        ("nl_fisher", "neuralsort"): 0.1,
        ("nl_fisher", "softsort"): 10.0,
        ("nl_fisher", "dsn_logistic"): 0.1,
        ("nl_fisher", "dsn_cauchy"): 0.1,
    },
    ("rank", "large"): {
        ("nl_hessian", "neuralsort"): 0.01,
        ("nl_hessian", "softsort"): 1.0,
        ("nl_hessian", "dsn_logistic"): 0.1,
        ("nl_hessian", "dsn_cauchy"): 0.1,
        ("nl_fisher", "neuralsort"): 100.0,
        ("nl_fisher", "softsort"): 100.0,
        ("nl_fisher", "dsn_logistic"): 0.1,
        ("nl_fisher", "dsn_cauchy"): 0.1,
    },
    ("path", "any"): {
        ("nl_hessian", "ss_loss"): 1000.0,
        ("nl_hessian", "fy"): 1000.0,
        ("nl_fisher", "ss_loss"): 0.1,
        ("nl_fisher", "ss_algorithm"): 1000.0,
        ("nl_fisher", "fy"): 1000.0,
    },
}


def lambda_preset(task, method, mode, n=5):
    if mode == "baseline":
        return 0.0
    if task == "rank":
        table = LAMBDA_PRESETS[("rank", "small" if n <= 7 else "large")]
    else:
        table = LAMBDA_PRESETS[("path", "any")]
    key = (mode, method)
    if key not in table:
        raise ConfigError(f"no lambda preset for {task}/{method}/{mode}")
    return table[key]


@dataclass
class ExperimentConfig:
    task: str
    method: str
    mode: str = "baseline"
    lam: float = None          # None resolves to the preset for (method, mode)
    seed: int = 0
    steps: int = 500
    batch: int = 20
    n: int = 5                 # rank: set length
    grid: int = 4              # path: grid side
    sigma: float = 0.1
    samples: int = 10
    tau: float = None          # None keeps the per-method default
    beta: float = None
    feature_dim: int = 6
    train_count: int = 256
    eval_count: int = 128
    hidden: int = 32
    lr: float = 0.003
    optimizer: str = "adam"
    eval_every: int = None     # None resolves to max(1, steps // 20)
    data_path: str = None

    def __post_init__(self):
        if self.task not in ("rank", "path"):
            raise ConfigError(f"unknown task {self.task!r}")
        methods = RANK_METHODS if self.task == "rank" else PATH_METHODS
        if self.method not in methods:
            raise ConfigError(
                f"method {self.method!r} not valid for task {self.task!r}; "
                f"choose from {methods}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.method == "ss_algorithm" and self.mode == "nl_hessian":
            raise ConfigError(
                "nl_hessian is unavailable for ss_algorithm: the Hessian of "
                "the smoothed solver output is intractable; use baseline or "
                "nl_fisher"
            )
        for name in ("steps", "batch", "train_count", "eval_count", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.task == "rank" and self.n < 2:
            raise ConfigError(f"ranking length must be >= 2, got {self.n}")
        if self.task == "path" and self.grid < 2:
            raise ConfigError(f"grid side must be >= 2, got {self.grid}")
        for name in ("lam", "sigma", "tau", "beta", "lr"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.sigma <= 0 or self.samples < 1:
            raise ConfigError("sigma must be > 0 and samples >= 1")
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.lr}")
        if self.batch > self.train_count:
            raise ConfigError("batch cannot exceed train_count")
        if self.lam is None:
            self.lam = lambda_preset(self.task, self.method, self.mode, self.n)
        if self.lam < 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.mode != "baseline" and self.lam <= 0:
            raise ConfigError("Newton modes need lam > 0")
        if self.eval_every is None:
            self.eval_every = max(1, self.steps // 20)
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")


def config_echo(cfg):
    """Plain-dict echo of the experiment knobs for report embedding."""
    echo = asdict(cfg)
    if echo["data_path"] is None:
        del echo["data_path"]
    return echo


def _sub_seed(*parts):
    """Stable derived integer seed for an independent RNG stream."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _load_data(cfg):
    """(dataset, training records, held-out records) for cfg's task."""
    rank = cfg.task == "rank"
    size = cfg.n if rank else cfg.grid
    if not cfg.data_path:
        gen = datagen.gen_ranking_data if rank else datagen.gen_grid_data
        ds = gen(cfg.seed, size, cfg.train_count + cfg.eval_count, cfg.feature_dim)
        return ds, ds.records[: cfg.train_count], ds.records[cfg.train_count :]
    ds = datagen.load_dataset(cfg.data_path)
    if not isinstance(ds, datagen.RankDataset if rank else datagen.GridDataset):
        raise ConfigError(f"{cfg.data_path} is not a {'ranking' if rank else 'grid'} dataset")
    stored = ds.n if rank else ds.size
    if stored != size:
        raise ConfigError(f"{cfg.data_path} holds size {stored}, the run asks for {size}")
    # loaded datasets hold out a third, capped at the configured eval size
    k = min(cfg.eval_count, max(1, len(ds.records) // 3))
    train, heldout = ds.records[:-k], ds.records[-k:]
    if len(train) < cfg.batch:
        raise ConfigError("dataset too small for the requested batch size")
    return ds, train, heldout


def _forward(model, records):
    feats = np.concatenate([r.features for r in records], axis=0)
    out, tape = net.forward(model, feats)
    return out.reshape(len(records), -1), tape


# ---------------------------------------------------------------- rank task


def rank_metrics(score_rows, records):
    """Exact-match and element-rank percentages against stored rankings."""
    exact = 0
    elements = 0
    total_elements = 0
    for row, rec in zip(score_rows, records):
        pred = diffsort.hard_rank(row).order
        truth = tuple(rec.ranking)
        exact += int(pred == truth)
        elements += sum(int(a == b) for a, b in zip(pred, truth))
        total_elements += len(truth)
    return {
        "exact_match": 100.0 * exact / len(records),
        "element_rank": 100.0 * elements / total_elements,
    }


def _rank_grads(cfg, y, batch, step):
    """Ranking-loss gradient rows; finite-difference curvature for nl_hessian."""
    scfg = diffsort.SortConfig(method=cfg.method, tau=cfg.tau, beta=cfg.beta)
    truths = [diffsort.truth_from_order(r.ranking) for r in batch]

    def grads_of(v):
        return np.stack(
            [diffsort.ranking_loss(row, t, scfg)[1] for row, t in zip(v, truths)]
        )

    rows = grads_of(y)
    if cfg.mode != "nl_hessian":
        return rows, None
    return rows, newton.batch_hessian(newton.LossProbe(grad=grads_of), y)


# ---------------------------------------------------------------- path task


def costs_from_raw(raw):
    """Positive cell costs from unconstrained model outputs."""
    return np.logaddexp(0.0, raw) + COST_FLOOR


def _mask_of_raw(raw, size):
    inst = shortest_path.GridInstance(
        height=size, width=size, node_costs=costs_from_raw(raw).reshape(size, size)
    )
    return shortest_path.dijkstra_grid(inst).astype(np.float64).ravel()


def path_metrics(raw_rows, records, size):
    """Perfect-match percentage of predicted against stored path masks."""
    hits = 0
    for raw, rec in zip(raw_rows, records):
        pred = _mask_of_raw(raw, size).reshape(size, size)
        hits += int(np.array_equal(pred, np.asarray(rec.mask, dtype=np.float64)))
    return {"perfect_match": 100.0 * hits / len(records)}


# seed-stream tag of each path method's smoothing draws
_PATH_SEED_TAGS = {"ss_loss": 301, "ss_algorithm": 302, "fy": 303}


def _path_grads(cfg, y, batch, step):
    """Smoothed gradient rows, plus averaged curvature for nl_hessian.

    ss_loss smooths the Hamming loss of the solver's mask; ss_algorithm
    chains the square loss through the smoothed solver output; fy takes the
    perturbed-argmax loss gradient and chains it through the cost map.
    """
    n, m = y.shape
    size = cfg.grid
    rows = np.empty_like(y)
    hess = np.zeros((m, m)) if cfg.mode == "nl_hessian" else None

    def solver(u):
        return _mask_of_raw(u, size)

    def argmax(s):
        return shortest_path.indicator_argmax(s, size, size)

    for j, rec in enumerate(batch):
        mask = np.asarray(rec.mask, dtype=np.float64).ravel()
        scfg = smoothing.SmoothingConfig(
            sigma=cfg.sigma,
            samples=cfg.samples,
            seed=_sub_seed(cfg.seed, _PATH_SEED_TAGS[cfg.method], step, j),
        )
        if cfg.method == "ss_loss":

            def hamming(u):
                return float(np.sum(np.abs(_mask_of_raw(u, size) - mask)))

            rows[j] = smoothing.smooth_grad(hamming, y[j], scfg)
            if hess is not None:
                hess += smoothing.smooth_hessian(hamming, y[j], scfg)
        elif cfg.method == "ss_algorithm":
            jac = smoothing.smooth_jacobian(solver, y[j], scfg)
            # same Philox key as the jacobian call, so both see one draw set
            draws = smoothing._draws(scfg, m)
            mean_mask = np.mean([solver(y[j] + e) for e in draws], axis=0)
            rows[j] = jac.T @ (mean_mask - mask)
        else:
            scores = -costs_from_raw(y[j])
            g_scores = smoothing.fy_loss_grad(scores, mask, argmax, scfg)
            slope = -expit(y[j])  # d scores / d raw
            rows[j] = g_scores * slope
            if hess is not None:
                jac = smoothing.smooth_jacobian(argmax, scores, scfg)
                curv = expit(y[j]) * (1.0 - expit(y[j]))  # d^2 scores / d raw^2
                h_j = (slope[:, None] * jac) * slope[None, :] - np.diag(g_scores * curv)
                hess += 0.5 * (h_j + h_j.T)
    if hess is not None:
        hess /= n
    return rows, hess


# ---------------------------------------------------------------- training


def output_grads(cfg, y, batch, step):
    """Per-sample loss gradient rows for y, and the batch-averaged curvature
    when cfg.mode is nl_hessian (None otherwise)."""
    if cfg.task == "rank":
        return _rank_grads(cfg, y, batch, step)
    return _path_grads(cfg, y, batch, step)


def output_rows(cfg, y, grad_rows, curvature):
    """Mode dispatch: what goes into the backward pass for this batch."""
    if cfg.mode == "baseline":
        return grad_rows
    if cfg.mode == "nl_hessian":
        target = newton.newton_target_from_parts(y, grad_rows, curvature, cfg.lam)
        return newton.newton_loss_eval(y, target)[1]
    n = y.shape[0]
    return n * newton.inject_fisher(grad_rows / n, cfg.lam)


def _metrics(cfg, out_rows, records):
    if cfg.task == "rank":
        return rank_metrics(out_rows, records)
    return path_metrics(out_rows, records, cfg.grid)


def run_experiment(cfg):
    """Train the per-element scorer (rank) or per-cell cost predictor (path)
    under cfg, evaluating the held-out metrics along the way."""
    started = time.perf_counter()
    ds, train, heldout = _load_data(cfg)
    model = net.Mlp.init(
        [ds.feature_dim, cfg.hidden, 1],
        ["tanh", "identity"],
        np.random.SeedSequence((cfg.seed, 201)),
    )
    opt = net.OptimizerState.create(cfg.optimizer, cfg.lr, model)
    batch_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 202)))

    curve = []

    def evaluate(step):
        out_rows, _ = _forward(model, heldout)
        curve.append({"step": step, **_metrics(cfg, out_rows, heldout)})

    evaluate(0)
    for step in range(1, cfg.steps + 1):
        idx = batch_rng.choice(len(train), size=cfg.batch, replace=False)
        batch = [train[i] for i in idx]
        y, tape = _forward(model, batch)
        rows = output_rows(cfg, y, *output_grads(cfg, y, batch, step))
        grads = net.backward(model, tape, rows.reshape(-1, 1))
        net.optimizer_step(opt, model, grads)
        if step % cfg.eval_every == 0 or step == cfg.steps:
            evaluate(step)

    return TrainReport(
        config=config_echo(cfg),
        seed=cfg.seed,
        curve=curve,
        final={k: v for k, v in curve[-1].items() if k != "step"},
        wall_clock=time.perf_counter() - started,
    )


def __getattr__(name):
    # The former per-task entry points, resolved on lookup rather than bound
    # as globals: run_experiment then stays the only module attribute holding
    # the function, so tools that wrap module functions by attribute name
    # (stepbench's tracer) give its calls one name.
    if name in ("run_ranking_experiment", "run_path_experiment"):
        return run_experiment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def ablate_lambda(cfg, lam_grid):
    """One baseline run plus (nl_hessian, nl_fisher) runs per lambda.

    Returns (reports, tsv_columns): reports is the flat list of TrainReports
    in execution order; tsv_columns maps column names to final element-rank
    accuracies aligned with lam_grid.
    """
    lams = [float(l) for l in lam_grid]
    if not lams:
        raise ConfigError("lambda grid must be nonempty")
    if not all(0 < l < np.inf for l in lams) or sorted(lams) != lams:
        raise ConfigError("lambda grid must be finite, positive and ascending")
    if cfg.task != "rank":
        raise ConfigError("the lambda ablation runs on the rank task")

    reports = []
    base_cfg = ExperimentConfig(**{**asdict(cfg), "mode": "baseline", "lam": None})
    base_report = run_experiment(base_cfg)
    reports.append(base_report)
    columns = {"baseline": base_report.final["element_rank"]}
    for mode in ("nl_hessian", "nl_fisher"):
        col = []
        for lam in lams:
            run_cfg = ExperimentConfig(**{**asdict(cfg), "mode": mode, "lam": lam})
            rep = run_experiment(run_cfg)
            reports.append(rep)
            col.append(rep.final["element_rank"])
        columns[mode] = col
    return reports, columns

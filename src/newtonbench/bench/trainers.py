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

from dataclasses import dataclass, asdict

import numpy as np

from ..errors import (
    ConfigError, NonFiniteResult, SingularMatrix, checked, checked_int, checked_real
)
from .. import diffsort, net, newton, shortest_path, smoothing
from . import datagen
from .report import MODES, TrainReport, fmt

# seed-stream tag of each path method's smoothing draws
_PATH_SEED_TAGS = {"ss_loss": 301, "ss_algorithm": 302, "fy": 303}
RANK_METHODS = diffsort.METHODS
PATH_METHODS = tuple(_PATH_SEED_TAGS)
# every run trains a feature_dim -> HIDDEN -> 1 tanh MLP by OPTIMIZER at step size LR
HIDDEN, LR, OPTIMIZER = 32, 0.003, "adam"
GEN_COUNT = 384  # records of a generated run; _train_count splits them 256/128
ARGMAX_COST_FLOOR = 1e-9  # fy's floor on the costs its perturbed scores imply

# Damping presets, keyed by (method, mode): one lambda, or a pair (n <= 7,
# n > 7) where a rank method switches at longer rankings.  Chosen once from a
# coarse sweep at desk scale.  ss_algorithm has no nl_hessian: the Hessian of
# its smoothed solver output is intractable.
LAMBDA_PRESETS = {
    ("neuralsort", "nl_hessian"): 0.01,
    ("neuralsort", "nl_fisher"): (0.1, 100.0),
    ("softsort", "nl_hessian"): (10.0, 1.0),
    ("softsort", "nl_fisher"): (10.0, 100.0),
    ("dsn_logistic", "nl_hessian"): 0.1,
    ("dsn_logistic", "nl_fisher"): 0.1,
    ("dsn_cauchy", "nl_hessian"): 0.1,
    ("dsn_cauchy", "nl_fisher"): 0.1,
    ("ss_loss", "nl_hessian"): 1000.0,
    ("ss_loss", "nl_fisher"): 0.1,
    ("ss_algorithm", "nl_fisher"): 1000.0,
    ("fy", "nl_hessian"): 1000.0,
    ("fy", "nl_fisher"): 1000.0,
}


def lambda_preset(method, mode, n=5):
    if mode == "baseline":
        return 0.0
    lam = LAMBDA_PRESETS[(method, mode)]
    return lam[n > 7] if isinstance(lam, tuple) else lam


def method_modes(method):
    """The modes method trains in, in MODES order: baseline and every Newton
    mode with a preset."""
    return [m for m in MODES if m == "baseline" or (method, m) in LAMBDA_PRESETS]


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
    tau: float = None          # rank: None keeps the per-method default
    beta: float = None
    data_path: str = None      # None or "" draws GEN_COUNT records

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
        if self.mode not in method_modes(self.method):
            raise ConfigError(
                "nl_hessian is unavailable for ss_algorithm: the Hessian of "
                "the smoothed solver output is intractable; use baseline or "
                "nl_fisher"
            )
        checked_int(self.steps, "steps", 1)
        checked_int(self.batch, "batch", 1)
        # the root of every seed stream; the generators take non-negative seeds only
        checked_int(self.seed, "seed", 0)
        if self.task == "rank":
            checked_int(self.n, "n", 2)
        else:
            checked_int(self.grid, "grid", 2)
        # the sort rules on tau and beta and the smoothing rules, before the first run
        if self.task == "rank":
            diffsort.SortConfig(method=self.method, tau=self.tau, beta=self.beta)
        elif self.tau is not None or self.beta is not None:
            raise ConfigError("tau and beta set ranking relaxations; the path task reads neither")
        smoothing.SmoothingConfig(sigma=self.sigma, samples=self.samples)
        if not self.data_path:  # a --data file is split when it loads (_load_data)
            _train_count(GEN_COUNT, self.batch)
        if self.mode == "baseline" and self.lam is not None:
            raise ConfigError("baseline trains on the plain loss gradient and reads no lambda")
        if self.lam is None:
            self.lam = lambda_preset(self.method, self.mode, self.n)
        checked_real(self.lam, "lam", 0, strict=self.mode != "baseline")


def _train_count(count, batch):
    """Records a run trains on out of count: the last min(128, max(1, count // 3))
    are held out, and a batch must fit in the rest."""
    train = count - min(128, max(1, count // 3))
    if batch > train:
        raise ConfigError(
            f"dataset too small for the requested batch size: batch cannot exceed "
            f"train_count ({train} of {count} records)"
        )
    return train


def _sub_seed(*parts):
    """Stable derived integer seed for an independent RNG stream: the first
    word of SeedSequence(parts), given as the uint32 words numpy splits each
    part into (low word first, 0 as [0]), which skips its per-part conversion."""
    words = []
    for p in map(int, parts):
        if p < 0:
            raise ValueError(f"seed parts must be non-negative, got {p}")
        words.append(p & 0xFFFFFFFF)
        while p > 0xFFFFFFFF:
            p >>= 32
            words.append(p & 0xFFFFFFFF)
    return int(np.random.SeedSequence(np.array(words, np.uint32)).generate_state(1)[0])


def _load_data(cfg):
    """(dataset, train count) for cfg's task; the records past train count are held out."""
    rank = cfg.task == "rank"
    size = cfg.n if rank else cfg.grid
    if not cfg.data_path:
        gen = datagen.gen_ranking_data if rank else datagen.gen_grid_data
        ds = gen(cfg.seed, size, GEN_COUNT)
    else:
        ds = datagen.load_dataset(cfg.data_path)
        if ds.kind != cfg.task:
            raise ConfigError(f"{cfg.data_path} is not a {'ranking' if rank else 'grid'} dataset")
        if ds.size != size:
            raise ConfigError(f"{cfg.data_path} holds size {ds.size}, the run asks for {size}")
    return ds, _train_count(len(ds.features), cfg.batch)


def _forward(model, features):
    out, tape = net.forward(model, features.reshape(-1, features.shape[-1]))
    return out.reshape(len(features), -1), tape


# ---------------------------------------------------------------- rank task


def rank_metrics(score_rows, rankings):
    """Exact-match and element-rank percentages against stored rankings;
    predictions are the descending order with ties to the lower index."""
    scores = checked(score_rows, "held-out scores", (None, None))
    pred = np.argsort(-scores, axis=1, kind="stable")
    hits = pred == checked(rankings, "rankings", scores.shape)
    return {
        "exact_match": 100.0 * int(np.sum(np.all(hits, axis=1))) / len(rankings),
        "element_rank": 100.0 * int(np.sum(hits)) / hits.size,
    }


def _rank_grads(cfg, y, rankings, step):
    """Ranking-loss gradient rows; finite-difference curvature for nl_hessian."""
    scfg = diffsort.SortConfig(method=cfg.method, tau=cfg.tau, beta=cfg.beta)
    truths = [diffsort.GroundTruthRanking(r) for r in rankings]

    def grads_of(v):
        # v stacks batches (..., N, n); row i of every batch pairs with truths[i]
        batches = v.reshape(-1, len(truths), v.shape[-1])
        return np.array(
            [[diffsort.ranking_loss(r, t, scfg)[1] for r, t in zip(b, truths)] for b in batches]
        ).reshape(v.shape)

    if cfg.mode == "nl_hessian":
        return newton.batch_hessian(newton.LossProbe(grad=grads_of), y)
    return grads_of(y), None


# ---------------------------------------------------------------- path task


def _masks_of(costs):
    """The solver's flat masks for a (k, h, w) cost stack: one GridInstance and
    one dijkstra_grid call, through the module attribute, per grid."""
    grids = [shortest_path.GridInstance(c) for c in costs]
    return np.array([shortest_path.dijkstra_grid(g) for g in grids]).reshape(len(costs), -1)


def _floored_argmax(scores, size):
    """fy's argmax box: the flat masks of a (k, size*size) score stack, its
    scores negated back into costs and floored at ARGMAX_COST_FLOOR.  That is
    the exact argmax while every implied cost stays positive, which
    perturbations far below the cost scale ensure."""
    costs = np.maximum(-checked(scores, "scores", (None, size * size)), ARGMAX_COST_FLOOR)
    return _masks_of(costs.reshape(-1, size, size))


def path_metrics(raw_rows, masks, size):
    """Perfect-match percentage of predicted against stored path masks, solved as one stack."""
    raw = checked(raw_rows, "held-out outputs", (None, size * size))
    pred = shortest_path.dijkstra_grids(datagen.costs_from_raw(raw).reshape(-1, size, size))
    hits = int(np.sum(np.all(pred == checked(masks, "masks", pred.shape), axis=(1, 2))))
    return {"perfect_match": 100.0 * hits / len(masks)}


def _path_grads(cfg, y, masks, step):
    """Smoothed gradient rows, plus averaged curvature for nl_hessian; each
    estimate probes the whole batch once, with one seeded config per row.

    ss_loss smooths the Hamming loss of the solver's mask; ss_algorithm
    chains the square loss through the smoothed solver output; fy takes the
    perturbed-argmax loss gradient, the smoothed argmax less the mask, and
    chains it through the cost map.
    """
    n, m = y.shape
    size, masks, hess = cfg.grid, masks.reshape(n, m), None
    seeds = [_sub_seed(cfg.seed, _PATH_SEED_TAGS[cfg.method], step, j) for j in range(n)]
    scfgs = [smoothing.SmoothingConfig(cfg.sigma, cfg.samples, seed) for seed in seeds]

    def solved(u):
        return _masks_of(datagen.costs_from_raw(u).reshape(-1, size, size))

    if cfg.method == "ss_loss":
        # the sum of |solved - mask| over 0/1 masks, exactly, per point of a row's block
        row_masks = np.repeat(masks, cfg.samples + 1, axis=0)
        hamming = smoothing.Stacked(lambda u: np.count_nonzero(solved(u) != row_masks, axis=1))
        rows = smoothing.smooth_grad(hamming, y, scfgs)
        if cfg.mode == "nl_hessian":
            hess = smoothing.smooth_hessian(hamming, y, scfgs)
    elif cfg.method == "ss_algorithm":
        mean_mask, jac = smoothing.smooth_jacobian(smoothing.Stacked(solved), y, scfgs)
        rows = (jac.swapaxes(1, 2) @ (mean_mask - masks)[..., None])[..., 0]
    else:
        sig = diffsort.expit(y)
        slope = -sig  # d scores / d raw
        # the loss gradient and, for nl_hessian, its curvature from one draw set
        argmax = smoothing.Stacked(lambda s: _floored_argmax(s, size))
        mean_mask, jac = smoothing.smooth_jacobian(argmax, -datagen.costs_from_raw(y), scfgs)
        g_scores = mean_mask - masks
        rows = g_scores * slope
        if cfg.mode == "nl_hessian":
            curv = sig * (1.0 - sig)  # d^2 scores / d raw^2
            h = (slope[:, :, None] * jac) * slope[:, None, :]
            h[:, np.arange(m), np.arange(m)] -= g_scores * curv  # an off-diagonal -0.0 stays
            hess = 0.5 * (h + h.swapaxes(1, 2))
    if hess is not None:
        # summed in row order from +0.0, the sign of every zero included
        hess = np.add.reduce(hess, axis=0, initial=0.0) / n
    return rows, hess


# ---------------------------------------------------------------- training


def output_grads(cfg, y, labels, step):
    """Per-sample loss gradient rows for y against its label rows, and the
    batch-averaged curvature when cfg.mode is nl_hessian (None otherwise)."""
    if cfg.task == "rank":
        return _rank_grads(cfg, y, labels, step)
    return _path_grads(cfg, y, labels, step)


def output_rows(cfg, y, grad_rows, curvature):
    """Mode dispatch: what goes into the backward pass for this batch."""
    if cfg.mode == "baseline":
        return grad_rows
    if cfg.mode == "nl_hessian":
        target = newton.newton_target_from_parts(y, grad_rows, curvature, cfg.lam)
        return newton.newton_loss_eval(y, target)[1]
    n = y.shape[0]
    return n * newton.inject_fisher(grad_rows / n, cfg.lam)


def run_experiment(cfg):
    """Train the per-element scorer (rank) or per-cell cost predictor (path)
    under cfg, evaluating the held-out metrics along the way.

    A NonFiniteResult or SingularMatrix leaves as the same class with the
    run's mode, lambda (Newton modes), seed, step and phase in front, as in
    "nl_hessian lam 1 seed 0 step 487, damped solve: eigenvalue ..."."""

    def at(step, phase, fn, *args):
        try:
            return fn(*args)
        except (NonFiniteResult, SingularMatrix) as exc:
            lam = "" if cfg.mode == "baseline" else f" lam {fmt(cfg.lam)}"
            where = f"{cfg.mode}{lam} seed {cfg.seed} step {step}, {phase}"
            raise type(exc)(f"{where}: {exc}") from exc

    ds, train = at(0, "data", _load_data, cfg)
    held_features, held_labels = ds.features[train:], ds.labels[train:]
    eval_every = max(1, cfg.steps // 20)
    model = net.Mlp.init(
        [ds.feature_dim, HIDDEN, 1],
        ["tanh", "identity"],
        np.random.SeedSequence((cfg.seed, 201)),
    )
    opt = net.OptimizerState.create(OPTIMIZER, LR, model)
    batch_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 202)))

    curve = []

    def evaluate(step):
        out_rows, _ = _forward(model, held_features)
        if cfg.task == "rank":
            metrics = rank_metrics(out_rows, held_labels)
        else:
            metrics = path_metrics(out_rows, held_labels, cfg.grid)
        curve.append({"step": step, **metrics})

    at(0, "eval", evaluate, 0)
    for step in range(1, cfg.steps + 1):
        idx = batch_rng.choice(train, size=cfg.batch, replace=False)
        y, tape = at(step, "forward", _forward, model, ds.features[idx])
        estimates = at(step, "loss+gradient", output_grads, cfg, y, ds.labels[idx], step)
        rows = at(step, "damped solve", output_rows, cfg, y, *estimates)
        grads = at(step, "backward", net.backward, model, tape, rows.reshape(-1, 1))
        at(step, "optimizer", net.optimizer_step, opt, model, grads)
        if step % eval_every == 0 or step == cfg.steps:
            at(step, "eval", evaluate, step)

    # the settings, the fixed model and optimizer, and the data the run used
    # a data_path of "" generates, as None does (_load_data)
    echo = {k: v for k, v in asdict(cfg).items() if k != "data_path" or v}
    echo.update(
        hidden=HIDDEN, lr=LR, optimizer=OPTIMIZER, eval_every=eval_every,
        feature_dim=ds.feature_dim, train_count=train, eval_count=len(held_labels),
    )
    return TrainReport(config=echo, curve=curve)


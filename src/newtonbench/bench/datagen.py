"""Synthetic datasets for the ranking and shortest-path benchmarks.

Both generators draw random feature vectors and push them through a fixed
seed-derived readout (linear plus a bounded tanh term) to obtain hidden
scalars: latent scores for the ranking task, positive cell costs for the
grid task.  Only the induced supervision (the ranking, or the optimal path
mask) goes to disk; the hidden scalars stay reconstructible from the seed,
so oracle checks can cheat.

Records are rejection-sampled for separation: ranking latents keep a
minimum pairwise gap, grids keep a relative margin between the best and
second-best path cost.  Without this the metrics have an arbitrary ceiling,
since a near-tie flips the supervision under infinitesimal cost changes.
The grid margin is exact (shortest_path.two_best_costs); it is checked up
to MARGIN_CHECK_MAX_SIZE, above which rejection rises too steeply.
"""

import json
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .. import shortest_path
from ..diffsort import hard_rank

PATH_MARGIN = 0.05
MARGIN_CHECK_MAX_SIZE = 5
_MAX_DRAWS_PER_RECORD = 10000


@dataclass
class RankRecord:
    features: np.ndarray  # n x feature_dim
    ranking: tuple        # ranking[i] = index of the i-th largest latent
    latents: np.ndarray = None  # diagnostic only, never supervision


@dataclass
class RankDataset:
    n: int
    feature_dim: int
    seed: int
    records: list


@dataclass
class GridRecord:
    features: np.ndarray  # size^2 x feature_dim
    mask: np.ndarray      # size x size, 0/1
    costs: np.ndarray = None  # diagnostic only, never supervision


@dataclass
class GridDataset:
    size: int
    feature_dim: int
    seed: int
    records: list


def _readout_params(seed, feature_dim, tag):
    """Fixed readout weights, decoupled from the record draw stream."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, tag)))
    w = rng.normal(0.0, 1.0, size=feature_dim) / np.sqrt(feature_dim)
    u = rng.normal(0.0, 1.0, size=feature_dim) / np.sqrt(feature_dim)
    amp = rng.uniform(0.5, 1.5)
    return w, u, amp


def latent_readout(seed, feature_dim):
    """The hidden score map of gen_ranking_data, for oracle evaluation."""
    w, u, amp = _readout_params(seed, feature_dim, tag=1)

    def readout(features):
        f = np.asarray(features, dtype=np.float64)
        return f @ w + amp * np.tanh(f @ u)

    return readout


def cost_readout(seed, feature_dim):
    """The hidden cell-cost map of gen_grid_data; strictly positive."""
    w, u, amp = _readout_params(seed, feature_dim, tag=2)

    def readout(features):
        f = np.asarray(features, dtype=np.float64)
        raw = f @ w + amp * np.tanh(f @ u)
        return np.logaddexp(0.0, raw) + 0.1

    return readout


def _validate_common(count, feature_dim):
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if feature_dim < 1:
        raise ConfigError(f"feature_dim must be >= 1, got {feature_dim}")


def min_latent_gap(n):
    """Pairwise separation enforced on latent scores.

    The latent spread is fixed (std near 1), so the room between n order
    statistics shrinks as 1/(n-1); a constant gap would make large n
    undrawable and small n badly separated.
    """
    return 1.0 / max(1, n - 1)


def gen_ranking_data(seed, n, count, feature_dim=6):
    """Feature sets whose hidden latent scores induce the stored ranking."""
    if n < 2:
        raise ConfigError(f"ranking length must be >= 2, got {n}")
    _validate_common(count, feature_dim)
    readout = latent_readout(seed, feature_dim)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
    gap = min_latent_gap(n)
    records = []
    for _ in range(count):
        for _attempt in range(_MAX_DRAWS_PER_RECORD):
            features = rng.normal(0.0, 1.0, size=(n, feature_dim))
            latents = readout(features)
            gaps = np.diff(np.sort(latents))
            if np.min(gaps) >= gap:
                break
        else:
            raise ConfigError(f"could not separate latents by {gap} for n={n}")
        ranking = hard_rank(latents).order
        records.append(RankRecord(features=features, ranking=ranking, latents=latents))
    return RankDataset(n=n, feature_dim=feature_dim, seed=seed, records=records)


def gen_grid_data(seed, size, count, feature_dim=6):
    """Per-cell feature grids whose hidden costs induce the stored mask."""
    if size < 2:
        raise ConfigError(f"grid size must be >= 2, got {size}")
    _validate_common(count, feature_dim)
    readout = cost_readout(seed, feature_dim)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 12)))
    check_margin = size <= MARGIN_CHECK_MAX_SIZE
    records = []
    for _ in range(count):
        for _attempt in range(_MAX_DRAWS_PER_RECORD):
            features = rng.normal(0.0, 1.0, size=(size * size, feature_dim))
            costs = readout(features).reshape(size, size)
            grid = shortest_path.GridInstance(height=size, width=size, node_costs=costs)
            if not check_margin:
                break
            best, second = shortest_path.two_best_costs(grid)
            if second >= (1.0 + PATH_MARGIN) * best:
                break
        else:
            raise ConfigError(
                f"could not find a {PATH_MARGIN:.0%} path margin at size {size}"
            )
        mask = shortest_path.dijkstra_grid(grid)
        records.append(GridRecord(features=features, mask=mask, costs=costs))
    return GridDataset(size=size, feature_dim=feature_dim, seed=seed, records=records)


def save_rank_dataset(ds, path):
    """JSON-lines: a meta header line, then one record per line.

    Only features and the ranking are written; the latent scores are not
    part of the file format.
    """
    with open(path, "w") as fh:
        meta = {
            "kind": "rank",
            "n": ds.n,
            "feature_dim": ds.feature_dim,
            "count": len(ds.records),
            "seed": ds.seed,
        }
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for rec in ds.records:
            row = {
                "features": rec.features.tolist(),
                "ranking": list(rec.ranking),
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def save_grid_dataset(ds, path):
    """JSON-lines mirror of save_rank_dataset for the path task."""
    with open(path, "w") as fh:
        meta = {
            "kind": "path",
            "size": ds.size,
            "feature_dim": ds.feature_dim,
            "count": len(ds.records),
            "seed": ds.seed,
        }
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for rec in ds.records:
            row = {
                "features": rec.features.tolist(),
                "mask": rec.mask.astype(int).tolist(),
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# per dataset kind: its class, its size field and the fields of one record
_KINDS = {
    "rank": (RankDataset, "n", ("features", "ranking")),
    "path": (GridDataset, "size", ("features", "mask")),
}


def _json_object(path, lineno, line, fields):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} line {lineno}: not JSON ({exc.msg})") from None
    if not isinstance(obj, dict) or any(f not in obj for f in fields):
        raise ConfigError(f"{path} line {lineno}: needs an object with {', '.join(fields)}")
    return obj


def _record(kind, row):
    features = np.asarray(row["features"], dtype=np.float64)
    if kind == "rank":
        return RankRecord(features=features, ranking=tuple(row["ranking"]))
    return GridRecord(features=features, mask=np.asarray(row["mask"], dtype=np.float64))


def load_dataset(path):
    """Read either dataset kind back; diagnostic fields stay empty.

    A line that is not a JSON object, lacks a field its kind needs or holds
    a value of the wrong type raises ConfigError naming the file and line.
    """
    with open(path) as fh:
        header = fh.readline()
        kind = _json_object(path, 1, header, ("kind",))["kind"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigError(f"unrecognized dataset header in {path}")
        dataset, size_key, fields = _KINDS[kind]
        meta = _json_object(path, 1, header, (size_key, "feature_dim", "seed"))
        records = []
        for lineno, line in enumerate(fh, start=2):
            row = _json_object(path, lineno, line, fields)
            try:
                records.append(_record(kind, row))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path} line {lineno}: {exc}") from None
    return dataset(
        **{size_key: meta[size_key]},
        feature_dim=meta["feature_dim"],
        seed=meta["seed"],
        records=records,
    )

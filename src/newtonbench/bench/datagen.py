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

Candidates are scored a draw block at a time: the ranking generator
gap-tests a block with one sort, the grid generator solves it as one stack.

Both kinds are one Dataset of stacked arrays, one per field (features, and
labels: int64 orders or float64 masks), and share one JSON-lines format: a
header line, then one record per line.  load_dataset checks every header
field (kind, size key, feature_dim, count, seed) and every record.
"""

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..errors import ConfigError, NewtonBenchError, checked, checked_int
from .. import shortest_path
from ..diffsort import hard_rank

FEATURE_DIM = 6  # the generators' default feature width
PATH_MARGIN = 0.05
COST_FLOOR = 0.1  # the least cell cost of costs_from_raw
MARGIN_CHECK_MAX_SIZE = 5
_MAX_DRAWS_PER_RECORD = 10000
_DRAW_BLOCK = 64  # candidate feature draws per accept call


@dataclass
class Dataset:
    kind: str         # "rank" or "path"
    seed: int
    features: np.ndarray  # (count, rows, feature_dim) float64; rows is n or size^2
    labels: np.ndarray    # rank: (count, n) int64 orders; path: (count, size, size) float64 masks
    hidden: np.ndarray = None  # latents or costs; diagnostic only, None after a load
    size: int = field(init=False)         # ranking length n, or grid side
    feature_dim: int = field(init=False)

    def __post_init__(self):
        self.size = self.labels.shape[1]
        self.feature_dim = self.features.shape[-1]


def _readout(seed, feature_dim, tag):
    """The hidden scalar map of a generator: linear plus a bounded tanh term,
    with weights fixed by (seed, tag) apart from the record draw stream."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, tag)))
    w = rng.normal(0.0, 1.0, size=feature_dim) / np.sqrt(feature_dim)
    u = rng.normal(0.0, 1.0, size=feature_dim) / np.sqrt(feature_dim)
    amp = rng.uniform(0.5, 1.5)

    def readout(features):
        f = np.asarray(features, dtype=np.float64)
        return f @ w + amp * np.tanh(f @ u)

    return readout


def costs_from_raw(raw):
    """Positive cell costs from unconstrained values; the hidden costs and
    the trained path models share this map, so their scales line up."""
    return np.logaddexp(0.0, raw) + COST_FLOOR


def _validate_common(seed, size_name, size, count, feature_dim):
    checked_int(seed, "seed", 0)
    checked_int(size, size_name, 2)
    checked_int(count, "count", 1)
    checked_int(feature_dim, "feature_dim", 1)


def min_latent_gap(n):
    """Pairwise separation enforced on latent scores.

    The latent spread is fixed (std near 1), so the room between n order
    statistics shrinks as 1/(n-1); a constant gap would make large n
    undrawable and small n badly separated.
    """
    return 1.0 / max(1, n - 1)


def _draw_records(rng, count, shape, accept, failure):
    """(features, labels, hidden) of count records, each from the first
    normal feature draw of the given shape that accept turns into
    (label, hidden) rather than None.

    Candidates come in blocks of _DRAW_BLOCK draws, filled in the order of
    single draws.  accept(block) returns an iterable of one result per draw,
    in order, read only as far as the records need; the search gives up after
    _MAX_DRAWS_PER_RECORD misses in a row, which may span blocks.
    """
    features = np.empty((count, *shape))
    kept, misses = [], 0
    while len(kept) < count:
        block = rng.normal(0.0, 1.0, size=(_DRAW_BLOCK, *shape))
        for j, row in enumerate(accept(block)):
            if row is None:
                misses += 1
                if misses == _MAX_DRAWS_PER_RECORD:
                    raise ConfigError(failure)
                continue
            features[len(kept)], misses = block[j], 0
            kept.append(row)
            if len(kept) == count:
                break
    labels, hidden = zip(*kept)
    return features, np.array(labels), np.array(hidden)


def gen_ranking_data(seed, n, count, feature_dim=FEATURE_DIM):
    """Feature sets whose hidden latent scores induce the stored ranking."""
    _validate_common(seed, "n", n, count, feature_dim)
    readout = _readout(seed, feature_dim, tag=1)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
    gap = min_latent_gap(n)

    def accept(block):
        latents = readout(block)
        s = np.sort(latents, axis=1)
        gaps = np.minimum.reduce(s[:, 1:] - s[:, :-1], axis=1)  # np.min(np.diff(s)) per draw
        for row, row_gap in zip(latents, gaps):
            yield None if row_gap < gap else (hard_rank(row).order, row)

    arrays = _draw_records(
        rng, count, (n, feature_dim), accept, f"could not separate latents by {gap} for n={n}"
    )
    return Dataset("rank", seed, *arrays)


def gen_grid_data(seed, size, count, feature_dim=FEATURE_DIM):
    """Per-cell feature grids whose hidden costs induce the stored mask."""
    _validate_common(seed, "size", size, count, feature_dim)
    readout = _readout(seed, feature_dim, tag=2)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 12)))

    def accept(block):
        costs = costs_from_raw(readout(block)).reshape(-1, size, size)
        if size > MARGIN_CHECK_MAX_SIZE:
            return zip(shortest_path.dijkstra_grids(costs), costs)
        best, second, masks = shortest_path.two_best_costs(costs)
        near = second < (1.0 + PATH_MARGIN) * best
        return (None if miss else (mask, grid) for miss, mask, grid in zip(near, masks, costs))

    arrays = _draw_records(
        rng, count, (size * size, feature_dim), accept,
        f"could not find a {PATH_MARGIN:.0%} path margin at size {size}",
    )
    return Dataset("path", seed, *arrays)


# per dataset kind: the header's size key and the label key of one record
_KINDS = {"rank": ("n", "ranking"), "path": ("size", "mask")}


def save_dataset(ds, path):
    """JSON-lines: the header line, then one record per line.  Only features
    and labels are written; the hidden latents or costs are not in the format."""
    size_key, label_key = _KINDS[ds.kind]
    meta = {
        "kind": ds.kind,
        size_key: ds.size,
        "feature_dim": ds.feature_dim,
        "count": len(ds.features),
        "seed": ds.seed,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for features, label in zip(ds.features, ds.labels):
            row = {"features": features.tolist(), label_key: label.astype(int).tolist()}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# stepbench/workloads.py still saves through these names
save_rank_dataset = save_grid_dataset = save_dataset


def _json_object(path, lineno, line, fields):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} line {lineno}: not JSON ({exc.msg})") from None
    if not isinstance(obj, dict) or any(f not in obj for f in fields):
        raise ConfigError(f"{path} line {lineno}: needs an object with {', '.join(fields)}")
    return obj


def _lists_of(value, shape, types):
    """Whether a JSON value is shape[0] lists of shape[1] entries of exactly these types."""
    rows, cols = shape
    lists = type(value) is list and len(value) == rows
    lists = lists and all(type(r) is list and len(r) == cols for r in value)
    return lists and set(map(type, chain.from_iterable(value))) <= types


def _record(kind, row, size, shape):
    # exact JSON types: numpy would convert bools and strings
    if not _lists_of(row["features"], shape, {int, float}):
        raise ValueError(f"features must be {shape[0]} lists of {shape[1]} JSON numbers")
    features = checked(row["features"], "features", shape)
    if kind == "rank":
        ranking = row["ranking"]
        if type(ranking) is not list or len(ranking) != size:
            raise ValueError(f"ranking must be a list of {size} ints")
        if not all(type(i) is int for i in ranking) or sorted(ranking) != list(range(size)):
            raise ValueError(f"ranking {ranking} is not a permutation of 0..{size - 1}")
        return features, tuple(ranking)
    if not _lists_of(row["mask"], (size, size), {int}):  # 0/1 is checked with the path
        raise ValueError(f"mask must be {size} lists of {size} ints")
    return features, checked(row["mask"], "mask", (size, size))


def load_dataset(path):
    """Read either dataset kind back, with hidden None.

    A line that is not a JSON object, lacks a field its kind needs, holds a
    value of the wrong type or disagrees with the header (feature shape or
    finiteness, a ranking that is not a permutation, a mask that is not a
    path) raises ConfigError naming the file and line; a file that is not
    UTF-8 names the file.  The count is compared last, so a bad record is named first.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            kind = _json_object(path, 1, header, ("kind",))["kind"]
            if not isinstance(kind, str) or kind not in _KINDS:
                raise ConfigError(f"unrecognized dataset header in {path}")
            size_key, label_key = _KINDS[kind]
            meta = _json_object(path, 1, header, (size_key, "feature_dim", "seed"))
            size = checked_int(meta[size_key], f"{path} line 1: {size_key}", 1)
            feature_dim = checked_int(meta["feature_dim"], f"{path} line 1: feature_dim", 1)
            seed = checked_int(meta["seed"], f"{path} line 1: seed", 0)
            feature_shape = (size if kind == "rank" else size * size, feature_dim)
            records, error = [], None
            try:
                for lineno, line in enumerate(fh, start=2):
                    row = _json_object(path, lineno, line, ("features", label_key))
                    try:
                        records.append(_record(kind, row, size, feature_shape))
                    except (TypeError, ValueError, OverflowError, NewtonBenchError) as exc:
                        raise ConfigError(f"{path} line {lineno}: {exc}") from None
            except ConfigError as exc:
                error = exc
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text") from None
    label_shape, dtype = ((size,), np.int64) if kind == "rank" else ((size, size), np.float64)
    labels = np.array([label for _, label in records], dtype=dtype).reshape(-1, *label_shape)
    valid = kind == "rank" or shortest_path.path_mask_is_valid(labels)
    if not np.all(valid):  # one stacked check, and a bad mask precedes any line that failed
        error = ConfigError(f"{path} line {np.argmin(valid) + 2}: mask is not a 0/1 corner path")
    if error:
        raise error
    count = meta.get("count")
    if type(count) is not int or count != len(records):
        raise ConfigError(
            f"{path} line 1: count is {count!r}, the file holds {len(records)} records"
        )
    features = np.array([f for f, _ in records]).reshape(-1, *feature_shape)
    return Dataset(kind, seed, features, labels)

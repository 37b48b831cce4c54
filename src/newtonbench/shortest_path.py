"""Grid shortest-path solvers, the path-mask check, and the enumeration oracle.

Instances are grids of positive node costs; feasible solutions are simple
4-neighbor paths from the top-left to the bottom-right cell, paying the cost
of every visited cell including both endpoints.  dijkstra_grid solves one
grid for training probes with a heap Dijkstra over plain Python lists (the
same IEEE sums as numpy scalars, without their per-element cost), memoized on
the grid's bytes.  dijkstra_grids (evaluation), two_best_costs (the dataset
margin) and path_mask_is_valid (loaded masks) solve a (B, h, w) stack with
one Bellman-Ford sweep to the same masks; the list core is faster below
about 12-15 grids.  brute_force_shortest is the enumeration oracle for small
grids.
"""

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, ShapeMismatch, TooLarge, checked

# neighbour order of every walk, and so the tie rule: up, left, down, right
_PRED_ORDER = ((-1, 0), (0, -1), (1, 0), (0, 1))
MAX_ENUM_CELLS = 25  # brute_force_shortest's cap: 5x5


@dataclass
class GridInstance:
    node_costs: np.ndarray  # (h, w); its shape is the grid's

    def __post_init__(self):
        costs = self.node_costs = np.asarray(self.node_costs, dtype=np.float64)
        if costs.ndim != 2 or not costs.size:
            raise ShapeMismatch(f"costs shape {costs.shape} must be 2-D, no side empty")
        # positive cells with a finite sum are all finite; any other grid,
        # a finite one whose sum overflows too, gets the full check
        cells = costs.ravel().tolist()
        if not (min(cells) > 0.0 and math.isfinite(sum(cells))):
            _check_costs(costs)


def _check_costs(costs):
    """Every grid's cost check: non-finite costs are named before non-positive ones."""
    if not np.isfinite(costs).all():
        raise NonFiniteResult("grid costs must be finite")
    if (costs <= 0).any():
        raise ValueError("grid costs must be positive")


def path_mask_is_valid(masks):
    """One bool per matrix of a (..., h, w) stack: whether it is the 0/1 mask
    of a simple corner-to-corner path, the best path when its cells cost 1 and
    every other cell more than all of them together (a shortest path takes no
    shortcut).  Fewer than 2 axes or an empty side read False."""
    masks = np.asarray(masks)
    if masks.ndim < 2 or not masks.size:
        return np.zeros(masks.shape[:-2], dtype=bool)[()]
    h, w = masks.shape[-2:]
    on = masks == 1
    best = dijkstra_grids(np.where(on, 1.0, h * w + 1.0).reshape(-1, h, w)).reshape(on.shape)
    return ((best == on) & (on | (masks == 0))).all(axis=(-2, -1))


@functools.cache  # one immutable table per grid shape, shared by every solve of it
def _neighbours(h, w):
    """Per flat cell k = i*w + j, its in-grid neighbours in _PRED_ORDER."""
    return tuple(
        tuple(
            (i + di) * w + j + dj
            for di, dj in _PRED_ORDER
            if 0 <= i + di < h and 0 <= j + dj < w
        )
        for i in range(h)
        for j in range(w)
    )


def _best_path(cost, h, w):
    """Flat cells of the best path: Dijkstra, whose heap entries (dist, cell)
    order as (dist, i, j) do, then a backtrack with the up/left/down/right tie
    rule that steps only to a neighbour settled before the current cell.
    That changes nothing when every cost counts, since a predecessor is then
    strictly cheaper; when a cost is absorbed by a far larger sum, two
    neighbours pass the cost test for each other, and the settling order is
    what keeps the walk from bouncing between them.  The neighbour that last
    relaxed a cell always qualifies, so the walk ends."""
    n, nbrs = h * w, _neighbours(h, w)
    dist, rank = [np.inf] * n, [n] * n  # rank: settling order, n until settled
    dist[0] = cost[0]
    heap, settled = [(cost[0], 0)], 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, k = pop(heap)
        if rank[k] < n:
            continue
        rank[k], settled = settled, settled + 1
        for m in nbrs[k]:
            if rank[m] == n and d + cost[m] < dist[m]:
                dist[m] = d + cost[m]
                push(heap, (dist[m], m))
    if dist[-1] == np.inf:
        raise NonFiniteResult("shortest path cost overflows to inf")
    k = n - 1
    path = [k]
    while k:
        for p in nbrs[k]:
            if rank[p] < rank[k] and dist[p] + cost[k] == dist[k]:
                k = p
                break
        path.append(k)
    path.reverse()
    return path


@functools.lru_cache(maxsize=256)  # smoothing re-solves each grid of a draw set
def _solved(key, h, w):
    """dijkstra_grid's read-only mask for the h x w grid whose float64 bytes are key."""
    return _path_mask(tuple(_best_path(np.frombuffer(key).tolist(), h, w)), h, w)


@functools.lru_cache(maxsize=256)  # perturbed grids share few best paths
def _path_mask(path, h, w):
    """The read-only h x w 0/1 mask of a path's flat cells, one per distinct path."""
    mask = np.zeros(h * w)
    mask[list(path)] = 1
    mask.setflags(write=False)
    return mask.reshape(h, w)


def dijkstra_grid(inst):
    """Minimum-total-node-cost corner-to-corner path as a float64 0/1 mask.

    Cost ties are resolved during backtracking by preferring the up, left,
    down, right predecessor in that order, so equal-cost instances always
    produce the same mask.  A grid whose best cost overflows raises
    NonFiniteResult.  The last 256 grids solved, keyed by shape and cost
    bytes, are answered from a memo, which holds one read-only mask per
    distinct path; every call returns a fresh array.
    """
    return _solved(inst.node_costs.tobytes(), *inst.node_costs.shape).copy()


def _sweep(cost, dist):
    """Bellman-Ford over an (h, w, B) cost stack from start distances to the
    fixed point, and the last sweep's sums through each neighbour.  Laid out
    (h+2, w+2, B) with an inf border, each view runs over B contiguously."""
    h, w, b = cost.shape
    pad = np.full((h + 2, w + 2, b), np.inf)
    pad[1:-1, 1:-1] = dist
    dist = pad[1:-1, 1:-1]
    views = [pad[1 + di : h + 1 + di, 1 + dj : w + 1 + dj] for di, dj in _PRED_ORDER]
    sums = np.empty((len(views), h, w, b))
    with np.errstate(over="ignore"):
        while True:  # a sweep that changes nothing leaves each sum final
            before = dist.copy()
            for v, s in zip(views, sums):
                np.minimum(dist, np.add(v, cost, out=s), out=dist)
            if np.array_equal(dist, before):
                return dist, sums


def _solve(costs):
    """A nonempty (B, h, w) cost stack's (h, w, B) costs and distances, a
    (T, B) trail of each best path's cells from the goal, repeating the start
    once there, and the (B, h, w) masks.  The backtrack steps to the first
    up/left/down/right neighbour that pays in exactly, which settled earlier
    unless the sum absorbed a cost: then _best_path's settle order decides."""
    costs = np.asarray(costs, dtype=np.float64)
    _check_costs(costs)  # first, so a stack fails with its grids' messages
    costs = checked(costs, "costs", (None, None, None))
    b, h, w = costs.shape
    cost = np.ascontiguousarray(np.moveaxis(costs, 0, -1))
    dist, sums = _sweep(cost, np.where(np.arange(h * w).reshape(h, w, 1) == 0, cost, np.inf))
    if not np.isfinite(dist[-1, -1]).all():
        raise NonFiniteResult("shortest path cost overflows to inf")
    step = np.zeros((h, w, b), dtype=np.intp)  # flat offset to each cell's predecessor
    for (di, dj), s in reversed(list(zip(_PRED_ORDER, sums))):  # the first direction wins
        step = np.where(s == dist, di * w + dj, step)
    step, cols = step.reshape(h * w, b), np.arange(b)
    with np.errstate(over="ignore"):
        absorbed = (dist + cost == dist).any(axis=(0, 1))
    for g in np.flatnonzero(absorbed):
        path = _best_path(costs[g].ravel().tolist(), h, w)
        step[path[1:], g] = -np.diff(path)
    trail = [np.full(b, h * w - 1)]
    while trail[-1].any():  # each step lowers the distance until the start
        trail.append(trail[-1] + step[trail[-1], cols])
    trail = np.array(trail)
    masks = np.zeros((b, h * w))
    masks[cols, trail] = 1
    return cost, dist, trail, masks.reshape(b, h, w)


def dijkstra_grids(costs):
    """dijkstra_grid's masks for a nonempty (B, h, w) cost stack, bit for bit,
    as one fresh (B, h, w) float64 array; no grid enters the memo."""
    return _solve(costs)[3]


def two_best_costs(costs):
    """(best, second, masks) of a nonempty (B, h, w) cost stack: each grid's
    best and second-best simple-path cost, second inf where a grid has one
    path, and dijkstra_grids' masks.  Yen's k=2 step: any other path leaves
    the best one at some cell k for another free neighbour, so each step from
    k poses a stage, its grid with the path up to k at infinite cost, seeded
    at k's other neighbours with k's distance plus their cost; one sweep of
    every stage gives each grid's second cost as its stages' least.  Both are
    left folds in path order, exact as float addition is monotone."""
    cost, dist, trail, masks = _solve(costs)
    h, w, b = cost.shape
    n, rows = h * w, np.arange(len(trail))[:, None]
    depth = np.full((n, b), -1)  # each cell's steps back from the goal, -1 off the path
    depth[trail, np.arange(b)] = rows  # the start's is at least its path's length
    # one stage per step: the trail row of the cell it leaves, and its grid
    row, owner = np.nonzero((rows > 0) & (rows <= np.count_nonzero(trail, axis=0)))
    k, nxt, stages = trail[row, owner], trail[row - 1, owner], np.arange(len(row))
    stage = np.where(depth[:, owner] >= row, np.inf, cost.reshape(n, b)[:, owner])
    src = np.full((h + 2, w + 2, len(row)), np.inf)
    src[1 + k // w, 1 + k % w, stages] = dist.reshape(n, b)[k, owner]
    seed = np.full((n, len(row)), np.inf)
    with np.errstate(over="ignore"):
        for di, dj in _PRED_ORDER:  # k's neighbours are offered k's distance plus their cost
            view = src[1 + di : h + 1 + di, 1 + dj : w + 1 + dj].reshape(n, -1)
            np.minimum(seed, view + stage, out=seed)
    seed[nxt, stages] = np.inf
    far, _ = _sweep(stage.reshape(h, w, -1), seed.reshape(h, w, -1))
    second = np.full(b, np.inf)
    np.minimum.at(second, owner, far[-1, -1])
    return dist[-1, -1].copy(), second, masks


def brute_force_shortest(inst):
    """Exhaustive DFS over simple paths, the enumeration oracle: (best cost,
    mask of the first best path in DFS order, whether no other path ties).

    Prefixes strictly above the incumbent are pruned; a tying path survives
    because its prefix before the goal is strictly cheaper.
    """
    costs = inst.node_costs
    h, w = costs.shape
    if h * w > MAX_ENUM_CELLS:
        raise TooLarge(f"{h}x{w} grid exceeds the {MAX_ENUM_CELLS}-cell enumeration cap")
    goal = (h - 1, w - 1)
    on_path = np.zeros((h, w), dtype=bool)
    state = {"best": np.inf, "mask": None, "ties": 0}

    def walk(i, j, acc):
        acc += costs[i, j]
        if acc > state["best"]:
            return
        on_path[i, j] = True
        if (i, j) == goal:
            if acc < state["best"]:
                state.update(best=acc, mask=on_path.astype(np.float64), ties=1)
            else:
                state["ties"] += 1
        else:
            for di, dj in _PRED_ORDER:
                ni, nj = i + di, j + dj
                if 0 <= ni < h and 0 <= nj < w and not on_path[ni, nj]:
                    walk(ni, nj, acc)
        on_path[i, j] = False

    walk(0, 0, 0.0)
    return state["best"], state["mask"], state["ties"] == 1

"""Grid shortest-path solver, path encodings, and the argmax-view adapter.

Instances are grids of positive node costs; feasible solutions are simple
4-neighbor paths from the top-left to the bottom-right cell, paying the cost
of every visited cell including both endpoints. dijkstra_grid is the exact
solver (memoized on the grid's bytes, one mask per distinct path),
two_best_costs the exact best and second-best costs and path_mask_is_valid the
check of a path encoding, all on one Dijkstra loop over flat cell indices in
plain Python lists (the same IEEE sums as numpy scalars, without their
per-element cost) for the one-grid traffic of training probes and dataset
checks; dijkstra_grids solves evaluation's stacks to the same masks (4x4 on
one 2-vCPU host: 21 against 202 us for one grid, even near 12-15 grids, 2.8
against 0.45 ms for 128).  brute_force_shortest is the enumeration oracle for
small grids, and indicator_argmax exposes the solver as a score maximizer over
flattened path indicators for perturbed-argmax training.
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
ARGMAX_COST_FLOOR = 1e-9  # indicator_argmax's floor on the costs its scores imply


@dataclass
class GridInstance:
    height: int
    width: int
    node_costs: np.ndarray

    def __post_init__(self):
        costs = self.node_costs = np.asarray(self.node_costs, dtype=np.float64)
        if costs.shape != (self.height, self.width) or not costs.size:
            raise ShapeMismatch(
                f"costs shape {costs.shape} must be ({self.height}, {self.width}), no side empty"
            )
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


def path_mask_is_valid(mask):
    """Check that a 0/1 matrix encodes one simple corner-to-corner path: its
    cells must be the best path when each costs 1 and every other cell costs
    more than all of them together (a shortest path takes no shortcut)."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or not mask.size or not np.all((mask == 0) | (mask == 1)):
        return False
    h, w = mask.shape
    on = mask.ravel() == 1
    path = _best_path(np.where(on, 1.0, h * w + 1.0).tolist(), h, w)
    return len(path) == np.count_nonzero(on) and bool(on[path].all())


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


def _settle(cost, nbrs, dist, heap, done):
    """Dijkstra over flat cells from the seeded heap of (dist, cell) entries,
    which order as (dist, i, j) do; updates the dist list in place and returns
    the cells in settling order.  Cells seeded as done are never entered,
    which is how a caller blocks them."""
    order = []
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, k = pop(heap)
        if done[k]:
            continue
        done[k] = True
        order.append(k)
        for n in nbrs[k]:
            if not done[n]:
                nd = d + cost[n]
                if nd < dist[n]:
                    dist[n] = nd
                    push(heap, (nd, n))
    return order


def _best_path(cost, h, w):
    """Flat cells of the best path from the start to the goal, backtracked
    from the goal with the up/left/down/right tie rule.

    The backtrack steps only to a neighbour that settled before the current
    cell.  That changes nothing when every cost counts, since a predecessor
    is then strictly cheaper; when a cost is absorbed by a far larger sum,
    two neighbours pass the cost test for each other, and the settling order
    is what keeps the walk from bouncing between them.  The neighbour that
    last relaxed a cell always qualifies, so the walk ends.
    """
    n, nbrs = h * w, _neighbours(h, w)
    dist = [np.inf] * n
    dist[0] = cost[0]
    order = _settle(cost, nbrs, dist, [(cost[0], 0)], [False] * n)
    if dist[-1] == np.inf:
        raise NonFiniteResult("shortest path cost overflows to inf")
    rank = [n] * n
    for r, k in enumerate(order):
        rank[k] = r
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
    return _solved(inst.node_costs.tobytes(), inst.height, inst.width).copy()


def dijkstra_grids(costs):
    """dijkstra_grid's masks for a nonempty (B, h, w) cost stack, bit for bit,
    as one fresh (B, h, w) float64 array; no grid enters the memo.

    Laid out (h+2, w+2, B) with an inf border, each neighbour view runs over
    B contiguously.  Bellman-Ford over the views reaches Dijkstra's
    distances, the least left fold of costs over the walks to a cell.  The
    backtrack steps to the first up/left/down/right neighbour that pays in
    exactly, which is strictly cheaper, so settled earlier, unless the sum
    absorbed a cost; only the settle order decides that, so _best_path does."""
    costs = np.asarray(costs, dtype=np.float64)
    _check_costs(costs)  # first, so a stack fails with its grids' messages
    costs = checked(costs, "costs", (None, None, None))
    b, h, w = costs.shape
    cost = np.ascontiguousarray(np.moveaxis(costs, 0, -1))
    pad = np.full((h + 2, w + 2, b), np.inf)
    dist = pad[1:-1, 1:-1]
    dist[0, 0] = cost[0, 0]
    views = [pad[1 + di : h + 1 + di, 1 + dj : w + 1 + dj] for di, dj in _PRED_ORDER]
    sums = np.empty((len(views), h, w, b))
    with np.errstate(over="ignore"):
        while True:  # a sweep that changes nothing leaves each sum final
            before = dist.copy()
            for v, s in zip(views, sums):
                np.minimum(dist, np.add(v, cost, out=s), out=dist)
            if np.array_equal(dist, before):
                break
        if not np.isfinite(dist[-1, -1]).all():
            raise NonFiniteResult("shortest path cost overflows to inf")
        absorbed = (dist + cost == dist).any(axis=(0, 1))
    step = np.zeros((h, w, b), dtype=np.intp)  # flat offset to each cell's predecessor
    for (di, dj), s in reversed(list(zip(_PRED_ORDER, sums))):  # the first direction wins
        step = np.where(s == dist, di * w + dj, step)
    step, cols = step.reshape(h * w, b), np.arange(b)
    k = np.where(absorbed, 0, h * w - 1)  # an absorbing grid waits at the start
    mask = np.zeros((b, h * w))
    mask[cols, k] = 1
    while k.any():  # each step lowers the distance until the start
        k = k + step[k, cols]
        mask[cols, k] = 1
    for g in np.flatnonzero(absorbed):
        mask[g, _best_path(costs[g].ravel().tolist(), h, w)] = 1
    return mask.reshape(b, h, w)


def two_best_costs(inst):
    """(best cost, second-best cost, best mask) over simple paths; the
    second cost is inf when the grid has a single path, and the mask is
    dijkstra_grid's.

    Yen's k=2 step: any other path leaves the best one at some cell for a
    different free neighbour, so one Dijkstra run per cell of the best path,
    with its prefix blocked, finds the runner-up.  Every candidate is a left
    fold of cell costs in path order and float addition is monotone, so both
    costs equal the two lowest of an exhaustive walk exactly.
    """
    h, w = inst.height, inst.width
    cost = inst.node_costs.ravel().tolist()
    nbrs, path = _neighbours(h, w), _best_path(cost, h, w)
    blocked = [False] * (h * w)
    best, second = cost[0], np.inf
    for k, nxt in zip(path, path[1:]):
        blocked[k] = True
        dist, heap = [np.inf] * (h * w), []
        for c in nbrs[k]:
            if not blocked[c] and c != nxt:
                dist[c] = best + cost[c]
                heap.append((dist[c], c))
        heapq.heapify(heap)
        _settle(cost, nbrs, dist, heap, blocked.copy())
        second = min(second, dist[-1])
        best = best + cost[nxt]
    mask = np.zeros(h * w)
    mask[path] = 1
    return best, second, mask.reshape(h, w)


def brute_force_shortest(inst):
    """Exhaustive DFS over simple paths, the enumeration oracle: (best cost,
    mask of the first best path in DFS order, whether no other path ties).

    Prefixes strictly above the incumbent are pruned; a tying path survives
    because its prefix before the goal is strictly cheaper.
    """
    h, w = inst.height, inst.width
    if h * w > MAX_ENUM_CELLS:
        raise TooLarge(f"{h}x{w} grid exceeds the {MAX_ENUM_CELLS}-cell enumeration cap")
    costs = inst.node_costs
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


def indicator_argmax(scores, height, width):
    """Best path indicator for a flattened score vector.

    Scores are negated back into costs and floored at ARGMAX_COST_FLOOR;
    the result is the exact argmax whenever every implied cost stays
    positive, which perturbations far smaller than the cost scale ensure.
    """
    scores = checked(scores, "scores", (height * width,))
    costs = np.maximum(-scores.reshape(height, width), ARGMAX_COST_FLOOR)
    return dijkstra_grid(GridInstance(height=height, width=width, node_costs=costs)).ravel()


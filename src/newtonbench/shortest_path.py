"""Grid shortest-path solver, path encodings, and the argmax-view adapter.

Instances are grids of positive node costs; feasible solutions are simple
4-neighbor paths from the top-left to the bottom-right cell, paying the cost
of every visited cell including both endpoints. dijkstra_grid is the exact
solver and two_best_costs the exact best and second-best costs, both on one
Dijkstra loop; brute_force_shortest is the enumeration oracle for small
grids, and indicator_argmax exposes the solver as a score maximizer over
flattened path indicators for perturbed-argmax training.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, ShapeMismatch, TooLarge

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
        self.node_costs = np.asarray(self.node_costs, dtype=np.float64)
        if self.node_costs.shape != (self.height, self.width):
            raise ShapeMismatch(
                f"costs shape {self.node_costs.shape} != ({self.height}, {self.width})"
            )
        if not np.all(np.isfinite(self.node_costs)):
            raise NonFiniteResult("grid costs must be finite")
        if np.any(self.node_costs <= 0):
            raise ValueError("grid costs must be positive")


def path_mask_is_valid(mask):
    """Check that a 0/1 matrix encodes one simple corner-to-corner path."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or not np.all((mask == 0) | (mask == 1)):
        return False
    h, w = mask.shape
    if mask[0, 0] != 1 or mask[h - 1, w - 1] != 1:
        return False
    cells = set(zip(*np.nonzero(mask)))
    if len(cells) == 1:
        return (h, w) == (1, 1)
    ends = {(0, 0), (h - 1, w - 1)}
    for i, j in cells:
        deg = sum((i + di, j + dj) in cells for di, dj in _PRED_ORDER)
        if deg != (1 if (i, j) in ends else 2):
            return False
    # connectivity: walk from the start through the degree-constrained set
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        i, j = frontier.pop()
        for di, dj in _PRED_ORDER:
            nxt = (i + di, j + dj)
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen == cells


def _settle(costs, dist, heap, settled):
    """Dijkstra from the seeded heap, updating dist in place; cells seeded as
    settled are never entered, which is how a caller blocks them."""
    h, w = costs.shape
    while heap:
        d, i, j = heapq.heappop(heap)
        if settled[i, j]:
            continue
        settled[i, j] = True
        for di, dj in _PRED_ORDER:
            ni, nj = i + di, j + dj
            if 0 <= ni < h and 0 <= nj < w and not settled[ni, nj]:
                nd = d + costs[ni, nj]
                if nd < dist[ni, nj]:
                    dist[ni, nj] = nd
                    heapq.heappush(heap, (nd, ni, nj))
    return dist


def dijkstra_grid(inst):
    """Minimum-total-node-cost corner-to-corner path as an int64 0/1 mask.

    Cost ties are resolved during backtracking by preferring the up, left,
    down, right predecessor in that order, so equal-cost instances always
    produce the same mask.
    """
    h, w, costs = inst.height, inst.width, inst.node_costs
    dist = np.full((h, w), np.inf)
    dist[0, 0] = costs[0, 0]
    _settle(costs, dist, [(dist[0, 0], 0, 0)], np.zeros((h, w), dtype=bool))
    mask = np.zeros((h, w), dtype=np.int64)
    i, j = h - 1, w - 1
    mask[i, j] = 1
    while (i, j) != (0, 0):
        for di, dj in _PRED_ORDER:
            pi, pj = i + di, j + dj
            if 0 <= pi < h and 0 <= pj < w and dist[pi, pj] + costs[i, j] == dist[i, j]:
                i, j = pi, pj
                break
        mask[i, j] = 1
    return mask


def two_best_costs(inst):
    """Costs of the best and the second-best simple path (inf if none).

    Yen's k=2 step: any other path leaves the best one at some cell for a
    different free neighbour, so one Dijkstra run per cell of the best path,
    with its prefix blocked, finds the runner-up.  Every candidate is a left
    fold of cell costs in path order and float addition is monotone, so both
    costs equal the two lowest of an exhaustive walk exactly.
    """
    h, w, costs = inst.height, inst.width, inst.node_costs
    mask = dijkstra_grid(inst)
    blocked = np.zeros((h, w), dtype=bool)
    i, j, best, second = 0, 0, costs[0, 0], np.inf
    while (i, j) != (h - 1, w - 1):
        blocked[i, j] = True
        dist = np.full((h, w), np.inf)
        heap = []
        for di, dj in _PRED_ORDER:
            c = (i + di, j + dj)
            if 0 <= c[0] < h and 0 <= c[1] < w and not blocked[c]:
                if mask[c]:  # a shortest path never touches itself: c is next
                    nxt = c
                else:
                    dist[c] = best + costs[c]
                    heapq.heappush(heap, (dist[c], *c))
        second = min(second, _settle(costs, dist, heap, blocked.copy())[h - 1, w - 1])
        i, j = nxt
        best = best + costs[nxt]
    return best, second


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
                state.update(best=acc, mask=on_path.astype(np.int64), ties=1)
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


def path_cost(inst, mask):
    """Total node cost of the masked cells, summed in row-major order."""
    m = np.asarray(mask)
    if m.shape != (inst.height, inst.width):
        raise ShapeMismatch(f"mask shape {m.shape} != grid {inst.height}x{inst.width}")
    total = 0.0
    for i in range(inst.height):
        for j in range(inst.width):
            if m[i, j]:
                total += inst.node_costs[i, j]
    return total


def as_argmax_scores(inst):
    """Flattened negated costs: maximizing <scores, indicator> over path
    indicators is the same problem as minimizing path cost."""
    return (-inst.node_costs).ravel()


def indicator_argmax(scores, height, width):
    """Best path indicator for a flattened score vector.

    Scores are negated back into costs and floored at ARGMAX_COST_FLOOR;
    the result is the exact argmax whenever every implied cost stays
    positive, which perturbations far smaller than the cost scale ensure.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (height * width,):
        raise ShapeMismatch(f"expected {height * width} scores, got {scores.shape}")
    costs = np.maximum(-scores.reshape(height, width), ARGMAX_COST_FLOOR)
    mask = dijkstra_grid(GridInstance(height=height, width=width, node_costs=costs))
    return mask.astype(np.float64).ravel()


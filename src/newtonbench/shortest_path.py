"""Grid shortest-path solver, path encodings, and the argmax-view adapter.

Instances are grids of positive node costs; feasible solutions are simple
4-neighbor paths from the top-left to the bottom-right cell, paying the cost
of every visited cell including both endpoints. dijkstra_grid is the exact
solver, brute_force_shortest the enumeration oracle for small grids, and
indicator_argmax exposes the solver as a score maximizer over flattened
path indicators for perturbed-argmax training.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, ShapeMismatch, TooLarge

# predecessor preference on cost ties: up, then left, then down, then right
_PRED_ORDER = ((-1, 0), (0, -1), (1, 0), (0, 1))


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


@dataclass
class PathMask:
    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask)


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


def dijkstra_grid(inst):
    """Minimum-total-node-cost corner-to-corner path.

    Cost ties are resolved during backtracking by preferring the up, left,
    down, right predecessor in that order, so equal-cost instances always
    produce the same mask.
    """
    h, w, costs = inst.height, inst.width, inst.node_costs
    dist = np.full((h, w), np.inf)
    dist[0, 0] = costs[0, 0]
    heap = [(dist[0, 0], 0, 0)]
    settled = np.zeros((h, w), dtype=bool)
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
    return PathMask(mask=mask)


def brute_force_shortest(inst, max_cells=25):
    """Exhaustive DFS over simple paths; the enumeration oracle."""
    h, w = inst.height, inst.width
    if h * w > max_cells:
        raise TooLarge(f"{h}x{w} grid exceeds the {max_cells}-cell enumeration cap")
    costs = inst.node_costs
    goal = (h - 1, w - 1)
    best = {"cost": np.inf, "cells": None}
    on_path = [(0, 0)]
    visited = {(0, 0)}

    def dfs(i, j, acc):
        if acc >= best["cost"]:
            return
        if (i, j) == goal:
            best["cost"] = acc
            best["cells"] = list(on_path)
            return
        for di, dj in _PRED_ORDER:
            ni, nj = i + di, j + dj
            if 0 <= ni < h and 0 <= nj < w and (ni, nj) not in visited:
                visited.add((ni, nj))
                on_path.append((ni, nj))
                dfs(ni, nj, acc + costs[ni, nj])
                on_path.pop()
                visited.remove((ni, nj))

    dfs(0, 0, costs[0, 0])
    mask = np.zeros((h, w), dtype=np.int64)
    for i, j in best["cells"]:
        mask[i, j] = 1
    return PathMask(mask=mask)


def path_cost(inst, mask):
    """Total node cost of the masked cells, summed in row-major order."""
    m = mask.mask if isinstance(mask, PathMask) else np.asarray(mask)
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


def indicator_argmax(scores, height, width, floor=1e-9):
    """Best path indicator for a flattened score vector.

    Scores are negated back into costs and floored at a small positive
    value; the result is the exact argmax whenever every implied cost stays
    positive, which perturbations far smaller than the cost scale ensure.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (height * width,):
        raise ShapeMismatch(f"expected {height * width} scores, got {scores.shape}")
    costs = np.maximum(-scores.reshape(height, width), floor)
    mask = dijkstra_grid(GridInstance(height=height, width=width, node_costs=costs))
    return mask.mask.astype(np.float64).ravel()


"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: plain Gauss-Jordan
inversion, central finite differences, a comparator-at-a-time sorting
network, exhaustive enumeration, Bellman-Ford relaxation, a heap Dijkstra
with Yen's k=2 search, a degree-and-walk path check and a per-array
optimizer, so a bug in the package cannot cancel out in the checks.
"""

import heapq

import numpy as np
from scipy.special import expit


def gauss_jordan_inverse(A):
    """Invert a square matrix by Gauss-Jordan elimination with partial
    pivoting. O(n^3), no library solve involved."""
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    aug = np.hstack([A, np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-14:
            raise ZeroDivisionError("singular matrix in oracle")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def central_diff_grad(f, y, h=1e-6):
    """Central-difference gradient of a scalar function of a 1-D point."""
    y = np.asarray(y, dtype=np.float64)
    g = np.zeros_like(y)
    for j in range(y.size):
        yp = y.copy()
        yp[j] += h
        ym = y.copy()
        ym[j] -= h
        g[j] = (f(yp) - f(ym)) / (2 * h)
    return g


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(float(np.max(np.abs(exact))), 1e-12)
    return float(np.max(np.abs(approx - exact))) / denom


def sorting_network_reference(y, beta, family):
    """Odd-even transposition network applied one comparator at a time.

    Layer t compares wires (i, i + 1) for i = t % 2, t % 2 + 2, ...; each
    comparator reads the current values and soft-swaps with weight
    s = CDF(beta * (v_i - v_{i+1})), leaving CDF(-beta * (v_i - v_{i+1})) in
    place.  Returns the product of the n layer matrices, last layer first.
    """
    v = np.array(y, dtype=np.float64)
    n = v.size
    a = np.eye(n)
    for t in range(n):
        m = np.eye(n)
        for i in range(t % 2, n - 1, 2):
            x = beta * (v[i] - v[i + 1])
            if family == "logistic":
                s, stay = expit(x), expit(-x)
            else:
                s, stay = 0.5 + np.arctan(x) / np.pi, 0.5 - np.arctan(x) / np.pi
            m[i, i] = m[i + 1, i + 1] = stay
            m[i, i + 1] = m[i + 1, i] = s
        v = m @ v
        a = m @ a
    return a


class PerArrayOptimizer:
    """SGD or Adam applied one array at a time: every weight matrix, then
    every bias vector, each with its own Adam moments."""

    def __init__(self, kind, lr, weights, biases, beta1, beta2, eps):
        self.kind, self.lr, self.step = kind, lr, 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.params = [np.array(a, dtype=np.float64) for a in list(weights) + list(biases)]
        self.m = [np.zeros_like(a) for a in self.params]
        self.v = [np.zeros_like(a) for a in self.params]

    def update(self, grads_w, grads_b):
        self.step += 1
        grads = list(grads_w) + list(grads_b)
        if self.kind == "sgd":
            for theta, g in zip(self.params, grads):
                theta -= self.lr * g
            return
        bc1 = 1.0 - self.beta1 ** self.step
        bc2 = 1.0 - self.beta2 ** self.step
        for theta, m, v, g in zip(self.params, self.m, self.v, grads):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            theta -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def enumerate_paths(h, w):
    """All simple 4-neighbor paths from (0,0) to (h-1,w-1), as lists of
    cells. Exponential; only for tiny grids."""
    goal = (h - 1, w - 1)
    paths = []
    def extend(path, seen):
        r, c = path[-1]
        if (r, c) == goal:
            paths.append(list(path))
            return
        for dr, dc in ((-1, 0), (0, -1), (1, 0), (0, 1)):
            nxt = (r + dr, c + dc)
            if 0 <= nxt[0] < h and 0 <= nxt[1] < w and nxt not in seen:
                path.append(nxt)
                seen.add(nxt)
                extend(path, seen)
                seen.remove(nxt)
                path.pop()
    extend([(0, 0)], {(0, 0)})
    return paths


def mask_cost(costs, mask):
    """Total cost of the masked cells, summed in row-major order."""
    return sum(float(c) for c, m in zip(np.ravel(costs), np.ravel(mask)) if m)


def tie_rule_mask(costs):
    """The documented shortest-path mask of a cost grid: Bellman-Ford in
    plain floats to a fixed point, then a backtrack from the goal that steps
    to the first of the up, left, down, right neighbours p with
    dist[p] + cost[cell] == dist[cell].  Needs costs no sum absorbs."""
    costs = np.asarray(costs, dtype=np.float64)
    h, w = costs.shape
    c = costs.tolist()
    steps = ((-1, 0), (0, -1), (1, 0), (0, 1))

    def neighbours(r, col):
        return [(r + dr, col + dc) for dr, dc in steps if 0 <= r + dr < h and 0 <= col + dc < w]

    dist = [[float("inf")] * w for _ in range(h)]
    dist[0][0] = c[0][0]
    changed = True
    while changed:
        changed = False
        for r in range(h):
            for col in range(w):
                for pr, pc in neighbours(r, col):
                    if dist[pr][pc] + c[r][col] < dist[r][col]:
                        dist[r][col] = dist[pr][pc] + c[r][col]
                        changed = True
    mask = np.zeros((h, w), dtype=np.int64)
    cell = (h - 1, w - 1)
    mask[cell] = 1
    while cell != (0, 0):
        r, col = cell
        cell = next(
            (pr, pc) for pr, pc in neighbours(r, col)
            if dist[pr][pc] + c[r][col] == dist[r][col]
        )
        mask[cell] = 1
    return mask


def path_mask_reference(mask):
    """Whether a 0/1 matrix encodes one simple corner-to-corner path: the
    corners have one masked neighbour, every other masked cell two, and a
    walk from the start reaches every masked cell."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or not np.all((mask == 0) | (mask == 1)):
        return False
    h, w = mask.shape
    if mask[0, 0] != 1 or mask[h - 1, w - 1] != 1:
        return False
    cells = set(zip(*np.nonzero(mask)))
    if len(cells) == 1:
        return (h, w) == (1, 1)
    steps = ((-1, 0), (0, -1), (1, 0), (0, 1))
    ends = {(0, 0), (h - 1, w - 1)}
    for i, j in cells:
        deg = sum((i + di, j + dj) in cells for di, dj in steps)
        if deg != (1 if (i, j) in ends else 2):
            return False
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        i, j = frontier.pop()
        for di, dj in steps:
            nxt = (i + di, j + dj)
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen == cells


def _grid_neighbours(h, w):
    """Per flat cell k = i*w + j, its in-grid neighbours: up, left, down, right."""
    steps = ((-1, 0), (0, -1), (1, 0), (0, 1))
    return [
        [(i + di) * w + j + dj for di, dj in steps if 0 <= i + di < h and 0 <= j + dj < w]
        for i in range(h)
        for j in range(w)
    ]


def _settle(cost, nbrs, dist, heap, done):
    """Dijkstra over flat cells from the seeded heap of (dist, cell) entries;
    updates dist in place and returns the cells in settling order.  Cells
    seeded as done are never entered, which is how a caller blocks them."""
    order = []
    while heap:
        d, k = heapq.heappop(heap)
        if done[k]:
            continue
        done[k] = True
        order.append(k)
        for n in nbrs[k]:
            if not done[n] and d + cost[n] < dist[n]:
                dist[n] = d + cost[n]
                heapq.heappush(heap, (dist[n], n))
    return order


def heap_best_path(cost, h, w):
    """Flat cells of the best path of a flat cost list, backtracked from the
    goal to the first up/left/down/right neighbour that settled earlier and
    pays in exactly, or None when the best cost overflows."""
    n, nbrs = h * w, _grid_neighbours(h, w)
    dist = [np.inf] * n
    dist[0] = cost[0]
    order = _settle(cost, nbrs, dist, [(cost[0], 0)], [False] * n)
    if dist[-1] == np.inf:
        return None
    rank = [n] * n
    for r, k in enumerate(order):
        rank[k] = r
    k, path = n - 1, [n - 1]
    while k:
        k = next(p for p in nbrs[k] if rank[p] < rank[k] and dist[p] + cost[k] == dist[k])
        path.append(k)
    return path[::-1]


def two_best_costs_reference(costs):
    """(best, second, mask) of one cost grid by Yen's k=2 search, one heap
    Dijkstra per cell of the best path with the path up to that cell
    blocked, or None when the best cost overflows."""
    costs = np.asarray(costs, dtype=np.float64)
    h, w = costs.shape
    cost = costs.ravel().tolist()
    nbrs, path = _grid_neighbours(h, w), heap_best_path(cost, h, w)
    if path is None:
        return None
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

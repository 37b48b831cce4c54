"""Differentiable sorting operators and the permutation cross-entropy loss.

Three relaxations of the sorting permutation matrix are provided:

* softsort_perm: row-softmax of negative distances to the descending-sorted
  vector, P_ij = softmax_j(-|sort_desc(y)_i - y_j| / tau).
* neuralsort_perm: row i = softmax(((n-1-2i) * y - A @ 1) / tau) with
  A_jk = |y_j - y_k|. This is the classical NeuralSort construction.
* dsn_perm: odd-even sorting network of n comparator layers. A comparator on
  wires (i, j) soft-swaps with weight s = CDF(beta * (v_i - v_j)) computed
  from the current values, so the network sorts ascending as beta grows. The
  product of the layer mixing matrices is doubly stochastic.

SoftSort and NeuralSort rows select the largest element first (descending
convention); the sorting-network product maps inputs to ascending order, and
ranking_loss reverses the target matrix for DSN methods so all four operators
are supervised by the same GroundTruthRanking.

All gradients are analytic reverse-mode, no autodiff framework involved.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteResult, ShapeMismatch, checked, checked_real

METHODS = ("neuralsort", "softsort", "dsn_logistic", "dsn_cauchy")

PROB_CLAMP = 1e-12


@dataclass
class SortConfig:
    method: str
    tau: float = None
    beta: float = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown sort method {self.method!r}")
        # the softmax relaxations read tau, the sorting networks beta
        read, unread = ("beta", "tau") if self.method.startswith("dsn") else ("tau", "beta")
        if getattr(self, unread) is not None:
            raise ConfigError(f"{self.method} reads {read}, not {unread}")
        value = getattr(self, read)
        if value is None:
            value = {"neuralsort": 1.0, "softsort": 0.1}.get(self.method, 10.0)
            setattr(self, read, value)
        checked_real(value, read, 0, strict=True)


@dataclass
class PermMatrix:
    entries: np.ndarray


@dataclass
class GroundTruthRanking:
    order: tuple      # order[i] = index of the i-th largest element
    n: int = field(init=False)
    matrix: np.ndarray = field(init=False)  # one-hot: row i selects order[i]

    def __post_init__(self):
        order = self.order = tuple(int(i) for i in self.order)
        n = self.n = len(order)
        if sorted(order) != list(range(n)):
            raise ShapeMismatch(f"order {order} is not a permutation of 0..{n - 1}")
        self.matrix = np.zeros((n, n))
        self.matrix[np.arange(n), order] = 1.0

    def matrix_ascending(self):
        # row i selects the i-th smallest element instead
        return self.matrix[::-1].copy()


# The loss runs hundreds of times per training step on small rows, so its
# hot path calls the ufunc reductions (np.add.reduce and friends) directly:
# they compute exactly what np.sum, np.max and np.all do, without the Python
# wrappers in front of them.
_sum, _max, _all = np.add.reduce, np.maximum.reduce, np.logical_and.reduce


def _frozen(a):
    a.setflags(write=False)
    return a


# Per-n constants, built once and read-only so no caller can alter them.
@functools.cache
def _eye(n):
    return _frozen(np.eye(n))


@functools.cache
def _off_diag(n):
    # comp = p @ _off_diag(n) gives comp_ij = sum_{k != j} p_ik
    return _frozen(np.ones((n, n)) - np.eye(n))


@functools.cache
def _neuralsort_coeff(n):
    # row i of NeuralSort weighs y by n - 1 - 2i
    return _frozen((n - 1 - 2 * np.arange(n)).astype(np.float64))


@functools.cache
def _dsn_wires(n):
    """Per layer parity, the wire indices i, j = i + 1 of its comparators and
    the flat positions of their (i, i), (i, j), (j, i) and (j, j) entries."""
    parities = []
    for i in (np.arange(0, n - 1, 2), np.arange(1, n - 1, 2)):
        k = i * (n + 1)
        parities.append(tuple(_frozen(a) for a in (i, i + 1, k, k + 1, k + n, k + n + 1)))
    return tuple(parities)


def _row_softmax(c):
    """Row softmax with a permutation-independent summation order.

    The denominator sums the shifted exponentials in value-sorted order, so
    reordering the entries of a row never changes the computed probabilities.
    """
    e = np.exp(c - _max(c, axis=1, keepdims=True))
    ordered = e.copy()
    ordered.sort(axis=1)
    return e / _sum(ordered, axis=1, keepdims=True)


def _softmax_rows_backward(p, g_p):
    # rows are independent softmaxes: dL/dc = p * (g - sum(g*p))
    return p * (g_p - _sum(g_p * p, axis=1, keepdims=True))


def hard_rank(y):
    """Descending argsort with ties broken by lower index first."""
    return GroundTruthRanking(np.argsort(-checked(y, "y", (None,)), kind="stable"))


# Each relaxation's forward returns P and its pullback: g_P -> g_y.


def _softsort_fwd(y, tau):
    order = np.argsort(-y, kind="stable")
    diff = y[order][:, None] - y[None, :]
    p = _row_softmax(-np.abs(diff) / tau)

    def pullback(g_p):
        contrib = _softmax_rows_backward(p, g_p) * np.sign(diff) / tau
        grad = _sum(contrib, axis=0)
        # gradient through the sorted vector: sorted_i = y[order[i]]
        grad[order] -= _sum(contrib, axis=1)
        return grad

    return p, pullback


def _neuralsort_fwd(y, tau):
    coeff = _neuralsort_coeff(y.shape[0])
    diff = y[:, None] - y
    sign = np.sign(diff)
    p = _row_softmax((coeff[:, None] * y - _sum(np.abs(diff), axis=1)) / tau)

    def pullback(g_p):
        d_c = _softmax_rows_backward(p, g_p)
        col = _sum(d_c, axis=0)
        return (coeff @ d_c - col * _sum(sign, axis=1) + col @ sign) / tau

    return p, pullback


# The logistic is 1 / (1 + exp(-x)) in the C library's exp, which math.exp
# calls; numpy's own exp rounds differently on a few percent of inputs.
_exp = math.exp


def _expit1(t):
    try:
        return 1.0 / (1.0 + _exp(-t))
    except OverflowError:  # exp(-t) is inf, and 1 / (1 + inf) is 0
        return 0.0


def _logistic(t):
    """The logistic of each float in the list t, as a list.  The sorting
    network's hot path: without overflow no call per element but exp."""
    try:
        return [1.0 / (1.0 + _exp(-u)) for u in t]
    except OverflowError:
        return [_expit1(u) for u in t]


def expit(x):
    """The logistic CDF 1 / (1 + exp(-x)), elementwise, as a float64 array.

    Each element is the C expression 1.0 / (1.0 + exp(-t)) with libm's exp,
    so it matches C implementations of that expression bit for bit; where
    exp(-t) overflows the element is 1 / (1 + inf) = 0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.array(_logistic(x.ravel().tolist())).reshape(x.shape)


def _cdf_stay_pdf(family, x):
    """CDF(x), CDF(-x), and pdf(x) for the comparator family.

    The complement is evaluated as CDF(-x) directly instead of 1 - CDF(x);
    the subtraction would destroy the relative accuracy of the small tail,
    which matters because products of stay weights feed log-loss terms.
    """
    if family == "logistic":
        t = x.tolist()
        sc = np.array(_logistic(t + [-u for u in t]))  # CDF(x), then CDF(-x)
        s, c = sc[: len(t)], sc[len(t):]
        return s, c, s * c
    at = np.arctan(x) / np.pi
    return 0.5 + at, 0.5 - at, 1.0 / (np.pi * (1.0 + x * x))


def _dsn_fwd(y, beta, family):
    """Odd-even network: layer t compares wires (i, j = i + 1) for
    i = t % 2, t % 2 + 2, ...; the comparators of a layer touch disjoint
    wires.  Layer matrices are read and written at flat positions: entry
    (i, i) of an n x n matrix sits at i * (n + 1), and (i, j), (j, i) and
    (j, j) sit 1, n and n + 1 further on; at these sizes a flat index is
    several times cheaper than a (row, column) pair of index arrays.
    """
    n = y.shape[0]
    parities, eye = _dsn_wires(n), _eye(n)
    v, a = y, eye
    layers = []
    for t in range(n):
        i, j, ii, ij, ji, jj = wires = parities[t % 2]
        s, stay, pdf = _cdf_stay_pdf(family, beta * (v[i] - v[j]))
        m = eye.copy()
        flat = m.reshape(-1)
        flat[ii] = flat[jj] = stay
        flat[ij] = flat[ji] = s
        layers.append((wires, pdf, m, v, a))
        v, a = m @ v, m @ a

    def pullback(g_p):
        g_a, g_v = g_p, np.zeros(n)
        for (i, j, ii, ij, ji, jj), pdf, m, v_in, a_in in reversed(layers):
            # v_out = m @ v_in and a_out = m @ a_in both feed gradient into m
            g_m = (g_a @ a_in.T + g_v[:, None] * v_in).reshape(-1)
            g_a, g_v = m.T @ g_a, m.T @ g_v
            pull = (-g_m[ii] + g_m[ij] + g_m[ji] - g_m[jj]) * beta * pdf
            g_v[i] += pull
            g_v[j] -= pull
        return g_v

    return a, pullback


def _perm_forward(y, cfg):
    if cfg.method == "softsort":
        return _softsort_fwd(y, cfg.tau)
    if cfg.method == "neuralsort":
        return _neuralsort_fwd(y, cfg.tau)
    return _dsn_fwd(y, cfg.beta, cfg.method.split("_", 1)[1])


def _perm(y, cfg):
    y = checked(y, "y", (None,))
    p, _ = _perm_forward(y, cfg)
    if not np.all(np.isfinite(p)):
        raise NonFiniteResult(f"{cfg.method} produced non-finite probabilities")
    return PermMatrix(p)


def softsort_perm(y, tau):
    return _perm(y, SortConfig("softsort", tau=tau))


def neuralsort_perm(y, tau):
    return _perm(y, SortConfig("neuralsort", tau=tau))


def dsn_perm(y, beta, family):
    return _perm(y, SortConfig(f"dsn_{family}", beta=beta))


def ranking_loss(y, truth, cfg):
    """Mean binary cross entropy between P(y) and the hard target matrix.

    Probabilities are clamped to [1e-12, 1 - 1e-12]; clamped entries carry
    zero gradient. The complement 1 - P_ij is evaluated as the sum of the
    other entries of row i (rows sum to one), which stays relatively
    accurate when P_ij saturates toward 1, unlike the direct subtraction.
    For DSN methods the target rows are reversed to match the ascending
    output convention of the sorting network.
    """
    y = checked(y, "y", (None,))
    n = y.shape[0]
    if truth.n != n:
        raise ShapeMismatch(f"ranking over {truth.n} elements, input has {n}")
    p, pullback = _perm_forward(y, cfg)
    q = truth.matrix[::-1] if cfg.method.startswith("dsn") else truth.matrix

    neg_q, not_q = -q, 1.0 - q

    p_c = np.minimum(np.maximum(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    comp = p @ _off_diag(n)  # comp_ij = sum_{k != j} P_ik
    comp_c = np.maximum(comp, PROB_CLAMP)
    terms = neg_q * np.log(p_c) - not_q * np.log(comp_c)
    value = float(_sum(terms, axis=None) / terms.size)  # np.mean's arithmetic

    mask_p = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    g_direct = np.where(mask_p, neg_q / p_c, 0.0)
    # d(-log comp_ij)/dP_ab = -1/comp_ij for every b != j in row a
    r = np.where(comp > PROB_CLAMP, not_q / comp_c, 0.0)
    g_p = (g_direct - (_sum(r, axis=1, keepdims=True) - r)) / (n * n)

    grad = pullback(g_p)
    if not (math.isfinite(value) and _all(np.isfinite(grad))):
        raise NonFiniteResult("ranking loss produced non-finite values")
    return value, grad

import dataclasses
import re

import numpy as np
import pytest

from newtonbench import smoothing
from newtonbench.errors import ConfigError, NonFiniteResult, ShapeMismatch
from newtonbench.smoothing import SmoothingConfig


def replica_se_grad(f, y, sigma, samples, seed):
    """Test-side re-derivation of the estimator's per-component SE."""
    rng = np.random.default_rng(seed)
    eps = sigma * rng.standard_normal((samples, y.size))
    terms = (np.array([f(y + e) for e in eps]) - f(y))[:, None] * eps / sigma**2
    return terms.std(axis=0, ddof=1) / np.sqrt(samples)


class TestSmoothGrad:
    def test_constant_with_vr_is_exact_zero(self):
        cfg = SmoothingConfig(sigma=0.1, samples=50, seed=1)
        g = smoothing.smooth_grad(lambda y: 3.25, np.zeros(4), cfg)
        assert np.array_equal(g, np.zeros(4))

    def test_quadratic_recovers_gradient(self):
        f = lambda y: 0.5 * float(y @ y)
        y = np.array([1.0, 2.0])
        cfg = SmoothingConfig(sigma=0.1, samples=100_000, seed=2)
        g = smoothing.smooth_grad(f, y, cfg)
        se = replica_se_grad(f, y, 0.1, 100_000, seed=900)
        assert np.all(np.abs(g - y) <= 3 * se)

    def test_linear_recovers_coefficients(self):
        c = np.array([1.0, 2.0])
        f = lambda y: float(c @ y)
        y = np.zeros(2)
        cfg = SmoothingConfig(sigma=0.1, samples=10_000, seed=3)
        g = smoothing.smooth_grad(f, y, cfg)
        se = replica_se_grad(f, y, 0.1, 10_000, seed=901)
        assert np.all(np.abs(g - c) <= 3 * se)

    def test_seeded_determinism(self):
        f = lambda y: float(np.sin(y).sum())
        y = np.array([0.3, -0.2, 1.1])
        cfg = SmoothingConfig(sigma=0.1, samples=200, seed=77)
        a = smoothing.smooth_grad(f, y, cfg)
        b = smoothing.smooth_grad(f, y, cfg)
        assert np.array_equal(a, b)
        other = smoothing.smooth_grad(
            f, y, SmoothingConfig(sigma=0.1, samples=200, seed=78)
        )
        assert not np.array_equal(a, other)

    def test_nonfinite_probe_raises(self):
        cfg = SmoothingConfig(sigma=0.1, samples=10, seed=0)
        with pytest.raises(NonFiniteResult):
            smoothing.smooth_grad(lambda y: float("nan"), np.zeros(2), cfg)

    def test_vector_output_raises(self):
        cfg = SmoothingConfig(sigma=0.1, samples=10, seed=0)
        with pytest.raises(ShapeMismatch):
            smoothing.smooth_grad(lambda y: y.copy(), np.zeros(2), cfg)

    def test_black_box_value_error_propagates(self):
        def f(y):
            raise ValueError("my own failure")

        cfg = SmoothingConfig(sigma=0.1, samples=10, seed=0)
        with pytest.raises(ValueError, match="^my own failure$"):
            smoothing.smooth_grad(f, np.zeros(2), cfg)

    def test_ragged_output_raises(self):
        cfg = SmoothingConfig(sigma=0.1, samples=10, seed=0)
        with pytest.raises(ShapeMismatch, match="changed between probes"):
            smoothing.smooth_grad(lambda y: [1.0] * (1 + int(y[0] > 0)), np.zeros(2), cfg)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            SmoothingConfig(sigma=0.0, samples=10)
        with pytest.raises(ConfigError):
            SmoothingConfig(sigma=0.1, samples=0)

    # 1e100: finite, but sigma**4 overflows the float range
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 1e100])
    def test_nonfinite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError):
            SmoothingConfig(sigma=sigma, samples=10)

    # sigma**4 underflows to 0 at 1e-100 and is subnormal at 1e-77 and 1e-78,
    # where smooth_hessian's division by it would overflow
    @pytest.mark.parametrize("sigma", [1e-100, 1e-78, 1e-77])
    def test_sigma_fourth_power_below_normal_rejected(self, sigma):
        with pytest.raises(ConfigError):
            SmoothingConfig(sigma=sigma, samples=10)

    def test_smallest_normal_fourth_power_accepted(self):
        sigma = 1e-76  # sigma**4 is about 1e-304, a normal float
        assert sigma**4 >= np.finfo(float).tiny
        SmoothingConfig(sigma=sigma, samples=10)


class TestSmoothHessian:
    def test_constant_with_vr_is_exact_zero(self):
        cfg = SmoothingConfig(sigma=0.1, samples=30, seed=4)
        h = smoothing.smooth_hessian(lambda y: -1.0, np.zeros(3), cfg)
        assert np.array_equal(h, np.zeros((3, 3)))

    def test_quadratic_recovers_hessian(self):
        a = np.diag([1.0, 3.0])
        f = lambda y: 0.5 * float(y @ a @ y)
        y = np.zeros(2)
        cfg = SmoothingConfig(sigma=0.1, samples=100_000, seed=5)
        h = smoothing.smooth_hessian(f, y, cfg)
        # test-side replica for the entrywise standard error
        rng = np.random.default_rng(904)
        eps = 0.1 * rng.standard_normal((100_000, 2))
        w = np.array([f(y + e) for e in eps]) - f(y)
        terms = w[:, None, None] * (
            eps[:, :, None] * eps[:, None, :] / 0.1**4 - np.eye(2) / 0.1**2
        )
        se = terms.std(axis=0, ddof=1) / np.sqrt(100_000)
        assert np.all(np.abs(h - a) <= 3 * se)

    def test_linear_function_gives_zero_matrix(self):
        c = np.array([2.0, -1.0])
        f = lambda y: float(c @ y)
        cfg = SmoothingConfig(sigma=0.1, samples=100_000, seed=6)
        h = smoothing.smooth_hessian(f, np.zeros(2), cfg)
        rng = np.random.default_rng(905)
        eps = 0.1 * rng.standard_normal((100_000, 2))
        w = np.array([f(e) for e in eps])
        terms = w[:, None, None] * (
            eps[:, :, None] * eps[:, None, :] / 0.1**4 - np.eye(2) / 0.1**2
        )
        se = terms.std(axis=0, ddof=1) / np.sqrt(100_000)
        assert np.all(np.abs(h) <= 3 * se)

    def test_output_exactly_symmetric(self):
        f = lambda y: float(np.sin(y[0]) * y[1] + y[2] ** 3)
        cfg = SmoothingConfig(sigma=0.2, samples=500, seed=7)
        h = smoothing.smooth_hessian(f, np.array([0.1, 0.2, 0.3]), cfg)
        assert np.array_equal(h, h.T)

    def test_symmetrized_where_the_draw_product_is_not(self):
        # the black box above happens to give a symmetric sum of w_i e_i e_i^T;
        # this one's differs from its transpose in the last bits
        f = lambda y: float(np.exp(y[0]) * np.cos(y[1]) + y[2] * y[0])
        cfg = SmoothingConfig(sigma=0.3, samples=64, seed=8)
        y = np.array([0.4, -0.7, 1.1])
        eps = smoothing._draws(cfg, 3)
        w = np.array([f(p) for p in y + eps]) - f(y)
        raw = (eps * w[:, None]).T @ eps
        assert not np.array_equal(raw, raw.T)
        h = smoothing.smooth_hessian(f, y, cfg)
        assert np.array_equal(h, h.T)


class TestSmoothJacobian:
    def test_constant_vector_exact_zero(self):
        cfg = SmoothingConfig(sigma=0.1, samples=40, seed=8)
        mean, j = smoothing.smooth_jacobian(
            lambda y: np.array([1.0, -2.0]), np.zeros(3), cfg
        )
        assert np.array_equal(mean, [1.0, -2.0])
        assert np.array_equal(j, np.zeros((2, 3)))

    def test_identity_function(self):
        f = lambda y: y.copy()
        cfg = SmoothingConfig(sigma=0.1, samples=10_000, seed=9)
        mean, j = smoothing.smooth_jacobian(f, np.zeros(3), cfg)
        # the mean of the draws themselves
        assert np.array_equal(mean, smoothing._draws(cfg, 3).mean(axis=0))
        # row r is a linear smoothed grad; its SE is that of the scalar case
        se = replica_se_grad(lambda y: y[0], np.zeros(3), 0.1, 10_000, seed=906)
        assert np.all(np.abs(j - np.eye(3)) <= 3 * np.max(se))

    def test_mixed_rows(self):
        f = lambda y: np.array([y[0] ** 2, y[1]])
        y = np.array([1.0, 1.0])
        cfg = SmoothingConfig(sigma=0.1, samples=20_000, seed=12)
        _, j = smoothing.smooth_jacobian(f, y, cfg)
        expected = np.array([[2.0, 0.0], [0.0, 1.0]])
        se0 = replica_se_grad(lambda v: v[0] ** 2, y, 0.1, 20_000, seed=907)
        se1 = replica_se_grad(lambda v: v[1], y, 0.1, 20_000, seed=908)
        assert np.all(np.abs(j[0] - expected[0]) <= 3 * se0)
        assert np.all(np.abs(j[1] - expected[1]) <= 3 * se1)

    def test_shared_draws_with_scalar_grad(self):
        # a 1-row jacobian must coincide with smooth_grad bit for bit
        f = lambda y: float(np.cos(y).sum())
        fv = lambda y: np.array([np.cos(y).sum()])
        y = np.array([0.5, -0.3])
        cfg = SmoothingConfig(sigma=0.1, samples=500, seed=13)
        g = smoothing.smooth_grad(f, y, cfg)
        _, j = smoothing.smooth_jacobian(fv, y, cfg)
        np.testing.assert_allclose(j[0], g, rtol=0, atol=1e-15)

    def test_mean_is_the_fy_gradient_plus_target(self):
        # the smoothed argmax is the sum of the argmaxes of the draws over
        # their count, bit for bit: the perturbed Fenchel-Young gradient
        # E[argmax(y + e)] - w comes from it alone
        y = np.array([0.3, 0.1, -0.2, 0.25])
        w = np.array([0.0, 1.0, 0.0, 0.0])
        cfg = SmoothingConfig(sigma=0.2, samples=300, seed=18)
        mean, _ = smoothing.smooth_jacobian(onehot_argmax, y, cfg)
        draws = np.array([onehot_argmax(p) for p in y + smoothing._draws(cfg, 4)])
        assert np.array_equal(mean - w, np.add.reduce(draws) / 300 - w)

    def test_output_shape_change_raises(self):
        cfg = SmoothingConfig(sigma=0.1, samples=10, seed=0)
        with pytest.raises(ShapeMismatch):
            smoothing.smooth_jacobian(lambda y: y[: 1 + int(y[0] > 0)], np.zeros(2), cfg)


# f(y) is probed with the draws and gets their checks: a bad base value alone
# used to leak into the estimate
@pytest.mark.parametrize(
    "estimator,value,base,error",
    [
        (smoothing.smooth_grad, 1.0, float("nan"), NonFiniteResult),
        (smoothing.smooth_grad, 1.0, np.ones(1), ShapeMismatch),
        (smoothing.smooth_hessian, 1.0, float("inf"), NonFiniteResult),
        (smoothing.smooth_hessian, 1.0, np.ones(1), ShapeMismatch),
        (smoothing.smooth_jacobian, np.ones(3), np.array([1.0, np.nan, 1.0]), NonFiniteResult),
    ],
    ids=["grad-nan", "grad-shape", "hessian-inf", "hessian-shape", "jacobian-nan"],
)
def test_base_value_checked_like_the_draws(estimator, value, base, error):
    y = np.zeros(3)
    calls = []

    def f(u):
        calls.append(u)
        return base if np.array_equal(u, y) else value

    with pytest.raises(error):
        estimator(f, y, SmoothingConfig(sigma=0.1, samples=5, seed=0))
    # one evaluation of the five draws and, last, the point itself
    assert len(calls) == 6 and np.array_equal(calls[-1], y)


# one point check serves every estimator, so a point that is not a nonempty
# vector is named as such, not as a broadcast error or a black-box output shape
@pytest.mark.parametrize(
    "y", [np.zeros((2, 3)), np.zeros(0), np.float64(1.0)], ids=["2d", "empty", "0d"]
)
@pytest.mark.parametrize(
    "estimate",
    [
        lambda y, cfg: smoothing.smooth_grad(np.sum, y, cfg),
        lambda y, cfg: smoothing.smooth_hessian(np.sum, y, cfg),
        lambda y, cfg: smoothing.smooth_jacobian(np.ravel, y, cfg),
    ],
    ids=["grad", "hessian", "jacobian"],
)
def test_the_point_must_be_a_nonempty_vector(estimate, y):
    cfg = SmoothingConfig(sigma=0.1, samples=5, seed=0)
    got = re.escape(str(np.shape(y)))
    with pytest.raises(ShapeMismatch, match=rf"^y must be 1-D and nonempty, got shape {got}$"):
        estimate(y, cfg)


# a non-finite point is named as such: an estimate at [inf, 1] used to come
# back as zeros, and a NaN point was blamed on the black box
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "estimate",
    [
        lambda y, cfg: smoothing.smooth_grad(lambda u: 1.0, y, cfg),
        lambda y, cfg: smoothing.smooth_hessian(lambda u: 1.0, y, cfg),
        lambda y, cfg: smoothing.smooth_jacobian(lambda u: np.ones(2), y, cfg),
    ],
    ids=["grad", "hessian", "jacobian"],
)
def test_the_point_must_be_finite(estimate, bad):
    cfg = SmoothingConfig(sigma=0.1, samples=5, seed=0)
    with pytest.raises(NonFiniteResult, match=f"^y must be finite, got {bad}$"):
        estimate(np.array([bad, 1.0]), cfg)


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "0", None, True])
def test_seed_is_checked_when_the_config_is_built(seed):
    # checked_int's rule, then the Philox key range
    rule = r"in \[0, 2\*\*128\)" if seed == 2**128 else ">= 0"
    with pytest.raises(ConfigError, match=rf"^seed must be an integer {rule}, got "):
        SmoothingConfig(sigma=0.1, samples=5, seed=seed)


def test_seed_range_ends_at_the_philox_key_range():
    for seed in (0, np.uint64(2**64 - 1), 2**128 - 1):
        cfg = SmoothingConfig(sigma=0.1, samples=2, seed=seed)
        assert smoothing.smooth_grad(lambda u: 0.0, np.zeros(2), cfg).shape == (2,)


def onehot_argmax(y):
    w = np.zeros_like(y)
    w[int(np.argmax(y))] = 1.0
    return w


def fy_gradient(y, w_star, argmax, cfg):
    """The perturbed Fenchel-Young loss gradient E[argmax(y + e)] - w_star,
    as the path trainer takes it: smooth_jacobian's mean less the target."""
    return smoothing.smooth_jacobian(argmax, y, cfg)[0] - w_star


class TestFyGradient:
    def test_tiny_sigma_unique_maximizer(self):
        y = np.array([0.2, 1.0, -0.5])
        w_star = np.array([1.0, 0.0, 0.0])
        cfg = SmoothingConfig(sigma=1e-6, samples=50, seed=14)
        g = fy_gradient(y, w_star, onehot_argmax, cfg)
        assert np.array_equal(g, onehot_argmax(y) - w_star)

    def test_optimal_scores_with_margin_give_small_grad(self):
        # two-path feasible set; margin is 10 sigma, flips are ~7 sigma events
        paths = np.array([[1.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0]])

        def best_path(scores):
            return paths[int(np.argmax(paths @ scores))]

        y = np.array([0.0, 1.0, 0.0, 0.0])
        w_star = paths[0]
        cfg = SmoothingConfig(sigma=0.1, samples=1000, seed=15)
        g = fy_gradient(y, w_star, best_path, cfg)
        assert np.all(np.abs(g) <= 0.01)

    def test_symmetric_tie(self):
        y = np.zeros(2)
        w_star = np.array([1.0, 0.0])
        n = 1000
        cfg = SmoothingConfig(sigma=1.0, samples=n, seed=16)
        g = fy_gradient(y, w_star, onehot_argmax, cfg)
        se = 0.5 / np.sqrt(n)  # Bernoulli(1/2) mean
        np.testing.assert_allclose(g, [-0.5, 0.5], atol=3 * se)

    def test_self_consistent_target_gives_vanishing_grad(self):
        y = np.array([0.1, 0.0, -0.05])
        sigma, n = 0.5, 100_000
        rng = np.random.default_rng(909)
        sample = np.array(
            [onehot_argmax(y + sigma * rng.standard_normal(3)) for _ in range(20_000)]
        )
        w_bar = sample.mean(axis=0)
        cfg = SmoothingConfig(sigma=sigma, samples=n, seed=17)
        g = fy_gradient(y, w_bar, onehot_argmax, cfg)
        se = np.sqrt(0.25 / n + 0.25 / 20_000)
        assert np.linalg.norm(g) <= 4 * se * np.sqrt(3)


# ------------------------------------------------ stacked black boxes and draws


def _quad(u):
    return u[0] * u[1] + u[2] * u[2]


def _quad_rows(p):
    return p[:, 0] * p[:, 1] + p[:, 2] * p[:, 2]


# each estimator with a per-point f and a stacked f doing the same float
# operations per point; fy smooths an argmax through smooth_jacobian.  Both
# sides square as x * x: an array's `** 2` is x * x, but a numpy scalar's can
# differ from it by one ulp
STACKED_PAIRS = [
    (smoothing.smooth_grad, _quad, _quad_rows),
    (smoothing.smooth_hessian, _quad, _quad_rows),
    (
        smoothing.smooth_jacobian,
        lambda u: np.array([u[0] * u[0], u[1] * u[2]]),
        lambda p: np.stack([p[:, 0] * p[:, 0], p[:, 1] * p[:, 2]], axis=1),
    ),
    (
        lambda f, y, cfg: fy_gradient(y, np.eye(3)[1], f, cfg),
        onehot_argmax,
        lambda p: np.eye(p.shape[1])[np.argmax(p, axis=1)],
    ),
]
STACKED_IDS = ["grad", "hessian", "jacobian", "fy"]


# at seed 72 a probed point's scalar `** 2` differs from x * x by an ulp
# that reaches the jacobian pair's mean
@pytest.mark.parametrize("seed", [21, 30, 31, 32, 33, 72])
@pytest.mark.parametrize("estimate,per_point,rows", STACKED_PAIRS, ids=STACKED_IDS)
def test_a_stacked_black_box_gives_the_per_point_estimate_bit_for_bit(
    estimate, per_point, rows, seed
):
    y = np.array([0.3, -0.2, 0.25])
    cfg = SmoothingConfig(sigma=0.2, samples=64, seed=seed)
    points, stacks = [], []

    def one(u):
        points.append(u.copy())
        return per_point(u)

    def counted(p):
        stacks.append(p.copy())
        return rows(p)

    want = estimate(one, y, cfg)
    got = estimate(smoothing.Stacked(counted), y, cfg)
    want, got = (x if isinstance(x, tuple) else (x,) for x in (want, got))  # jacobian: (mean, jac)
    assert len(want) == len(got)
    for a, b in zip(want, got):
        assert np.array_equal(a, b)
    # one evaluation: the draws y + eps, then y itself as the last row for
    # the baseline f(y); a per-point f sees the same rows
    assert len(stacks) == 1
    assert stacks[0].shape == (65, 3)
    assert np.array_equal(stacks[0][:64], y + smoothing._draws(cfg, 3))
    assert stacks[0][-1].tobytes() == y.tobytes()
    assert np.array_equal(np.array(points), stacks[0])


# ------------------------------------------------ batches of points


def _batch(n=4, samples=16, sigma=0.2):
    y = np.random.default_rng(22).normal(scale=0.3, size=(n, 3))
    return y, [SmoothingConfig(sigma=sigma, samples=samples, seed=30 + j) for j in range(n)]


@pytest.mark.parametrize(
    "estimate,rows", [(e, r) for e, _, r in STACKED_PAIRS], ids=STACKED_IDS
)
@pytest.mark.parametrize("stacked", [False, True], ids=["per-point-f", "stacked-f"])
def test_a_batch_gives_each_rows_point_estimate_bit_for_bit(estimate, rows, stacked):
    # the per-point f is the stacked one on a stack of one point, so that the
    # two compute every output with the same array operations
    y, cfgs = _batch()
    per_point = lambda u: rows(u[None])[0]
    f = smoothing.Stacked(rows) if stacked else per_point
    got = estimate(f, y, cfgs)
    got = got if isinstance(got, tuple) else (got,)  # jacobian: (mean, jac)
    for j, (point, cfg) in enumerate(zip(y, cfgs)):
        want = estimate(per_point, point, cfg)
        want = want if isinstance(want, tuple) else (want,)
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert b.shape == (len(y), *a.shape)
            assert b[j].tobytes() == a.tobytes()


@pytest.mark.parametrize(
    "estimate,rows", [(e, r) for e, _, r in STACKED_PAIRS], ids=STACKED_IDS
)
def test_a_stacked_black_box_sees_one_stack_of_the_whole_batch(estimate, rows):
    y, cfgs = _batch()
    stacks = []

    def counted(p):
        stacks.append(p.copy())
        return rows(p)

    estimate(smoothing.Stacked(counted), y, cfgs)
    assert len(stacks) == 1 and stacks[0].shape == (4 * 17, 3)
    for j, block in enumerate(stacks[0].reshape(4, 17, 3)):
        assert block[:16].tobytes() == (y[j] + smoothing._draws(cfgs[j], 3)).tobytes()
        assert block[-1].tobytes() == y[j].tobytes()


@pytest.mark.parametrize(
    "other", [dict(sigma=0.3), dict(samples=17)], ids=["sigma", "samples"]
)
@pytest.mark.parametrize(
    "estimate",
    [
        lambda y, cfgs: smoothing.smooth_grad(np.sum, y, cfgs),
        lambda y, cfgs: smoothing.smooth_hessian(np.sum, y, cfgs),
        lambda y, cfgs: smoothing.smooth_jacobian(np.ravel, y, cfgs),
    ],
    ids=["grad", "hessian", "jacobian"],
)
def test_a_batch_of_mixed_sigma_or_samples_is_refused(estimate, other):
    y, cfgs = _batch()
    cfgs[2] = dataclasses.replace(cfgs[2], **other)
    with pytest.raises(ConfigError, match="^a batch's configs must share one sigma and one samples$"):
        estimate(y, cfgs)


@pytest.mark.parametrize("count", [3, 5])
def test_a_batch_needs_one_config_per_row(count):
    y, cfgs = _batch()
    message = rf"^y must have shape \({count}, \*\), got shape \(4, 3\)$"
    with pytest.raises(ShapeMismatch, match=message):
        smoothing.smooth_grad(np.sum, y, (cfgs * 2)[:count])


def test_a_linear_gradient_is_the_hand_reduction_against_f_at_the_point():
    # the baseline is f at the point itself, the last row of each block; a
    # linear f tells it from f at any draw
    def linear(u):
        return 1.5 * u[..., 0] - 2.0 * u[..., 1] + 0.5 * u[..., 2]

    y, cfgs = _batch()
    got = smoothing.smooth_grad(smoothing.Stacked(linear), y, cfgs)
    for j, cfg in enumerate(cfgs):
        eps = smoothing._draws(cfg, 3)
        w = linear(y[j] + eps) - linear(y[j])
        want = np.add.reduce(w[:, None] * eps) / cfg.samples / cfg.sigma**2
        assert got[j].tobytes() == want.tobytes()
        assert smoothing.smooth_grad(linear, y[j], cfg).tobytes() == want.tobytes()


def test_a_stacked_black_box_raises_its_own_value_error_unwrapped():
    def f(p):
        raise ValueError("my own failure")

    cfg = SmoothingConfig(sigma=0.1, samples=5, seed=0)
    with pytest.raises(ValueError, match="^my own failure$"):
        smoothing.smooth_grad(smoothing.Stacked(f), np.zeros(2), cfg)


# a Stacked black box passes the per-point checks, named as the probe's: the
# stack holds the five draws and, last, the point itself for the baseline, so
# a bad value or shape in that row alone is caught as one in a draw's
@pytest.mark.parametrize(
    "estimate,rows,error,message",
    [
        (
            smoothing.smooth_grad,
            lambda p: p,
            ShapeMismatch,
            r"^black-box probe must have shape \(6,\), got shape \(6, 2\)$",
        ),
        (smoothing.smooth_hessian, lambda p: p[:1, 0], ShapeMismatch, "^black-box probe must"),
        (
            smoothing.smooth_jacobian,
            lambda p: p[:, 0],
            ShapeMismatch,
            r"^black-box probe must have shape \(6, \*\), got shape \(6,\)$",
        ),
        (
            smoothing.smooth_grad,
            lambda p: np.full(len(p), np.nan),
            NonFiniteResult,
            "^black-box probe must be finite, got nan$",
        ),
        (
            smoothing.smooth_hessian,
            lambda p: np.where(np.any(p != 0.0, axis=1), 1.0, np.inf),
            NonFiniteResult,
            "^black-box probe must be finite, got inf$",
        ),
        (
            smoothing.smooth_jacobian,
            lambda p: np.where(np.any(p != 0.0, axis=1)[:, None], p, np.nan),
            NonFiniteResult,
            "^black-box probe must be finite, got nan$",
        ),
        (
            smoothing.smooth_grad,
            lambda p: [*p[:-1, 0], p[-1]],
            ShapeMismatch,
            "^black-box output shape changed between probes$",
        ),
        (
            smoothing.smooth_grad,
            lambda p: np.ones(len(p) + 1),
            ShapeMismatch,
            r"^black-box probe must have shape \(6,\), got shape \(7,\)$",
        ),
        (
            smoothing.smooth_jacobian,
            lambda p: np.ones((len(p) + 1, 2)),
            ShapeMismatch,
            r"^black-box probe must have shape \(6, \*\), got shape \(7, 2\)$",
        ),
        (
            smoothing.smooth_jacobian,
            lambda p: [[1.0] * (1 + i % 2) for i in range(len(p))],
            ShapeMismatch,
            "^black-box output shape changed between probes$",
        ),
    ],
    ids=[
        "grad-shape",
        "hessian-rows",
        "jacobian-width",
        "grad-nan",
        "hessian-base-inf",
        "jacobian-base-nan",
        "grad-base-shape",
        "grad-extra-row",
        "jacobian-extra-row",
        "jacobian-ragged",
    ],
)
def test_a_stacked_black_box_keeps_the_checks(estimate, rows, error, message):
    cfg = SmoothingConfig(sigma=0.1, samples=5, seed=0)
    with pytest.raises(error, match=message):
        estimate(smoothing.Stacked(rows), np.zeros(2), cfg)


@pytest.mark.parametrize("samples", [2.5, 2.0, "10", None, np.float64(3.0)])
def test_samples_must_be_an_integer(samples):
    with pytest.raises(ConfigError, match=r"^samples must be an integer >= 1, got "):
        SmoothingConfig(sigma=0.1, samples=samples)


def test_equal_configs_share_one_read_only_draw_block():
    smoothing._draws.cache_clear()
    a = smoothing._draws(SmoothingConfig(sigma=0.1, samples=4, seed=3), 2)
    b = smoothing._draws(SmoothingConfig(sigma=0.1, samples=4, seed=3), 2)
    assert a is b and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    # any other value of the four keys draws its own block
    keys = [(0.1, 4, 3, 2), (0.2, 4, 3, 2), (0.1, 5, 3, 2), (0.1, 4, 4, 2), (0.1, 4, 3, 3)]
    for sigma, samples, seed, m in keys:
        block = smoothing._draws(SmoothingConfig(sigma=sigma, samples=samples, seed=seed), m)
        rng = np.random.Generator(np.random.Philox(key=seed))
        assert np.array_equal(block, sigma * rng.standard_normal((samples, m)))
        assert (block is a) == ((sigma, samples, seed, m) == (0.1, 4, 3, 2))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 - 1, np.uint64(2**63 + 7)])
def test_draws_match_a_fresh_philox_generator(seed):
    smoothing._draws.cache_clear()
    block = smoothing._draws(SmoothingConfig(sigma=0.3, samples=7, seed=seed), 5)
    fresh = np.random.Generator(np.random.Philox(key=seed)).standard_normal((7, 5))
    assert block.tobytes() == (0.3 * fresh).tobytes()


def test_an_evicted_config_draws_its_own_bytes_again():
    # configs interleaved past the cache size: each redraw re-keys the one
    # generator from scratch, whatever it drew last
    smoothing._draws.cache_clear()
    size = smoothing._draws.cache_info().maxsize
    cfgs = [SmoothingConfig(sigma=0.1, samples=3 + k % 2, seed=k * 2**40) for k in range(size + 3)]
    first = [smoothing._draws(cfg, 4) for cfg in cfgs]
    for cfg, block in zip(cfgs * 2, first * 2):
        again = smoothing._draws(cfg, 4)
        fresh = np.random.Generator(np.random.Philox(key=cfg.seed))
        fresh = fresh.standard_normal((cfg.samples, 4))
        assert again.tobytes() == block.tobytes() == (0.1 * fresh).tobytes()
    assert smoothing._draws.cache_info().misses == 3 * len(cfgs)


def test_a_partly_used_generator_does_not_leak_into_the_next_block():
    # an odd count of 32-bit words or a half-used Philox buffer must not
    # shift the next config's draws
    smoothing._draws.cache_clear()
    smoothing._RNG.integers(0, 2**31, 3, dtype=np.uint32)
    smoothing._RNG.random(1)
    block = smoothing._draws(SmoothingConfig(sigma=1.0, samples=2, seed=9), 3)
    fresh = np.random.Generator(np.random.Philox(key=9)).standard_normal((2, 3))
    assert block.tobytes() == fresh.tobytes()


def test_a_config_cannot_be_changed_after_its_draws_are_made():
    cfg = SmoothingConfig(sigma=0.1, samples=4, seed=3)
    before = smoothing.smooth_grad(np.sum, np.zeros(2), cfg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 4
    assert np.array_equal(smoothing.smooth_grad(np.sum, np.zeros(2), cfg), before)

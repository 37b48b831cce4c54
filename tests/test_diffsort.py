import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.special import expit as scipy_expit

from newtonbench import diffsort
from newtonbench.diffsort import GroundTruthRanking, SortConfig
from newtonbench.errors import ConfigError, NonFiniteResult, ShapeMismatch

from oracles import central_diff_grad, rel_err, sorting_network_reference

ALL_METHODS = ["neuralsort", "softsort", "dsn_logistic", "dsn_cauchy"]


def spread_vector(rng, n, gap=0.1):
    """Random vector whose pairwise gaps are at least `gap`."""
    base = np.cumsum(rng.uniform(gap, 1.0, size=n))
    return rng.permutation(base) + rng.uniform(-1, 1)


class TestSoftSort:
    def test_singleton(self):
        p = diffsort.softsort_perm(np.array([1.0]), tau=0.7)
        np.testing.assert_array_equal(p.entries, [[1.0]])

    def test_tie_symmetry(self):
        p = diffsort.softsort_perm(np.array([2.0, 2.0]), tau=3.0)
        np.testing.assert_allclose(p.entries, np.full((2, 2), 0.5))

    def test_two_element_closed_form(self):
        p = diffsort.softsort_perm(np.array([3.0, 1.0]), tau=0.1)
        sig = 1.0 / (1.0 + np.exp(20.0))
        np.testing.assert_allclose(
            p.entries, [[1 - sig, sig], [sig, 1 - sig]], rtol=1e-12
        )

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            y = rng.standard_normal(n)
            perm = rng.permutation(n)
            p = diffsort.softsort_perm(y, tau=0.3).entries
            p_permuted = diffsort.softsort_perm(y[perm], tau=0.3).entries
            assert np.array_equal(p_permuted, p[:, perm])

    def test_rejects_bad_tau(self):
        with pytest.raises(ConfigError):
            diffsort.softsort_perm(np.array([1.0]), tau=0.0)


class TestNeuralSort:
    def test_singleton(self):
        p = diffsort.neuralsort_perm(np.array([-4.2]), tau=1.0)
        np.testing.assert_array_equal(p.entries, [[1.0]])

    def test_low_temperature_picks_argmax_first(self):
        p = diffsort.neuralsort_perm(np.array([2.0, 1.0]), tau=0.01)
        np.testing.assert_allclose(p.entries, np.eye(2), atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.standard_normal(int(rng.integers(1, 11)))
            p = diffsort.neuralsort_perm(y, tau=1.0).entries
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestDsn:
    def test_tie_gives_half(self):
        p = diffsort.dsn_perm(np.array([1.5, 1.5]), beta=10.0, family="logistic")
        np.testing.assert_allclose(p.entries, np.full((2, 2), 0.5))

    def test_two_element_logistic_value(self):
        p = diffsort.dsn_perm(np.array([0.0, 1.0]), beta=1.0, family="logistic")
        s = 1.0 / (1.0 + np.e)
        np.testing.assert_allclose(
            p.entries, [[1 - s, s], [s, 1 - s]], atol=5e-6
        )
        assert abs(p.entries[0, 0] - 0.73106) < 1e-5

    def test_doubly_stochastic(self):
        rng = np.random.default_rng(2)
        for family in ("logistic", "cauchy"):
            for _ in range(50):
                y = rng.standard_normal(int(rng.integers(2, 11)))
                p = diffsort.dsn_perm(y, beta=10.0, family=family).entries
                np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-9)
                np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_hard_beta_matches_hard_sort(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            y = spread_vector(rng, n)
            truth = diffsort.hard_rank(y)
            p = diffsort.dsn_perm(y, beta=1e4, family="logistic").entries
            assert np.max(np.abs(p - truth.matrix_ascending())) <= 1e-4

    @pytest.mark.parametrize("family", ["logistic", "cauchy"])
    def test_matches_per_comparator_reference(self, family):
        # n=2 has an empty second layer and odd n ends every layer short
        rng = np.random.default_rng(7)
        for n in range(2, 13):
            for scale in (0.01, 1.0, 50.0):
                for beta in (0.5, 10.0):
                    y = rng.standard_normal(n) * scale
                    for v in (y, np.round(y / scale) * scale):  # the second has ties
                        p = diffsort.dsn_perm(v, beta, family).entries
                        assert np.array_equal(p, sorting_network_reference(v, beta, family))

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigError):
            diffsort.dsn_perm(np.array([1.0, 2.0]), beta=1.0, family="gumbel")


@pytest.mark.parametrize("method", diffsort.METHODS)
@pytest.mark.parametrize("field", ["tau", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_sort_config_rejects_nonfinite(method, field, value):
    # also for the parameter the method does not use
    with pytest.raises(ConfigError):
        SortConfig(method=method, **{field: value})


@pytest.mark.parametrize("method", diffsort.METHODS)
def test_sort_config_reads_one_setting(method):
    # neuralsort and softsort read tau, the sorting networks beta; the other
    # setting is rejected even at a value the method would accept
    read, unread = ("beta", "tau") if method.startswith("dsn") else ("tau", "beta")
    assert getattr(SortConfig(method=method, **{read: 2.0}), read) == 2.0
    with pytest.raises(ConfigError, match=f"{method} reads {read}, not {unread}"):
        SortConfig(method=method, **{unread: 2.0})


class TestExpit:
    # +-0, the least subnormal and normal, the ends of exp's finite range
    # and its overflow, huge values and the infinities
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
             709.78, -709.78, 745.2, -745.2, 1e300, -1e300, np.inf, -np.inf, np.nan]

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(20)
        draws = [rng.standard_normal(250_000) * scale for scale in (1e-3, 1.0, 30.0, 800.0)]
        x = np.concatenate(draws + [self.EDGES])
        with pytest.raises(OverflowError):  # so -745.2 and -1e300 take that branch
            math.exp(745.2)
        got = diffsort.expit(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got.view(np.int64), scipy_expit(x).view(np.int64))

    def test_keeps_shape(self):
        x = np.array([[-800.0, 0.5], [3.0, 800.0]])
        np.testing.assert_array_equal(diffsort.expit(x), scipy_expit(x))
        assert diffsort.expit(2.0).shape == ()
        assert diffsort.expit(np.empty(0)).dtype == np.float64


class TestGroundTruthRanking:
    def test_derives_size_and_matrix_from_the_order(self):
        truth = GroundTruthRanking(np.array([2, 0, 1]))
        assert truth.order == (2, 0, 1) and all(type(i) is int for i in truth.order)
        assert truth.n == 3
        np.testing.assert_array_equal(truth.matrix, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(truth.matrix_ascending(), truth.matrix[::-1])

    @pytest.mark.parametrize("order", [(0, 0, 1), (1, 2), (0, 1, 3)])
    def test_refuses_an_order_that_is_not_a_permutation(self, order):
        with pytest.raises(ShapeMismatch, match=r"is not a permutation of 0\.\."):
            GroundTruthRanking(order)

    def test_takes_only_the_order(self):
        with pytest.raises(TypeError):
            GroundTruthRanking((0, 1), n=2)


class TestHardRank:
    def test_basic_order(self):
        truth = diffsort.hard_rank(np.array([3.0, 1.0, 2.0]))
        assert truth.order == (0, 2, 1)

    def test_tie_prefers_lower_index(self):
        truth = diffsort.hard_rank(np.array([1.0, 1.0]))
        assert truth.order == (0, 1)

    def test_matrix_is_permutation(self):
        truth = diffsort.hard_rank(np.array([0.3, -1.0, 2.2, 0.3]))
        q = truth.matrix
        np.testing.assert_array_equal(q.sum(axis=0), np.ones(4))
        np.testing.assert_array_equal(q.sum(axis=1), np.ones(4))

    def test_against_full_enumeration(self):
        rng = np.random.default_rng(4)
        for n in range(1, 7):
            for _ in range(5):
                y = np.round(rng.standard_normal(n), 1)  # occasional ties
                got = diffsort.hard_rank(y).order
                valid = [
                    perm
                    for perm in itertools.permutations(range(n))
                    if all(
                        y[perm[k]] > y[perm[k + 1]]
                        or (y[perm[k]] == y[perm[k + 1]] and perm[k] < perm[k + 1])
                        for k in range(n - 1)
                    )
                ]
                assert len(valid) == 1
                assert got == valid[0]


class TestRankingLoss:
    def test_hard_limit_loss_vanishes(self):
        y = np.array([5.0, 3.0, 1.0])
        truth = diffsort.hard_rank(y)
        cfg = SortConfig(method="softsort", tau=1e-4)
        value, _ = diffsort.ranking_loss(y, truth, cfg)
        assert value <= 1e-10

    def test_uniform_half_gives_log_two(self):
        y = np.array([2.0, 2.0])
        truth = diffsort.hard_rank(np.array([1.0, 0.0]))
        cfg = SortConfig(method="softsort", tau=1.0)
        value, _ = diffsort.ranking_loss(y, truth, cfg)
        assert abs(value - np.log(2.0)) <= 1e-12

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_grad_matches_finite_differences(self, method):
        rng = np.random.default_rng(100 + ALL_METHODS.index(method))
        cfg = SortConfig(method=method)
        # n=2 ends on an empty network layer; odd n ends every layer short
        for n in [5] * 20 + [2, 3, 4, 7]:
            y = spread_vector(rng, n)
            truth = diffsort.hard_rank(rng.standard_normal(n))
            _, grad = diffsort.ranking_loss(y, truth, cfg)
            fd = central_diff_grad(
                lambda v: diffsort.ranking_loss(v, truth, cfg)[0], y, h=1e-5
            )
            assert rel_err(grad, fd) <= 1e-5

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_minimum_sits_at_correct_ranking(self, method):
        # sweep y(t) = [t, 1, -1]; the loss should bottom out where the
        # hard rank of y(t) equals the target ranking (0, 1, 2)
        truth = diffsort.hard_rank(np.array([2.0, 1.0, 0.0]))
        cfg = SortConfig(method=method)
        ts = np.linspace(-3.0, 3.0, 601)
        losses = [
            diffsort.ranking_loss(np.array([t, 1.0, -1.0]), truth, cfg)[0]
            for t in ts
        ]
        t_best = ts[int(np.argmin(losses))]
        assert diffsort.hard_rank(np.array([t_best, 1.0, -1.0])).order == (0, 1, 2)


    def test_bytes_locked(self):
        # sha256 of every (value, gradient) bit pattern over all methods, with
        # saturated, tied and wide-range rows; any one-ulp drift changes it
        rng = np.random.default_rng(2024)
        h = hashlib.sha256()
        for method in diffsort.METHODS:
            key = "beta" if method.startswith("dsn") else "tau"
            for n in (2, 5, 10, 12):
                for scale in (1e-3, 1.0, 1e2):
                    for param in (0.1, 1.0, 10.0):
                        cfg = SortConfig(method=method, **{key: param})
                        y = rng.standard_normal(n) * scale
                        truth = GroundTruthRanking(rng.permutation(n))
                        for v in (y, np.round(y / scale) * scale):  # the second has ties
                            value, grad = diffsort.ranking_loss(v, truth, cfg)
                            h.update(np.float64(value).tobytes() + grad.tobytes())
        assert h.hexdigest() == (
            "0f9620997196cb9eb4c7e74eb7ec709a849e8b83e7af257a086100a610a438ef"
        )

    def test_cached_constants_are_read_only(self):
        n = 5
        cached = [diffsort._eye(n), diffsort._off_diag(n), diffsort._neuralsort_coeff(n)]
        cached += [a for wires in diffsort._dsn_wires(n) for a in wires]
        for a in cached:
            with pytest.raises(ValueError):
                a.flat[0] = 7
        # the losses computed after the attempts still use the true constants
        assert np.array_equal(diffsort._off_diag(n), np.ones((n, n)) - np.eye(n))


class TestStochasticityInvariants:
    def test_rows_and_columns(self):
        rng = np.random.default_rng(5)
        sizes = list(range(2, 11))
        for k in range(1000):
            n = sizes[k % len(sizes)]
            y = rng.standard_normal(n)
            for method in ALL_METHODS:
                cfg = SortConfig(method=method)
                if method == "softsort":
                    p = diffsort.softsort_perm(y, cfg.tau).entries
                elif method == "neuralsort":
                    p = diffsort.neuralsort_perm(y, cfg.tau).entries
                else:
                    p = diffsort.dsn_perm(
                        y, cfg.beta, method.split("_")[1]
                    ).entries
                assert np.all(p >= 0.0) and np.all(p <= 1.0 + 1e-12)
                assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-9
                if method.startswith("dsn"):
                    assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-9

    def test_limit_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            y = spread_vector(rng, n)
            truth = diffsort.hard_rank(y)
            p_ss = diffsort.softsort_perm(y, tau=1e-3).entries
            assert np.max(np.abs(p_ss - truth.matrix)) <= 1e-3
            p_ns = diffsort.neuralsort_perm(y, tau=1e-3).entries
            assert np.max(np.abs(p_ns - truth.matrix)) <= 1e-3
            for family in ("logistic", "cauchy"):
                p = diffsort.dsn_perm(y, beta=1e4, family=family).entries
                assert np.max(np.abs(p - truth.matrix_ascending())) <= 1e-3


class TestRefusals:
    def test_truth_shorter_than_the_scores(self):
        truth, cfg = GroundTruthRanking([0, 1]), SortConfig(method="neuralsort")
        with pytest.raises(ShapeMismatch, match="^ranking over 2 elements, input has 3$"):
            diffsort.ranking_loss(np.zeros(3), truth, cfg)

    def test_neuralsort_overflow_is_non_finite(self):
        with np.errstate(all="ignore"), pytest.raises(
            NonFiniteResult, match="^neuralsort produced non-finite probabilities$"
        ):
            diffsort.neuralsort_perm([1e308, -1e308, 0.0], 1.0)

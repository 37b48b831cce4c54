import numpy as np
import pytest

from newtonbench import shortest_path as sp
from newtonbench.errors import ShapeMismatch, TooLarge

from oracles import enumerate_paths


def random_grid(rng, h, w, low=0.1, high=2.0):
    return sp.GridInstance(height=h, width=w, node_costs=rng.uniform(low, high, (h, w)))


class TestDijkstra:
    def test_single_cell(self):
        inst = sp.GridInstance(height=1, width=1, node_costs=np.array([[4.2]]))
        out = sp.dijkstra_grid(inst)
        np.testing.assert_array_equal(out, [[1]])
        assert sp.path_cost(inst, out) == 4.2

    def test_two_by_two_hand_case(self):
        inst = sp.GridInstance(
            height=2, width=2, node_costs=np.array([[1.0, 10.0], [1.0, 1.0]])
        )
        out = sp.dijkstra_grid(inst)
        np.testing.assert_array_equal(out, [[1, 0], [1, 1]])
        assert sp.path_cost(inst, out) == 3.0

    def test_matches_enumeration_oracle_on_4x4(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            inst = random_grid(rng, 4, 4)
            d_mask = sp.dijkstra_grid(inst)
            best = min(
                sum(inst.node_costs[i, j] for i, j in path)
                for path in enumerate_paths(4, 4)
            )
            assert sp.path_cost(inst, d_mask) == pytest.approx(best, abs=1e-12)

    def test_masks_always_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            out = sp.dijkstra_grid(random_grid(rng, h, w))
            assert sp.path_mask_is_valid(out)

    def test_deterministic_tie_break(self):
        # uniform costs: many optimal paths; repeated solves must agree
        inst = sp.GridInstance(height=3, width=3, node_costs=np.ones((3, 3)))
        a = sp.dijkstra_grid(inst)
        b = sp.dijkstra_grid(inst)
        np.testing.assert_array_equal(a, b)
        assert sp.path_mask_is_valid(a)

    def test_monotonicity_in_costs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            inst = random_grid(rng, 4, 4)
            base_mask = sp.dijkstra_grid(inst)
            base_cost = sp.path_cost(inst, base_mask)
            i, j = int(rng.integers(4)), int(rng.integers(4))
            bumped = inst.node_costs.copy()
            bumped[i, j] += 1.0
            new_inst = sp.GridInstance(height=4, width=4, node_costs=bumped)
            new_cost = sp.path_cost(new_inst, sp.dijkstra_grid(new_inst))
            if base_mask[i, j]:
                assert new_cost >= base_cost
            else:
                assert new_cost == pytest.approx(base_cost, abs=1e-12)


class TestBruteForce:
    def test_single_cell(self):
        inst = sp.GridInstance(height=1, width=1, node_costs=np.array([[0.5]]))
        best, mask, unique = sp.brute_force_shortest(inst)
        assert (best, unique) == (0.5, True)
        np.testing.assert_array_equal(mask, [[1]])

    def test_uniform_two_by_two_matches_dijkstra_cost(self):
        inst = sp.GridInstance(height=2, width=2, node_costs=np.ones((2, 2)))
        _, bf, _ = sp.brute_force_shortest(inst)
        dj = sp.dijkstra_grid(inst)
        assert sp.path_cost(inst, bf) == sp.path_cost(inst, dj) == 3.0

    def test_agrees_with_dijkstra_up_to_5x5(self):
        rng = np.random.default_rng(3)
        for h, w in [(3, 3), (4, 4), (5, 5), (2, 5), (5, 2)]:
            for _ in range(10):
                inst = random_grid(rng, h, w)
                _, bf, _ = sp.brute_force_shortest(inst)
                dj = sp.dijkstra_grid(inst)
                assert sp.path_cost(inst, bf) == pytest.approx(
                    sp.path_cost(inst, dj), abs=1e-12
                )
                # generic random costs: unique optimum, masks must agree
                np.testing.assert_array_equal(bf, dj)

    def test_rejects_large_grids(self):
        rng = np.random.default_rng(4)
        with pytest.raises(TooLarge):
            sp.brute_force_shortest(random_grid(rng, 6, 6))


class TestTwoBestCosts:
    @staticmethod
    def oracle_two_best(inst, paths):
        # left fold of each path's costs in path order, as the solver sums
        ranked = sorted(sum(inst.node_costs[c] for c in path) for path in paths)
        return ranked[0], (ranked[1] if len(ranked) > 1 else np.inf)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (5, 5), (2, 5), (5, 2)])
    def test_equals_enumeration_exactly(self, shape):
        h, w = shape
        rng = np.random.default_rng(7 + h * 10 + w)
        paths = enumerate_paths(h, w)
        draws = [
            lambda: rng.uniform(0.1, 2.0, (h, w)),
            # integer and few-valued costs: many tied best and second paths
            lambda: rng.integers(1, 4, (h, w)).astype(np.float64),
            lambda: rng.choice([0.1, 0.2, 0.3], (h, w)),
        ]
        for draw in draws:
            for _ in range(15):
                inst = sp.GridInstance(height=h, width=w, node_costs=draw())
                assert sp.two_best_costs(inst) == self.oracle_two_best(inst, paths)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1)])
    def test_single_path_has_no_second(self, shape):
        rng = np.random.default_rng(8)
        inst = random_grid(rng, *shape)
        best, second = sp.two_best_costs(inst)
        assert best == self.oracle_two_best(inst, enumerate_paths(*shape))[0]
        assert second == np.inf


class TestPathCost:
    def test_near_zero_costs(self):
        inst = sp.GridInstance(height=1, width=4, node_costs=np.full((1, 4), 1e-9))
        mask = np.ones((1, 4), dtype=np.int64)
        assert sp.path_cost(inst, mask) == pytest.approx(4e-9, rel=1e-12)

    def test_hand_case(self):
        inst = sp.GridInstance(
            height=2, width=2, node_costs=np.array([[1.0, 10.0], [1.0, 1.0]])
        )
        assert sp.path_cost(inst, np.array([[1, 0], [1, 1]])) == 3.0

    def test_matches_double_loop_oracle_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            inst = random_grid(rng, h, w)
            mask = (rng.uniform(size=(h, w)) < 0.5).astype(np.int64)
            expected = 0.0
            for i in range(h):
                for j in range(w):
                    if mask[i, j]:
                        expected += inst.node_costs[i, j]
            assert sp.path_cost(inst, mask) == expected

    def test_shape_mismatch(self):
        inst = sp.GridInstance(height=2, width=2, node_costs=np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            sp.path_cost(inst, np.ones((3, 2)))


class TestArgmaxView:
    def test_uniform_costs_any_shortest_is_argmax(self):
        inst = sp.GridInstance(height=2, width=3, node_costs=np.full((2, 3), 0.7))
        scores = sp.as_argmax_scores(inst)
        np.testing.assert_array_equal(scores, np.full(6, -0.7))
        w = sp.indicator_argmax(scores, 2, 3)
        assert w.sum() == 4  # minimum-length path visits h+w-1 cells
        assert sp.path_mask_is_valid(w.reshape(2, 3).astype(np.int64))

    def test_hand_case_picks_cheap_path(self):
        inst = sp.GridInstance(
            height=2, width=2, node_costs=np.array([[1.0, 10.0], [1.0, 1.0]])
        )
        w = sp.indicator_argmax(sp.as_argmax_scores(inst), 2, 2)
        np.testing.assert_array_equal(w.reshape(2, 2), [[1, 0], [1, 1]])

    def test_equivalence_with_dijkstra_on_random_grids(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            inst = random_grid(rng, 4, 4)
            w = sp.indicator_argmax(sp.as_argmax_scores(inst), 4, 4)
            np.testing.assert_array_equal(w.reshape(4, 4), sp.dijkstra_grid(inst))

import numpy as np
import pytest

from newtonbench import shortest_path as sp
from newtonbench.errors import NonFiniteResult, ShapeMismatch, TooLarge

from oracles import (
    enumerate_paths, mask_cost, path_mask_reference, tie_rule_mask, two_best_costs_reference,
)


def random_grid(rng, h, w, low=0.1, high=2.0):
    return sp.GridInstance(rng.uniform(low, high, (h, w)))


def is_simple_corner_path(mask):
    """Whether the 0/1 mask's cells can be walked, each once, from the
    top-left to the bottom-right corner in 4-neighbour steps.  Unlike
    path_mask_is_valid, the walk may pass next to its own earlier cells."""
    mask = np.asarray(mask)
    if not np.all((mask == 0) | (mask == 1)) or not mask[0, 0]:
        return False
    cells = set(zip(*np.nonzero(mask)))
    goal = (mask.shape[0] - 1, mask.shape[1] - 1)

    def walk(cell, seen):
        if cell == goal:
            return len(seen) == len(cells)
        steps = ((cell[0] + di, cell[1] + dj) for di, dj in ((-1, 0), (0, -1), (1, 0), (0, 1)))
        return any(walk(nxt, seen | {nxt}) for nxt in steps if nxt in cells and nxt not in seen)

    return walk((0, 0), {(0, 0)})


class TestGridInstance:
    """The checks every grid passes before any solver sees it."""

    @pytest.mark.parametrize("h,w", [(0, 3), (3, 0), (0, 0)])
    def test_empty_side_raises_as_the_stacked_solver_does(self, h, w):
        with pytest.raises(ShapeMismatch, match="no side empty$"):
            sp.GridInstance(np.zeros((h, w)))
        with pytest.raises(ShapeMismatch):
            sp.dijkstra_grids(np.zeros((1, h, w)))

    @staticmethod
    def grid(bad):
        costs = np.ones((2, 3))
        costs[1, 2] = bad
        return sp.GridInstance(costs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_cost_raises(self, bad):
        with pytest.raises(NonFiniteResult, match="^grid costs must be finite$"):
            self.grid(bad)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.5], ids=["zero", "negative-zero", "negative"])
    def test_non_positive_cost_raises(self, bad):
        with pytest.raises(ValueError, match="^grid costs must be positive$"):
            self.grid(bad)

    def test_non_finite_is_reported_before_non_positive(self):
        costs = np.ones((2, 3))
        costs[0, 1], costs[1, 0] = -2.0, np.nan
        with pytest.raises(NonFiniteResult, match="^grid costs must be finite$"):
            sp.GridInstance(costs)

    @pytest.mark.parametrize("shape", [(), (4,), (1, 2, 2)], ids=["0-D", "1-D", "3-D"])
    def test_non_2d_costs_raise(self, shape):
        with pytest.raises(ShapeMismatch, match=r"must be 2-D, no side empty$"):
            sp.GridInstance(np.ones(shape))

    def test_finite_costs_whose_sum_overflows_are_accepted(self):
        costs = np.full((4, 4), 1e308)
        with np.errstate(over="raise"):
            inst = sp.GridInstance(costs)
        assert np.array_equal(inst.node_costs, costs)

    # the quick accept and the full check agree on every pair of edge values,
    # in both orders, beside ordinary cells: same accepted set, same errors
    EDGES = (1.0, 1e308, 5e-324, 0.0, -0.0, -1.0, np.nan, np.inf, -np.inf)

    @pytest.mark.parametrize("first", EDGES)
    @pytest.mark.parametrize("second", EDGES)
    def test_one_pass_accepts_what_the_full_check_accepts(self, first, second):
        costs = np.ones((2, 2))
        costs[0, 0], costs[1, 1] = first, second
        try:
            sp._check_costs(costs)
        except (NonFiniteResult, ValueError) as exc:
            with pytest.raises(type(exc), match=f"^{exc}$"):
                sp.GridInstance(costs)
        else:
            sp.GridInstance(costs)

    def test_accepts_positive_costs_as_float64(self):
        inst = sp.GridInstance([[1, 5e-324]])
        assert inst.node_costs.dtype == np.float64
        np.testing.assert_array_equal(inst.node_costs, [[1.0, 5e-324]])


class TestDijkstra:
    def test_single_cell(self):
        inst = sp.GridInstance(np.array([[4.2]]))
        out = sp.dijkstra_grid(inst)
        np.testing.assert_array_equal(out, [[1]])
        assert mask_cost(inst.node_costs, out) == 4.2

    def test_two_by_two_hand_case(self):
        inst = sp.GridInstance(np.array([[1.0, 10.0], [1.0, 1.0]]))
        out = sp.dijkstra_grid(inst)
        np.testing.assert_array_equal(out, [[1, 0], [1, 1]])
        assert mask_cost(inst.node_costs, out) == 3.0

    def test_matches_enumeration_oracle_on_4x4(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            inst = random_grid(rng, 4, 4)
            d_mask = sp.dijkstra_grid(inst)
            best = min(
                sum(inst.node_costs[i, j] for i, j in path)
                for path in enumerate_paths(4, 4)
            )
            assert mask_cost(inst.node_costs, d_mask) == pytest.approx(best, abs=1e-12)

    def test_masks_always_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            out = sp.dijkstra_grid(random_grid(rng, h, w))
            assert sp.path_mask_is_valid(out)

    def test_mask_check_agrees_with_degree_and_walk_reference(self):
        # every 0/1 mask of every shape with at most 12 cells, and every 4x4 mask
        shapes = [(h, w) for h in range(1, 13) for w in range(1, 13) if h * w <= 12]
        checked = 0
        for h, w in shapes + [(4, 4)]:
            k = h * w
            masks = ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).reshape(-1, h, w)
            valid = sp.path_mask_is_valid(masks)
            assert valid.dtype == bool and valid.shape == (len(masks),)
            for mask, ok in zip(masks, valid):
                assert ok == path_mask_reference(mask), mask
            checked += len(masks)
        assert checked == 101_514

    def test_stacked_mask_check_agrees_with_the_reference(self):
        # random 0/1 stacks with a leading axis or two, each mask its own bool
        rng = np.random.default_rng(24)
        for h in range(1, 7):
            for w in range(1, 7):
                masks = rng.integers(0, 2, (2, 30, h, w))
                masks[0, ::3] = [sp.dijkstra_grid(random_grid(rng, h, w)) for _ in range(10)]
                valid = sp.path_mask_is_valid(masks)
                assert valid.shape == (2, 30)
                want = [[path_mask_reference(m) for m in stack] for stack in masks]
                np.testing.assert_array_equal(valid, want)
                assert sp.path_mask_is_valid(masks[1, 0]) == want[1][0]

    def test_mask_check_rejects_off_encodings(self):
        assert not sp.path_mask_is_valid(np.ones(3))
        assert not sp.path_mask_is_valid(np.zeros((0, 3)))
        assert not sp.path_mask_is_valid(np.array([[1, 0], [2, 1]]))
        assert sp.path_mask_is_valid(np.array([[True, False], [True, True]]))
        # in a stack, an off encoding reads False beside valid masks, also
        # when its cells with 1 form the path
        stack = np.array([[[1, 0], [1, 1]], [[1, 2], [1, 1]], [[1, 1], [0, 1]]])
        np.testing.assert_array_equal(sp.path_mask_is_valid(stack), [True, False, True])
        assert sp.path_mask_is_valid(np.ones((0, 2, 2))).shape == (0,)
        np.testing.assert_array_equal(sp.path_mask_is_valid(np.ones((2, 0, 3))), [False, False])

    def test_deterministic_tie_break(self):
        # uniform costs: many optimal paths; repeated solves must agree
        inst = sp.GridInstance(np.ones((3, 3)))
        a = sp.dijkstra_grid(inst)
        b = sp.dijkstra_grid(inst)
        np.testing.assert_array_equal(a, b)
        assert sp.path_mask_is_valid(a)

    @pytest.mark.parametrize(
        "draw",
        [lambda rng, shape: rng.integers(1, 4, shape).astype(np.float64),
         lambda rng, shape: rng.choice([0.1, 0.2, 0.3], shape)],
        ids=["integer", "few-valued"],
    )
    def test_tie_rule_matches_bellman_ford_oracle(self, draw):
        # tied grids: the up/left/down/right rule alone decides the mask
        rng = np.random.default_rng(9)
        for h in range(1, 7):
            for w in range(1, 7):
                for _ in range(4):
                    costs = draw(rng, (h, w))
                    mask = sp.dijkstra_grid(sp.GridInstance(costs))
                    np.testing.assert_array_equal(mask, tie_rule_mask(costs))

    def test_monotonicity_in_costs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            inst = random_grid(rng, 4, 4)
            base_mask = sp.dijkstra_grid(inst)
            base_cost = mask_cost(inst.node_costs, base_mask)
            i, j = int(rng.integers(4)), int(rng.integers(4))
            bumped = inst.node_costs.copy()
            bumped[i, j] += 1.0
            new_inst = sp.GridInstance(bumped)
            new_cost = mask_cost(new_inst.node_costs, sp.dijkstra_grid(new_inst))
            if base_mask[i, j]:
                assert new_cost >= base_cost
            else:
                assert new_cost == pytest.approx(base_cost, abs=1e-12)


class TestSolveMemo:
    """dijkstra_grid answers a repeated grid from a memo keyed by its shape
    and cost bytes; no caller can tell a hit from a fresh solve."""

    def test_mutating_a_result_leaves_the_next_solve(self):
        costs = np.array([[1.0, 10.0], [1.0, 1.0]])
        inst = sp.GridInstance(costs)
        first = sp.dijkstra_grid(inst)
        first[:] = 7.0
        second = sp.dijkstra_grid(inst)
        assert second.flags.writeable and second is not first
        np.testing.assert_array_equal(second, [[1, 0], [1, 1]])

    def test_grids_with_one_best_path_get_separate_equal_masks(self):
        sp._solved.cache_clear()
        cheap = np.array([[1.0, 9.0, 9.0], [1.0, 9.0, 9.0], [1.0, 1.0, 1.0]])
        grids = [cheap, cheap * 2.0, cheap + np.eye(3) * 0.5]
        masks = [sp.dijkstra_grid(sp.GridInstance(g)) for g in grids]
        want = [[1, 0, 0], [1, 0, 0], [1, 1, 1]]
        for mask in masks:
            np.testing.assert_array_equal(mask, want)
            assert mask.flags.writeable
        masks[0][:] = 5.0
        np.testing.assert_array_equal(masks[1], want)
        np.testing.assert_array_equal(masks[2], want)
        for g in grids:  # repeats, from the memo, and a grid not seen before
            np.testing.assert_array_equal(sp.dijkstra_grid(sp.GridInstance(g)), want)
        np.testing.assert_array_equal(sp.dijkstra_grid(sp.GridInstance(cheap * 3.0)), want)

    def test_in_place_cost_change_is_a_new_grid(self):
        inst = sp.GridInstance(np.array([[1.0, 10.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(sp.dijkstra_grid(inst), [[1, 0], [1, 1]])
        inst.node_costs[0, 1], inst.node_costs[1, 0] = 1.0, 10.0
        np.testing.assert_array_equal(sp.dijkstra_grid(inst), [[1, 1], [0, 1]])

    def test_equal_bytes_at_other_shapes_get_their_own_mask(self):
        costs = np.random.default_rng(11).uniform(0.1, 2.0, 16)
        for h, w in ((4, 4), (2, 8), (1, 16)):
            grid = costs.reshape(h, w)
            mask = sp.dijkstra_grid(sp.GridInstance(grid))
            assert mask.shape == (h, w)
            np.testing.assert_array_equal(mask, tie_rule_mask(grid))

    def test_repeat_solves_match_the_tie_rule_oracle(self):
        sp._solved.cache_clear()
        rng = np.random.default_rng(12)
        for _ in range(2000):
            h, w = (int(v) for v in rng.integers(2, 7, 2))
            costs = rng.integers(1, 4, (h, w)).astype(np.float64)
            inst = sp.GridInstance(costs)
            want = tie_rule_mask(costs)
            for _ in range(2):
                mask = sp.dijkstra_grid(inst)
                assert mask.dtype == np.float64
                np.testing.assert_array_equal(mask, want)


class TestAbsorbedCosts:
    """Costs below half an ulp of the running sum add nothing, so two
    neighbours can each pass the backtrack's cost test for the other."""

    def test_minimal_absorbing_grid_ends_on_a_simple_path(self):
        costs = np.array([[5e307, 1e308, 1e-300], [1e-300, 1, 1], [5e307, 1e-300, 1]])
        inst = sp.GridInstance(costs)
        mask = sp.dijkstra_grid(inst)
        assert is_simple_corner_path(mask)
        np.testing.assert_array_equal(sp.two_best_costs(costs[None])[2][0], mask)

    def test_extreme_grids_end_on_a_simple_path_or_overflow(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            costs = rng.choice([1e-300, 1e-9, 1.0, 1e8, 5e307, 1e308], (h, w))
            inst = sp.GridInstance(costs)
            try:
                mask = sp.dijkstra_grid(inst)
            except NonFiniteResult:
                continue
            assert is_simple_corner_path(mask), costs
            np.testing.assert_array_equal(sp.two_best_costs(costs[None])[2][0], mask)

    def test_overflowing_best_cost_raises(self):
        inst = sp.GridInstance(np.full((3, 3), 1e308))
        with pytest.raises(NonFiniteResult):
            sp.dijkstra_grid(inst)
        with pytest.raises(NonFiniteResult):
            sp.two_best_costs(inst.node_costs[None])


class TestDijkstraGrids:
    """The stacked solve of a (B, h, w) cost stack equals dijkstra_grid on
    each grid bit for bit, and checks the stack as GridInstance checks a grid."""

    DRAWS = {
        "uniform": lambda rng, shape: rng.uniform(0.1, 2.0, shape),
        "tied": lambda rng, shape: rng.integers(1, 4, shape).astype(np.float64),
        "absorbing": lambda rng, shape: rng.choice([1e-300, 1e-9, 1.0, 1e8, 5e307], shape),
    }

    @staticmethod
    def per_grid(costs):
        """dijkstra_grid's masks and the grids whose best cost overflows."""
        masks, overflows = [], []
        for g, grid in enumerate(costs):
            try:
                masks.append(sp.dijkstra_grid(sp.GridInstance(grid)))
            except NonFiniteResult:
                overflows.append(g)
        return masks, overflows

    @pytest.mark.parametrize("draw", DRAWS.values(), ids=DRAWS.keys())
    def test_bit_equal_to_per_grid_solves_at_every_shape(self, draw):
        rng = np.random.default_rng(21)
        for h in range(1, 9):
            for w in range(1, 9):
                costs = draw(rng, (12, h, w))
                masks, overflows = self.per_grid(costs)
                for g in overflows:
                    with pytest.raises(NonFiniteResult):
                        sp.dijkstra_grids(costs[g : g + 1])
                got = sp.dijkstra_grids(np.delete(costs, overflows, axis=0))
                assert got.dtype == np.float64 and got.shape == (len(masks), h, w)
                np.testing.assert_array_equal(got, np.array(masks).reshape(got.shape))

    def test_absorbed_costs_take_the_settle_order(self):
        grid = np.array([[5e307, 1e308, 1e-300], [1e-300, 1, 1], [5e307, 1e-300, 1]])
        costs = np.stack([grid, np.ones((3, 3)), grid.T])
        np.testing.assert_array_equal(sp.dijkstra_grids(costs), self.per_grid(costs)[0])

    @pytest.mark.parametrize(
        "draw",
        [lambda rng, shape: rng.integers(1, 4, shape).astype(np.float64),
         lambda rng, shape: rng.choice([0.1, 0.2, 0.3], shape)],
        ids=["integer", "few-valued"],
    )
    def test_matches_the_tie_rule_oracle(self, draw):
        rng = np.random.default_rng(22)
        for h in range(1, 7):
            for w in range(1, 7):
                costs = draw(rng, (6, h, w))
                got = sp.dijkstra_grids(costs)
                for grid, mask in zip(costs, got):
                    np.testing.assert_array_equal(mask, tie_rule_mask(grid))

    @staticmethod
    def stack_with(*cells):
        costs = np.ones((3, 2, 3))
        for (i, j), value in cells:
            costs[1, i, j] = value
        return costs

    @pytest.mark.parametrize(
        "cells, error",
        [([((1, 2), np.nan)], NonFiniteResult),
         ([((1, 2), np.inf)], NonFiniteResult),
         ([((1, 2), -np.inf)], NonFiniteResult),
         ([((1, 2), 0.0)], ValueError),
         ([((1, 2), -0.0)], ValueError),
         ([((1, 2), -1.5)], ValueError),
         ([((0, 1), -2.0), ((1, 0), np.nan)], NonFiniteResult),
         ([((i, j), 1e308) for i in range(2) for j in range(3)], NonFiniteResult)],
        ids=["nan", "inf", "-inf", "zero", "negative-zero", "negative", "nan-beside-negative",
             "overflow"],
    )
    def test_errors_carry_the_per_grid_messages(self, cells, error):
        costs = self.stack_with(*cells)
        with pytest.raises(error) as per_grid:
            sp.dijkstra_grid(sp.GridInstance(costs[1]))
        with pytest.raises(error) as stacked:
            sp.dijkstra_grids(costs)
        assert str(stacked.value) == str(per_grid.value)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 2, 2), (2, 0, 3)])
    def test_rejects_a_shape_that_is_no_grid_stack(self, shape):
        with pytest.raises(ShapeMismatch):
            sp.dijkstra_grids(np.ones(shape))

    def test_an_empty_stack_is_refused(self):
        message = r"^costs must be 3-D and nonempty, got shape \(0, 3, 4\)$"
        with pytest.raises(ShapeMismatch, match=message):
            sp.dijkstra_grids(np.ones((0, 3, 4)))

    def test_input_untouched_and_result_fresh(self):
        costs = np.random.default_rng(23).uniform(0.1, 2.0, (5, 4, 4))
        kept = costs.copy()
        first = sp.dijkstra_grids(costs)
        np.testing.assert_array_equal(costs, kept)
        assert first.flags.writeable and not np.shares_memory(first, costs)
        first[:] = 7.0
        second = sp.dijkstra_grids(costs)
        assert second is not first
        np.testing.assert_array_equal(second, self.per_grid(costs)[0])


class TestBruteForce:
    def test_single_cell(self):
        inst = sp.GridInstance(np.array([[0.5]]))
        best, mask, unique = sp.brute_force_shortest(inst)
        assert (best, unique) == (0.5, True)
        np.testing.assert_array_equal(mask, [[1]])

    def test_uniform_two_by_two_matches_dijkstra_cost(self):
        inst = sp.GridInstance(np.ones((2, 2)))
        _, bf, _ = sp.brute_force_shortest(inst)
        dj = sp.dijkstra_grid(inst)
        assert mask_cost(inst.node_costs, bf) == mask_cost(inst.node_costs, dj) == 3.0

    def test_agrees_with_dijkstra_up_to_5x5(self):
        rng = np.random.default_rng(3)
        for h, w in [(3, 3), (4, 4), (5, 5), (2, 5), (5, 2)]:
            for _ in range(10):
                inst = random_grid(rng, h, w)
                _, bf, _ = sp.brute_force_shortest(inst)
                dj = sp.dijkstra_grid(inst)
                assert mask_cost(inst.node_costs, bf) == pytest.approx(
                    mask_cost(inst.node_costs, dj), abs=1e-12
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
                inst = sp.GridInstance(draw())
                (best,), (second,), (mask,) = sp.two_best_costs(inst.node_costs[None])
                assert (best, second) == self.oracle_two_best(inst, paths)
                np.testing.assert_array_equal(mask, sp.dijkstra_grid(inst))

    DRAWS = {
        "uniform": lambda rng, shape: rng.uniform(0.1, 2.0, shape),
        "tied": lambda rng, shape: rng.integers(1, 4, shape).astype(np.float64),
        "few-valued": lambda rng, shape: rng.choice([0.1, 0.2, 0.3], shape),
        "absorbing": lambda rng, shape: rng.choice([1e-300, 1e-9, 1.0, 1e8, 5e307, 1e308], shape),
    }

    @staticmethod
    def assert_equals_the_heap_search(costs):
        """The stack's grids whose best cost overflows raise alone; the rest,
        as one stack, equal the heap Yen search exactly."""
        refs = [two_best_costs_reference(grid) for grid in costs]
        for grid, ref in zip(costs, refs):
            if ref is None:
                with pytest.raises(NonFiniteResult):
                    sp.two_best_costs(grid[None])
        kept = [g for g, ref in enumerate(refs) if ref is not None]
        if not kept:
            return
        best, second, masks = sp.two_best_costs(costs[kept])
        assert best.shape == second.shape == (len(kept),) and masks.shape == costs[kept].shape
        for g, b, s, mask in zip(kept, best, second, masks):
            assert (b, s) == refs[g][:2], costs[g]
            np.testing.assert_array_equal(mask, refs[g][2])

    @pytest.mark.parametrize("draw", DRAWS.values(), ids=DRAWS.keys())
    def test_equals_the_heap_search_at_every_shape(self, draw):
        rng = np.random.default_rng(25)
        for h in range(1, 6):
            for w in range(1, 6):
                self.assert_equals_the_heap_search(draw(rng, (20, h, w)))

    @pytest.mark.parametrize("side", [8, 12])
    def test_equals_the_heap_search_on_a_64_grid_block(self, side):
        rng = np.random.default_rng(26)
        self.assert_equals_the_heap_search(rng.uniform(0.1, 2.0, (64, side, side)))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1)])
    def test_single_path_has_no_second(self, shape):
        rng = np.random.default_rng(8)
        inst = random_grid(rng, *shape)
        (best,), (second,), (mask,) = sp.two_best_costs(inst.node_costs[None])
        np.testing.assert_array_equal(mask, np.ones(shape, dtype=np.int64))
        assert best == self.oracle_two_best(inst, enumerate_paths(*shape))[0]
        assert second == np.inf


class TestPathCost:
    """The best cost two_best_costs reports, a left fold in path order."""

    def test_near_zero_costs(self):
        inst = sp.GridInstance(np.full((1, 4), 1e-9))
        assert sp.two_best_costs(inst.node_costs[None])[0][0] == pytest.approx(4e-9, rel=1e-12)

    def test_hand_case(self):
        inst = sp.GridInstance(np.array([[1.0, 10.0], [1.0, 1.0]]))
        assert sp.two_best_costs(inst.node_costs[None])[0][0] == 3.0

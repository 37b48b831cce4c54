"""Dataset generation, training loops, and report plumbing."""

import copy
import dataclasses
import fractions
import hashlib
import itertools
import json
import pathlib
import re

import jsonschema
import numpy as np
import pytest

from newtonbench import diffsort, net, shortest_path, smoothing
from newtonbench.bench import checks, cli, datagen, report, slices, trainers
from newtonbench.errors import ConfigError, NonFiniteResult, ShapeMismatch

from oracles import enumerate_paths, two_best_costs_reference


def _quick_cfg(**over):
    base = dict(
        task="rank",
        method="neuralsort",
        steps=40,
        batch=8,
        n=3,
    )
    base.update(over)
    return trainers.ExperimentConfig(**base)


class TestRankDatagen:
    def test_fixed_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        datagen.save_dataset(datagen.gen_ranking_data(7, 4, 20), a)
        datagen.save_dataset(datagen.gen_ranking_data(7, 4, 20), b)
        assert a.read_bytes() == b.read_bytes()

    def test_ranking_is_hard_rank_of_latents(self):
        ds = datagen.gen_ranking_data(3, 5, 30)
        for ranking, latents in zip(ds.labels, ds.hidden, strict=True):
            assert tuple(ranking) == diffsort.hard_rank(latents).order

    def test_latent_oracle_scores_perfectly(self):
        # a readout that sees the true latents leaves no ranking errors
        ds = datagen.gen_ranking_data(11, 5, 40)
        metrics = trainers.rank_metrics(ds.hidden, ds.labels)
        assert metrics["exact_match"] == 100.0
        assert metrics["element_rank"] == 100.0

    def test_latent_gap_enforced(self):
        for n in (2, 5, 10):
            ds = datagen.gen_ranking_data(5, n, 10)
            gap = datagen.min_latent_gap(n)
            for latents in ds.hidden:
                assert np.min(np.diff(np.sort(latents))) >= gap

    def test_dataset_derives_its_sizes_from_its_arrays(self):
        for ds, size in ((datagen.gen_ranking_data(2, 3, 5, feature_dim=4), 3),
                         (datagen.gen_grid_data(1, 3, 4, feature_dim=4), 3)):
            assert (ds.size, ds.feature_dim) == (size, 4)
            back = datagen.Dataset(ds.kind, ds.seed, ds.features, ds.labels)
            assert (back.size, back.feature_dim) == (size, 4)
        with pytest.raises(TypeError):
            datagen.Dataset("rank", 0, ds.features, ds.labels, size=3)

    def test_roundtrip_drops_diagnostics(self, tmp_path):
        path = tmp_path / "rank.jsonl"
        ds = datagen.gen_ranking_data(2, 3, 5, feature_dim=4)
        datagen.save_dataset(ds, path)
        back = datagen.load_dataset(path)
        assert (back.kind, back.size, back.feature_dim, back.seed) == ("rank", 3, 4, 2)
        assert len(back.features) == len(back.labels) == 5
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.hidden is None

    def test_generated_bytes_locked(self, tmp_path):
        # stepbench's rank dataset
        path = tmp_path / "rank.jsonl"
        datagen.save_dataset(datagen.gen_ranking_data(0, 10, 384), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a19aeb3ff858d40decee5719294a344532d4d0606f9faff2dd898c2541e2c43e"
        )

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            datagen.gen_ranking_data(0, 1, 10)
        with pytest.raises(ConfigError):
            datagen.gen_ranking_data(0, 3, 0)
        with pytest.raises(ConfigError):
            datagen.gen_ranking_data(0, 3, 10, feature_dim=0)


# a setting of the wrong type is named, not a bare TypeError or ValueError
# from numpy partway through the draws
@pytest.mark.parametrize(
    "gen,args,field",
    [
        (datagen.gen_ranking_data, (0, 5.0, 10), "n"),
        (datagen.gen_ranking_data, (0, 5, 10.0), "count"),
        (datagen.gen_ranking_data, (0, 5, 10, 2.5), "feature_dim"),
        (datagen.gen_ranking_data, (-1, 5, 10), "seed"),
        (datagen.gen_grid_data, (0, 3, 4.0), "count"),
        (datagen.gen_grid_data, (0, 3.0, 4), "size"),
        (datagen.gen_grid_data, (0, 3, 4, 2.5), "feature_dim"),
        (datagen.gen_grid_data, (0.5, 3, 4), "seed"),
    ],
    ids=["rank-n", "rank-count", "rank-feature-dim", "rank-seed", "grid-count", "grid-size",
         "grid-feature-dim", "grid-seed"],
)
def test_generator_settings_must_be_integers(gen, args, field):
    with pytest.raises(ConfigError, match=rf"^{field} must be an integer >= [012], got "):
        gen(*args)


class TestDrawRecords:
    @staticmethod
    def _record_if(keep, features):
        return (features.min(), features.sum()) if keep else None

    @classmethod
    def _keeping(cls, keep, calls):
        """An accept that yields, row by row, the record of each draw whose
        index among all candidates read so far satisfies keep, and counts
        the candidates it reads in calls."""

        def accept(block):
            for features in block:
                calls.append(1)
                yield cls._record_if(keep(len(calls) - 1), features)

        return accept

    def test_block_draws_match_one_at_a_time(self):
        # about 130 candidates, so the draws span several blocks
        def accept(block):
            for features in block:
                yield self._record_if(features[0, 0] > 0.5, features)

        got, labels, hidden = datagen._draw_records(
            np.random.default_rng(5), 40, (3, 2), accept, "none"
        )
        rng, want = np.random.default_rng(5), []
        while len(want) < 40:
            features = rng.normal(0.0, 1.0, size=(3, 2))
            if features[0, 0] > 0.5:
                want.append(features)
        for row, features in zip(got, want, strict=True):
            assert np.array_equal(row, features)
        assert got.base is None  # owns its data, not a view of a block
        # each record's (label, hidden) pair lands in the row of its features
        assert np.array_equal(labels, got.min(axis=(1, 2)))
        assert np.array_equal(hidden, got.sum(axis=(1, 2)))

    def test_gives_up_after_max_draws_for_one_record(self, monkeypatch):
        monkeypatch.setattr(datagen, "_MAX_DRAWS_PER_RECORD", 5)
        calls = []
        # four rejections, then an accept, per record: the limit resets for
        # each, over 150 candidates and three blocks
        rng = np.random.default_rng(0)
        every5 = self._keeping(lambda i: i % 5 == 4, calls)
        assert all(len(a) == 30 for a in datagen._draw_records(rng, 30, (2,), every5, "none"))
        assert len(calls) == 150
        calls.clear()
        every6 = self._keeping(lambda i: i % 6 == 5, calls)
        with pytest.raises(ConfigError, match="no separation"):
            datagen._draw_records(rng, 30, (2,), every6, "no separation")
        assert len(calls) == 5

    def test_a_run_of_misses_crosses_a_block_boundary(self, monkeypatch):
        limit = datagen._DRAW_BLOCK + 10
        monkeypatch.setattr(datagen, "_MAX_DRAWS_PER_RECORD", limit)
        calls = []
        # limit - 1 misses between candidates 10 and 10 + limit: the second
        # record is found in the second block
        keep = self._keeping(lambda i: i in (10, 10 + limit), calls)
        got, _, _ = datagen._draw_records(np.random.default_rng(3), 2, (2,), keep, "none")
        draws = np.random.default_rng(3).normal(0.0, 1.0, size=(2 * datagen._DRAW_BLOCK, 2))
        assert np.array_equal(got, draws[[10, 10 + limit]])
        assert len(calls) == 11 + limit
        # one miss more, and the run that began in the first block gives up
        # in the second, after exactly limit misses
        calls.clear()
        keep = self._keeping(lambda i: i in (10, 11 + limit), calls)
        with pytest.raises(ConfigError, match="no record"):
            datagen._draw_records(np.random.default_rng(3), 2, (2,), keep, "no record")
        assert len(calls) == 11 + limit

    def test_grids_are_solved_only_up_to_the_last_record(self, monkeypatch):
        seed, size, count = 0, 4, 48
        readout = datagen._readout(seed, datagen.FEATURE_DIM, tag=2)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 12)))
        kept = candidates = 0
        while kept < count:  # the one-at-a-time draws and margin tests
            features = rng.normal(0.0, 1.0, size=(size * size, datagen.FEATURE_DIM))
            costs = datagen.costs_from_raw(readout(features)).reshape(size, size)
            best, second, _ = two_best_costs_reference(costs)
            kept += second >= (1.0 + datagen.PATH_MARGIN) * best
            candidates += 1
        blocks = -(-candidates // datagen._DRAW_BLOCK)
        assert blocks > 1 and candidates % datagen._DRAW_BLOCK != 0  # the last block is cut short
        calls = []
        for name in ("two_best_costs", "dijkstra_grids", "dijkstra_grid"):
            solve = getattr(shortest_path, name)
            monkeypatch.setattr(
                shortest_path, name,
                lambda grids, name=name, solve=solve: calls.append(name) or solve(grids),
            )
        assert len(datagen.gen_grid_data(seed, size, count).labels) == count
        # one stacked solve per block read, none after the last record's
        assert calls == ["two_best_costs"] * blocks
        # above MARGIN_CHECK_MAX_SIZE every draw is kept: one stacked solve,
        # and neither dijkstra_grid nor its memo sees a grid
        calls.clear()
        shortest_path._solved.cache_clear()
        assert len(datagen.gen_grid_data(1, 6, 10).labels) == 10
        assert calls == ["dijkstra_grids"]
        assert shortest_path._solved.cache_info().currsize == 0


class TestGridDatagen:
    def test_fixed_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        datagen.save_dataset(datagen.gen_grid_data(9, 3, 12), a)
        datagen.save_dataset(datagen.gen_grid_data(9, 3, 12), b)
        assert a.read_bytes() == b.read_bytes()

    def test_mask_is_dijkstra_of_hidden_costs(self):
        ds = datagen.gen_grid_data(4, 4, 15)
        for costs, mask in zip(ds.hidden, ds.labels, strict=True):
            inst = shortest_path.GridInstance(costs)
            np.testing.assert_array_equal(shortest_path.dijkstra_grid(inst), mask)

    def test_cost_oracle_matches_perfectly(self):
        # feeding the exact hidden costs through the evaluation path
        # must reproduce every stored mask
        ds = datagen.gen_grid_data(6, 3, 20)
        rows = np.log(np.expm1(ds.hidden.reshape(len(ds.hidden), -1) - datagen.COST_FLOOR))
        metrics = trainers.path_metrics(rows, ds.labels, 3)
        assert metrics["perfect_match"] == 100.0

    def test_margin_between_best_paths(self):
        ds = datagen.gen_grid_data(13, 3, 10)
        paths = enumerate_paths(3, 3)
        for costs in ds.hidden:
            ranked = sorted(sum(costs[c] for c in path) for path in paths)
            assert ranked[1] >= (1.0 + datagen.PATH_MARGIN) * ranked[0]

    @pytest.mark.parametrize(
        "size, count, digest",
        [
            # stepbench's path dataset
            (4, 384, "3824f521e8a5450c5695516ca8c2de207c40c1afb280173be98db3df53421f28"),
            (5, 24, "01a05ab194cdd95a7beb623c63488b3ad4a4d229878bc4968a950d4388a1887d"),
        ],
    )
    def test_generated_bytes_locked_above_3x3(self, tmp_path, size, count, digest):
        path = tmp_path / "grid.jsonl"
        datagen.save_dataset(datagen.gen_grid_data(0, size, count), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_generated_bytes_locked_without_margin_check(self, tmp_path):
        # above MARGIN_CHECK_MAX_SIZE every draw is kept and solved once
        assert 6 > datagen.MARGIN_CHECK_MAX_SIZE
        path = tmp_path / "grid.jsonl"
        datagen.save_dataset(datagen.gen_grid_data(1, 6, 10), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "bad95376cb65b9db88db0f7e5637fd5acb785c54847c0f80d67ed85c758aa05c"
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        ds = datagen.gen_grid_data(1, 3, 4, feature_dim=5)
        datagen.save_dataset(ds, path)
        back = datagen.load_dataset(path)
        assert (back.kind, back.size, back.feature_dim, back.seed) == ("path", 3, 5, 1)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.hidden is None

    def test_loading_solves_no_grid(self, tmp_path, monkeypatch):
        # mask checks run the Dijkstra core below dijkstra_grid, whose calls
        # and memo belong to training and evaluation
        path = tmp_path / "grid.jsonl"
        datagen.save_dataset(datagen.gen_grid_data(0, 4, 24), path)
        calls = []
        solve = shortest_path.dijkstra_grid
        monkeypatch.setattr(
            shortest_path, "dijkstra_grid", lambda inst: calls.append(inst) or solve(inst)
        )
        assert len(datagen.load_dataset(path).labels) == 24
        # a mask with a shortcut through a 2x2 block is refused the same way
        lines = path.read_text().splitlines()
        mask = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 0, 1]]
        lines[1] = json.dumps({**json.loads(lines[1]), "mask": mask})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="line 2: mask is not"):
            datagen.load_dataset(path)
        assert calls == []

    @staticmethod
    def edited(path, edits):
        """Rewrite a saved dataset with each {line number: (key, edit)} applied
        to that record's value."""
        lines = path.read_text().splitlines()
        for lineno, (key, edit) in edits.items():
            row = json.loads(lines[lineno - 1])
            lines[lineno - 1] = json.dumps({**row, key: edit(row[key])})
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize(
        "key, value",
        [("features", "0.12"), ("features", True), ("features", None), ("features", 10**400),
         ("mask", "1"), ("mask", True), ("mask", 1.0)],
        ids=["string-feature", "bool-feature", "null-feature", "huge-int-feature",
             "string-mask", "bool-mask", "float-mask"],
    )
    def test_wrong_typed_values_are_refused_by_line(self, key, value, tmp_path):
        # features are JSON numbers and mask entries the ints 0 and 1, as
        # save_dataset writes them; numpy would convert strings and bools
        path = tmp_path / "grid.jsonl"
        datagen.save_dataset(datagen.gen_grid_data(0, 3, 6), path)

        def first_entry(rows):
            return [[value, *rows[0][1:]], *rows[1:]]

        with pytest.raises(ConfigError, match=f"line 4: ({key} |int too large)"):
            datagen.load_dataset(self.edited(path, {4: (key, first_entry)}))

    def test_wrong_typed_rank_features_are_refused(self, tmp_path):
        path = tmp_path / "rank.jsonl"
        datagen.save_dataset(datagen.gen_ranking_data(0, 3, 6), path)
        edit = ("features", lambda rows: [[str(rows[0][0]), *rows[0][1:]], *rows[1:]])
        with pytest.raises(ConfigError, match="line 3: features must be 3 lists of 6 JSON numbers"):
            datagen.load_dataset(self.edited(path, {3: edit}))

    @pytest.mark.parametrize(
        "kind, key, edit, message",
        [
            ("path", "mask", lambda rows: [rows[0][:-1], *rows[1:]],
             "mask must be 3 lists of 3 ints"),
            ("path", "mask", lambda rows: rows[:-1], "mask must be 3 lists of 3 ints"),
            ("path", "mask", lambda rows: 1, "mask must be 3 lists of 3 ints"),
            ("path", "features", lambda rows: [rows[0][:-1], *rows[1:]],
             "features must be 9 lists of 6 JSON numbers"),
            ("rank", "features", lambda rows: [*rows, rows[0]],
             "features must be 3 lists of 6 JSON numbers"),
            ("rank", "ranking", lambda order: 3, "ranking must be a list of 3 ints"),
            ("rank", "ranking", lambda order: order[:-1], "ranking must be a list of 3 ints"),
        ],
        ids=["ragged-mask", "short-mask", "scalar-mask", "ragged-features", "long-features",
             "scalar-ranking", "short-ranking"],
    )
    def test_a_misshapen_record_names_its_field_and_shape(self, kind, key, edit, message,
                                                           tmp_path):
        # numpy's own text for a ragged list named no field, and a scalar
        # ranking raised "'int' object is not iterable"
        path = tmp_path / f"{kind}.jsonl"
        gen = datagen.gen_ranking_data if kind == "rank" else datagen.gen_grid_data
        datagen.save_dataset(gen(0, 3, 6), path)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))} line 3: {message}$"):
            datagen.load_dataset(self.edited(path, {3: (key, edit)}))

    @pytest.mark.parametrize("mask_line, feature_line", [(3, 5), (5, 3)])
    def test_the_first_bad_line_is_named(self, mask_line, feature_line, tmp_path):
        # the masks are checked as one stack after the per-record checks,
        # and still before a later line's failure is raised
        path = tmp_path / "grid.jsonl"
        datagen.save_dataset(datagen.gen_grid_data(0, 3, 6), path)
        shortcut = [[1, 1, 0], [1, 1, 0], [0, 1, 1]]
        path = self.edited(path, {
            mask_line: ("mask", lambda _: shortcut),
            feature_line: ("features", lambda rows: [[np.nan] * len(rows[0]), *rows[1:]]),
        })
        with pytest.raises(ConfigError, match=f"line {min(mask_line, feature_line)}: "):
            datagen.load_dataset(path)


class TestDatasetLayout:
    @pytest.mark.parametrize(
        "gen,label_shape,label_dtype",
        [(datagen.gen_ranking_data, (7, 3), np.int64),
         (datagen.gen_grid_data, (7, 3, 3), np.float64)],
        ids=["rank", "path"],
    )
    def test_loaded_arrays_match_generated(self, gen, label_shape, label_dtype, tmp_path):
        # one layout whether generated or loaded: bit-equal features, and
        # labels of the same values, dtype and shape
        ds = gen(4, 3, 7, feature_dim=2)
        path = tmp_path / "ds.jsonl"
        datagen.save_dataset(ds, path)
        back = datagen.load_dataset(path)
        rows = 3 if ds.kind == "rank" else 9
        for arrays in (ds, back):
            assert (arrays.features.dtype, arrays.features.shape) == (np.float64, (7, rows, 2))
            assert (arrays.labels.dtype, arrays.labels.shape) == (label_dtype, label_shape)
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize(
        "kind,size_key,rows,label_shape,label_dtype",
        [("rank", "n", 3, (0, 3), np.int64), ("path", "size", 9, (0, 3, 3), np.float64)],
    )
    def test_zero_records_keep_the_layout(
        self, kind, size_key, rows, label_shape, label_dtype, tmp_path
    ):
        path = tmp_path / "ds.jsonl"
        header = {"kind": kind, size_key: 3, "feature_dim": 2, "seed": 0, "count": 0}
        path.write_text(json.dumps(header) + "\n")
        back = datagen.load_dataset(path)
        assert (back.features.dtype, back.features.shape) == (np.float64, (0, rows, 2))
        assert (back.labels.dtype, back.labels.shape) == (label_dtype, label_shape)


class TestMetrics:
    def test_rank_metrics_counts_by_hand(self):
        rows = np.array([[3.0, 2.0, 1.0], [2.0, 3.0, 1.0]])
        m = trainers.rank_metrics(rows, np.array([(0, 1, 2), (0, 1, 2)]))
        assert m["exact_match"] == 50.0
        assert m["element_rank"] == pytest.approx(100.0 * 4 / 6)
        # exact score ties: the same lower-index-first rule as hard_rank
        rankings = [(0, 1, 2), (1, 0, 2), (0, 1, 2), (2, 0, 1), (1, 2, 0)]
        rows = np.array(
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.5, 0.5, 0.5], [1.0, 2.0, 2.0],
             [1.0, 2.0, 2.0]]
        )
        m = trainers.rank_metrics(rows, np.array(rankings))
        preds = [diffsort.hard_rank(row).order for row in rows]
        assert m["exact_match"] == 100.0 * sum(p == r for p, r in zip(preds, rankings)) / 5
        hits = sum(a == b for p, r in zip(preds, rankings) for a, b in zip(p, r))
        assert m["element_rank"] == 100.0 * hits / 15
        assert (m["exact_match"], hits) == (60.0, 10)

    def test_rank_metrics_rejects_non_finite_scores(self):
        with pytest.raises(NonFiniteResult):
            trainers.rank_metrics(np.array([[np.nan, 1.0]]), np.array([(0, 1)]))

    def test_path_metrics_counts_by_hand(self):
        cheap = np.full((2, 2), 0.2)
        cheap[0, 1] = 5.0
        inst = shortest_path.GridInstance(cheap)
        mask = shortest_path.dijkstra_grid(inst).astype(np.float64)
        raw = np.log(np.expm1(cheap.ravel() - datagen.COST_FLOOR))
        m = trainers.path_metrics(np.stack([raw, raw]), np.stack([mask, 1 - mask]), 2)
        assert m["perfect_match"] == 50.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_path_metrics_rejects_non_finite_outputs(self, bad):
        with pytest.raises(NonFiniteResult, match=f"^held-out outputs must be finite, got {bad}$"):
            trainers.path_metrics(np.array([[bad, 0.0, 0.0, 0.0]]), np.ones((1, 2, 2)), 2)

    def test_no_held_out_records_is_a_shape_mismatch(self):
        empty = r"^held-out scores must be 2-D and nonempty, got shape \(0, 3\)$"
        with pytest.raises(ShapeMismatch, match=empty):
            trainers.rank_metrics(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        # a 2x2 grid's rows hold 4 outputs each
        empty = r"^held-out outputs must have shape \(\*, 4\), got shape \(0, 4\)$"
        with pytest.raises(ShapeMismatch, match=empty):
            trainers.path_metrics(np.zeros((0, 4)), np.zeros((0, 2, 2)), 2)

    def test_path_metrics_solves_one_stack_outside_the_memo(self, monkeypatch):
        rng = np.random.default_rng(31)
        raw = rng.normal(0.0, 1.0, (40, 9))

        def per_grid(r):
            return trainers._masks_of(datagen.costs_from_raw(r).reshape(1, 3, 3)).reshape(3, 3)

        masks = np.stack([per_grid(r if j % 3 else -r) for j, r in enumerate(raw)])
        hits = sum(np.array_equal(per_grid(r), m) for r, m in zip(raw, masks))
        calls = []
        stacked = shortest_path.dijkstra_grids
        monkeypatch.setattr(shortest_path, "dijkstra_grid", lambda inst: calls.append("grid"))
        monkeypatch.setattr(
            shortest_path, "dijkstra_grids", lambda costs: calls.append("stack") or stacked(costs)
        )
        memo = shortest_path._solved.cache_info()
        assert trainers.path_metrics(raw, masks, 3) == {"perfect_match": 100.0 * hits / 40}
        assert calls == ["stack"]
        assert shortest_path._solved.cache_info() == memo


class TestConfigValidation:
    def test_mode_matrix_rejects_intractable_pair(self):
        with pytest.raises(ConfigError, match="intractable"):
            trainers.ExperimentConfig(
                task="path", method="ss_algorithm", mode="nl_hessian"
            )

    def test_other_path_modes_accepted(self):
        for method in trainers.PATH_METHODS:
            for mode in trainers.MODES:
                if method == "ss_algorithm" and mode == "nl_hessian":
                    continue
                cfg = trainers.ExperimentConfig(task="path", method=method, mode=mode)
                assert cfg.lam >= 0.0

    def test_rejects_task_method_mismatch(self):
        with pytest.raises(ConfigError):
            trainers.ExperimentConfig(task="rank", method="ss_loss")
        with pytest.raises(ConfigError):
            trainers.ExperimentConfig(task="path", method="neuralsort")
        with pytest.raises(ConfigError):
            trainers.ExperimentConfig(task="sort", method="neuralsort")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ConfigError):
            _quick_cfg(n=1)
        with pytest.raises(ConfigError):
            _quick_cfg(batch=257)  # generated data trains on 256 records
        with pytest.raises(ConfigError):
            _quick_cfg(mode="nl_hessian", lam=0.0)
        with pytest.raises(ConfigError):
            _quick_cfg(sigma=0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
    def test_seed_is_checked_when_the_config_is_built(self, seed):
        # not numpy's bare ValueError from the first generator the run builds
        with pytest.raises(ConfigError, match=r"^seed must be an integer >= 0, got "):
            trainers.ExperimentConfig(task="rank", method="neuralsort", seed=seed)

    @pytest.mark.parametrize("samples", [2.5, 0])
    def test_samples_are_checked_when_the_config_is_built(self, samples):
        # not a bare TypeError from the first draw block of the run
        with pytest.raises(ConfigError, match=r"^samples must be an integer >= 1, got "):
            trainers.ExperimentConfig(task="path", method="ss_loss", samples=samples)

    @pytest.mark.parametrize(
        "field,value",
        [("steps", 2.5), ("batch", 2.5), ("n", 3.0), ("grid", 2.5), ("steps", True)],
    )
    def test_integer_settings_are_checked_before_the_run(self, field, value):
        # not a bare TypeError partway through the run
        task, method = ("path", "ss_loss") if field == "grid" else ("rank", "neuralsort")
        settings = {"steps": 2, "batch": 4, "n": 3, field: value}
        message = rf"^{field} must be an integer >= [12], got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            trainers.run_experiment(trainers.ExperimentConfig(task=task, method=method, **settings))

    def test_lambda_must_be_a_number(self):
        with pytest.raises(ConfigError, match="^lam must be a finite real number > 0, got '0.1'$"):
            _quick_cfg(mode="nl_hessian", lam="0.1")

    @pytest.mark.parametrize(
        "field,task,method,value",
        [
            (field, task, method, value)
            for field, task, method in (
                ("lam", "path", "ss_loss"),
                ("sigma", "path", "ss_loss"),
                ("tau", "rank", "softsort"),
                ("beta", "rank", "dsn_logistic"),
            )
            for value in ("0.1", True, np.bool_(True), 1j, fractions.Fraction(1, 10))
        ]
        # None picks lam's preset and the sort defaults; sigma has none
        + [("sigma", "path", "ss_loss", None)],
    )
    def test_real_settings_must_be_real_numbers(self, field, task, method, value):
        # not numpy's bare TypeError from isfinite, nor a bool taken as 1.0
        settings = {field: value, "mode": "nl_hessian"}
        message = rf"^{field} must be a finite real number > 0, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            trainers.ExperimentConfig(task=task, method=method, **settings)

    @pytest.mark.parametrize("value", [1, 0.25, np.float32(0.5), np.float64(2.0), np.int64(3)])
    def test_real_settings_take_ints_and_floats(self, value):
        cfg = trainers.ExperimentConfig(task="path", method="ss_loss", mode="nl_hessian",
                                        lam=value, sigma=value)
        assert (cfg.lam, cfg.sigma) == (value, value)
        for method, field in (("softsort", "tau"), ("dsn_cauchy", "beta")):
            cfg = trainers.ExperimentConfig(task="rank", method=method, **{field: value})
            assert getattr(cfg, field) == value

    def test_rejects_bad_sort_settings_before_a_run(self):
        with pytest.raises(ConfigError, match="tau must be a finite real number > 0, got 0"):
            trainers.ExperimentConfig(task="rank", method="softsort", tau=0)
        with pytest.raises(ConfigError, match="beta must be a finite real number > 0, got -1"):
            trainers.ExperimentConfig(task="rank", method="dsn_logistic", beta=-1)
        # a setting the run does not read, even at a value it would accept
        with pytest.raises(ConfigError, match="neuralsort reads tau, not beta"):
            trainers.ExperimentConfig(task="rank", method="neuralsort", beta=1.0)
        for setting in ("tau", "beta"):
            with pytest.raises(ConfigError, match="the path task reads neither"):
                trainers.ExperimentConfig(task="path", method="ss_loss", **{setting: 1.0})

    def test_preset_lambdas(self):
        assert trainers.lambda_preset("neuralsort", "baseline") == 0.0
        assert trainers.lambda_preset("neuralsort", "nl_hessian") == 0.01
        assert trainers.lambda_preset("softsort", "nl_hessian") == 10.0
        # some rank presets switch at longer rankings
        assert trainers.lambda_preset("neuralsort", "nl_fisher", n=10) == 100.0
        assert trainers.lambda_preset("neuralsort", "nl_fisher", n=5) == 0.1
        assert trainers.lambda_preset("ss_loss", "nl_hessian") == 1000.0
        assert trainers.lambda_preset("ss_algorithm", "nl_fisher") == 1000.0


class TestLambdaLimit:
    def test_huge_lambda_keeps_gradient_direction(self):
        # with overwhelming damping both Newton modes shrink toward a
        # rescaled plain gradient, so first-step directions must agree
        cfg = _quick_cfg(seed=3)
        ds = datagen.gen_ranking_data(cfg.seed, cfg.n, trainers.GEN_COUNT)
        features, rankings = ds.features[: cfg.batch], ds.labels[: cfg.batch]
        model = net.Mlp.init(
            [datagen.FEATURE_DIM, trainers.HIDDEN, 1],
            ["tanh", "identity"],
            np.random.SeedSequence((cfg.seed, 201)),
        )
        out, tape = net.forward(model, features.reshape(-1, datagen.FEATURE_DIM))
        y = out.reshape(cfg.batch, -1)

        def update_direction(mode):
            run_cfg = _quick_cfg(seed=3, mode=mode, lam=1e8 if mode != "baseline" else None)
            grad_rows, curvature = trainers.output_grads(run_cfg, y, rankings, 1)
            rows = trainers.output_rows(run_cfg, y, grad_rows, curvature)
            return net.backward(model, tape, rows.reshape(-1, 1))

        base = update_direction("baseline")
        for mode in ("nl_hessian", "nl_fisher"):
            vec = update_direction(mode)
            cos = vec @ base / (np.linalg.norm(vec) * np.linalg.norm(base))
            assert cos >= 0.999


class TestRankLossCallsPerStep:
    @pytest.mark.parametrize(
        "method,mode",
        [("neuralsort", mode) for mode in trainers.MODES] + [("dsn_logistic", "nl_fisher")],
    )
    def test_loss_calls_per_step_and_none_in_eval(self, method, mode, monkeypatch):
        # one ranking_loss call per row through the module attribute, which is
        # what stepbench's per-call counts (420 and 20 per step) rely on
        cfg = _quick_cfg(method=method, mode=mode, n=4, batch=5, steps=3)  # evaluates every step
        loss, calls, at_eval = diffsort.ranking_loss, [], []

        def counted(y, truth, scfg):
            calls.append(np.shape(y))
            return loss(y, truth, scfg)

        def metrics(score_rows, rankings):
            at_eval.append(len(calls))
            return rank_metrics(score_rows, rankings)

        rank_metrics = trainers.rank_metrics
        monkeypatch.setattr(diffsort, "ranking_loss", counted)
        monkeypatch.setattr(trainers, "rank_metrics", metrics)
        trainers.run_experiment(cfg)
        # central differences probe each of the n coordinates up and down
        per_step = cfg.batch * (2 * cfg.n + 1 if mode == "nl_hessian" else 1)
        assert at_eval == [step * per_step for step in range(cfg.steps + 1)]
        assert calls == [(cfg.n,)] * (cfg.steps * per_step)


class TestPathOutputGrads:
    @staticmethod
    def _setup(method, mode, grid=3, batch=4, samples=6):
        cfg = _quick_cfg(
            task="path", method=method, mode=mode, grid=grid, batch=batch, samples=samples
        )
        masks = datagen.gen_grid_data(2, cfg.grid, cfg.batch).labels
        y = np.random.default_rng(2).normal(size=(cfg.batch, cfg.grid**2))
        return cfg, masks, y

    @pytest.mark.parametrize("method", trainers.PATH_METHODS)
    def test_rows_do_not_depend_on_mode(self, method):
        modes = [m for m in trainers.MODES if (method, m) != ("ss_algorithm", "nl_hessian")]
        rows = []
        for mode in modes:
            cfg, masks, y = self._setup(method, mode)
            rows.append(trainers.output_grads(cfg, y, masks, 3)[0])
        for other in rows[1:]:
            assert np.array_equal(rows[0], other)

    @pytest.mark.parametrize(
        "method,mode",
        [(method, mode) for method in trainers.PATH_METHODS
         for mode in trainers.method_modes(method)],
    )
    def test_one_solve_per_draw_and_one_at_the_row(self, method, mode, monkeypatch):
        # every solve goes through the module attribute with one GridInstance,
        # which is what stepbench's per-call solver count and grid keys rely on
        twice = (method, mode) == ("ss_loss", "nl_hessian")
        # that case runs at stepbench's path-hessian shape: 4x4, batch 20, 10 draws
        cfg, masks, y = self._setup(method, mode, 4, 20, 10) if twice else self._setup(method, mode)
        solve, calls = shortest_path.dijkstra_grid, []
        best_path, runs = shortest_path._best_path, []

        def counted(inst):
            calls.append(inst)
            return solve(inst)

        def counted_run(cost, h, w):
            runs.append(cost)
            return best_path(cost, h, w)

        monkeypatch.setattr(shortest_path, "dijkstra_grid", counted)
        monkeypatch.setattr(shortest_path, "_best_path", counted_run)
        shortest_path._solved.cache_clear()
        trainers.output_grads(cfg, y, masks, 1)
        # ss_loss nl_hessian smooths the gradient and the Hessian separately,
        # on the same draws: its second pass repeats the first pass's grids,
        # and the memo behind dijkstra_grid solves each distinct grid once
        grids = cfg.batch * (cfg.samples + 1)
        assert len(calls) == grids * (2 if twice else 1)
        assert len(runs) == len({inst.node_costs.tobytes() for inst in calls}) == grids
        if twice:
            assert (len(calls), len(runs)) == (440, 220)
        for inst in calls:
            assert isinstance(inst, shortest_path.GridInstance)
            assert inst.node_costs.dtype == np.float64
            assert inst.node_costs.shape == (cfg.grid, cfg.grid)

    @pytest.mark.parametrize(
        "method,mode,estimates",
        [
            ("ss_loss", "nl_hessian", 2),
            ("ss_algorithm", "baseline", 1),
            ("fy", "nl_hessian", 1),
            ("fy", "baseline", 1),
        ],
    )
    def test_one_stacked_call_per_estimate(self, method, mode, estimates, monkeypatch):
        # at stepbench's path-hessian shape (4x4, batch 20, 10 draws) each
        # estimate evaluates its black box once for the whole batch: every
        # row's draws and, last in its block, the row itself for the
        # baseline, 20 x 11 points; fy takes its gradient from the smoothed
        # argmax in every mode, so it probes the point too
        cfg, masks, y = self._setup(method, mode, 4, 20, 10)
        stacks = []

        class Counted(smoothing.Stacked):
            def __init__(self, f):
                super().__init__(lambda p: (stacks.append(p.shape), f(p))[1])

        monkeypatch.setattr(smoothing, "Stacked", Counted)
        trainers.output_grads(cfg, y, masks, 1)
        assert stacks == [(220, 16)] * estimates

    @staticmethod
    def _per_row_reference(cfg, y, masks, step):
        """output_grads built a row at a time from per-point estimates of
        per-point black boxes, the curvature summed as hess += h_j, hess /= n."""
        (n, m), size = y.shape, cfg.grid
        rows, hess = np.empty_like(y), np.zeros((m, m))

        def mask_of(costs):
            grid = shortest_path.GridInstance(costs.reshape(size, size))
            return shortest_path.dijkstra_grid(grid).ravel()

        for j, mask in enumerate(masks.reshape(n, m)):
            seed = trainers._sub_seed(cfg.seed, trainers._PATH_SEED_TAGS[cfg.method], step, j)
            scfg = smoothing.SmoothingConfig(sigma=cfg.sigma, samples=cfg.samples, seed=seed)
            if cfg.method == "ss_loss":
                hamming = lambda u: np.count_nonzero(mask_of(datagen.costs_from_raw(u)) != mask)
                rows[j] = smoothing.smooth_grad(hamming, y[j], scfg)
                hess += smoothing.smooth_hessian(hamming, y[j], scfg)
            elif cfg.method == "ss_algorithm":
                solver = lambda u: mask_of(datagen.costs_from_raw(u))
                mean, jac = smoothing.smooth_jacobian(solver, y[j], scfg)
                rows[j] = jac.T @ (mean - mask)
            else:
                argmax = lambda s: mask_of(np.maximum(-s, trainers.ARGMAX_COST_FLOOR))
                scores = -datagen.costs_from_raw(y[j])
                mean, jac = smoothing.smooth_jacobian(argmax, scores, scfg)
                sig = diffsort.expit(y[j])
                slope, curv, g_scores = -sig, sig * (1.0 - sig), mean - mask
                rows[j] = g_scores * slope
                h_j = (slope[:, None] * jac) * slope[None, :] - np.diag(g_scores * curv)
                hess += 0.5 * (h_j + h_j.T)
        hess /= n
        return rows, hess if cfg.mode == "nl_hessian" else None

    @pytest.mark.parametrize(
        "method,mode",
        [(method, mode) for method in trainers.PATH_METHODS
         for mode in trainers.method_modes(method)],
    )
    def test_the_batch_gives_the_per_row_estimates_bit_for_bit(self, method, mode):
        # at stepbench's path-hessian shape: each row's gradient, and the
        # batch Hessian with the sign of every zero, as the per-row loop gave
        cfg, masks, y = self._setup(method, mode, 4, 20, 10)
        for step in (1, 2):
            rows, hess = trainers.output_grads(cfg, y, masks, step)
            want_rows, want_hess = self._per_row_reference(cfg, y, masks, step)
            assert rows.tobytes() == want_rows.tobytes()
            if mode == "nl_hessian":
                assert hess.tobytes() == want_hess.tobytes()
            else:
                assert hess is None is want_hess

    def test_the_batch_hessian_is_summed_from_positive_zero(self, monkeypatch):
        # hess += h_j from np.zeros gave +0.0 where every row's entry is -0.0
        cfg, masks, y = self._setup("ss_loss", "nl_hessian")
        m = y.shape[1]
        monkeypatch.setattr(
            smoothing, "smooth_hessian", lambda f, y, cfgs: np.full((len(y), m, m), -0.0)
        )
        hess = trainers.output_grads(cfg, y, masks, 1)[1]
        assert hess.tobytes() == np.zeros((m, m)).tobytes()

    def test_one_draw_block_per_row(self, monkeypatch):
        # at stepbench's path-hessian shape the gradient and the Hessian
        # estimates of a row share its draws, so each row re-keys the one
        # generator once, to a key of its own
        cfg, masks, y = self._setup("ss_loss", "nl_hessian", 4, 20, 10)
        keys = []

        class Recorded:
            def __init__(self, philox):
                self.philox = philox

            @property
            def state(self):
                return self.philox.state

            @state.setter
            def state(self, state):
                keys.append(tuple(int(k) for k in state["state"]["key"]))
                self.philox.state = state

        monkeypatch.setattr(smoothing, "_PHILOX", Recorded(smoothing._PHILOX))
        smoothing._draws.cache_clear()
        trainers.output_grads(cfg, y, masks, 1)
        assert len(keys) == len(set(keys)) == smoothing._draws.cache_info().misses == 20


    def test_fy_rows_are_the_smoothed_argmax_less_the_mask_in_every_mode(self):
        # one batch and step: the same bits in baseline, nl_fisher and
        # nl_hessian, and those of the estimate built by hand from each row's
        # draws, one dijkstra_grid solve per draw of the floored costs
        cfg, masks, y = self._setup("fy", "baseline")
        size, (n, m) = cfg.grid, y.shape
        want = np.empty_like(y)
        for j in range(n):
            seed = trainers._sub_seed(cfg.seed, trainers._PATH_SEED_TAGS["fy"], 3, j)
            scfg = smoothing.SmoothingConfig(sigma=cfg.sigma, samples=cfg.samples, seed=seed)
            scores = -datagen.costs_from_raw(y[j]) + smoothing._draws(scfg, m)
            costs = np.maximum(-scores, trainers.ARGMAX_COST_FLOOR).reshape(-1, size, size)
            solved = [shortest_path.dijkstra_grid(shortest_path.GridInstance(c))
                      for c in costs]
            mean = np.add.reduce(np.array(solved).reshape(-1, m)) / cfg.samples
            want[j] = (mean - masks[j].ravel()) * -diffsort.expit(y[j])
        for mode in trainers.method_modes("fy"):
            cfg, masks, y = self._setup("fy", mode)
            assert trainers.output_grads(cfg, y, masks, 3)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_a_non_finite_perturbed_fy_score_is_a_numeric_failure(self, bad, monkeypatch, capsys):
        # floored, a score of +inf would give a finite cost: it is named first
        monkeypatch.setattr(smoothing, "_draws", lambda cfg, m: np.full((cfg.samples, m), bad))
        cfg, masks, y = self._setup("fy", "baseline")
        message = f"scores must be finite, got {bad}"
        with pytest.raises(NonFiniteResult, match=f"^{message}$"):
            trainers.output_grads(cfg, y, masks, 1)
        argv = ["bench", "path", "--method", "fy", "--mode", "baseline", "--grid", "2",
                "--steps", "1", "--batch", "2", "--samples", "2"]
        assert cli.main(argv) == 3
        where = "baseline seed 0 step 1, loss+gradient"
        assert capsys.readouterr().err == f"numeric failure: {where}: {message}\n"


class TestFyArgmax:
    """fy's argmax box: the flat best-path masks of a score stack, its scores
    negated back into costs and floored at ARGMAX_COST_FLOOR."""

    def test_uniform_costs_any_shortest_is_argmax(self):
        (w,) = trainers._floored_argmax(np.full((1, 9), -0.7), 3)
        assert w.sum() == 5  # a shortest path visits h + w - 1 cells
        assert shortest_path.path_mask_is_valid(w.reshape(3, 3).astype(np.int64))

    def test_hand_case_picks_cheap_path(self):
        w = trainers._floored_argmax(-np.array([[1.0, 10.0, 1.0, 1.0]]), 2)
        np.testing.assert_array_equal(w.reshape(2, 2), [[1, 0], [1, 1]])

    def test_a_stack_gives_dijkstra_grid_masks(self):
        costs = np.random.default_rng(6).uniform(0.1, 2.0, (30, 4, 4))
        got = trainers._floored_argmax(-costs.reshape(30, 16), 4)
        for w, c in zip(got, costs):
            want = shortest_path.dijkstra_grid(shortest_path.GridInstance(c))
            assert w.tobytes() == want.ravel().tobytes()

    def test_positive_scores_are_floored_costs(self):
        # the implied cost -5 is floored to 1e-9, so the path takes that cell
        assert trainers.ARGMAX_COST_FLOOR == 1e-9
        w = trainers._floored_argmax(np.array([[-1.0, 5.0, -1.0, -1.0]]), 2)
        np.testing.assert_array_equal(w.reshape(2, 2), [[1, 1], [0, 1]])

    def test_a_non_finite_score_is_named(self):
        with pytest.raises(NonFiniteResult, match="^scores must be finite, got nan$"):
            trainers._floored_argmax(np.array([[-1.0, np.nan, -1.0, -1.0]]), 2)


_SEED_PARTS = (0, 1, 2**32 - 1, 2**32, 2**64, 2**100)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_sub_seed_is_seed_sequences_first_word(length):
    # the packed words give the state numpy derives from the tuple itself
    rng = np.random.default_rng(length)
    tuples = [tuple(rng.choice(_SEED_PARTS, length)) for _ in range(60)]
    if length <= 2:
        tuples += list(itertools.product(_SEED_PARTS, repeat=length))
    tuples.append(tuple(int(p) for p in rng.integers(0, 2**63, length)))
    tuples.append((np.uint64(2**63 + 5),) * length)
    for parts in tuples:
        want = np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0]
        assert trainers._sub_seed(*parts) == want, parts


def test_sub_seed_rejects_a_negative_part():
    with pytest.raises(ValueError, match="non-negative"):
        trainers._sub_seed(0, -1)


class TestRankOutputGrads:
    @staticmethod
    def _setup(method, mode):
        cfg = _quick_cfg(method=method, mode=mode, n=4, batch=5)
        rankings = datagen.gen_ranking_data(2, cfg.n, cfg.batch).labels
        y = np.random.default_rng(2).normal(size=(cfg.batch, cfg.n))
        return cfg, rankings, y

    @pytest.mark.parametrize("method", trainers.RANK_METHODS)
    def test_rows_do_not_depend_on_mode(self, method):
        # nl_hessian reads its rows off the stacked finite-difference probe,
        # so a stack that paired rows with the wrong rankings would show here
        rows = []
        for mode in trainers.MODES:
            cfg, rankings, y = self._setup(method, mode)
            rows.append(trainers.output_grads(cfg, y, rankings, 3)[0])
        for other in rows[1:]:
            assert np.array_equal(rows[0], other)

    @pytest.mark.parametrize("method", trainers.RANK_METHODS)
    @pytest.mark.parametrize("mode", trainers.MODES)
    def test_one_loss_call_per_row_and_per_difference(self, method, mode, monkeypatch):
        cfg, rankings, y = self._setup(method, mode)
        loss, calls = diffsort.ranking_loss, []

        def counted(row, truth, scfg):
            calls.append(row)
            return loss(row, truth, scfg)

        monkeypatch.setattr(diffsort, "ranking_loss", counted)
        trainers.output_grads(cfg, y, rankings, 1)
        # nl_hessian adds central differences: two shifted batches per output coordinate
        per_row = 2 * cfg.n + 1 if mode == "nl_hessian" else 1
        assert len(calls) == cfg.batch * per_row


class TestRunExperiments:
    def test_same_cfg_twice_byte_identical(self):
        cfg = _quick_cfg(mode="nl_fisher", seed=5)
        first = trainers.run_experiment(cfg)
        second = trainers.run_experiment(cfg)
        assert first.curve == second.curve
        assert first.final == second.final
        doc_a = report.build_report("rank", first.config, {"nl_fisher": (cfg.lam, [first])})
        doc_b = report.build_report("rank", second.config, {"nl_fisher": (cfg.lam, [second])})
        assert report.render_json(doc_a) == report.render_json(doc_b)

    def test_path_run_deterministic(self):
        cfg = trainers.ExperimentConfig(
            task="path",
            method="ss_loss",
            mode="nl_fisher",
            steps=10,
            batch=6,
            grid=2,
            samples=5,
        )
        a = trainers.run_experiment(cfg)
        b = trainers.run_experiment(cfg)
        assert a.curve == b.curve

    def test_report_invariants(self):
        cfg = _quick_cfg(seed=1, steps=30)
        rep = trainers.run_experiment(cfg)
        steps = [point["step"] for point in rep.curve]
        assert steps[0] == 0
        assert steps == sorted(steps) and len(set(steps)) == len(steps)
        assert steps[-1] == cfg.steps
        for point in rep.curve:
            for key, val in point.items():
                if key != "step":
                    assert 0.0 <= val <= 100.0
        assert rep.final == {k: v for k, v in rep.curve[-1].items() if k != "step"}

    def test_all_path_methods_run(self):
        for method in trainers.PATH_METHODS:
            cfg = trainers.ExperimentConfig(
                task="path",
                method=method,
                mode="nl_fisher",
                steps=4,
                batch=4,
                grid=2,
                samples=4,
            )
            rep = trainers.run_experiment(cfg)
            assert "perfect_match" in rep.final

    def test_rank_n2_converges(self):
        cfg = trainers.ExperimentConfig(
            task="rank", method="neuralsort", steps=500, batch=20, n=2
        )
        rep = trainers.run_experiment(cfg)
        assert rep.final["exact_match"] >= 99.0


def _ablate(argv, monkeypatch, tmp_path):
    """Run `ablate lambda` with argv; return (the TrainReports of its runs in
    run order, its TSV columns by header name)."""
    reports = []
    real = trainers.run_experiment

    def recorded(cfg):
        reports.append(real(cfg))
        return reports[-1]

    monkeypatch.setattr(trainers, "run_experiment", recorded)
    out = tmp_path / "ablate.tsv"
    assert cli.main(["ablate", "lambda", *argv, "--out", str(out)]) == 0
    header, *rows = [ln.split("\t") for ln in out.read_text().splitlines()]
    return reports, {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}


QUICK_ABLATE = ["--steps", "25", "--batch", "8", "--n", "3"]


class TestAblation:
    def test_length_one_grid_equals_single_runs(self, monkeypatch, tmp_path):
        reports, columns = _ablate(
            ["--lambdas", "0.5", "--seed", "2", *QUICK_ABLATE], monkeypatch, tmp_path
        )
        monkeypatch.undo()
        assert len(reports) == 3
        lone_h = trainers.run_experiment(
            _quick_cfg(seed=2, steps=25, mode="nl_hessian", lam=0.5)
        )
        lone_f = trainers.run_experiment(
            _quick_cfg(seed=2, steps=25, mode="nl_fisher", lam=0.5)
        )
        assert reports[1].curve == lone_h.curve
        assert reports[2].curve == lone_f.curve
        # the TSV prints each final in report.FLOAT_FMT
        assert columns["nl_hessian"] == [float(report.fmt(lone_h.final["element_rank"]))]
        assert columns["nl_fisher"] == [float(report.fmt(lone_f.final["element_rank"]))]

    def test_rejects_bad_grids(self, monkeypatch, capsys):
        monkeypatch.setattr(trainers, "run_experiment", None)  # no run may start
        for grid, message in [
            ("", "lambda grid must be nonempty"),
            ("1,0.5", "lambda grid must be ascending"),
            ("-1,1", "--lambdas entry must be a finite real number > 0, got -1.0"),
        ]:
            assert cli.main(["ablate", "lambda", f"--lambdas={grid}", *QUICK_ABLATE]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"

    def test_largest_lambda_approaches_baseline(self, monkeypatch, tmp_path):
        # at the top of the swept range the Newton modes should sit inside
        # the baseline's own seed spread; spread floor frozen after a
        # three-seed calibration run
        argv = ["--lambdas", "1,1000", "--seed", "0", "--n", "5", "--steps", "100"]
        _, columns = _ablate(argv + ["--batch", "20"], monkeypatch, tmp_path)
        finals = []
        for seed in (0, 1, 2):
            rep = trainers.run_experiment(
                _quick_cfg(seed=seed, n=5, steps=100, batch=20)
            )
            finals.append(rep.final["element_rank"])
        spread = max(max(finals) - min(finals), 5.0)
        center = np.mean(finals)
        for mode in ("nl_hessian", "nl_fisher"):
            assert abs(columns[mode][-1] - center) <= spread


# the JSON Schema of version-1 reports: an independent reference for
# report.validate_report, which the package checks without it
REPORT_SCHEMA = json.loads(pathlib.Path(__file__).with_name("report_schema.json").read_text())
DROP = object()
MODE = ("modes", "baseline")
RUN = MODE + ("seeds", 0)
POINT = RUN + ("curve", 1)
# name: (path into a real report, new value, DROP, or a function of the old value)
OFF_LAYOUT = {
    "not-an-object": ((), []),
    "missing-top-key": (("kind",), DROP),
    "extra-top-key": (("wall_clock",), 1.0),
    "version-2": (("schema_version",), 2),
    "version-true": (("schema_version",), True),
    "unknown-kind": (("kind",), "sort"),
    "config-not-object": (("config",), []),
    "unknown-task": (("config", "task"), "sort"),
    "method-not-string": (("config", "method"), 3),
    "missing-hash": (("config", "hash"), DROP),
    "hash-63-digits": (("config", "hash"), lambda h: h[:-1]),
    "hash-uppercase": (("config", "hash"), str.upper),
    "empty-modes": (("modes",), {}),
    "unknown-mode": (("modes",), lambda m: {**m, "newton": m["baseline"]}),
    "mode-extra-key": (MODE + ("note",), 0),
    "mode-missing-key": (MODE + ("final_std",), DROP),
    "lam-negative": (MODE + ("lam",), -1),
    "lam-string": (MODE + ("lam",), "0"),
    "lam-bool": (MODE + ("lam",), False),
    "empty-seeds": (MODE + ("seeds",), []),
    "run-extra-key": (RUN + ("wall_clock",), 1.0),
    "run-missing-final": (RUN + ("final",), DROP),
    "seed-negative": (RUN + ("seed",), -1),
    "seed-bool": (RUN + ("seed",), True),
    "seed-fraction": (RUN + ("seed",), 1.5),
    "empty-curve": (RUN + ("curve",), []),
    "point-without-step": (POINT + ("step",), DROP),
    "step-negative": (POINT + ("step",), -1),
    "step-fraction": (POINT + ("step",), 0.5),
    "metric-over-100": (POINT + ("element_rank",), 101),
    "metric-negative": (POINT + ("element_rank",), -0.5),
    "metric-string": (POINT + ("element_rank",), "50"),
    "empty-final": (RUN + ("final",), {}),
    "final-over-100": (RUN + ("final", "element_rank"), 100.5),
    "empty-final-mean": (MODE + ("final_mean",), {}),
    "final-std-negative": (MODE + ("final_std", "element_rank"), -0.1),
    "final-std-string": (MODE + ("final_std", "element_rank"), "0"),
}
LAWFUL = {
    "version-float": (("schema_version",), 1.0),
    "extra-config-key": (("config", "note"), "x"),
    "three-modes": (("modes",), lambda m: {k: m["baseline"] for k in trainers.MODES}),
    "lam-int": (MODE + ("lam",), 0),
    "seed-whole-float": (RUN + ("seed",), 1.0),
    "step-whole-float": (POINT + ("step",), 1.0),
    "point-without-metrics": (POINT, {"step": 1}),
    "int-metrics": (RUN + ("final",), {"element_rank": 50, "exact_match": 0}),
    "empty-final-std": (MODE + ("final_std",), {}),
}
# the only reports validate_report rejects and the schema lets through: its
# minimum/maximum comparisons pass NaN, and its pattern's `$` matches before
# a trailing newline
STRICTER = {
    "nan-metric": (POINT + ("element_rank",), float("nan")),
    "nan-final-std": (MODE + ("final_std", "element_rank"), float("nan")),
    "hash-newline": (("config", "hash"), lambda h: h + "\n"),
}


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
    return doc


def _schema_accepts(doc):
    try:
        jsonschema.validate(instance=doc, schema=REPORT_SCHEMA)
    except jsonschema.ValidationError:
        return False
    return True


def _package_accepts(doc):
    try:
        report.validate_report(doc)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def real_report():
    """A two-seed report as a file holds it."""
    runs = [trainers.run_experiment(_quick_cfg(seed=s, steps=20)) for s in (4, 5)]
    doc = report.build_report("rank", runs[0].config, {"baseline": (0.0, runs)})
    return json.loads(report.render_json(doc))


class TestReportDocument:
    @pytest.mark.parametrize("name", sorted(OFF_LAYOUT))
    def test_off_layout_reports_fail_both_checks(self, name, real_report):
        doc = _mutated(real_report, *OFF_LAYOUT[name])
        assert json.dumps(doc, sort_keys=True) != json.dumps(real_report, sort_keys=True)
        with pytest.raises(ValueError, match="invalid report"):
            report.validate_report(doc)
        assert not _schema_accepts(doc)

    @pytest.mark.parametrize("name", sorted(LAWFUL))
    def test_lawful_variants_pass_both_checks(self, name, real_report):
        doc = _mutated(real_report, *LAWFUL[name])
        assert _package_accepts(doc) and _schema_accepts(doc)

    @pytest.mark.parametrize("name", sorted(STRICTER))
    def test_stricter_than_the_schema_only_on_nan_and_hash_newline(self, name, real_report):
        doc = _mutated(real_report, *STRICTER[name])
        assert not _package_accepts(doc) and _schema_accepts(doc)

    def _runs(self):
        runs = [
            trainers.run_experiment(_quick_cfg(seed=s, steps=20))
            for s in (4, 5)
        ]
        return runs[0].config, runs

    def test_report_validates_against_schema(self, real_report):
        assert _package_accepts(real_report) and _schema_accepts(real_report)

    def test_hash_ignores_output_knobs(self):
        echo, _ = self._runs()
        assert report.config_hash(echo) == report.config_hash(
            {**echo, "out": "x.json", "format": "tsv"}
        )
        assert report.config_hash(echo) != report.config_hash({**echo, "seed": 99})

    def test_rerun_returns_equal_report(self):
        # a TrainReport is a pure function of its config: it holds no timing
        cfg = _quick_cfg(seed=4, steps=20)
        assert trainers.run_experiment(cfg) == trainers.run_experiment(cfg)

    def test_final_is_the_last_curve_point_without_its_step(self):
        curve = [{"step": 0, "m": 1.0, "k": 2.0}, {"step": 9, "m": 3.0, "k": 4.0}]
        assert report.TrainReport(config={}, curve=curve).final == {"m": 3.0, "k": 4.0}
        with pytest.raises(TypeError):
            report.TrainReport(config={}, curve=curve, final={"m": 3.0})

    def test_aggregate_mean_and_std(self):
        runs = [
            report.TrainReport(config={"seed": 0}, curve=[{"step": 5, "m": 10.0}]),
            report.TrainReport(config={"seed": 1}, curve=[{"step": 5, "m": 20.0}]),
        ]
        mean, std = runs and report.aggregate_finals(runs)
        assert mean["m"] == 15.0
        assert std["m"] == pytest.approx(np.std([10.0, 20.0], ddof=1))
        mean1, std1 = report.aggregate_finals(runs[:1])
        assert (mean1["m"], std1["m"]) == (10.0, 0.0)

    def test_tsv_layout(self):
        echo, runs = self._runs()
        doc = report.build_report("rank", echo, {"baseline": (0.0, runs)})
        lines = report.render_tsv(doc).strip().split("\n")
        header = lines[0].split("\t")
        assert header == ["mode", "seed", "step", "element_rank", "exact_match"]
        body = [ln.split("\t") for ln in lines[1:]]
        assert len(body) == sum(len(r.curve) for r in runs)
        for row in body:
            assert row[0] == "baseline"
            float(row[3]), float(row[4])  # parse with '.' decimals

    def test_ablation_tsv_lambda_column_verbatim(self):
        lambdas = [0.001, 0.1, 10.0, 1000.0]
        text = report.ablation_tsv(
            lambdas,
            {"baseline": [80.0] * 4, "nl_hessian": [81.0, 82.0, 83.0, 80.5]},
        )
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == ["lambda", "baseline", "nl_hessian"]
        got = [float(ln.split("\t")[0]) for ln in lines[1:]]
        assert got == lambdas
        assert [ln.split("\t")[1] for ln in lines[1:]] == ["80"] * 4

    def test_render_json_stable(self):
        echo, runs = self._runs()
        doc = report.build_report("rank", echo, {"baseline": (0.0, runs)})
        text = report.render_json(doc)
        assert text.endswith("\n")
        assert json.loads(text) == doc


class TestGradientSlice:
    @staticmethod
    def stub(monkeypatch, grad):
        """Route the slice's ranking loss to a stub gradient of y."""
        monkeypatch.setattr(diffsort, "ranking_loss", lambda y, truth, cfg: (0.0, grad(y)))

    def test_constant_stub_all_zero(self, monkeypatch):
        self.stub(monkeypatch, np.zeros_like)
        table = slices.gradient_slice("neuralsort", np.zeros(4), 1, -2, 2, 9)
        assert table.shape == (9, 5)
        assert np.all(table[:, 1:] == 0.0)

    def test_mse_stub_slope_one_through_target(self, monkeypatch):
        target = np.array([0.3, -0.7, 1.1])
        self.stub(monkeypatch, lambda y: y - target)
        table = slices.gradient_slice("neuralsort", target.copy(), 1, -1.7, 0.3, 21)
        col = table[:, 2]
        np.testing.assert_allclose(
            np.diff(col) / np.diff(table[:, 0]), 1.0, atol=1e-12
        )
        assert col[10] == 0.0  # grid midpoint sits exactly at the target
        assert np.all(table[:, [1, 3]] == 0.0)

    def test_rows_are_the_ranking_loss_gradient_toward_descending_order(self):
        base = np.array([0.5, 2.0, -1.0])
        table = slices.gradient_slice("softsort", base, 0, -1.0, 1.0, 3, tau=0.5)
        scfg = diffsort.SortConfig(method="softsort", tau=0.5)
        truth = diffsort.GroundTruthRanking((0, 1, 2))
        for t, row in zip((-1.0, 0.0, 1.0), table):
            y = np.array([t, 2.0, -1.0])
            want = [t, *diffsort.ranking_loss(y, truth, scfg)[1]]
            assert row.tobytes() == np.array(want).tobytes()

    def test_fisher_injection_bounds_exploding_gradient(self):
        # sharp temperature makes the raw gradient spike along the sweep;
        # the single-sample Fisher transform must not spike higher
        base = np.array([8.0, 4.0, 0.0, -4.0, -8.0])
        raw = slices.gradient_slice("neuralsort", base, 2, -40, 40, 161, tau=0.05)
        raw_max = np.max(np.abs(raw[:, 1:]))
        assert raw_max >= 2.0
        for lam in (1.0, 0.1, 0.01):
            inj = slices.gradient_slice(
                "neuralsort", base, 2, -40, 40, 161, tau=0.05, fisher_lambda=lam
            )
            assert np.max(np.abs(inj[:, 1:])) <= raw_max

    def test_slice_tsv_layout(self, monkeypatch):
        self.stub(monkeypatch, np.ones_like)
        table = slices.gradient_slice("neuralsort", np.zeros(2), 0, 0, 1, 3)
        lines = slices.slice_tsv(table, 0).strip().split("\n")
        assert lines[0].split("\t") == ["y0", "g0", "g1"]
        assert lines[2].split("\t") == ["0.5", "1", "1"]

    def test_rejects_bad_sweeps(self):
        with pytest.raises(ConfigError):
            slices.gradient_slice("neuralsort", np.zeros(3), 3, 0, 1, 5)
        with pytest.raises(ConfigError):
            slices.gradient_slice("neuralsort", np.zeros(3), 0, 1, 1, 5)
        with pytest.raises(ConfigError):
            slices.gradient_slice("neuralsort", np.zeros(3), 0, 0, 1, 1)
        with pytest.raises(ConfigError):
            slices.gradient_slice("neuralsort", np.zeros(3), 0, 0, 1, 5, fisher_lambda=0.0)

    def test_the_sort_setting_is_checked_before_the_sweep(self):
        # a bad tau is reported even when the coordinate is out of range too
        with pytest.raises(ConfigError, match="^tau must be"):
            slices.gradient_slice("softsort", np.zeros(3), 3, 0, 1, 5, tau=-1.0)


class TestChecks:
    def test_grad_check_passes(self):
        out = checks.check_grad(count=10)
        assert out["ok"]
        assert set(out["per_method"]) == set(trainers.RANK_METHODS)

    def test_lemma_check_passes(self):
        out = checks.check_lemmas()
        assert out["ok"]
        assert out["gd_deviation"] <= 1e-10
        assert out["newton_deviation"] <= 1e-6

    def test_oracle_check_passes(self, monkeypatch):
        out = checks.check_oracles(grids_per_size=20)
        assert out["ok"]
        assert out["grids"] == 60
        assert out["mask_mismatches"] == 0
        assert out["stack_mismatches"] == 0
        # a stacked solve that disagrees with dijkstra_grid fails the check;
        # each size's grids are solved as one stack
        stacked, calls = shortest_path.two_best_costs, []

        def flipped(costs):
            calls.append(len(costs))
            best, second, masks = stacked(costs)
            return best, second, 1 - masks

        monkeypatch.setattr(shortest_path, "two_best_costs", flipped)
        out = checks.check_oracles(grids_per_size=20)
        assert not out["ok"] and out["stack_mismatches"] == 60
        assert calls == [20, 20, 20]

    def test_enumerator_against_independent_oracle(self):
        rng = np.random.default_rng(17)
        paths = enumerate_paths(4, 4)
        grids = [rng.uniform(0.1, 2.0, size=(4, 4)) for _ in range(25)]
        for costs in grids + [np.ones((4, 4))]:
            inst = shortest_path.GridInstance(costs)
            best, mask, unique = shortest_path.brute_force_shortest(inst)
            path_costs = [sum(costs[c] for c in path) for path in paths]
            first = paths[path_costs.index(min(path_costs))]
            assert best == pytest.approx(min(path_costs), rel=1e-12)
            assert unique == (path_costs.count(min(path_costs)) == 1)
            np.testing.assert_array_equal(
                mask, [[int((i, j) in first) for j in range(4)] for i in range(4)]
            )
        assert not unique  # the uniform grid ties

"""Dataset generation, training loops, and report plumbing."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from newtonbench import diffsort, net, shortest_path
from newtonbench.bench import checks, datagen, report, slices, trainers
from newtonbench.errors import ConfigError

from oracles import enumerate_paths


def _quick_cfg(**over):
    base = dict(
        task="rank",
        method="neuralsort",
        steps=40,
        batch=8,
        n=3,
        train_count=24,
        eval_count=16,
    )
    base.update(over)
    return trainers.ExperimentConfig(**base)


class TestRankDatagen:
    def test_fixed_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        datagen.save_rank_dataset(datagen.gen_ranking_data(7, 4, 20), a)
        datagen.save_rank_dataset(datagen.gen_ranking_data(7, 4, 20), b)
        assert a.read_bytes() == b.read_bytes()

    def test_ranking_is_hard_rank_of_latents(self):
        ds = datagen.gen_ranking_data(3, 5, 30)
        for rec in ds.records:
            assert rec.ranking == diffsort.hard_rank(rec.latents).order

    def test_latent_oracle_scores_perfectly(self):
        # a readout that sees the true latents leaves no ranking errors
        ds = datagen.gen_ranking_data(11, 5, 40)
        rows = np.stack([rec.latents for rec in ds.records])
        metrics = trainers.rank_metrics(rows, ds.records)
        assert metrics["exact_match"] == 100.0
        assert metrics["element_rank"] == 100.0

    def test_latent_gap_enforced(self):
        for n in (2, 5, 10):
            ds = datagen.gen_ranking_data(5, n, 10)
            gap = datagen.min_latent_gap(n)
            for rec in ds.records:
                assert np.min(np.diff(np.sort(rec.latents))) >= gap

    def test_roundtrip_drops_diagnostics(self, tmp_path):
        path = tmp_path / "rank.jsonl"
        ds = datagen.gen_ranking_data(2, 3, 5, feature_dim=4)
        datagen.save_rank_dataset(ds, path)
        back = datagen.load_dataset(path)
        assert (back.n, back.feature_dim, back.seed) == (3, 4, 2)
        assert len(back.records) == 5
        for orig, rec in zip(ds.records, back.records):
            np.testing.assert_array_equal(rec.features, orig.features)
            assert rec.ranking == orig.ranking
            assert rec.latents is None

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            datagen.gen_ranking_data(0, 1, 10)
        with pytest.raises(ConfigError):
            datagen.gen_ranking_data(0, 3, 0)
        with pytest.raises(ConfigError):
            datagen.gen_ranking_data(0, 3, 10, feature_dim=0)


class TestGridDatagen:
    def test_fixed_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        datagen.save_grid_dataset(datagen.gen_grid_data(9, 3, 12), a)
        datagen.save_grid_dataset(datagen.gen_grid_data(9, 3, 12), b)
        assert a.read_bytes() == b.read_bytes()

    def test_mask_is_dijkstra_of_hidden_costs(self):
        ds = datagen.gen_grid_data(4, 4, 15)
        for rec in ds.records:
            inst = shortest_path.GridInstance(
                height=4, width=4, node_costs=rec.costs
            )
            np.testing.assert_array_equal(shortest_path.dijkstra_grid(inst), rec.mask)

    def test_cost_oracle_matches_perfectly(self):
        # feeding the exact hidden costs through the evaluation path
        # must reproduce every stored mask
        ds = datagen.gen_grid_data(6, 3, 20)
        rows = []
        for rec in ds.records:
            rows.append(np.log(np.expm1(rec.costs.ravel() - trainers.COST_FLOOR)))
        metrics = trainers.path_metrics(np.stack(rows), ds.records, 3)
        assert metrics["perfect_match"] == 100.0

    def test_margin_between_best_paths(self):
        ds = datagen.gen_grid_data(13, 3, 10)
        paths = enumerate_paths(3, 3)
        for rec in ds.records:
            ranked = sorted(sum(rec.costs[c] for c in path) for path in paths)
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
        datagen.save_grid_dataset(datagen.gen_grid_data(0, size, count), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        ds = datagen.gen_grid_data(1, 3, 4, feature_dim=5)
        datagen.save_grid_dataset(ds, path)
        back = datagen.load_dataset(path)
        assert (back.size, back.feature_dim, back.seed) == (3, 5, 1)
        for orig, rec in zip(ds.records, back.records):
            np.testing.assert_array_equal(rec.features, orig.features)
            np.testing.assert_array_equal(rec.mask, orig.mask)
            assert rec.costs is None


class TestMetrics:
    def test_rank_metrics_counts_by_hand(self):
        recs = [
            datagen.RankRecord(features=None, ranking=(0, 1, 2)),
            datagen.RankRecord(features=None, ranking=(0, 1, 2)),
        ]
        rows = np.array([[3.0, 2.0, 1.0], [2.0, 3.0, 1.0]])
        m = trainers.rank_metrics(rows, recs)
        assert m["exact_match"] == 50.0
        assert m["element_rank"] == pytest.approx(100.0 * 4 / 6)

    def test_path_metrics_counts_by_hand(self):
        cheap = np.full((2, 2), 0.2)
        cheap[0, 1] = 5.0
        inst = shortest_path.GridInstance(height=2, width=2, node_costs=cheap)
        mask = shortest_path.dijkstra_grid(inst)
        recs = [
            datagen.GridRecord(features=None, mask=mask),
            datagen.GridRecord(features=None, mask=1 - mask),
        ]
        raw = np.log(np.expm1(cheap.ravel() - trainers.COST_FLOOR))
        m = trainers.path_metrics(np.stack([raw, raw]), recs, 2)
        assert m["perfect_match"] == 50.0


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
            _quick_cfg(batch=100, train_count=10)
        with pytest.raises(ConfigError):
            _quick_cfg(mode="nl_hessian", lam=0.0)
        with pytest.raises(ConfigError):
            _quick_cfg(sigma=0.0)

    def test_preset_lambdas(self):
        assert trainers.lambda_preset("rank", "neuralsort", "baseline") == 0.0
        assert trainers.lambda_preset("rank", "neuralsort", "nl_hessian") == 0.01
        assert trainers.lambda_preset("rank", "softsort", "nl_hessian") == 10.0
        # longer rankings switch to a separate table
        assert trainers.lambda_preset("rank", "neuralsort", "nl_fisher", n=10) == 100.0
        assert trainers.lambda_preset("rank", "neuralsort", "nl_fisher", n=5) == 0.1
        assert trainers.lambda_preset("path", "ss_loss", "nl_hessian") == 1000.0
        assert trainers.lambda_preset("path", "ss_algorithm", "nl_fisher") == 1000.0


class TestLambdaLimit:
    def test_huge_lambda_keeps_gradient_direction(self):
        # with overwhelming damping both Newton modes shrink toward a
        # rescaled plain gradient, so first-step directions must agree
        cfg = _quick_cfg(seed=3)
        ds = datagen.gen_ranking_data(
            cfg.seed, cfg.n, cfg.train_count + cfg.eval_count, cfg.feature_dim
        )
        batch = ds.records[: cfg.batch]
        model = net.Mlp.init(
            [cfg.feature_dim, cfg.hidden, 1],
            ["tanh", "identity"],
            np.random.SeedSequence((cfg.seed, 201)),
        )
        out, tape = net.forward(model, np.concatenate([r.features for r in batch]))
        y = out.reshape(cfg.batch, -1)

        def update_direction(mode):
            run_cfg = _quick_cfg(seed=3, mode=mode, lam=1e8 if mode != "baseline" else None)
            grad_rows, curvature = trainers.output_grads(run_cfg, y, batch, 1)
            rows = trainers.output_rows(run_cfg, y, grad_rows, curvature)
            grads = net.backward(model, tape, rows.reshape(-1, 1))
            return net.flat_grads(grads)

        base = update_direction("baseline")
        for mode in ("nl_hessian", "nl_fisher"):
            vec = update_direction(mode)
            cos = vec @ base / (np.linalg.norm(vec) * np.linalg.norm(base))
            assert cos >= 0.999


class TestRunExperiments:
    def test_same_cfg_twice_byte_identical(self):
        cfg = _quick_cfg(mode="nl_fisher", seed=5)
        first = trainers.run_ranking_experiment(cfg)
        second = trainers.run_ranking_experiment(cfg)
        assert first.curve == second.curve
        assert first.final == second.final
        doc_a = report.build_report(
            "rank", trainers.config_echo(cfg), {"nl_fisher": (cfg.lam, [first])}
        )
        doc_b = report.build_report(
            "rank", trainers.config_echo(cfg), {"nl_fisher": (cfg.lam, [second])}
        )
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
            train_count=18,
            eval_count=12,
        )
        a = trainers.run_path_experiment(cfg)
        b = trainers.run_path_experiment(cfg)
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
                train_count=12,
                eval_count=8,
            )
            rep = trainers.run_path_experiment(cfg)
            assert "perfect_match" in rep.final

    def test_rank_n2_converges(self):
        cfg = trainers.ExperimentConfig(
            task="rank", method="neuralsort", steps=500, batch=20, n=2
        )
        rep = trainers.run_ranking_experiment(cfg)
        assert rep.final["exact_match"] >= 99.0


class TestAblation:
    def test_length_one_grid_equals_single_runs(self):
        cfg = _quick_cfg(seed=2, steps=25)
        reports, columns = trainers.ablate_lambda(cfg, [0.5])
        assert len(reports) == 3
        lone_h = trainers.run_ranking_experiment(
            _quick_cfg(seed=2, steps=25, mode="nl_hessian", lam=0.5)
        )
        lone_f = trainers.run_ranking_experiment(
            _quick_cfg(seed=2, steps=25, mode="nl_fisher", lam=0.5)
        )
        assert reports[1].curve == lone_h.curve
        assert reports[2].curve == lone_f.curve
        assert columns["nl_hessian"] == [lone_h.final["element_rank"]]
        assert columns["nl_fisher"] == [lone_f.final["element_rank"]]

    def test_rejects_bad_grids(self):
        cfg = _quick_cfg()
        with pytest.raises(ConfigError):
            trainers.ablate_lambda(cfg, [])
        with pytest.raises(ConfigError):
            trainers.ablate_lambda(cfg, [1.0, 0.5])
        with pytest.raises(ConfigError):
            trainers.ablate_lambda(cfg, [-1.0, 1.0])

    def test_largest_lambda_approaches_baseline(self):
        # at the top of the swept range the Newton modes should sit inside
        # the baseline's own seed spread; spread floor frozen after a
        # three-seed calibration run
        cfg = _quick_cfg(seed=0, n=5, steps=100, batch=20, train_count=96,
                         eval_count=64)
        _, columns = trainers.ablate_lambda(cfg, [1.0, 1000.0])
        finals = []
        for seed in (0, 1, 2):
            rep = trainers.run_ranking_experiment(
                _quick_cfg(seed=seed, n=5, steps=100, batch=20, train_count=96,
                           eval_count=64)
            )
            finals.append(rep.final["element_rank"])
        spread = max(max(finals) - min(finals), 5.0)
        center = np.mean(finals)
        for mode in ("nl_hessian", "nl_fisher"):
            assert abs(columns[mode][-1] - center) <= spread


class TestReportDocument:
    def _runs(self):
        cfg = _quick_cfg(seed=4, steps=20)
        echo = trainers.config_echo(cfg)
        runs = [
            trainers.run_ranking_experiment(_quick_cfg(seed=s, steps=20))
            for s in (4, 5)
        ]
        return echo, runs

    def test_report_validates_against_schema(self):
        echo, runs = self._runs()
        doc = report.build_report("rank", echo, {"baseline": (0.0, runs)})
        report.validate_report(doc)

    def test_hash_ignores_output_knobs(self):
        echo, _ = self._runs()
        assert report.config_hash(echo) == report.config_hash(
            {**echo, "out": "x.json", "format": "tsv"}
        )
        assert report.config_hash(echo) != report.config_hash({**echo, "seed": 99})

    def test_wall_clock_never_serialized(self):
        echo, runs = self._runs()
        for r in runs:
            r.wall_clock = 123.456
        doc = report.build_report("rank", echo, {"baseline": (0.0, runs)})
        assert "wall_clock" not in report.render_json(doc)

    def test_aggregate_mean_and_std(self):
        runs = [
            report.TrainReport(config={}, seed=0, curve=[], final={"m": 10.0}),
            report.TrainReport(config={}, seed=1, curve=[], final={"m": 20.0}),
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
            {"baseline": 80.0, "nl_hessian": [81.0, 82.0, 83.0, 80.5]},
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
    def test_constant_stub_all_zero(self):
        table = slices.gradient_slice(
            lambda y: np.zeros_like(y), np.zeros(4), 1, -2, 2, 9
        )
        assert table.shape == (9, 5)
        assert np.all(table[:, 1:] == 0.0)

    def test_mse_stub_slope_one_through_target(self):
        target = np.array([0.3, -0.7, 1.1])
        table = slices.gradient_slice(
            lambda y: y - target, target.copy(), 1, -1.7, 0.3, 21
        )
        col = table[:, 2]
        np.testing.assert_allclose(
            np.diff(col) / np.diff(table[:, 0]), 1.0, atol=1e-12
        )
        assert col[10] == 0.0  # grid midpoint sits exactly at the target
        assert np.all(table[:, [1, 3]] == 0.0)

    def test_fisher_injection_bounds_exploding_gradient(self):
        # sharp temperature makes the raw gradient spike along the sweep;
        # the single-sample Fisher transform must not spike higher
        base = np.array([8.0, 4.0, 0.0, -4.0, -8.0])
        fn = slices.ranking_grad_fn("neuralsort", 5, tau=0.05)
        raw = slices.gradient_slice(fn, base, 2, -40, 40, 161)
        raw_max = np.max(np.abs(raw[:, 1:]))
        assert raw_max >= 2.0
        for lam in (1.0, 0.1, 0.01):
            inj = slices.gradient_slice(fn, base, 2, -40, 40, 161, fisher_lambda=lam)
            assert np.max(np.abs(inj[:, 1:])) <= raw_max

    def test_slice_tsv_layout(self):
        table = slices.gradient_slice(
            lambda y: np.ones_like(y), np.zeros(2), 0, 0, 1, 3
        )
        lines = slices.slice_tsv(table, 0).strip().split("\n")
        assert lines[0].split("\t") == ["y0", "g0", "g1"]
        assert lines[2].split("\t") == ["0.5", "1", "1"]

    def test_rejects_bad_sweeps(self):
        with pytest.raises(ConfigError):
            slices.gradient_slice(lambda y: y, np.zeros(3), 3, 0, 1, 5)
        with pytest.raises(ConfigError):
            slices.gradient_slice(lambda y: y, np.zeros(3), 0, 1, 1, 5)
        with pytest.raises(ConfigError):
            slices.gradient_slice(lambda y: y, np.zeros(3), 0, 0, 1, 1)
        with pytest.raises(ConfigError):
            slices.gradient_slice(lambda y: y, np.zeros(3), 0, 0, 1, 5, fisher_lambda=0.0)


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

    def test_oracle_check_passes(self):
        out = checks.check_oracles(grids_per_size=20)
        assert out["ok"]
        assert out["grids"] == 60
        assert out["mask_mismatches"] == 0

    def test_enumerator_against_independent_oracle(self):
        rng = np.random.default_rng(17)
        paths = enumerate_paths(4, 4)
        grids = [rng.uniform(0.1, 2.0, size=(4, 4)) for _ in range(25)]
        for costs in grids + [np.ones((4, 4))]:
            inst = shortest_path.GridInstance(height=4, width=4, node_costs=costs)
            best, mask, unique = shortest_path.brute_force_shortest(inst)
            path_costs = [sum(costs[c] for c in path) for path in paths]
            first = paths[path_costs.index(min(path_costs))]
            assert best == pytest.approx(min(path_costs), rel=1e-12)
            assert unique == (path_costs.count(min(path_costs)) == 1)
            np.testing.assert_array_equal(
                mask, [[int((i, j) in first) for j in range(4)] for i in range(4)]
            )
        assert not unique  # the uniform grid ties

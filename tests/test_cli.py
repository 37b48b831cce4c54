"""Command-line behavior: outputs, determinism, exit codes."""

import json

import pytest

from newtonbench import errors
from newtonbench.bench import cli, datagen, report


def run_cli(args):
    return cli.main(list(args))


QUICK_RANK = [
    "bench",
    "rank",
    "--method",
    "neuralsort",
    "--steps",
    "10",
    "--batch",
    "6",
    "--n",
    "3",
]


class TestGen:
    def test_rank_roundtrip_and_determinism(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            code = run_cli(
                ["gen", "rank", "--n", "4", "--count", "12", "--seed", "3",
                 "--out", str(out)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        ds = datagen.load_dataset(a)
        assert isinstance(ds, datagen.RankDataset)
        assert len(ds.records) == 12

    def test_path_gen(self, tmp_path):
        out = tmp_path / "grid.jsonl"
        code = run_cli(
            ["gen", "path", "--grid", "3", "--count", "8", "--out", str(out)]
        )
        assert code == 0
        ds = datagen.load_dataset(out)
        assert isinstance(ds, datagen.GridDataset)
        assert ds.size == 3


class TestBench:
    def test_single_mode_json_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = QUICK_RANK + ["--mode", "nl_fisher", "--seed", "1"]
        for out in (a, b):
            assert run_cli(base + ["--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        report.validate_report(doc)
        assert sorted(doc["modes"]) == ["nl_fisher"]

    def test_default_runs_all_modes(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(QUICK_RANK + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc["modes"]) == ["baseline", "nl_fisher", "nl_hessian"]
        assert doc["config"]["lam"] == "preset"

    def test_ss_algorithm_skips_hessian_mode(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            [
                "bench", "path", "--method", "ss_algorithm",
                "--steps", "3", "--batch", "4", "--grid", "2", "--samples", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert sorted(doc["modes"]) == ["baseline", "nl_fisher"]

    def test_seed_fanout_aggregates(self, tmp_path):
        out = tmp_path / "r.json"
        args = QUICK_RANK + ["--mode", "baseline", "--seeds", "2", "--out", str(out)]
        assert run_cli(args) == 0
        doc = json.loads(out.read_text())
        entry = doc["modes"]["baseline"]
        assert [run["seed"] for run in entry["seeds"]] == [0, 1]
        assert set(entry["final_mean"]) == {"exact_match", "element_rank"}
        assert all(v >= 0.0 for v in entry["final_std"].values())
        assert doc["config"]["seeds"] == [0, 1]

    def test_tsv_format(self, capsys):
        assert run_cli(QUICK_RANK + ["--mode", "baseline", "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split("\t")[:3] == ["mode", "seed", "step"]
        assert all(ln.split("\t")[0] == "baseline" for ln in lines[1:])

    def test_dataset_reuse(self, tmp_path):
        ds = tmp_path / "ds.jsonl"
        assert run_cli(
            ["gen", "rank", "--n", "3", "--count", "30", "--seed", "7",
             "--out", str(ds)]
        ) == 0
        out = tmp_path / "r.json"
        args = QUICK_RANK + [
            "--mode", "baseline", "--data", str(ds), "--out", str(out)
        ]
        assert run_cli(args) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["data_path"] == str(ds)

    @pytest.mark.parametrize(
        "kind,stored,asked",
        [("rank", ["--n", "4"], ["--n", "7"]), ("path", ["--grid", "3"], ["--grid", "4"])],
    )
    def test_dataset_size_must_match(self, kind, stored, asked, tmp_path):
        ds = tmp_path / "ds.jsonl"
        assert run_cli(["gen", kind, *stored, "--count", "12", "--out", str(ds)]) == 0
        args = ["bench", kind, *asked, "--mode", "baseline", "--steps", "2",
                "--batch", "4", "--data", str(ds)]
        assert run_cli(args) == 2


class TestAblateCli:
    def test_lambda_column_verbatim(self, tmp_path):
        out = tmp_path / "ab.tsv"
        code = run_cli(
            [
                "ablate", "lambda", "--method", "neuralsort",
                "--lambdas", "0.5,2,8", "--steps", "8", "--batch", "6", "--n", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split("\t") == ["lambda", "baseline", "nl_fisher", "nl_hessian"]
        assert [float(ln.split("\t")[0]) for ln in lines[1:]] == [0.5, 2.0, 8.0]

    def test_rejects_descending_grid(self):
        code = run_cli(
            ["ablate", "lambda", "--lambdas", "3,1", "--steps", "5",
             "--batch", "4", "--n", "3"]
        )
        assert code == 2


class TestCheckCli:
    def test_all_checks_pass(self, capsys):
        assert run_cli(["check", "grad"]) == 0
        assert run_cli(["check", "lemmas"]) == 0
        assert run_cli(["check", "oracles", "--grids", "5"]) == 0
        assert "ok: True" in capsys.readouterr().out

    def test_zero_grids_is_2(self, capsys):
        assert run_cli(["check", "oracles", "--grids", "0"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


class TestSliceCli:
    def test_slice_table(self, tmp_path):
        out = tmp_path / "s.tsv"
        code = run_cli(
            ["slice", "grad", "--method", "dsn_logistic", "--coord", "2",
             "--n", "4", "--lo=-3", "--hi", "3", "--steps", "7",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split("\t") == ["y2", "g0", "g1", "g2", "g3"]
        assert len(lines) == 8

    def test_custom_base_with_injection(self, capsys):
        code = run_cli(
            ["slice", "grad", "--coord", "0", "--base", "3,0,-3",
             "--lo=-5", "--hi", "5", "--steps", "5", "--lambda", "1.0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6


class TestExitCodes:
    def test_config_error_is_2(self):
        code = run_cli(
            ["bench", "path", "--method", "ss_algorithm", "--mode", "nl_hessian",
             "--steps", "3", "--batch", "4", "--grid", "2"]
        )
        assert code == 2
        assert run_cli(QUICK_RANK + ["--batch", "9999"]) == 2
        assert run_cli(
            ["slice", "grad", "--coord", "9", "--n", "3", "--lo", "0",
             "--hi", "1", "--steps", "3"]
        ) == 2

    def test_argparse_rejects_unknown_choice(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "rank", "--method", "ss_loss"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["bench", "rank", "--mode", "nl_hessian", "--lambda", "nan"],
            ["bench", "rank", "--mode", "nl_fisher", "--lambda", "inf"],
            ["bench", "rank", "--mode", "baseline", "--lambda=-5"],
            ["bench", "rank", "--tau", "nan"],
            ["bench", "rank", "--method", "dsn_logistic", "--beta", "inf"],
            ["bench", "path", "--sigma", "nan"],
            ["bench", "rank", "--data", "no/such/dataset.jsonl"],
            ["ablate", "lambda", "--tau", "nan"],
        ],
    )
    def test_bad_values_exit_2_without_traceback(self, args, capsys):
        assert run_cli(args + ["--steps", "2", "--batch", "4"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "exc,code",
        [
            (errors.ConfigError, 2),
            (errors.ShapeMismatch, 2),
            (errors.MissingHessian, 2),
            (FileNotFoundError, 2),
            (errors.NonFiniteResult, 3),
            (errors.SingularMatrix, 3),
            (errors.SolverFailure, 3),
            (errors.TooLarge, 3),
        ],
    )
    def test_every_package_error_has_an_exit_code(self, exc, code, monkeypatch, capsys):
        def fail(seed):
            raise exc("boom")

        monkeypatch.setattr(cli.checks, "check_grad", fail)
        assert run_cli(["check", "grad"]) == code
        assert capsys.readouterr().err.strip().endswith("boom")

    def test_malformed_dataset_is_2(self, tmp_path, capsys):
        # rankings of length 2 in a file that declares n=3
        ds = tmp_path / "bad.jsonl"
        assert run_cli(
            ["gen", "rank", "--n", "3", "--count", "30", "--out", str(ds)]
        ) == 0
        lines = ds.read_text().splitlines()
        lines[1:] = [
            json.dumps({**json.loads(ln), "ranking": [0, 1]}) for ln in lines[1:]
        ]
        ds.write_text("\n".join(lines) + "\n")
        assert run_cli(QUICK_RANK + ["--mode", "baseline", "--data", str(ds)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--lambda", "nan"],
            ["--lambda", "inf"],
            ["--tau", "nan"],
            ["--method", "dsn_logistic", "--beta", "inf"],
            ["--n", "1"],
            ["--lo=-inf"],
            ["--hi", "nan"],
            ["--base", "nan,1,2"],
        ],
    )
    def test_bad_slice_values_exit_2(self, args, capsys):
        assert run_cli(["slice", "grad", "--coord", "0", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1

    def test_configs_checked_before_first_run(self, capsys):
        # lambda 0 suits baseline but not the Newton modes that follow it
        assert run_cli(QUICK_RANK + ["--lambda", "0"]) == 2
        assert capsys.readouterr().err == "config error: Newton modes need lam > 0\n"

    def test_negative_seed_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["check", "oracles", "--seed=-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "lines,lineno",
        [
            (["not json"], 1),
            ([json.dumps({"kind": "rank", "n": 3, "feature_dim": 6, "seed": 0}), "{"], 2),
            ([json.dumps({"kind": "rank", "n": 3, "feature_dim": 6, "seed": 0}),
              json.dumps({"features": [[0.0] * 6] * 3, "mask": [0, 1]})], 2),
            ([json.dumps({"kind": "path", "feature_dim": 6, "seed": 0})], 1),
        ],
        ids=["header-not-json", "record-not-json", "record-no-ranking", "header-no-size"],
    )
    def test_broken_dataset_line_is_2(self, lines, lineno, tmp_path, capsys):
        ds = tmp_path / "bad.jsonl"
        ds.write_text("\n".join(lines) + "\n")
        assert run_cli(QUICK_RANK + ["--mode", "baseline", "--data", str(ds)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {ds} line {lineno}: ")
        assert len(err.splitlines()) == 1

    def test_numeric_failure_is_3(self):
        # finite bounds whose sweep overflows the ranking loss
        code = run_cli(["slice", "grad", "--coord", "0", "--lo", "0.1", "--hi", "1e308"])
        assert code == 3

"""Command-line behavior: outputs, determinism, exit codes."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import newtonbench
from newtonbench import errors
from newtonbench.bench import cli, datagen, report, trainers


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
QUICK_PATH = ["bench", "path", "--method", "fy", "--steps", "2", "--batch", "1", "--grid", "3"]

RANK_HEADER = json.dumps({"kind": "rank", "n": 3, "feature_dim": 6, "seed": 0})
PATH_HEADER = json.dumps({"kind": "path", "size": 3, "feature_dim": 6, "seed": 0})
PATH_MASK = np.array([[1, 0, 0], [1, 0, 0], [1, 1, 1]])


def rank_line(ranking, rows=3):
    return json.dumps({"features": [[0.0] * 6] * rows, "ranking": ranking})


def path_line(mask):
    return json.dumps({"features": [[0.0] * 6] * 9, "mask": mask.tolist()})


# valid records that let a run train when the header is not checked
RANK_RECORDS = [rank_line([0, 1, 2])] * 12


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
        assert ds.kind == "rank"
        assert len(ds.features) == len(ds.labels) == 12

    def test_path_gen(self, tmp_path):
        out = tmp_path / "grid.jsonl"
        code = run_cli(
            ["gen", "path", "--grid", "3", "--count", "8", "--out", str(out)]
        )
        assert code == 0
        ds = datagen.load_dataset(out)
        assert ds.kind == "path"
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

    def test_empty_data_path_is_the_run_without_data(self, tmp_path):
        # --data "" generates the data, so it echoes and hashes as no --data
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["bench", "rank", "--n", "3", "--steps", "2", "--mode", "baseline"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--data", "", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dataset_reuse_echoes_the_data_the_run_used(self, tmp_path):
        ds = tmp_path / "ds.jsonl"
        gen = ["gen", "rank", "--n", "3", "--count", "40", "--feature-dim", "3"]
        assert run_cli(gen + ["--out", str(ds)]) == 0
        out = tmp_path / "r.json"
        args = QUICK_RANK + ["--mode", "baseline", "--data", str(ds), "--out", str(out)]
        assert run_cli(args) == 0
        config = json.loads(out.read_text())["config"]
        # the last third is held out: 13 of 40 records
        assert (config["feature_dim"], config["train_count"], config["eval_count"]) == (3, 27, 13)

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

    def test_dataset_batch_is_bounded_by_its_training_split(self, tmp_path, capsys):
        # 900 records hold out 128, so 772 train: a batch of 300 fits them,
        # though it exceeds the generated data's train_count of 256
        ds = tmp_path / "ds.jsonl"
        assert run_cli(["gen", "rank", "--n", "3", "--count", "900", "--out", str(ds)]) == 0
        args = ["bench", "rank", "--n", "3", "--mode", "baseline", "--steps", "2"]
        out = tmp_path / "r.json"
        assert run_cli(args + ["--batch", "300", "--data", str(ds), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["train_count"] == 772
        assert run_cli(args + ["--batch", "773", "--data", str(ds)]) == 2
        assert "dataset too small" in capsys.readouterr().err
        assert run_cli(args + ["--batch", "300"]) == 2
        assert "batch cannot exceed train_count" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "argv,started",
        [
            (["ablate", "lambda", "--lambdas", "0.5,5"],
             ["baseline lam=0.0", "nl_hessian lam=0.5"]),
            (["bench", "rank"], ["baseline seed=0", "nl_hessian seed=0"]),
        ],
        ids=["ablate", "bench"],
    )
    def test_progress_line_as_each_run_ends(self, argv, started, monkeypatch, capsys):
        # the third run fails: the two finished runs have printed their lines
        real, calls = trainers.run_experiment, []

        def third_fails(cfg):
            calls.append(cfg)
            if len(calls) == 3:
                raise errors.NonFiniteResult("third run diverged")
            return real(cfg)

        monkeypatch.setattr(trainers, "run_experiment", third_fails)
        assert run_cli(argv + ["--steps", "4", "--batch", "6", "--n", "3"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3 and lines[2] == "numeric failure: third run diverged"
        for line, head in zip(lines, started):
            line_format = rf"\[{re.escape(head)}\] final=\{{'exact_match': .+\}} \(\d+\.\ds\)"
            assert re.fullmatch(line_format, line)


class TestFailureLocation:
    """A numeric failure's one line names the run's mode, lambda (Newton
    modes), seed, step and phase; run_experiment raises the same class."""

    def test_a_singular_damped_solve_names_seed_step_and_phase(self, capsys):
        argv = ["bench", "path", "--method", "ss_loss", "--mode", "nl_hessian",
                "--lambda", "1", "--seeds", "3"]
        assert run_cli(argv) == 3
        line = (r"numeric failure: nl_hessian lam 1 seed 0 step 487, damped solve: "
                r"eigenvalue \S+ below 1e-12 \* max\|eigenvalue\| = \S+\n")
        assert re.fullmatch(line, capsys.readouterr().err)

    # (module, attribute, the call that raises, phase, step); call 1 of
    # _forward and rank_metrics is the step-0 evaluation
    PHASES = [
        (trainers, "_load_data", 1, "data", 0),
        (trainers, "_forward", 2, "forward", 1),
        (trainers, "output_grads", 2, "loss+gradient", 2),
        (trainers, "output_rows", 1, "damped solve", 1),
        (trainers.net, "backward", 3, "backward", 3),
        (trainers.net, "optimizer_step", 1, "optimizer", 1),
        (trainers, "rank_metrics", 1, "eval", 0),
        (trainers, "rank_metrics", 3, "eval", 2),
    ]

    @staticmethod
    def fail_on(monkeypatch, owner, name, call, exc):
        real, calls = getattr(owner, name), []

        def failing(*args):
            calls.append(args)
            if len(calls) == call:
                raise exc("boom")
            return real(*args)

        monkeypatch.setattr(owner, name, failing)

    @pytest.mark.parametrize("exc", [errors.NonFiniteResult, errors.SingularMatrix])
    @pytest.mark.parametrize(
        "owner,name,call,phase,step", PHASES,
        ids=[f"{phase}-step{step}" for *_, phase, step in PHASES],
    )
    def test_each_phase_is_named(self, owner, name, call, phase, step, exc, monkeypatch,
                                 capsys):
        argv = QUICK_RANK[:4] + ["--mode", "nl_fisher", "--lambda", "0.5", "--steps", "4",
                                 "--batch", "6", "--n", "3"]
        where = f"nl_fisher lam 0.5 seed 0 step {step}, {phase}"
        self.fail_on(monkeypatch, owner, name, call, exc)
        with pytest.raises(exc, match=f"^{re.escape(where)}: boom$"):
            trainers.run_experiment(trainers.ExperimentConfig(
                "rank", "neuralsort", "nl_fisher", lam=0.5, steps=4, batch=6, n=3))
        self.fail_on(monkeypatch, owner, name, call, exc)
        assert run_cli(argv) == 3
        assert capsys.readouterr().err == f"numeric failure: {where}: boom\n"

    def test_the_baseline_names_no_lambda_and_ablate_names_each(self, monkeypatch, capsys):
        self.fail_on(monkeypatch, trainers, "output_grads", 1, errors.NonFiniteResult)
        assert run_cli(QUICK_RANK + ["--mode", "baseline", "--seed", "2"]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: baseline seed 2 step 1, loss+gradient: boom\n"
        )
        # ablate runs the baseline, then nl_hessian at each lambda: 4 steps each
        self.fail_on(monkeypatch, trainers, "output_rows", 12, errors.SingularMatrix)
        argv = ["ablate", "lambda", "--lambdas", "0.5,3", "--steps", "4", "--batch", "6",
                "--n", "3"]
        assert run_cli(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "numeric failure: nl_hessian lam 3 seed 0 step 4, damped solve: boom"

    def test_a_config_error_keeps_its_message(self, monkeypatch, capsys):
        self.fail_on(monkeypatch, trainers, "output_rows", 1, errors.ConfigError)
        assert run_cli(QUICK_RANK) == 2
        assert capsys.readouterr().err == "config error: boom\n"


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

    def test_n_reads_only_without_base(self, capsys):
        args = ["slice", "grad", "--coord", "0", "--steps", "3"]
        # --base sets the length, so an --n beside it is read by nothing
        for n in ("9", "1"):
            assert run_cli(args + ["--base", "1,2", "--n", n]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "--n" in err
            assert len(err.splitlines()) == 1
        # with neither flag the length is 5
        assert run_cli(args) == 0
        default = capsys.readouterr().out
        assert run_cli(args + ["--n", "5"]) == 0
        assert capsys.readouterr().out == default
        assert default.split("\n")[0].split("\t") == ["y0", "g0", "g1", "g2", "g3", "g4"]


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
            # sigma**4 underflows to 0; the Hessian would divide by it
            ["bench", "path", "--mode", "nl_hessian", "--sigma", "1e-100", "--grid", "3"],
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
            (FileNotFoundError, 2),
            (errors.NonFiniteResult, 3),
            (errors.SingularMatrix, 3),
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
            # finite bounds whose width overflows
            ["--n", "3", "--lo=-1e308", "--hi", "1e308"],
        ],
    )
    def test_bad_slice_values_exit_2(self, args, capsys):
        assert run_cli(["slice", "grad", "--coord", "0", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["bench", "rank", "--steps", "2", "--method", "neuralsort", "--beta", "-1"],
            ["bench", "rank", "--steps", "2", "--method", "dsn_logistic", "--tau", "1"],
            ["ablate", "lambda", "--steps", "2", "--method", "softsort", "--beta", "2"],
            ["slice", "grad", "--method", "dsn_cauchy", "--coord", "1", "--tau", "-5"],
        ],
    )
    def test_a_sort_setting_the_method_does_not_read_is_2(self, args, tmp_path, capsys):
        # neuralsort and softsort read tau, the sorting networks beta
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and ", not " in err
        assert len(err.splitlines()) == 1
        assert run_cli(args[:-2] + ["--out", str(tmp_path / "without")]) == 0

    def test_configs_checked_before_first_run(self, capsys):
        # the Newton modes after the baseline reject lambda 0 before it runs
        assert run_cli(QUICK_RANK + ["--lambda", "0"]) == 2
        assert capsys.readouterr().err == "config error: lam must be a finite real number > 0, got 0.0\n"

    def test_baseline_reads_no_lambda(self, tmp_path, capsys):
        assert run_cli(QUICK_RANK + ["--mode", "baseline", "--lambda", "7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "reads no lambda" in err
        assert len(err.splitlines()) == 1
        # across all modes --lambda sets the Newton modes, and the echo shows it
        out = tmp_path / "r.json"
        assert run_cli(QUICK_RANK + ["--steps", "2", "--lambda", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["lam"] == 7.0
        lams = {mode: entry["lam"] for mode, entry in doc["modes"].items()}
        assert lams == {"baseline": 0.0, "nl_hessian": 7.0, "nl_fisher": 7.0}

    def test_negative_seed_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["check", "oracles", "--seed=-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,lines,lineno",
        [
            (QUICK_RANK, ["not json"], 1),
            (QUICK_RANK, [RANK_HEADER, "{"], 2),
            (QUICK_RANK, [RANK_HEADER,
                          json.dumps({"features": [[0.0] * 6] * 3, "mask": [0, 1]})], 2),
            (QUICK_RANK, [json.dumps({"kind": "path", "feature_dim": 6, "seed": 0})], 1),
            (QUICK_RANK, [RANK_HEADER.replace('"feature_dim": 6', '"feature_dim": "x"')], 1),
            (QUICK_RANK, [RANK_HEADER.replace('"n": 3', '"n": 0')], 1),
            (QUICK_RANK, [RANK_HEADER, rank_line([0, 1, 2]),
                          rank_line([0, 1, 2], rows=2)], 3),
            (QUICK_RANK, [RANK_HEADER, rank_line([0, 1, 2]), rank_line([0, 0, 1])], 3),
            (QUICK_PATH, [PATH_HEADER, path_line(PATH_MASK), path_line(PATH_MASK * 2)], 3),
            (QUICK_PATH, [PATH_HEADER, path_line(PATH_MASK),
                          path_line(np.where(PATH_MASK == 1, 1.0, np.nan))], 3),
            (QUICK_PATH, [PATH_HEADER, path_line(PATH_MASK), path_line(np.array([0, 1]))], 3),
            (QUICK_PATH, [PATH_HEADER, path_line(PATH_MASK), path_line(np.ones((3, 3)))], 3),
            (QUICK_RANK, [RANK_HEADER, rank_line([0, 1, 2]).replace("0.0", "NaN", 1)], 2),
            (QUICK_RANK, [RANK_HEADER.replace('"seed": 0', '"seed": "x"'), *RANK_RECORDS], 1),
            (QUICK_RANK, [RANK_HEADER.replace('"seed": 0', '"seed": -1'), *RANK_RECORDS], 1),
            (QUICK_RANK, [RANK_HEADER.replace("}", ', "count": 5}'), *RANK_RECORDS], 1),
            (QUICK_RANK, [RANK_HEADER, *RANK_RECORDS], 1),
        ],
        ids=["header-not-json", "record-not-json", "record-no-ranking", "header-no-size",
             "header-feature-dim-not-int", "header-size-not-positive", "features-wrong-rows",
             "ranking-not-permutation", "mask-doubled", "mask-nan", "mask-two-entries",
             "mask-not-a-path", "features-nan", "header-seed-not-int", "header-seed-negative",
             "count-mismatch", "count-missing"],
    )
    def test_broken_dataset_line_is_2(self, argv, lines, lineno, tmp_path, capsys):
        ds = tmp_path / "bad.jsonl"
        ds.write_text("\n".join(lines) + "\n")
        assert run_cli(argv + ["--mode", "baseline", "--data", str(ds)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {ds} line {lineno}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe\x00bad\n", RANK_HEADER.encode() + b"\n\xff\n"],
        ids=["header", "record"],
    )
    def test_non_utf8_dataset_is_2(self, content, tmp_path, capsys):
        ds = tmp_path / "bad.jsonl"
        ds.write_bytes(content)
        assert run_cli(QUICK_RANK + ["--mode", "baseline", "--data", str(ds)]) == 2
        assert capsys.readouterr().err == f"config error: {ds} is not UTF-8 text\n"

    @pytest.mark.parametrize(
        "gen,message",
        [(["path", "--grid", "3"], "is not a ranking dataset"),
         (["rank", "--n", "3"], "holds size 3, the run asks for 4")],
        ids=["grid-file", "other-size"],
    )
    def test_dataset_of_other_kind_or_size_is_2(self, gen, message, tmp_path, capsys):
        ds = tmp_path / "ds.jsonl"
        assert run_cli(["gen", *gen, "--count", "30", "--out", str(ds)]) == 0
        capsys.readouterr()
        argv = ["bench", "rank", "--n", "4", "--mode", "baseline", "--steps", "2"]
        assert run_cli(argv + ["--data", str(ds)]) == 2
        assert capsys.readouterr().err == f"config error: {ds} {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # 128 PiB of features
            ["gen", "rank", "--n", "3", "--count", "1000000000000000"],
            # one draw block of 6.4 PiB
            ["bench", "path", "--grid", "3", "--steps", "1", "--batch", "1",
             "--samples", "100000000000000", "--mode", "baseline"],
            # a seed list of 1e17 entries
            ["bench", "rank", "--n", "3", "--steps", "1", "--batch", "1",
             "--seeds", "100000000000000000", "--mode", "baseline"],
        ],
        ids=["gen-count", "bench-samples", "bench-seeds"],
    )
    def test_refused_allocation_is_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            QUICK_RANK,
            ["ablate", "lambda", "--steps", "2", "--n", "3", "--lambdas", "1"],
            ["gen", "path", "--grid", "3", "--count", "12"],
            ["slice", "grad", "--coord", "0"],
        ],
        ids=["bench", "ablate", "gen", "slice"],
    )
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_out_checked_before_any_work(self, argv, where, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
        assert run_cli(argv + ["--out", str(out)]) == 2
        # one line, no progress line of a run, and nothing created
        err = capsys.readouterr().err
        assert err == f"config error: --out {out} must name a file in an existing directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_numeric_failure_is_3(self):
        # finite bounds whose sweep overflows the ranking loss
        code = run_cli(["slice", "grad", "--coord", "0", "--lo", "0.1", "--hi", "1e308"])
        assert code == 3


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def test_every_run_setting_is_a_bench_flag():
    # ExperimentConfig holds only what a user can pass: each field but the
    # task is the dest of a bench rank or bench path flag
    bench = _subparser(cli.build_parser(), "bench")
    dests = {a.dest for kind in ("rank", "path") for a in _subparser(bench, kind)._actions}
    fields = {f.name for f in dataclasses.fields(trainers.ExperimentConfig)}
    assert sorted(fields - dests) == ["task"]


def test_ablate_lambda_declares_its_run_flags_as_bench_rank_does():
    # the same flags as before, each with bench rank's type, dest and help
    parser = cli.build_parser()
    ablate, rank = (
        {a.option_strings[0]: a for a in _subparser(_subparser(parser, cmd), kind)._actions}
        for cmd, kind in (("ablate", "lambda"), ("bench", "rank"))
    )
    shared = ["--steps", "--batch", "--n", "--tau", "--beta", "--data", "--out"]
    assert sorted(ablate) == sorted(["-h", "--method", "--lambdas", "--seed", *shared])
    for flag in shared:
        same = ("dest", "type", "help", "default")
        assert [getattr(ablate[flag], k) for k in same] == [getattr(rank[flag], k) for k in same]


def test_every_accepted_pair_has_a_preset_and_every_preset_an_accepted_pair():
    bench = _subparser(cli.build_parser(), "bench")
    flags = {kind: {a.dest: a.choices for a in _subparser(bench, kind)._actions}
             for kind in ("rank", "path")}
    newton_modes = set(trainers.MODES) - {"baseline"}
    accepted = set()
    for kind, choices in flags.items():
        assert set(choices["mode"]) == set(trainers.MODES)
        for method in choices["method"]:
            for mode in newton_modes:
                try:
                    trainers.ExperimentConfig(task=kind, method=method, mode=mode)
                except errors.ConfigError:
                    continue
                accepted.add((method, mode))
    assert accepted == set(trainers.LAMBDA_PRESETS)
    # the one pair bench refuses: a smoothed solver output has no tractable Hessian
    methods = set(flags["rank"]["method"]) | set(flags["path"]["method"])
    refused = {(m, mode) for m in methods for mode in newton_modes} - accepted
    assert refused == {("ss_algorithm", "nl_hessian")}
    for lam in trainers.LAMBDA_PRESETS.values():
        assert all(0 < v < np.inf for v in (lam if isinstance(lam, tuple) else (lam,)))


def test_cli_import_leaves_scipy_out(tmp_path):
    # the package runs on numpy alone: a fresh process that imports the CLI
    # and runs a rank and a path bench loads no other third-party module
    # (scipy and jsonschema are test-only references).  Modules loaded at
    # start-up come from the environment's site hooks, and numpy's Cython
    # extensions register cython_runtime and _cython_<version>.
    src = os.path.dirname(os.path.dirname(os.path.abspath(newtonbench.__file__)))
    code = (
        "import sys\n"
        "startup = set(sys.modules)\n"
        "from newtonbench.bench import cli\n"
        "for kind in ('rank', 'path'):\n"
        "    argv = ['bench', kind, '--steps', '2', '--out', sys.argv[1] + kind]\n"
        "    assert cli.main(argv) == 0\n"
        "tops = {m.partition('.')[0] for m in set(sys.modules) - startup}\n"
        "own = {'numpy', 'newtonbench', 'cython_runtime'}\n"
        "print(sorted(m for m in tops - own - set(sys.stdlib_module_names)\n"
        "             if not m.startswith('_cython_')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "report-")], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for kind in ("rank", "path"):
        assert json.loads((tmp_path / f"report-{kind}").read_text())["kind"] == kind

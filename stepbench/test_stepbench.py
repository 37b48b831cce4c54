"""Tests of the benchmark itself.

    python3 -m pytest -q stepbench/test_stepbench.py

Run from the repository root.  The last two tests start the benchmark as a
subprocess for about a second of measurement each.
"""

import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import stepclock  # noqa: E402
from newtonbench import diffsort, net, shortest_path  # noqa: E402
from newtonbench.bench import cli, datagen, trainers  # noqa: E402


def test_self_time_of_nested_spans():
    # 0 root [0, 10] > 1 a [1, 4] > 2 a1 [2, 3];  root > 3 b [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    marked = spans.under(parent, [False, True, False, False])
    assert marked.tolist() == [False, True, True, False]


def _package_state():
    """Every attribute of every package module and of every class in them."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("newtonbench"):
            continue
        state[name] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == name:
                state[f"{name}.{attr}"] = dict(vars(obj))
    return state


def test_tracer_records_spans_and_restores_every_attribute(tmp_path):
    before = _package_state()
    tracer = spans.Tracer()
    with tracer, run.SolverKeys(tracer):
        assert diffsort.ranking_loss is not before["newtonbench.diffsort"]["ranking_loss"]
        assert shortest_path.dijkstra_grid.__name__ == "keyed"
        # an alias bound by name in another module is wrapped too
        assert datagen.hard_rank is diffsort.hard_rank
        assert cli.main(["bench", "rank", "--n", "4", "--steps", "3", "--batch", "4",
                         "--out", str(tmp_path / "r.json")]) == 0
    after = _package_state()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        changed = [a for a in attrs if after[key].get(a) is not attrs[a]]
        assert not changed, f"{key}: {changed} not restored"
    names = {tracer.names[i] for i in tracer.name_of}
    assert {"diffsort.ranking_loss", "net.optimizer_step", "bench.trainers.run_experiment",
            "bench.report.build_report", "linalg.TikhonovSolver.__init__"} <= names
    name_of, parent, start, end = tracer.arrays()
    assert np.all(end >= start)
    assert np.all(parent < np.arange(parent.size))


def test_step_clock_reads_once_per_step(tmp_path):
    with stepclock.StepClock(net) as clock:
        rc = cli.main(["bench", "rank", "--n", "4", "--mode", "nl_hessian", "--steps", "7",
                       "--batch", "4", "--out", str(tmp_path / "r.json")])
    assert rc == 0
    assert len(clock.readings) == 7
    assert net.optimizer_step.__module__ == "newtonbench.net"
    assert trainers.net.optimizer_step is net.optimizer_step


def _run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, os.path.join("stepbench", "run.py"), "--workload", "rank-fisher",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    proc = _run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "stepbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""

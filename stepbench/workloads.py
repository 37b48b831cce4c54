"""The benchmark's workloads: which CLI training run each one makes, and its data.

Each workload is one (task, method, mode) so that its step-time distribution
has a single cluster.  Why each was chosen is in README.md next to this file.
"""

import json
import os
from dataclasses import dataclass

# Everything a run writes lives under this directory of the checkout.
WORK_DIR = ".stepbench"

# Datasets are generated at this record count and feature width; the CLI
# holds out the last third (capped at 128 records) for evaluation.
DATA_COUNT = 384
FEATURE_DIM = 6
# Every run trains on the dataset of this seed; --seed sets the CLI's seed
# (model initialisation and batch order).  Set-up time then does not depend
# on --seed: the 4x4 grid generator's margin check rejects a seed-dependent
# share of draws, which made its time vary 2x between seeds.
DATA_SEED = 0

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


# Training steps per bench call.  Short calls let a run hold many of them,
# which the per-step minima in run.py need.  The CLI evaluates after every
# steps // 20 steps (EVAL_EVERY), so the step intervals that include an
# evaluation are known in advance and are measured apart from the others.
STEPS = 40
EVAL_EVERY = max(1, STEPS // 20)
BATCH = 20  # the CLI's default batch size


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # dataset kind: "rank" (n=10 sets) or "path" (4x4 grids)
    argv: tuple      # CLI arguments before the per-run ones

    @property
    def data_path(self):
        # A fixed relative path: the report echoes it, so it must not depend
        # on where the checkout lives or the reference digests would differ.
        return f"{WORK_DIR}/data-{self.kind}.jsonl"

    def bench_argv(self, seed, out_path):
        return list(self.argv) + [
            "--seed", str(seed),
            "--steps", str(STEPS),
            "--data", self.data_path,
            "--out", out_path,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rank-fisher",
            "rank",
            ("bench", "rank", "--method", "dsn_logistic", "--n", "10", "--mode", "nl_fisher"),
        ),
        Workload(
            "rank-hessian",
            "rank",
            ("bench", "rank", "--method", "neuralsort", "--n", "10", "--mode", "nl_hessian"),
        ),
        Workload(
            "path-hessian",
            "path",
            ("bench", "path", "--method", "ss_loss", "--grid", "4", "--mode", "nl_hessian"),
        ),
    )
}


def generate(kind, path):
    """Generate the dataset of one kind from DATA_SEED and write it to path."""
    from newtonbench.bench import datagen

    if kind == "rank":
        ds = datagen.gen_ranking_data(DATA_SEED, 10, DATA_COUNT, FEATURE_DIM)
        datagen.save_rank_dataset(ds, path)
    else:
        ds = datagen.gen_grid_data(DATA_SEED, 4, DATA_COUNT, FEATURE_DIM)
        datagen.save_grid_dataset(ds, path)


def load_reference():
    """Reference report digests at the reference seed and the expected counts."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)

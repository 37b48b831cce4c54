"""Step-level arithmetic locks: the raw bits of the first three training steps.

The goldens and stepbench's digests hash reports, whose metric percentages
over 128 held-out records rarely see a small change in arithmetic.  These
locks hash what the training loop hands on at each step instead: the loss
gradient rows of `trainers.output_grads`, its curvature where there is one,
and the rows `trainers.output_rows` sends into the backward pass.  Both
functions are wrapped around a 3-step `run_experiment` at seed 0, for every
(task, method, mode) cell: rank at n=5 and n=10 (4 methods x 3 modes) and
path at 4x4 (ss_loss x3, ss_algorithm x2, fy x3), 32 cells.

Like `test_diffsort.py::TestRankingLoss::test_bytes_locked`, the digests
record this host's kernels as well as the code: the BLAS kernel (the small
`@` products of the sorting relaxations and the solves) and numpy's SIMD
dispatch (`np.exp` and `np.log`) can each move the last bits.  On the
AVX-512 host that recorded them, `OPENBLAS_CORETYPE=Haswell` changes 30 of
the 32 digests and turning numpy's X86_V4 dispatch off changes 16, while
`OPENBLAS_NUM_THREADS=1` changes none (ROADMAP item 16).
"""

import hashlib

import numpy as np
import pytest

from newtonbench.bench import trainers

STEPS = 3

# sha256 over steps 1-3 of each cell: grads rows, curvature (if any), output rows
DIGESTS = {
    "path-fy-4x4-baseline":
        "1a00230e9c182a705efdeb05c83e4c4244482ada12cafe37f3fa2603e531dc16",
    "path-fy-4x4-nl_fisher":
        "dec23c9717ab8187f2ec2faa11d11522a559f915e07fa0536c5db1ad01d48a52",
    "path-fy-4x4-nl_hessian":
        "7ae4e7e6ed57423d6145bebfc46dc0265085f6ccdb99be9d624f6ea5ac5e5425",
    "path-ss_algorithm-4x4-baseline":
        "3d1031efbf45a054937f00c3c8169eaa9995a5db33aaf8b92350db54cd9bb37f",
    "path-ss_algorithm-4x4-nl_fisher":
        "9ed3ac4eceba18accecef670225c10ca7137ee517def0749f7b856b26d0f5d8b",
    "path-ss_loss-4x4-baseline":
        "42458049e88e204d88ea84bcc8cdd7f2c597b5069b061e3ab189d729024b07cf",
    "path-ss_loss-4x4-nl_fisher":
        "d25488d01e387aab80b355585f793907d5cba29e0745bd3dfba008f8b001eaf0",
    "path-ss_loss-4x4-nl_hessian":
        "b885bd8beae50b1c8754cb567f0295014cc7501f6dda794982beb602459437e4",
    "rank-dsn_cauchy-n10-baseline":
        "b896a3c605cc59eb03516b6a39f4ba2d647cc995989408a93fb230417223f23a",
    "rank-dsn_cauchy-n10-nl_fisher":
        "c387469e4fa07258407f530ea9aa6fa64ef6efae08ce44d8e9775eedf6f4c8d3",
    "rank-dsn_cauchy-n10-nl_hessian":
        "43b1c26d0704ab6c458e6c45b85bfa8793b7a658c50c4c996c8e772119d07baa",
    "rank-dsn_cauchy-n5-baseline":
        "860aa9ae783c981483ba85e8e7b7dee320130723800a31651d568fb3d982ea12",
    "rank-dsn_cauchy-n5-nl_fisher":
        "00dccd6fa0a5ac076a678e1a8a635240cc251c3057312ed98a848a0afe8aa36c",
    "rank-dsn_cauchy-n5-nl_hessian":
        "5f8c45b30a6fa205b25ca8493a3cc32ebe6b34ba6639614a0491e9b16bb59a8d",
    "rank-dsn_logistic-n10-baseline":
        "6e938ef8c8740d9cf55bb9469bcab7c963ba5bd99913f966fe597beebc8c2d05",
    "rank-dsn_logistic-n10-nl_fisher":
        "5fa337e8feb609b1d10e85854f5543b517e867b1e7fcf0699d67716abc59c554",
    "rank-dsn_logistic-n10-nl_hessian":
        "a0b5ba5504a30ecbd1b649863283f1778ccc8f4a99f3e61545ca2ac1ea61721b",
    "rank-dsn_logistic-n5-baseline":
        "481894c77175ccc0e676250b524359a15bd6089cb454d0f5f82745e9d6db0f57",
    "rank-dsn_logistic-n5-nl_fisher":
        "3cef4f7b0c0f221623828807ceedca25efe3d0f2308bcd1064b0af0761d2784c",
    "rank-dsn_logistic-n5-nl_hessian":
        "934ce8edafd3e13ee6fcb9108dc25592360114ee4a3ada0ed46bac549236e36d",
    "rank-neuralsort-n10-baseline":
        "154392d4a0c7465d75e98e4e0a098d4967aa20db2bc22b8d3ec37cd912a21fb4",
    "rank-neuralsort-n10-nl_fisher":
        "a5d83dfab2ad1f7cbed0cf151a3840839106728b372ad1521f5a511b5fb0abbe",
    "rank-neuralsort-n10-nl_hessian":
        "72a94fe25010b1f506c8fb2730bb92c6f306ba20177d6869f30048ce913a8e35",
    "rank-neuralsort-n5-baseline":
        "7a5344b4379e789ff1ba77da9a78b7c555049958e3aed01fd33b122aed5cadb2",
    "rank-neuralsort-n5-nl_fisher":
        "865129d2291e40fcca0e24391eeabbf2ad8e9384051b18fd51a296fe57abbfe8",
    "rank-neuralsort-n5-nl_hessian":
        "3e362f23a7e5146d42189e07efeae3b7437c3ada748f9588ba5440a119e1147d",
    "rank-softsort-n10-baseline":
        "f191f8d7df0b73b16dafe7de883a48cf0bfec4485235b7ab177e25fd0f55cfb7",
    "rank-softsort-n10-nl_fisher":
        "9dfd246487c2fe3ece73c6527b01beefcecf90a5c10041aba9b907a1feb950a4",
    "rank-softsort-n10-nl_hessian":
        "ff0cf56c6402026c436f75c759765e4662501b226decfaf75a40cb6d16a2786c",
    "rank-softsort-n5-baseline":
        "728fd467ac163384bd9fd7b2768b315f08ffeb7a6779d423f7f69d40e9973daf",
    "rank-softsort-n5-nl_fisher":
        "4289c7c75ce427cda422c2cdee9d83fbda938a01e325f6cf95c6ea0334b25bcc",
    "rank-softsort-n5-nl_hessian":
        "ff61e934119b24e225a810e054db807f6a386ea8bacb86a4d3fee5e34f782709",
}


def _cells():
    for n in (5, 10):
        for method in trainers.RANK_METHODS:
            for mode in trainers.method_modes(method):
                yield f"rank-{method}-n{n}-{mode}", dict(task="rank", method=method, mode=mode, n=n)
    for method in trainers.PATH_METHODS:
        for mode in trainers.method_modes(method):
            yield f"path-{method}-4x4-{mode}", dict(task="path", method=method, mode=mode, grid=4)


CELLS = dict(_cells())


def step_digest(monkeypatch, settings):
    """sha256 of the raw bytes output_grads and output_rows return at steps 1-3."""
    digest = hashlib.sha256()
    output_grads, output_rows = trainers.output_grads, trainers.output_rows

    def grads(cfg, y, labels, step):
        rows, curvature = output_grads(cfg, y, labels, step)
        digest.update(rows.tobytes())
        if curvature is not None:
            digest.update(curvature.tobytes())
        return rows, curvature

    def rows(cfg, y, grad_rows, curvature):
        out = output_rows(cfg, y, grad_rows, curvature)
        digest.update(out.tobytes())
        return out

    monkeypatch.setattr(trainers, "output_grads", grads)
    monkeypatch.setattr(trainers, "output_rows", rows)
    trainers.run_experiment(trainers.ExperimentConfig(**settings, seed=0, steps=STEPS))
    return digest.hexdigest()


def test_every_cell_is_locked():
    assert len(CELLS) == 32
    assert sorted(DIGESTS) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_step_bytes_locked(cell, monkeypatch):
    assert step_digest(monkeypatch, CELLS[cell]) == DIGESTS[cell]

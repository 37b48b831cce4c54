"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single visible summary
line. Criterion 8 is statistical and is reported, not asserted.
"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from newtonbench import diffsort, net, newton, smoothing
from newtonbench.bench import checks, report, trainers


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def _cli():
    if shutil.which("newtonbench"):
        return ["newtonbench"]
    return [sys.executable, "-m", "newtonbench.bench.cli"]


def _run_cli(args):
    proc = subprocess.run(
        _cli() + args, capture_output=True, text=True, timeout=350
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def _random_spd(rng, m):
    q = rng.normal(size=(m, m))
    return q @ q.T + m * np.eye(m)


def _quadratic_probe(a, b):
    return newton.LossProbe(
        value=lambda y: float(np.sum(0.5 * np.einsum("ij,jk,ik->i", y, a, y) + y @ b)),
        grad=lambda y: y @ a + b,
        hessian=lambda y: a.copy(),
    )


def test_1_gradient_fidelity(capsys):
    t0 = time.perf_counter()
    out = checks.check_grad(seed=0, count=50, n=5)
    elapsed = time.perf_counter() - t0
    assert out["max_rel_err"] <= 1e-5
    assert elapsed < 30.0
    announce(
        capsys,
        f"[acceptance 1] PASS gradient fidelity: 4 methods x 50 inputs, "
        f"max rel err {out['max_rel_err']:.2e} <= 1e-05, {elapsed:.1f}s",
    )


def test_2_newton_algebra(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(20))

    # (a) one SGD step on the quadratic surrogate = one damped Newton step
    m, lam, eta = 6, 0.3, 0.7
    a = _random_spd(rng, m)
    b = rng.normal(size=m)
    y = rng.normal(size=(5, m))
    probe = _quadratic_probe(a, b)
    target = newton.newton_target_hessian(y, probe, lam)
    _, rows = newton.newton_loss_eval(y, target)
    stepped = y - eta * rows
    direct = y - eta * np.linalg.solve(a + lam * np.eye(m), (y @ a + b).T).T
    dev_a = np.max(np.abs(stepped - direct))
    assert dev_a <= 1e-8

    # (b) squared-error loss at lam=0 collapses to the targets
    targets = rng.normal(size=(5, m))
    mse = newton.LossProbe(
        value=lambda v: float(0.5 * np.sum((v - targets) ** 2)),
        grad=lambda v: v - targets,
        hessian=lambda v: np.eye(m),
    )
    dev_b = np.max(np.abs(newton.newton_target_hessian(y, mse, 0.0).z_star - targets))
    assert dev_b <= 1e-12

    # (c) the surrogate is its own fixpoint
    surrogate = newton.newton_loss_probe(target)
    dev_c = np.max(
        np.abs(newton.newton_target_hessian(y, surrogate, 0.0).z_star - target.z_star)
    )
    assert dev_c <= 1e-10

    # (d) overwhelming damping preserves the gradient direction
    worst_cos = 1.0
    grads = probe.grad(y)
    for variant in ("hessian", "fisher"):
        cfg = newton.NewtonConfig(variant=variant, lam=1e8)
        z = newton.newton_target(y, probe, cfg).z_star
        step = (y - z).ravel()
        cos = step @ grads.ravel() / (
            np.linalg.norm(step) * np.linalg.norm(grads.ravel())
        )
        worst_cos = min(worst_cos, cos)
    assert worst_cos >= 1.0 - 1e-9

    # (e) low-rank and dense solves agree
    g = rng.normal(size=(8, 20))
    yw = rng.normal(size=(8, 20))
    gprobe = newton.LossProbe(value=lambda v: 0.0, grad=lambda v: g)
    zd = newton.newton_target_fisher(yw, gprobe, 0.5, inversion="direct").z_star
    zw = newton.newton_target_fisher(yw, gprobe, 0.5, inversion="woodbury").z_star
    dev_e = np.max(np.abs(zd - zw))
    assert dev_e <= 1e-8

    # (f) the backward-pass transform equals training on the Fisher surrogate
    model = net.Mlp.init([4, 5, 3], ["tanh", "identity"], np.random.SeedSequence(21))
    x = rng.normal(size=(8, 4))
    tgt = rng.normal(size=(8, 3))
    fprobe = newton.LossProbe(
        value=lambda v: float(0.5 * np.sum((v - tgt) ** 2)),
        grad=lambda v: v - tgt,
    )
    lam_f, lr = 0.2, 0.1
    deltas = []
    for route in ("inject", "target"):
        trial = net.clone_model(model)
        yout, tape = net.forward(trial, x)
        if route == "inject":
            rows = len(x) * newton.inject_fisher(fprobe.grad(yout) / len(x), lam_f)
        else:
            zt = newton.newton_target_fisher(yout, fprobe, lam_f)
            rows = newton.newton_loss_eval(yout, zt)[1]
        grads = net.backward(trial, tape, rows)
        state = net.OptimizerState.create("sgd", lr, trial)
        trial, _ = net.optimizer_step(state, trial, grads)
        deltas.append(net.get_flat_params(trial))
    dev_f = np.max(np.abs(deltas[0] - deltas[1]))
    assert dev_f <= 1e-8

    announce(
        capsys,
        "[acceptance 2] PASS newton algebra: "
        f"step {dev_a:.1e}, collapse {dev_b:.1e}, fixpoint {dev_c:.1e}, "
        f"cosine 1-{1.0 - worst_cos:.1e}, woodbury {dev_e:.1e}, inject {dev_f:.1e}",
    )


def test_3_lemma_equivalences(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(30))
    worst_gd = 0.0
    for sizes, acts in (
        ([4, 6, 3], ["tanh", "identity"]),
        ([5, 8, 8, 2], ["relu", "tanh", "identity"]),
    ):
        model = net.Mlp.init(sizes, acts, np.random.SeedSequence((31, sizes[0])))
        x = rng.normal(size=(7, sizes[0]))
        tgt = rng.normal(size=(7, sizes[-1]))
        probe = newton.LossProbe(
            value=lambda v, t=tgt: float(0.5 * np.sum((v - t) ** 2)),
            grad=lambda v, t=tgt: v - t,
        )
        dev = newton.split_step_check_gd(model, x, probe, eta=0.05)
        worst_gd = max(worst_gd, dev["max_param_deviation"])
    assert worst_gd <= 1e-10

    scalar = net.Mlp.init([1, 1, 1], ["tanh", "identity"], np.random.SeedSequence(32))
    quartic = newton.LossProbe(
        value=lambda v: float(np.sum(0.25 * v**4)),
        grad=lambda v: v**3,
        hessian=lambda v: np.array([[float(np.mean(3.0 * v**2))]]),
    )
    dev_newton = newton.split_step_check_newton(
        scalar, rng.normal(size=1), quartic, eta=0.5, trainable="weights"
    )["max_param_deviation"]
    assert dev_newton <= 1e-6
    announce(
        capsys,
        f"[acceptance 3] PASS split-step lemmas: gradient descent {worst_gd:.1e} "
        f"<= 1e-10, scalar newton {dev_newton:.1e} <= 1e-06",
    )


def test_4_smoothing_consistency(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(40))
    m = 5
    a = _random_spd(rng, m)
    b = rng.normal(size=m)
    y = rng.normal(size=m)

    def f(u):
        return float(0.5 * u @ a @ u + b @ u)

    cfg = smoothing.SmoothingConfig(sigma=0.1, samples=100_000, seed=7)
    eps = smoothing._draws(cfg, m)
    w = np.array([f(y + e) for e in eps]) - f(y)

    grad_est = smoothing.smooth_grad(f, y, cfg)
    grad_terms = w[:, None] * eps / cfg.sigma**2
    np.testing.assert_allclose(grad_est, grad_terms.mean(axis=0), atol=1e-9)
    grad_se = grad_terms.std(axis=0, ddof=1) / np.sqrt(cfg.samples)
    grad_true = a @ y + b
    assert np.all(np.abs(grad_est - grad_true) <= 3.0 * grad_se)

    hess_est = smoothing.smooth_hessian(f, y, cfg)
    hess_terms = (
        w[:, None, None]
        * (eps[:, :, None] * eps[:, None, :] / cfg.sigma**4
           - np.eye(m) / cfg.sigma**2)
    )
    hess_terms = 0.5 * (hess_terms + np.swapaxes(hess_terms, 1, 2))
    hess_se = hess_terms.std(axis=0, ddof=1) / np.sqrt(cfg.samples)
    assert np.all(np.abs(hess_est - a) <= 3.0 * hess_se)

    flat_cfg = smoothing.SmoothingConfig(sigma=0.1, samples=500, seed=8)
    zero_g = smoothing.smooth_grad(lambda u: 4.25, y, flat_cfg)
    zero_h = smoothing.smooth_hessian(lambda u: 4.25, y, flat_cfg)
    assert np.all(zero_g == 0.0) and np.all(zero_h == 0.0)

    announce(
        capsys,
        "[acceptance 4] PASS smoothing estimators: grad and hessian within "
        f"3 SE at 1e5 samples (worst z: "
        f"{max(np.max(np.abs(grad_est - grad_true) / grad_se), np.max(np.abs(hess_est - a) / hess_se)):.2f}), "
        "constant-loss estimates exactly zero",
    )


def test_5_combinatorial_oracle(capsys):
    t0 = time.perf_counter()
    out = checks.check_oracles(seed=0, grids_per_size=100, sizes=(3, 4, 5))
    elapsed = time.perf_counter() - t0
    assert out["ok"]
    assert out["grids"] == 300
    assert elapsed < 10.0
    announce(
        capsys,
        f"[acceptance 5] PASS shortest-path oracle: 300 grids, cost err "
        f"{out['max_cost_rel_err']:.1e}, {out['mask_mismatches']} mask mismatches, "
        f"{elapsed:.1f}s",
    )


def test_6_stochastic_matrix_invariants(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(60))
    worst_row = worst_col = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        y = rng.normal(0.0, 2.0, size=n)
        mats = {
            "neuralsort": diffsort.neuralsort_perm(y, tau=1.0).entries,
            "softsort": diffsort.softsort_perm(y, tau=0.1).entries,
            "dsn_logistic": diffsort.dsn_perm(y, 10.0, "logistic").entries,
            "dsn_cauchy": diffsort.dsn_perm(y, 10.0, "cauchy").entries,
        }
        for name, p in mats.items():
            assert np.all(p >= -1e-9)
            worst_row = max(worst_row, np.max(np.abs(p.sum(axis=1) - 1.0)))
            if name.startswith("dsn"):
                worst_col = max(worst_col, np.max(np.abs(p.sum(axis=0) - 1.0)))
    assert worst_row <= 1e-9 and worst_col <= 1e-9

    worst_hard = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        # pairwise gaps of at least 3: wide enough that even the
        # heavy-tailed comparator saturates at this steepness
        y = np.cumsum(rng.uniform(3.0, 5.0, size=n))
        rng.shuffle(y)
        truth = diffsort.hard_rank(y)
        for family in ("logistic", "cauchy"):
            p = diffsort.dsn_perm(y, 1e4, family).entries
            worst_hard = max(
                worst_hard, np.max(np.abs(p - truth.matrix_ascending()))
            )
    assert worst_hard <= 1e-4
    announce(
        capsys,
        f"[acceptance 6] PASS stochastic matrices: 1000 inputs, row dev "
        f"{worst_row:.1e}, dsn col dev {worst_col:.1e}, hard-limit dev "
        f"{worst_hard:.1e}",
    )


def test_7_smoke_benchmarks(capsys, tmp_path):
    rank_cfg = trainers.ExperimentConfig(
        task="rank", method="neuralsort", steps=500, batch=20, n=2
    )
    rank_rep = trainers.run_experiment(rank_cfg)
    assert rank_rep.final["exact_match"] >= 99.0

    path_cfg = trainers.ExperimentConfig(
        task="path", method="ss_loss", steps=300, batch=20, grid=2,
        sigma=0.1, samples=10,
    )
    path_rep = trainers.run_experiment(path_cfg)
    assert path_rep.final["perfect_match"] >= 90.0

    out = tmp_path / "rank5.json"
    t0 = time.perf_counter()
    _run_cli(["bench", "rank", "--n", "5", "--seeds", "3", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    doc = json.loads(out.read_text())
    report.validate_report(doc)
    assert sorted(doc["modes"]) == ["baseline", "nl_fisher", "nl_hessian"]
    assert all(len(doc["modes"][m]["seeds"]) == 3 for m in doc["modes"])

    announce(
        capsys,
        f"[acceptance 7] PASS smoke benchmarks: rank n=2 "
        f"{rank_rep.final['exact_match']:.1f}% >= 99, path 2x2 "
        f"{path_rep.final['perfect_match']:.1f}% >= 90, 3-seed n=5 bench "
        f"schema-valid in {elapsed:.0f}s < 300s",
    )


def test_8_directional_sanity_reported(capsys):
    finals = {"baseline": [], "nl_hessian": []}
    for mode in finals:
        for seed in range(5):
            cfg = trainers.ExperimentConfig(
                task="rank", method="neuralsort", mode=mode, seed=seed,
                steps=300, batch=20, n=10,
            )
            rep = trainers.run_experiment(cfg)
            finals[mode].append(rep.final["element_rank"])
    base = float(np.mean(finals["baseline"]))
    hess = float(np.mean(finals["nl_hessian"]))
    assert np.isfinite(base) and np.isfinite(hess)
    verdict = "satisfied" if hess >= base - 1.0 else "NOT satisfied"
    announce(
        capsys,
        f"[acceptance 8] REPORT directional sanity (not asserted): n=10 "
        f"neuralsort over 5 seeds, nl_hessian element-rank {hess:.2f}% vs "
        f"baseline {base:.2f}%; criterion mean >= baseline - 1pp {verdict}",
    )


def test_9_cli_determinism(capsys, tmp_path):
    invocations = [
        ["gen", "rank", "--n", "4", "--count", "40", "--seed", "5"],
        ["bench", "rank", "--method", "softsort", "--mode", "nl_fisher",
         "--steps", "12", "--batch", "8", "--n", "3", "--seed", "2"],
        ["bench", "rank", "--method", "neuralsort", "--seeds", "2",
         "--steps", "8", "--batch", "6", "--n", "3", "--format", "tsv"],
        ["bench", "path", "--method", "fy", "--mode", "nl_fisher",
         "--steps", "6", "--batch", "4", "--grid", "2", "--samples", "4"],
        ["ablate", "lambda", "--lambdas", "0.5,5", "--steps", "8",
         "--batch", "6", "--n", "3"],
        ["slice", "grad", "--method", "dsn_cauchy", "--coord", "1", "--n", "4",
         "--lo=-10", "--hi", "10", "--steps", "41", "--lambda", "0.5"],
    ]
    for k, args in enumerate(invocations):
        pair = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{k}{attempt}.out"
            _run_cli(args + ["--out", str(out)])
            pair.append(out.read_bytes())
        assert pair[0] == pair[1], f"nondeterministic output for {args}"
    announce(
        capsys,
        f"[acceptance 9] PASS determinism: {len(invocations)} CLI invocation "
        "shapes re-run byte-identical",
    )

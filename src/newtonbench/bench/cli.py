"""Command-line front end.

Subcommands: gen (datasets), bench (training runs), ablate (lambda sweep),
check (numeric self-tests), slice (gradient slices). Exit codes: 0 success,
2 bad configuration or input (including unreadable files, an --out outside an
existing directory and a size too large to allocate), 3 numeric failure.
"""

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from ..errors import (
    ConfigError,
    NewtonBenchError,
    NonFiniteResult,
    SingularMatrix,
    TooLarge,
    checked_int,
    checked_real,
)
from . import checks, datagen, report, slices, trainers

DEFAULT_LAMBDAS = "0.001,0.003,0.01,0.03,0.1,0.3,1,3,10,30,100,300,1000"


def _emit(text, out):
    if out:
        report.write_text(out, text)
    else:
        sys.stdout.write(text)


def _parse_floats(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated float list, got {text!r}")


def _seed(text):
    """argparse type of --seed: the generators take non-negative seeds only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _cfg_overrides(args, task):
    """The ExperimentConfig fields among the parsed flags that were given."""
    fields = {f.name for f in dataclasses.fields(trainers.ExperimentConfig)}
    over = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return {**over, "task": task}


def _cmd_gen(args):
    if args.kind == "rank":
        ds = datagen.gen_ranking_data(args.seed, args.n, args.count, args.feature_dim)
    else:
        ds = datagen.gen_grid_data(args.seed, args.grid, args.count, args.feature_dim)
    datagen.save_dataset(ds, args.out)
    print(f"wrote {args.count} records to {args.out}", file=sys.stderr)
    return 0


def _run_all(cfgs, key):
    """TrainReports of cfgs, all checked when built, run in order; each run is
    timed here and prints "[<mode> <key>=<value>] final=... (t s)" as it ends."""
    reports = []
    for cfg in cfgs:
        started = time.perf_counter()
        rep = trainers.run_experiment(cfg)
        print(
            f"[{cfg.mode} {key}={getattr(cfg, key)}] final={rep.final} "
            f"({time.perf_counter() - started:.1f}s)",
            file=sys.stderr,
        )
        reports.append(rep)
    return reports


def _cmd_bench(args):
    task = args.kind
    if args.seeds is not None:
        seed_list = list(range(checked_int(args.seeds, "--seeds", 1)))
    else:
        seed_list = [args.seed if args.seed is not None else 0]
    modes = [args.mode] if args.mode else trainers.method_modes(args.method)
    over = _cfg_overrides(args, task)
    # without --mode, --lambda sets the Newton modes and the baseline reads none
    lams = {m: None if m == "baseline" and not args.mode else args.lam for m in modes}
    cfgs = [
        trainers.ExperimentConfig(**{**over, "mode": m, "seed": s, "lam": lams[m]})
        for m in modes
        for s in seed_list
    ]
    runs = _run_all(cfgs, "seed")
    k = len(seed_list)
    mode_runs = {m: (cfgs[i * k].lam, runs[i * k : (i + 1) * k]) for i, m in enumerate(modes)}
    # the first run's echo names the data every run used
    echo = dict(runs[0].config)
    echo["mode"] = "+".join(modes)
    echo["seed"] = seed_list[0]
    echo["seeds"] = seed_list
    echo["lam"] = "preset" if args.lam is None else args.lam
    doc = report.build_report(task, echo, mode_runs)
    report.validate_report(doc)
    text = report.render_tsv(doc) if args.format == "tsv" else report.render_json(doc)
    _emit(text, args.out)
    return 0


def _cmd_ablate(args):
    """One rank baseline run, then nl_hessian and nl_fisher at every lambda."""
    lams = _parse_floats(args.lambdas)
    if not lams:
        raise ConfigError("lambda grid must be nonempty")
    for lam in lams:
        checked_real(lam, "--lambdas entry", 0, strict=True)
    if sorted(lams) != lams:
        raise ConfigError("lambda grid must be ascending")
    over = _cfg_overrides(args, "rank")
    cfgs = [trainers.ExperimentConfig(**over)] + [
        trainers.ExperimentConfig(**over, mode=mode, lam=lam)
        for mode in ("nl_hessian", "nl_fisher")
        for lam in lams
    ]
    finals = [rep.final["element_rank"] for rep in _run_all(cfgs, "lam")]
    k = len(lams)
    columns = dict(baseline=finals[:1] * k, nl_hessian=finals[1 : k + 1], nl_fisher=finals[k + 1 :])
    _emit(report.ablation_tsv(lams, columns), args.out)
    return 0


def _cmd_check(args):
    if args.what == "grad":
        out = checks.check_grad(seed=args.seed)
    elif args.what == "lemmas":
        out = checks.check_lemmas(seed=args.seed)
    else:
        out = checks.check_oracles(seed=args.seed, grids_per_size=args.grids)
    for key in sorted(out):
        if key == "per_method":
            for method in sorted(out[key]):
                print(f"{method}: {out[key][method]:.3e}")
        else:
            print(f"{key}: {out[key]}")
    return 0 if out["ok"] else 3


def _cmd_slice(args):
    if args.base is not None:
        if args.n is not None:
            raise ConfigError("--base sets the ranking length; drop --n")
        base = np.asarray(_parse_floats(args.base))
        if base.size < 2:
            raise ConfigError("--base needs at least two values")
    else:
        n = 5 if args.n is None else checked_int(args.n, "--n", 2)
        base = np.linspace(2.0, -2.0, n)
    table = slices.gradient_slice(
        args.method, base, args.coord, args.lo, args.hi, args.steps,
        tau=args.tau, beta=args.beta, fisher_lambda=args.lam,
    )
    _emit(slices.slice_tsv(table, args.coord), args.out)
    return 0


def _add_shared_run_flags(p, task):
    """The run flags of every training command: bench rank|path and ablate lambda."""
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int)
    if task == "rank":
        p.add_argument("--n", type=int, help="ranking length")
        p.add_argument("--tau", type=float, help="relaxation temperature")
        p.add_argument("--beta", type=float, help="sorting-network steepness")
    else:
        p.add_argument("--grid", type=int, help="grid side length")
        p.add_argument("--sigma", type=float, help="smoothing noise scale")
        p.add_argument("--samples", type=int, help="smoothing sample count")
    p.add_argument("--data", dest="data_path", help="JSON-lines dataset to reuse")
    p.add_argument("--out", help="output path (default: stdout)")


def _add_common_run_flags(p, task):
    p.add_argument("--mode", choices=trainers.MODES)
    p.add_argument("--lambda", dest="lam", type=float, help="Tikhonov strength")
    seeding = p.add_mutually_exclusive_group()
    seeding.add_argument("--seed", type=_seed)
    seeding.add_argument("--seeds", type=int, help="fan out over seeds 0..k-1")
    _add_shared_run_flags(p, task)
    p.add_argument("--format", choices=("json", "tsv"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="newtonbench",
        description="Curvature-corrected training benchmarks for hard losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind in ("rank", "path"):
        g = gen_sub.add_parser(kind)
        if kind == "rank":
            g.add_argument("--n", type=int, default=5, help="ranking length")
        else:
            g.add_argument("--grid", type=int, default=4, help="grid side length")
        g.add_argument("--count", type=int, default=384)
        g.add_argument("--seed", type=_seed, default=0)
        g.add_argument("--feature-dim", type=int, default=datagen.FEATURE_DIM)
        g.add_argument("--out", required=True)
        g.set_defaults(fn=_cmd_gen)

    bench = sub.add_parser("bench", help="run a training benchmark")
    bench_sub = bench.add_subparsers(dest="kind", required=True)
    rank = bench_sub.add_parser("rank")
    rank.add_argument("--method", choices=trainers.RANK_METHODS, default="neuralsort")
    _add_common_run_flags(rank, "rank")
    rank.set_defaults(fn=_cmd_bench)
    path = bench_sub.add_parser("path")
    path.add_argument("--method", choices=trainers.PATH_METHODS, default="ss_loss")
    _add_common_run_flags(path, "path")
    path.set_defaults(fn=_cmd_bench)

    ablate = sub.add_parser("ablate", help="sweep the damping strength")
    ablate_sub = ablate.add_subparsers(dest="what", required=True)
    lam = ablate_sub.add_parser("lambda")
    lam.add_argument("--method", choices=trainers.RANK_METHODS, default="neuralsort")
    lam.add_argument(
        "--lambdas", default=DEFAULT_LAMBDAS, help="comma-separated ascending values"
    )
    lam.add_argument("--seed", type=_seed)
    _add_shared_run_flags(lam, "rank")
    lam.set_defaults(fn=_cmd_ablate)

    check = sub.add_parser("check", help="numeric self-tests")
    check_sub = check.add_subparsers(dest="what", required=True)
    for what in ("grad", "lemmas", "oracles"):
        c = check_sub.add_parser(what)
        c.add_argument("--seed", type=_seed, default=0)
        if what == "oracles":
            c.add_argument("--grids", type=int, default=100, help="grids per size")
        c.set_defaults(fn=_cmd_check)

    sl = sub.add_parser("slice", help="gradient slice tables")
    sl_sub = sl.add_subparsers(dest="what", required=True)
    grad = sl_sub.add_parser("grad")
    grad.add_argument("--method", choices=trainers.RANK_METHODS, default="neuralsort")
    grad.add_argument("--coord", type=int, required=True)
    grad.add_argument("--n", type=int, help="ranking length (default 5)")
    grad.add_argument("--base", help="comma-separated base vector, in place of --n")
    grad.add_argument("--lo", type=float, default=-20.0)
    grad.add_argument("--hi", type=float, default=20.0)
    grad.add_argument("--steps", type=int, default=101)
    grad.add_argument(
        "--lambda", dest="lam", type=float, help="apply the Fisher transform"
    )
    grad.add_argument("--tau", type=float)
    grad.add_argument("--beta", type=float)
    grad.add_argument("--out")
    grad.set_defaults(fn=_cmd_slice)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        out = getattr(args, "out", None)  # checked before any work, and left untouched
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ConfigError(f"--out {out} must name a file in an existing directory")
        # non-finite values are reported by the package's own checks (exit 3);
        # numpy's floating-point warnings would only add stderr lines
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteResult, SingularMatrix, TooLarge) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (NewtonBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size numpy or Python refuses to allocate
        print(f"error: out of memory: {exc or 'allocation refused'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

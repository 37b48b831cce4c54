"""Golden CLI outputs: the invocations and a one-command regenerator.

    PYTHONPATH=src python3 tests/golden/regen.py

reruns every invocation in CASES in-process and overwrites
tests/golden/<name>.out with its --out bytes.  tests/test_golden.py compares
fresh runs against these files byte for byte.  Regenerate only for an
intended change of output, and record why in CHANGES.md.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> argv without --out.  No --data: reports echo the data path.
CASES = {
    # the invocations of acceptance test 9
    "gen_rank": ["gen", "rank", "--n", "4", "--count", "40", "--seed", "5"],
    "rank_softsort_fisher": [
        "bench", "rank", "--method", "softsort", "--mode", "nl_fisher",
        "--steps", "12", "--batch", "8", "--n", "3", "--seed", "2"],
    "rank_neuralsort_seeds_tsv": [
        "bench", "rank", "--method", "neuralsort", "--seeds", "2",
        "--steps", "8", "--batch", "6", "--n", "3", "--format", "tsv"],
    "path_fy_fisher": [
        "bench", "path", "--method", "fy", "--mode", "nl_fisher",
        "--steps", "6", "--batch", "4", "--grid", "2", "--samples", "4"],
    "ablate_lambda": [
        "ablate", "lambda", "--lambdas", "0.5,5", "--steps", "8",
        "--batch", "6", "--n", "3"],
    "slice_dsn_cauchy": [
        "slice", "grad", "--method", "dsn_cauchy", "--coord", "1", "--n", "4",
        "--lo=-10", "--hi", "10", "--steps", "41", "--lambda", "0.5"],
    # every rank method and mode
    "rank_dsn_logistic_fisher_n10": [
        "bench", "rank", "--method", "dsn_logistic", "--mode", "nl_fisher",
        "--n", "10", "--steps", "12"],
    "rank_neuralsort_hessian_n10": [
        "bench", "rank", "--method", "neuralsort", "--mode", "nl_hessian",
        "--n", "10", "--steps", "12"],
    "rank_dsn_cauchy_all_modes": [
        "bench", "rank", "--method", "dsn_cauchy", "--steps", "12"],
    "rank_softsort_hessian": [
        "bench", "rank", "--method", "softsort", "--mode", "nl_hessian",
        "--steps", "12"],
    # every path method and mode
    "path_ss_loss_all_modes": [
        "bench", "path", "--method", "ss_loss", "--grid", "3", "--steps", "12"],
    "path_ss_loss_hessian": [
        "bench", "path", "--method", "ss_loss", "--mode", "nl_hessian",
        "--grid", "3", "--steps", "12"],
    "path_ss_algorithm_all_modes": [
        "bench", "path", "--method", "ss_algorithm", "--grid", "3", "--steps", "12"],
    "path_fy_hessian": [
        "bench", "path", "--method", "fy", "--mode", "nl_hessian",
        "--grid", "3", "--steps", "12"],
}


def golden_path(name):
    return os.path.join(HERE, f"{name}.out")


def run_case(name, out_path):
    """Run one case in-process, writing its output to out_path."""
    from newtonbench.bench import cli

    code = cli.main(CASES[name] + ["--out", out_path])
    if code != 0:
        raise SystemExit(f"{name}: exit {code}")


def main():
    for name in CASES:
        run_case(name, golden_path(name))
        print(f"wrote {golden_path(name)}", file=sys.stderr)


if __name__ == "__main__":
    main()

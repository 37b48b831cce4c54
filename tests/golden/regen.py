"""Golden CLI outputs: the invocations and a one-command regenerator.

    PYTHONPATH=src python3 tests/golden/regen.py
    PYTHONPATH=src python3 tests/golden/regen.py --diff

reruns every invocation in CASES in-process and overwrites
tests/golden/<name>.out with its --out bytes.  tests/test_golden.py compares
fresh runs against these files byte for byte.  Regenerate only for an
intended change of output, and record why in CHANGES.md.

--diff reruns every case into a temporary directory, writes no golden, and
prints one block per case: "unchanged", or for a report each mode and seed's
final metrics before -> after and the first curve step that differs, or for
row output (datasets, slices, TSV tables) the count of changed rows and the
largest numeric change.  It exits 1 when any output changed.
"""

import argparse
import json
import os
import re
import sys
import tempfile

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


# a number as the CLI prints one: in a TSV cell or as a JSON value
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def _is_report(doc):
    return isinstance(doc, dict) and isinstance(doc.get("modes"), dict)


def _run_line(mode, seed, a, b):
    """How one run of a report moved: its finals and its first differing step."""
    if a is None or b is None:
        return f"{mode} seed {seed}: {'added' if a is None else 'removed'}"
    if a == b:
        return f"{mode} seed {seed}: unchanged"
    finals = ", ".join(
        f"{key} {a['final'].get(key)} -> {b['final'].get(key)}"
        for key in sorted(a["final"].keys() | b["final"].keys())
    )
    curve_a, curve_b = a["curve"], b["curve"]
    first = next((i for i, (p, q) in enumerate(zip(curve_a, curve_b)) if p != q), None)
    if first is None and len(curve_a) != len(curve_b):
        first = min(len(curve_a), len(curve_b))
    if first is None:
        where = "curve unchanged"
    else:
        where = f"curve first differs at step {max(curve_a, curve_b, key=len)[first]['step']}"
    return f"{mode} seed {seed}: final {finals}; {where}"


def _report_diff(old, new):
    lines = [
        f"config {key}: {old['config'].get(key)} -> {new['config'].get(key)}"
        for key in sorted(old["config"].keys() | new["config"].keys())
        if old["config"].get(key) != new["config"].get(key)
    ]
    for mode in sorted(old["modes"].keys() | new["modes"].keys()):
        runs = [
            {run["seed"]: run for run in doc["modes"].get(mode, {}).get("seeds", [])}
            for doc in (old, new)
        ]
        for seed in sorted(runs[0].keys() | runs[1].keys()):
            lines.append(_run_line(mode, seed, runs[0].get(seed), runs[1].get(seed)))
    if all(line.endswith(": unchanged") for line in lines):
        lines.append("differs outside the config and the runs")
    return lines


def _rows_diff(before, after):
    a, b = before.splitlines(), after.splitlines()
    changed = [(p, q) for p, q in zip(a, b) if p != q]
    moves = [
        abs(float(x) - float(y))
        for p, q in changed
        for x, y in zip(_NUMBER.findall(p), _NUMBER.findall(q))
        if x != y
    ]
    largest = f"{max(moves):.6g}" if moves else "none"
    count = len(changed) + abs(len(a) - len(b))
    return [f"{count} of {max(len(a), len(b))} rows changed; largest numeric change {largest}"]


def diff_outputs(before, after):
    """Lines saying how the text after differs from the golden text before."""
    if before == after:
        return ["unchanged"]
    try:
        old, new = json.loads(before), json.loads(after)
    except ValueError:  # datasets are JSON lines, slices and tables TSV
        old = new = None
    if _is_report(old) and _is_report(new):
        return _report_diff(old, new)
    return _rows_diff(before, after)


def diff_all():
    """Print every case's diff against its golden; 1 if any output changed."""
    changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            out = os.path.join(tmp, f"{name}.out")
            run_case(name, out)
            with open(golden_path(name), "rb") as fh:
                before = fh.read().decode()
            with open(out, "rb") as fh:
                after = fh.read().decode()
            lines = diff_outputs(before, after)
            changed += lines != ["unchanged"]
            print(f"{name}: " + "\n  ".join(lines))
    return 1 if changed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate or diff the golden CLI outputs.")
    parser.add_argument(
        "--diff", action="store_true",
        help="rerun every case without writing and print how each output differs",
    )
    if parser.parse_args(argv).diff:
        return diff_all()
    for name in CASES:
        run_case(name, golden_path(name))
        print(f"wrote {golden_path(name)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

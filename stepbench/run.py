"""newtonbench's benchmark: CLI training runs timed by a step clock.

    python3 stepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports the package from ./src.  One run
is one fresh Python process.  It generates the workload's dataset from the
seed, then calls ``newtonbench.bench.cli.main([...])`` in-process, one bench
call after another, until --seconds have passed, and checks every report.

--trace 0 measures the end-to-end metrics with only the step clock installed.
--trace 1 alternates untraced calls with calls traced span by span
(spans.py), and reports the per-layer metrics.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Everything else a run
writes goes under .stepbench/.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

import envinfo
import spans
import stepclock
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# Set-ups per untraced run, spread over its calls; setup_s is their median.
SETUPS = 5
SETUP_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("eval_step_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("diffsort.self_ms_per_step", "ms"),
    ("diffsort.calls_per_step", "count"),
    ("newton.self_ms_per_step", "ms"),
    ("linalg.self_ms_per_step", "ms"),
    ("linalg.factorizations_per_step", "count"),
    ("shortest_path.self_ms_per_step", "ms"),
    ("shortest_path.calls_per_step", "count"),
    ("shortest_path.unique_frac", "frac"),
    ("smoothing.self_ms_per_step", "ms"),
    ("net.self_ms_per_step", "ms"),
    ("bench.trainers.self_ms_per_step", "ms"),
    ("bench.trainers.eval_ms", "ms"),
    ("bench.datagen.self_s", "s"),
    ("bench.report.self_ms", "ms"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_s", "s"),
)
# Counts that depend only on the workload's configuration: every traced call
# must give exactly these, and they must equal the recorded reference.
COUNT_METRICS = (
    "diffsort.calls_per_step",
    "linalg.factorizations_per_step",
    "shortest_path.calls_per_step",
    "shortest_path.unique_frac",
)

EVAL_SPANS = ("bench.trainers.rank_metrics", "bench.trainers.path_metrics")
SORT_LOSS = "diffsort.ranking_loss"
SOLVER = "shortest_path.dijkstra_grid"
FACTORIZATION = "linalg.TikhonovSolver.__init__"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------- set-up


def timed_setup(wl):
    """Wall seconds of one fresh-process set-up (import + data)."""
    cmd = [sys.executable, os.path.join(HERE, "setup_data.py"), wl.kind, wl.data_path]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
    return elapsed


# ---------------------------------------------------------------- bench calls


def bench_call(cli, net, argv, out_path, contexts=()):
    """One in-process CLI call; returns its wall time, exit code and step readings.

    contexts (a tracer, say) are entered in order around the call.
    """
    if os.path.exists(out_path):
        os.remove(out_path)
    # A full collection first, so that cyclic-GC passes fall at the same
    # points of every call and the per-step times keep their cost.
    gc.collect()
    call = {"rc": None, "error": None}
    with contextlib.ExitStack() as stack:
        for ctx in contexts:
            stack.enter_context(ctx)
        clock = stack.enter_context(stepclock.StepClock(net))
        t0 = time.perf_counter()
        try:
            call["rc"] = cli.main(argv)
        except Exception:
            call["error"] = traceback.format_exc()
        call["wall"] = time.perf_counter() - t0
    call["readings"] = clock.readings
    return call


def check_report(call, out_path, wl, report):
    """Fill call['digest'] and call['error'] from the written report."""
    call["digest"] = None
    if call["error"] is not None:
        return
    if call["rc"] != 0:
        call["error"] = f"bench exited with code {call['rc']}"
        return
    try:
        with open(out_path, "rb") as fh:
            blob = fh.read()
        doc = json.loads(blob)
        report.validate_report(doc)
        (entry,) = doc["modes"].values()
        last_step = entry["seeds"][0]["curve"][-1]["step"]
    except Exception as exc:  # any unreadable or off-schema report is a failure
        call["error"] = f"bad report: {type(exc).__name__}: {exc}"
        return
    steps = workloads.STEPS
    if doc["kind"] != wl.kind or last_step != steps or len(call["readings"]) != steps:
        call["error"] = (
            f"report kind {doc['kind']}, last step {last_step}, "
            f"{len(call['readings'])} step readings; expected {wl.kind}, {steps}"
        )
        return
    call["digest"] = hashlib.sha256(blob).hexdigest()


def check_digests(calls, wl, expected):
    """Every call must give one digest, equal to the reference where one exists."""
    want = expected
    for call in calls:
        if call["error"] is not None:
            continue
        if want is None:
            want = call["digest"]
        elif call["digest"] != want:
            call["error"] = (
                f"{wl.name}: report digest {call['digest']} differs from "
                f"{'reference' if expected else 'first call'} {want}"
            )


# ---------------------------------------------------------------- metrics


def end_to_end(timed, setup_times):
    """End-to-end metrics from the untraced calls of one run.

    Every call repeats identical, deterministic work, and the machine's speed
    only ever adds time, so each step's cost is taken as its fastest interval
    over the calls.  run_s adds up the same way: the summed per-step times
    plus the fastest remainder of a call (load, first step, evaluations
    before and after the step readings, report).  Interval j lies between
    the readings of steps j+1 and j+2, so it holds the evaluation that
    follows step j+1 when that step is a multiple of EVAL_EVERY.
    """
    if not timed:
        return None, {}
    best_ms = np.min([np.diff(c["readings"]) for c in timed], axis=0) * 1e3
    rest_s = min(c["wall"] - (c["readings"][-1] - c["readings"][0]) for c in timed)
    with_eval = (np.arange(1, best_ms.size + 1) % workloads.EVAL_EVERY) == 0
    values = {
        "setup_s": float(np.median(setup_times)),
        "run_s": float(rest_s + best_ms.sum() / 1e3),
        "train_samples_per_s": float(
            best_ms.size * workloads.BATCH / (best_ms.sum() / 1e3)
        ),
        "step_ms_p50": float(np.median(best_ms[~with_eval])),
        "eval_step_ms_p50": float(np.median(best_ms[with_eval])),
        "peak_rss_mb": peak_rss_mb(),
    }
    per_step = f"fastest of {len(timed)} calls for each of {{}} step intervals"
    samples = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "run_s": f"fastest parts of {len(timed)} calls",
        "train_samples_per_s": per_step.format(best_ms.size),
        "step_ms_p50": per_step.format(int((~with_eval).sum())) + " without an evaluation",
        "eval_step_ms_p50": per_step.format(int(with_eval.sum())) + " with an evaluation",
        "peak_rss_mb": "whole process",
    }
    return values, samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_self_s(tracer):
    """Self time of each layer over all of a tracer's spans."""
    name_of, parent, start, end = tracer.arrays()
    self_s = spans.self_times(parent, start, end)
    span_layer = np.asarray(tracer.name_layer, dtype=np.int64)[name_of]
    layer_self = np.bincount(span_layer, weights=self_s, minlength=len(tracer.layers))
    return dict(zip(tracer.layers, layer_self.tolist()))


def call_summary(tracer, solver_keys, steps):
    """Per-layer self times, eval durations and counts of one traced bench call."""
    name_of, parent, start, end = tracer.arrays()

    def ids(*names):
        return [i for i, n in enumerate(tracer.names) if n in names]

    is_eval = np.isin(name_of, ids(*EVAL_SPANS))
    in_eval = spans.under(parent, is_eval)

    def count(name):
        return int(np.sum(np.isin(name_of, ids(name)) & ~in_eval))

    solver_keys = [key for sid, key in solver_keys if not in_eval[sid]]
    return {
        "steps": steps,
        "layer_self_s": layer_self_s(tracer),
        "eval_ms": ((end - start)[is_eval] * 1e3).tolist(),
        "counts": {
            "diffsort.calls_per_step": count(SORT_LOSS) / steps,
            "linalg.factorizations_per_step": count(FACTORIZATION) / steps,
            "shortest_path.calls_per_step": count(SOLVER) / steps,
            "shortest_path.unique_frac": (
                len(set(solver_keys)) / len(solver_keys) if solver_keys else 0.0
            ),
        },
    }


def per_layer(calls, setup_tracer, want_counts, problems):
    """Per-layer metrics from the calls of one traced run (untraced ones alternate)."""
    traced = [c for c in calls if c["tracer"] is not None and c["error"] is None]
    for t in traced:
        t["summary"] = call_summary(t["tracer"], t["solver_keys"].keys, len(t["readings"]))
    steps = sum(t["summary"]["steps"] for t in traced)
    wall = sum(t["wall"] for t in traced)
    layer_s = {
        layer: sum(t["summary"]["layer_self_s"][layer] for t in traced)
        for layer in spans.LAYERS
    }
    values = {
        f"{layer}.self_ms_per_step": layer_s[layer] / steps * 1e3
        for layer in ("diffsort", "newton", "linalg", "shortest_path", "smoothing", "net",
                      "bench.trainers")
    }
    eval_ms = [ms for t in traced for ms in t["summary"]["eval_ms"]]
    values["bench.trainers.eval_ms"] = float(np.mean(eval_ms))
    values["bench.datagen.self_s"] = layer_self_s(setup_tracer)["bench.datagen"]
    values["bench.report.self_ms"] = layer_s["bench.report"] / len(traced) * 1e3
    values["trace.unattributed_frac"] = 1.0 - sum(layer_s.values()) / wall
    # Each traced call against the untraced call just before it, so that
    # drift in the machine's speed cancels.
    values["trace.overhead_s"] = float(np.median([
        t["wall"] - u["wall"]
        for u, t in zip(calls, calls[1:])
        if t["tracer"] is not None and u["tracer"] is None
        and t["error"] is None and u["error"] is None
    ]))
    counts = [t["summary"]["counts"] for t in traced]
    for name in COUNT_METRICS:
        seen = sorted({c[name] for c in counts})
        if seen != [want_counts.get(name)]:
            problems.append(
                f"count {name} is {seen} over the traced calls, "
                f"reference {want_counts.get(name)!r}"
            )
        values[name] = counts[0][name]
    return values


# ---------------------------------------------------------------- main


def fmt_line(name, value, unit, note=""):
    return f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip()


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "newtonbench", "bench", "cli.py")):
        print(
            "error: src/newtonbench not found; run from the root of a newtonbench checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    reference = workloads.load_reference()
    expected_digest = (
        reference["digests"].get(wl.name) if args.seed == reference["seed"] else None
    )
    load_start = os.getloadavg()
    problems = []

    setup_times = []
    setup_tracer = None
    if args.trace:
        setup_tracer = spans.Tracer()
        with setup_tracer:
            workloads.generate(wl.kind, wl.data_path)
    else:
        setup_times.append(timed_setup(wl))

    from newtonbench import net
    from newtonbench.bench import cli, report

    out_path = os.path.join(workloads.WORK_DIR, f"report-{wl.name}.json")
    argv_bench = wl.bench_argv(args.seed, out_path)
    calls = []

    def one_call(traced):
        call = {"tracer": None}
        contexts = ()
        if traced:
            call["tracer"] = spans.Tracer()
            call["solver_keys"] = SolverKeys(call["tracer"])
            contexts = (call["tracer"], call["solver_keys"])
        call.update(bench_call(cli, net, argv_bench, out_path, contexts))
        check_report(call, out_path, wl, report)
        calls.append(call)
        return call

    # Calls run back to back while a new one would still keep the calls'
    # summed time within --seconds, judged by the fastest call so far.  A
    # traced run alternates untraced and traced calls so that both see the
    # same machine state.  An untraced run spreads its set-ups evenly over
    # the calls, so that setup_s samples the machine's speed across the run.
    fastest = one_call(False)["wall"]
    while (call_s := sum(c["wall"] for c in calls)) + fastest < args.seconds:
        if not args.trace and call_s >= len(setup_times) * args.seconds / SETUPS:
            setup_times.append(timed_setup(wl))
        traced = bool(args.trace) and calls[-1]["tracer"] is None
        fastest = min(fastest, one_call(traced)["wall"])
    if args.trace and len(calls) == 1:
        one_call(True)
    while not args.trace and len(setup_times) < SETUPS:
        setup_times.append(timed_setup(wl))

    check_digests(calls, wl, expected_digest)
    failed = [c for c in calls if c["error"] is not None]
    for c in failed:
        print(f"FAILED {wl.name} seed {args.seed}: {c['error']}", file=sys.stderr)
    if expected_digest is None and args.seed == reference["seed"]:
        problems.append(f"no reference digest recorded for {wl.name}")

    timed = [c for c in calls if c["error"] is None]
    untraced = [c for c in timed if c["tracer"] is None]
    traced = [c for c in calls if c["tracer"] is not None]
    ok_traced = [c for c in timed if c["tracer"] is not None]
    lines = [f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
             f"calls {len(calls)}  steps/call {workloads.STEPS}  batch {workloads.BATCH}"]
    if args.trace:
        metrics = None
        if ok_traced and untraced:
            want_counts = reference["counts"].get(wl.name, {})
            metrics = per_layer(calls, setup_tracer, want_counts, problems)
        units = PER_LAYER
        spans.write_spans(
            os.path.join(workloads.WORK_DIR, f"spans-{wl.name}.tsv.gz"),
            [("setup", setup_tracer)]
            + [(f"call{i}", c["tracer"]) for i, c in enumerate(traced, 1)],
        )
        samples = {}
    else:
        metrics, samples = end_to_end(untraced, setup_times)
        units = END_TO_END
    if metrics is None:
        problems.append("no call completed, so no metric could be measured")
        metrics = {name: 0.0 for name, _ in units}
    for name, unit in units:
        note = f"({samples[name]})" if name in samples else ""
        lines.append(fmt_line(name, metrics[name], unit, note))
    lines.append(fmt_line("failed_frac", len(failed) / len(calls), "frac",
                          f"({len(failed)} of {len(calls)} calls)"))
    call_wall_s = None
    if untraced:
        # Whole calls as they ran, to set beside run_s, which is put together
        # from the fastest parts of different calls.
        walls = np.sort([c["wall"] for c in untraced])
        call_wall_s = float(np.median(walls[: max(1, walls.size // 4)]))
        lines.append(fmt_line("call_wall_s", call_wall_s, "s",
                              f"(median of the fastest quarter of {walls.size} untraced calls)"))
    for p in problems:
        print(f"PROBLEM {wl.name} seed {args.seed}: {p}", file=sys.stderr)

    result = {
        "correct": not failed and not problems,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    env = envinfo.record()
    env["loadavg_start"] = list(load_start)
    env["loadavg_end"] = list(os.getloadavg())
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "result": result,
        "samples": samples,
        "setup_times_s": setup_times,
        "call_wall_s": call_wall_s,
        "calls": [
            {
                "traced": c["tracer"] is not None,
                "wall_s": c["wall"],
                "steps": len(c["readings"]),
                "step_ms": (np.diff(c["readings"]) * 1e3).tolist(),
                "digest": c.get("digest"),
                "error": c["error"],
                "counts": c.get("summary", {}).get("counts"),
            }
            for c in calls
        ],
        "problems": problems,
        "env": env,
    }
    result_path = os.path.join(
        workloads.WORK_DIR, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    lines.append("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


class SolverKeys:
    """Records the input grid of each solver call made under a tracer.

    Entered after the tracer, it wraps the traced ``dijkstra_grid`` and logs
    (id of the call's span, cost grid bytes), so that repeated grids can be
    counted.  All callers reach the solver through the module attribute.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.keys = []

    def __enter__(self):
        from newtonbench import shortest_path

        traced = self._traced = shortest_path.dijkstra_grid
        keys, name_of = self.keys, self.tracer.name_of

        def keyed(inst):
            keys.append((len(name_of), inst.node_costs.tobytes()))  # the next span id
            return traced(inst)

        shortest_path.dijkstra_grid = keyed
        return self

    def __exit__(self, *exc):
        from newtonbench import shortest_path

        shortest_path.dijkstra_grid = self._traced
        return False


if __name__ == "__main__":
    sys.exit(main())

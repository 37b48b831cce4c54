"""Report assembly, hashing, serialization, and layout validation.

A report file is a pure function of (config, seed list), as each TrainReport
is of its config: only the CLI reads a clock, for its stderr progress lines,
so repeating an invocation reproduces the output byte for byte.
"""

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

SCHEMA_VERSION = 1
MODES = ("baseline", "nl_hessian", "nl_fisher")
FLOAT_FMT = ".12g"


@dataclass
class TrainReport:
    """One (mode, seed) training run; config echoes its settings, seed included."""

    config: dict
    curve: list      # [{"step": int, "<metric>": percent, ...}, ...], nonempty
    final: dict = field(init=False)  # the last point's metrics, without its step

    def __post_init__(self):
        self.final = {k: v for k, v in self.curve[-1].items() if k != "step"}


def config_hash(echo):
    """sha256 over the canonical config JSON, excluding output locations."""
    scrubbed = {k: v for k, v in echo.items() if k not in ("hash", "out", "format")}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def aggregate_finals(runs):
    """Mean and sample standard deviation of final metrics across seeds."""
    if not runs:
        raise ConfigError("cannot aggregate an empty run list")
    keys = sorted(runs[0].final)
    mean, std = {}, {}
    for k in keys:
        vals = np.array([r.final[k] for r in runs], dtype=np.float64)
        mean[k] = float(np.mean(vals))
        std[k] = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
    return mean, std


def build_report(kind, echo, mode_runs):
    """Assemble the report document.

    mode_runs maps mode name to (lam, [TrainReport per seed]).
    """
    echo = dict(echo)
    echo["hash"] = config_hash(echo)
    modes = {}
    for mode, (lam, runs) in mode_runs.items():
        mean, std = aggregate_finals(runs)
        modes[mode] = {
            "lam": float(lam),
            "seeds": [
                {"seed": r.config["seed"], "curve": r.curve, "final": r.final} for r in runs
            ],
            "final_mean": mean,
            "final_std": std,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": echo,
        "modes": modes,
    }


def render_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def fmt(x):
    """One TSV cell: a float in FLOAT_FMT."""
    return format(x, FLOAT_FMT)


def render_tsv(doc):
    """Flat plot-ready table: one row per (mode, seed, eval step)."""
    metric_names = set()
    for entry in doc["modes"].values():
        for run in entry["seeds"]:
            for point in run["curve"]:
                metric_names.update(k for k in point if k != "step")
    metrics = sorted(metric_names)
    lines = ["\t".join(["mode", "seed", "step"] + metrics)]
    for mode in sorted(doc["modes"]):
        entry = doc["modes"][mode]
        for run in entry["seeds"]:
            for point in run["curve"]:
                row = [mode, str(run["seed"]), str(point["step"])]
                row += [fmt(point[m]) for m in metrics]
                lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def ablation_tsv(lambdas, columns):
    """Combined ablation table: lambda plus one final-metric column per mode,
    each column a list aligned with lambdas."""
    names = sorted(columns)
    lines = ["\t".join(["lambda"] + names)]
    for row in zip(lambdas, *(columns[name] for name in names), strict=True):
        lines.append("\t".join(fmt(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _check(ok, rule):
    if not ok:
        raise ValueError(f"invalid report: {rule}")


def _check_keys(x, keys, what, extra=False):
    ok = isinstance(x, dict) and x.keys() >= {*keys} and (extra or len(x) == len(keys))
    _check(ok, f"{what} must have {'' if extra else 'exactly '}the keys {keys}")


def _is_number(v, top=math.inf, whole=False):
    """As in JSON Schema, a bool is no number and 1.0 is whole; NaN is in no range."""
    ok = isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= top
    return ok and (not whole or v % 1 == 0)


def _is_numbers(x, least, top=100):
    return isinstance(x, dict) and len(x) >= least and all(_is_number(x[k], top) for k in x)


def validate_report(doc):
    """Raise ValueError naming the first rule of the report layout that doc breaks."""
    _check_keys(doc, ("schema_version", "kind", "config", "modes"), "a report")
    version, config, modes = doc["schema_version"], doc["config"], doc["modes"]
    _check(version == 1 and not isinstance(version, bool), "schema_version must be 1")
    _check(doc["kind"] in ("rank", "path"), "kind must be rank or path")
    _check_keys(config, ("task", "method", "hash"), "config", extra=True)
    _check(config["task"] in ("rank", "path"), "config.task must be rank or path")
    _check(isinstance(config["method"], str), "config.method must be a string")
    ok = isinstance(config["hash"], str) and re.fullmatch("[0-9a-f]{64}", config["hash"])
    _check(ok, "config.hash must be 64 lowercase hex digits")
    ok = isinstance(modes, dict) and modes and modes.keys() <= {*MODES}
    _check(ok, f"modes must hold 1 to 3 of {MODES}")
    for entry in modes.values():
        _check_keys(entry, ("lam", "seeds", "final_mean", "final_std"), "a mode")
        _check(_is_number(entry["lam"]), "lam must be a number >= 0")
        _check(isinstance(entry["seeds"], list) and entry["seeds"], "a mode needs 1+ seeds")
        for run in entry["seeds"]:
            _check_keys(run, ("seed", "curve", "final"), "a run")
            _check(_is_number(run["seed"], whole=True), "seed must be an integer >= 0")
            _check(isinstance(run["curve"], list) and run["curve"], "a curve needs 1+ points")
            for point in run["curve"]:
                _check_keys(point, ("step",), "a curve point", extra=True)
                _check(_is_number(point["step"], whole=True), "step must be an integer >= 0")
                metrics = {k: v for k, v in point.items() if k != "step"}
                _check(_is_numbers(metrics, 0), "curve metrics must be in [0, 100]")
            _check(_is_numbers(run["final"], 1), "final needs 1+ numbers in [0, 100]")
        _check(_is_numbers(entry["final_mean"], 1), "final_mean needs 1+ numbers in [0, 100]")
        _check(_is_numbers(entry["final_std"], 0, math.inf), "final_std needs numbers >= 0")


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)

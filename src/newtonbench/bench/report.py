"""Report assembly, hashing, serialization, and schema validation.

A report file is a pure function of (config, seed list): wall-clock timing
is surfaced on stderr by the CLI but never serialized, so repeating an
invocation reproduces the output byte for byte.
"""

import hashlib
import importlib.resources
import json
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

SCHEMA_VERSION = 1
FLOAT_FMT = ".12g"


@dataclass
class TrainReport:
    """One (mode, seed) training run."""

    config: dict
    seed: int
    curve: list      # [{"step": int, "<metric>": percent, ...}, ...]
    final: dict      # {"<metric>": percent}
    wall_clock: float = 0.0  # seconds; stderr only, never serialized


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
                {"seed": r.seed, "curve": r.curve, "final": r.final} for r in runs
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
    """One TSV cell: bools as 0/1, floats in FLOAT_FMT, anything else as str."""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return format(x, FLOAT_FMT)
    return str(x)


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
    """Combined ablation table: lambda plus one final-metric column per mode.

    columns maps column name to either a list aligned with lambdas or a
    single repeated value (the unregularized baseline).
    """
    names = sorted(columns)
    lines = ["\t".join(["lambda"] + names)]
    for i, lam in enumerate(lambdas):
        row = [fmt(float(lam))]
        for name in names:
            col = columns[name]
            val = col[i] if isinstance(col, (list, tuple)) else col
            row.append(fmt(float(val)))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def load_schema():
    ref = importlib.resources.files("newtonbench.bench") / "report_schema.json"
    return json.loads(ref.read_text())


def validate_report(doc):
    """Validate against the shipped schema; raises on mismatch."""
    import jsonschema

    jsonschema.validate(instance=doc, schema=load_schema())


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)

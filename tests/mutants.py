"""A mutation smoke: does the test suite notice a small wrong change?

Each entry of MUTANTS is (file, old text, new text, tests): a one-line
mutant of the package and the tier-1 test files meant to kill it.  For each
entry the script copies the repository (without .git) to a temporary
directory, replaces the old text there with the new, runs pytest on the
files and prints "killed" when a test fails or "survived" when none does.
EQUIVALENT names the entries no test can kill, each with the reason.

    python3 tests/mutants.py            # every entry, a few minutes
    python3 tests/mutants.py net.py     # the entries whose file ends so

pytest does not collect this file; tests/test_mutants.py checks that every
old text occurs exactly once, so the list cannot rot.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = "src/newtonbench/"
# each module's test file, then the step locks and the goldens
LOCKS = ("tests/test_step_locks.py", "tests/test_golden.py")
NET, DIFFSORT, NEWTON, LINALG, SMOOTHING, SHORTEST_PATH, BENCH = (
    (f"tests/test_{name}.py", *LOCKS)
    for name in ("net", "diffsort", "newton", "linalg", "smoothing", "shortest_path", "bench")
)

MUTANTS = [
    # net: the derivative read from the output, the tape, the optimizer
    (PKG + "net.py", "lambda a: a > 0.0", "lambda a: a >= 0.0", NET),
    (PKG + "net.py", "lambda a: 1.0 - a * a", "lambda a: 1.0 - a", NET),
    (PKG + "net.py", "(lambda z: z, np.ones_like)", "(lambda z: z, np.zeros_like)", NET),
    (PKG + "net.py", "z += b  #", "z -= b  #", NET),
    (PKG + "net.py", "(tape[l + 1])", "(tape[l])", NET),
    (PKG + "net.py", "grads_b[l][...] = delta.sum(axis=0)", "grads_b[l][...] = delta.mean(axis=0)",
     NET),
    (PKG + "net.py", "bc2 = 1.0 - ADAM_BETA2 ** t", "bc2 = 1.0 - ADAM_BETA2 ** (t + 1)", NET),
    # diffsort
    (PKG + "diffsort.py", "PROB_CLAMP = 1e-12", "PROB_CLAMP = 1e-10", DIFFSORT),
    (PKG + "diffsort.py", "    ordered.sort(axis=1)\n", "", DIFFSORT),
    (PKG + "diffsort.py", "g_v[j] -= pull", "g_v[j] += pull", DIFFSORT),
    (PKG + "diffsort.py", "return s, c, s * c", "return s, c, s", DIFFSORT),
    (PKG + "diffsort.py", "at = np.arctan(x) / np.pi", "at = np.arctan(x) / (2 * np.pi)", DIFFSORT),
    (PKG + "diffsort.py", 'q = truth.matrix[::-1] if cfg.method.startswith("dsn")',
     'q = truth.matrix if cfg.method.startswith("dsn")', DIFFSORT),
    # newton
    (PKG + "newton.py", "FD_STEP = np.cbrt(", "FD_STEP = np.sqrt(", NEWTON),
    (PKG + "newton.py", "return grads, 0.5 * (h + h.T)", "return grads, h", NEWTON),
    (PKG + "newton.py", "cols = (g[1 : m + 1] - g[m + 1 :]) / (2.0 * step)",
     "cols = (g[1 : m + 1] - g[m + 1 :]) / step", NEWTON),
    (PKG + "newton.py", "moment = len(g) * (g.T @ g)", "moment = g.T @ g", NEWTON),
    (PKG + "newton.py", "    diff = y - z\n", "    diff = z - y\n", NEWTON),
    # linalg
    (PKG + "linalg.py", "PIVOT_RTOL = 1e-12", "PIVOT_RTOL = 1e-9", LINALG),
    (PKG + "linalg.py", "sym = 0.5 * (M + M.T)", "sym = M", LINALG),
    (PKG + "linalg.py", "if mag.min() <= PIVOT_RTOL", "if mag.min() < PIVOT_RTOL", LINALG),
    (PKG + "linalg.py", "(G.T @ W).T / (n * lam * lam)", "(G.T @ W).T / (n * lam)", LINALG),
    # smoothing
    (PKG + "smoothing.py", "axis=1) / c.samples / c.sigma**2\n    return",
     "axis=1) / c.samples / c.sigma\n    return", SMOOTHING),
    (PKG + "smoothing.py", "h = outer - mean_w", "h = outer + mean_w", SMOOTHING),
    (PKG + "smoothing.py", "checked(0.5 * (h + h.swapaxes(1, 2)), ", "checked(h, ", SMOOTHING),
    (PKG + "smoothing.py", "mean = checked(np.add.reduce(vals, axis=1) / c.samples,",
     "mean = checked(np.add.reduce(vals, axis=1) / (c.samples + 1),", SMOOTHING),
    (PKG + "smoothing.py", "(y[:, None] + eps, y[:, None])", "(y[:, None] - eps, y[:, None])",
     SMOOTHING),
    # shortest_path
    (PKG + "shortest_path.py", "_PRED_ORDER = ((-1, 0), (0, -1),", "_PRED_ORDER = ((0, -1), (-1, 0),",
     SHORTEST_PATH),
    (PKG + "shortest_path.py", "d + cost[m] < dist[m]", "d + cost[m] <= dist[m]", SHORTEST_PATH),
    (PKG + "shortest_path.py", "MAX_ENUM_CELLS = 25", "MAX_ENUM_CELLS = 36", SHORTEST_PATH),
    (PKG + "shortest_path.py", "np.minimum.at(second, owner, far[-1, -1])",
     "np.minimum.at(second, owner, far[-2, -1])", SHORTEST_PATH),
    # trainers
    (PKG + "bench/trainers.py", "hess = np.add.reduce(hess, axis=0, initial=0.0) / n",
     "hess = np.add.reduce(hess, axis=0, initial=0.0) / (n - 1)", BENCH),
    (PKG + "bench/trainers.py", "return n * newton.inject_fisher(", "return newton.inject_fisher(",
     BENCH),
    (PKG + "bench/trainers.py", "curv = sig * (1.0 - sig)", "curv = sig * sig", BENCH),
    (PKG + "bench/trainers.py", "] -= g_scores * curv", "] += g_scores * curv", BENCH),
    (PKG + "bench/trainers.py", "train = count - min(128,", "train = count - min(127,", BENCH),
    # datagen
    (PKG + "bench/datagen.py", "PATH_MARGIN = 0.05", "PATH_MARGIN = 0.04", BENCH),
    (PKG + "bench/datagen.py", "return 1.0 / max(1, n - 1)", "return 1.0 / max(1, n)", BENCH),
    (PKG + "bench/datagen.py", "return np.logaddexp(0.0, raw) + COST_FLOOR", "return np.logaddexp(0.0, raw)",
     BENCH),
    (PKG + "bench/datagen.py", "None if row_gap < gap else", "None if row_gap <= gap else", BENCH),
]

EQUIVALENT = {
    (PKG + "shortest_path.py", "d + cost[m] < dist[m]"):
        "a tie rewrites dist[m] with its own value and pushes a copy of a heap "
        "entry, popped after m settles and skipped; the settle order is unchanged",
    (PKG + "bench/datagen.py", "None if row_gap < gap else"):
        "a normal draw's least latent gap equals 1/(n-1) exactly with probability "
        "0, and the seeded draws keep no other record at either comparison",
}


def run(file, old, new, tests):
    """pytest's exit code on the selection, in a copy of the repository
    carrying the mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp, "repo")
        junk = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".stepbench")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*junk))
        target = copy / file
        target.write_text(target.read_text().replace(old, new))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def main(suffixes):
    """Run the entries whose file ends in one of suffixes (all without any);
    exit 1 if any survived that EQUIVALENT does not explain."""
    failed = 0
    for file, old, new, tests in MUTANTS:
        if suffixes and not file.endswith(tuple(suffixes)):
            continue
        code = run(file, old, new, tests)
        # 1: a test failed; 2: collection failed (the mutant does not import)
        verdict = "killed" if code in (1, 2) else "survived" if code == 0 else f"pytest exit {code}"
        why = EQUIVALENT.get((file, old))
        if verdict == "survived" and why:
            verdict = "equivalent"
        failed += verdict not in ("killed", "equivalent")
        mutant = f"{file.removeprefix(PKG)}: {old.strip()!r} -> {new.strip()!r}"
        print(f"{verdict:10} {mutant}", flush=True)
        if verdict == "equivalent":
            print(f"{'':10} {why}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

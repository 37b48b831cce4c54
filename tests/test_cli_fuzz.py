"""Property test of the CLI: argv from a bounded grammar never gives a traceback.

Every argv drawn here must end with exit code 0, 2 (configuration) or 3
(numerics); a run that fails after argparse must say why in one stderr line
(an argparse rejection is SystemExit(2) with its usage text), and no
RuntimeWarning may reach stderr. Three further rules hold for the drawn argv:
a non-finite damping, temperature, smoothing, sweep-bound or base value is
a configuration error, so is a smoothing sigma that is not positive or whose
fourth power is not a finite normal float, and a size or count below 1 never
succeeds, because a run that does nothing must not report success. Sizes stay tiny (grid <= 3,
steps <= 2, grids <= 1) so the test runs in seconds.
"""

import contextlib
import io
import json
import math
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from newtonbench.bench import cli, trainers

FLOATS = ("nan", "inf", "-inf", "-1", "0", "1e308", "0.1")
SIZES = (-1, 0, 1, 2, 3)
NON_FINITE = {"nan", "inf", "-inf"}
# options whose non-finite value is a configuration error (exit 2)
CONFIG_FLOATS = (
    "--lambda", "--tau", "--beta", "--sigma", "--lambdas", "--lo", "--hi", "--base",
)
# options whose value counts something the run must do at least once
COUNTS = ("--steps", "--batch", "--n", "--grid", "--samples", "--seeds", "--grids")
# --data choices, resolved to files by the datasets fixture
DATA = (
    "rank", "path", "missing", "not-json", "bad-header", "no-ranking", "bad-mask",
    "count-mismatch", "string-features", "bool-mask",
)


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """Valid rank (n=3) and path (3x3) sets, a missing file and broken files."""
    root = tmp_path_factory.mktemp("fuzz-data")
    files = {name: str(root / f"{name}.jsonl") for name in DATA}
    for kind, size in (("rank", ["--n", "3"]), ("path", ["--grid", "3"])):
        assert cli.main(["gen", kind, *size, "--count", "30", "--out", files[kind]]) == 0
    header = json.dumps({"kind": "rank", "n": 3, "feature_dim": 6, "seed": 0})
    # a 3x3 path whose mask entries are doubled: the right shape, not 0/1
    grid_header = json.dumps({"kind": "path", "size": 3, "feature_dim": 6, "seed": 0})
    doubled = json.dumps({"features": [[0.0] * 6] * 9, "mask": [[2, 0, 0], [2, 0, 0], [2, 2, 2]]})
    # the valid path set with its first record's features as JSON strings,
    # or its first mask as booleans: loaded as they are, both would train
    with open(files["path"]) as fh:
        header_line, first, *rest = fh.read().splitlines(keepends=True)
    record = json.loads(first)
    strings = {**record, "features": [[str(v) for v in row] for row in record["features"]]}
    booleans = {**record, "mask": [[v == 1 for v in row] for row in record["mask"]]}
    # the valid rank set under a header that claims one record more
    with open(files["rank"]) as fh:
        miscounted = fh.read().replace('"count": 30', '"count": 31', 1)
    for name, body in (
        ("not-json", header + "\nnot json\n"),
        ("bad-header", "{kind: rank}\n"),
        ("no-ranking", header + '\n{"features": [[0.0]]}\n'),
        ("bad-mask", grid_header + "\n" + doubled + "\n"),
        ("count-mismatch", miscounted),
        ("string-features", "".join([header_line, json.dumps(strings) + "\n", *rest])),
        ("bool-mask", "".join([header_line, json.dumps(booleans) + "\n", *rest])),
    ):
        with open(files[name], "w") as fh:
            fh.write(body)
    return files


def value(values, good):
    # one_of splits its draws between the branches, so valid values come up
    # often enough for runs to get past the configuration checks
    return st.one_of(st.sampled_from(good), st.sampled_from(values))


def opt(flag, values, good=()):
    """Either nothing or ("flag=value",)."""
    drawn = value(values, good) if good else st.sampled_from(values)
    return st.one_of(st.just(()), drawn.map(lambda v: (f"{flag}={v}",)))


def always(flag, values, good):
    return value(values, good).map(lambda v: (f"{flag}={v}",))


def float_list(flag):
    lists = st.lists(value(FLOATS, ("0.1",)), min_size=1, max_size=2)
    return st.one_of(st.just(()), lists.map(lambda vs: (f"{flag}={','.join(vs)}",)))


def command(head, *parts):
    return st.tuples(*parts).map(lambda groups: [*head, *(t for g in groups for t in g)])


FLOAT = (FLOATS, ("0.1",))
SIZE = (SIZES, (2, 3))
STEPS = always("--steps", [s for s in SIZES if s <= 2], (1, 2))
SEEDING = st.one_of(opt("--seed", *SIZE), opt("--seeds", *SIZE))
SORT = (opt("--tau", *FLOAT), opt("--beta", *FLOAT))
DATA_OPT = opt("--data", DATA)
RANK_METHOD = opt("--method", trainers.RANK_METHODS)

ARGV = st.one_of(
    command(
        ("bench", "rank"), RANK_METHOD, opt("--mode", trainers.MODES),
        opt("--lambda", *FLOAT), SEEDING, STEPS, opt("--batch", *SIZE),
        always("--n", *SIZE), *SORT, DATA_OPT,
    ),
    command(
        ("bench", "path"), opt("--method", trainers.PATH_METHODS),
        opt("--mode", trainers.MODES), opt("--lambda", *FLOAT), SEEDING, STEPS,
        opt("--batch", *SIZE), always("--grid", *SIZE), opt("--sigma", *FLOAT),
        opt("--samples", *SIZE), DATA_OPT,
    ),
    command(
        ("ablate", "lambda"), RANK_METHOD, always("--lambdas", *FLOAT), STEPS,
        opt("--batch", *SIZE), opt("--n", *SIZE), *SORT, opt("--seed", *SIZE),
        DATA_OPT,
    ),
    command(
        ("slice", "grad"), RANK_METHOD, always("--coord", SIZES, (0, 1)),
        opt("--n", *SIZE), *SORT, float_list("--base"), opt("--lo", *FLOAT),
        opt("--hi", *FLOAT), opt("--steps", *SIZE), opt("--lambda", *FLOAT),
    ),
    command(
        ("check", "oracles"), opt("--seed", *SIZE),
        always("--grids", [s for s in SIZES if s <= 1], (1,)),
    ),
)


def smoothable(text):
    """Whether a --sigma value passes the configuration checks: positive,
    with a fourth power that is a finite normal float."""
    try:
        return float(text) > 0 and sys.float_info.min <= float(text) ** 4 < math.inf
    except OverflowError:
        return False


def run(argv):
    """(exit code, stderr text) of one in-process CLI call; the code is None
    when argparse rejects the argv."""
    err = io.StringIO()
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
    ):
        # a RuntimeWarning would print to stderr outside the test runner
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return None, err.getvalue()
    return code, err.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=ARGV)
@example(argv=["slice", "grad", "--coord=0", "--lambda=nan"])
@example(argv=["slice", "grad", "--coord=0", "--tau=nan"])
@example(argv=["bench", "rank", "--n=3", "--steps=1", "--data=not-json"])
@example(argv=["bench", "path", "--grid=3", "--steps=1", "--data=string-features"])
@example(argv=["bench", "path", "--grid=3", "--steps=1", "--data=bool-mask"])
@example(argv=["check", "oracles", "--grids=0"])
@example(argv=["slice", "grad", "--coord=0", "--lo=-inf"])
@example(argv=["slice", "grad", "--coord=0", "--base=nan,1,2"])
# sigma=1e8 floors perturbed costs at 1e-9 beside sums of 1e8, where they add nothing
@example(argv=["bench", "path", "--method=fy", "--grid=3", "--steps=3", "--samples=4",
               "--batch=4", "--mode=baseline", "--sigma=1e8"])
# finite, but sigma**4 overflows the float range
@example(argv=["bench", "path", "--mode=nl_hessian", "--sigma=1e100"])
# sigma**4 underflows to 0, which the Hessian estimate divides by
@example(argv=["bench", "path", "--mode=nl_hessian", "--grid=3", "--steps=2", "--sigma=1e-100"])
def test_argv_grammar_exits_cleanly(datasets, argv):
    values = dict(tok.split("=", 1) for tok in argv if tok.startswith("--"))
    argv = [f"--data={datasets[tok[7:]]}" if tok.startswith("--data=") else tok
            for tok in argv]
    code, err = run(argv)
    assert "Traceback" not in err, (argv, err)
    if code is None:
        return
    assert code in (0, 2, 3), (argv, code)
    if code:
        # one message line; only a numeric failure can follow finished runs,
        # whose progress lines come first, because configs are checked up front
        *progress, message = err.strip().splitlines()
        assert message.startswith(("config error: ", "numeric failure: ", "error: ")), (argv, err)
        assert not progress or code == 3, (argv, err)
        assert all(" final=" in line for line in progress), (argv, err)
    if any(set(values.get(flag, "").split(",")) & NON_FINITE for flag in CONFIG_FLOATS):
        assert code == 2, (argv, code, err)
    if "--sigma" in values and not smoothable(values["--sigma"]):
        assert code == 2, (argv, code, err)
    if any(int(values.get(flag, 1)) < 1 for flag in COUNTS):
        assert code != 0, (argv, err)
    if values.get("--data", "rank") not in ("rank", "path"):  # a missing or broken file
        assert code == 2, (argv, code, err)

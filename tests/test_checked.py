"""errors.checked, the package's one array check, and the contract of the
library entry points that route their inputs through it: each call returns
finite output of the documented shape or raises a package error.  Then the
scalar settings: every one goes through errors.checked_int or checked_real,
and a bad value raises ConfigError naming it."""

import inspect
import math
import re
import reprlib
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonbench import diffsort, errors, linalg, net, newton, shortest_path, smoothing
from newtonbench.bench import checks, cli, datagen, report, slices, trainers
from newtonbench.errors import (
    ConfigError,
    NewtonBenchError,
    NonFiniteResult,
    ShapeMismatch,
    checked,
)


class TestChecked:
    def test_a_none_entry_matches_any_nonzero_length(self):
        assert checked(np.ones((3, 2)), "a", (None, 2)).shape == (3, 2)
        message = r"^a must have shape \(\*, 2\), got shape \(0, 2\)$"
        with pytest.raises(ShapeMismatch, match=message):
            checked(np.ones((0, 2)), "a", (None, 2))

    def test_an_all_none_shape_asks_for_a_nonempty_array(self):
        with pytest.raises(ShapeMismatch, match=r"^a must be 1-D and nonempty, got shape \(0,\)$"):
            checked([], "a", (None,))

    def test_an_exact_zero_length_matches(self):
        assert checked(np.ones((0, 3)), "a", (0, 3)).shape == (0, 3)
        message = r"^a must have shape \(0, 3\), got shape \(1, 3\)$"
        with pytest.raises(ShapeMismatch, match=message):
            checked(np.ones((1, 3)), "a", (0, 3))

    def test_a_scalar_shape(self):
        assert checked(2, "a", ()) == 2.0
        with pytest.raises(ShapeMismatch, match=r"^a must have shape \(\), got shape \(1,\)$"):
            checked([2.0], "a", ())

    @pytest.mark.parametrize("shape", [(None,), (None, None, None), (2, 2, 1)])
    def test_the_wrong_number_of_dimensions(self, shape):
        with pytest.raises(ShapeMismatch, match=r"^a must .*, got shape \(2, 2\)$"):
            checked(np.ones((2, 2)), "a", shape)

    @pytest.mark.parametrize(
        "a,want",
        [([1, 2], [1.0, 2.0]), (np.array([True, False]), [1.0, 0.0])],
        ids=["int", "bool"],
    )
    def test_int_and_bool_come_back_as_float64(self, a, want):
        out = checked(a, "a", (2,))
        assert out.dtype == np.float64
        assert out.tolist() == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entries(self, bad):
        with pytest.raises(NonFiniteResult, match=f"^a must be finite, got {bad}$"):
            checked([[1.0, bad]], "a", (1, 2))
        with pytest.raises(NonFiniteResult, match=f"^a must be finite, got {bad}$"):
            checked(bad, "a", ())

    def test_the_shape_is_checked_before_the_entries(self):
        with pytest.raises(ShapeMismatch):
            checked([np.nan], "a", (2,))

    def test_float64_input_comes_back_without_a_copy(self):
        a = np.ones((2, 3))
        assert checked(a, "a", (None, 3)) is a


# ------------------------------------------------------------ the contract

# signed zeros, subnormals and the edges of the float range, beside ordinary
# values that let a call get past its checks; one entry may turn non-finite
FINITE = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.0, -0.5)
NON_FINITE = (np.nan, np.inf, -np.inf)


@st.composite
def arrays(draw):
    """Arrays of 0, 1 or 2 rows and 1 to 3 dimensions over FINITE, with at
    most one NON_FINITE entry."""
    shape = (draw(st.integers(0, 2)), *draw(st.lists(st.integers(1, 3), max_size=2)))
    size = math.prod(shape)
    cells = draw(st.lists(st.sampled_from(FINITE), min_size=size, max_size=size))
    if size and draw(st.booleans()):
        cells[draw(st.integers(0, size - 1))] = draw(st.sampled_from(NON_FINITE))
    return np.array(cells, dtype=np.float64).reshape(shape)


SMOOTH = smoothing.SmoothingConfig(sigma=0.1, samples=3, seed=0)
SHIFTED = newton.LossProbe(grad=lambda v: v - 1.0)

# name -> call(a), which returns [(output, its documented shape), ...]; the
# drawn array a goes in one argument, every other argument is ordinary
ENTRY_POINTS = {}


def entry(fn):
    ENTRY_POINTS[fn.__name__] = fn
    return fn


def _square(a):
    return (a.shape[-1],) * 2


def _onehot(u):
    return np.eye(len(u))[np.argmax(u)]


def _switch(a):
    """A black box that returns one of a's entries by the sign of u[0]."""
    return lambda u: a.flat[int(u[0] > 0) % a.size] if a.size else a


@entry
def solver_matrix(a):
    return [(linalg.TikhonovSolver(a, 0.1).solve(np.ones(len(a))), (len(a),))]


@entry
def solver_vector(a):
    return [(linalg.TikhonovSolver(np.eye(2), 0.1).solve(a), (2,))]


@entry
def solver_block(a):
    return [(linalg.TikhonovSolver(np.eye(len(a)), 0.1).solve_mat(a), a.shape)]


@entry
def woodbury_gradients(a):
    rhs = np.ones((1, a.shape[-1]))
    return [(linalg.woodbury_solve(a, 0.1, rhs), rhs.shape)]


@entry
def woodbury_rhs(a):
    return [(linalg.woodbury_solve(np.ones((2, a.shape[-1])), 0.1, a), a.shape)]


@entry
def inject_fisher(a):
    return [(newton.inject_fisher(a, 0.1), a.shape)]


@entry
def batch_hessian_point(a):
    return list(zip(newton.batch_hessian(SHIFTED, a), (a.shape, _square(a))))


@entry
def batch_hessian_grads(a):
    parts = newton.batch_hessian(newton.LossProbe(grad=lambda v: a), np.ones(a.shape))
    return list(zip(parts, (a.shape, _square(a))))


@entry
def target_fisher(a):
    return [(newton.newton_target_fisher(a, SHIFTED, 0.1).z_star, a.shape)]


@entry
def target_grads(a):
    target = newton.newton_target_from_parts(np.ones(a.shape), a, np.eye(a.shape[-1]), 0.1)
    return [(target.z_star, a.shape)]


@entry
def target_point(a):
    target = newton.newton_target_from_parts(a, -a, np.zeros(_square(a)), 1.0)
    return [(target.z_star, a.shape)]


@entry
def target_hessian(a):
    rows = np.ones((2, len(a)))
    return [(newton.newton_target_from_parts(rows, rows, a, 0.1).z_star, rows.shape)]


@entry
def loss_eval_point(a):
    parts = newton.newton_loss_eval(a, newton.NewtonTarget(np.ones(a.shape)))
    return list(zip(parts, ((), a.shape)))


@entry
def loss_eval_target(a):
    parts = newton.newton_loss_eval(np.ones(a.shape), newton.NewtonTarget(a))
    return list(zip(parts, ((), a.shape)))


@entry
def hard_rank(a):
    return [(diffsort.hard_rank(a).matrix, (len(a),) * 2)]


@entry
def neuralsort(a):
    return [(diffsort.neuralsort_perm(a, 1.0).entries, (len(a),) * 2)]


@entry
def dsn(a):
    return [(diffsort.dsn_perm(a, 10.0, "cauchy").entries, (len(a),) * 2)]


@entry
def ranking_loss(a):
    truth = diffsort.GroundTruthRanking(range(len(a)))
    parts = diffsort.ranking_loss(a, truth, diffsort.SortConfig("softsort"))
    return list(zip(parts, ((), (len(a),))))


@entry
def smooth_grad_point(a):
    return [(smoothing.smooth_grad(np.sum, a, SMOOTH), (len(a),))]


@entry
def smooth_grad_values(a):
    return [(smoothing.smooth_grad(_switch(a), np.zeros(2), SMOOTH), (2,))]


@entry
def smooth_hessian_point(a):
    return [(smoothing.smooth_hessian(np.max, a, SMOOTH), (len(a),) * 2)]


@entry
def smooth_hessian_values(a):
    return [(smoothing.smooth_hessian(_switch(a), np.zeros(2), SMOOTH), (2, 2))]


@entry
def smooth_jacobian_values(a):
    estimates = smoothing.smooth_jacobian(lambda u: a, np.zeros(2), SMOOTH)
    return list(zip(estimates, (a.shape, (*a.shape, 2))))


@entry
def smooth_grad_stacked(a):
    # a Stacked black box whose outputs repeat a's entries along the stack
    rows = smoothing.Stacked(lambda p: np.resize(a, len(p)) if a.size else a)
    return [(smoothing.smooth_grad(rows, np.zeros(2), SMOOTH), (2,))]


@entry
def smooth_jacobian_stacked(a):
    rows = smoothing.Stacked(lambda p: np.resize(a, (len(p), *a.shape[1:])) if a.size else a)
    estimates = smoothing.smooth_jacobian(rows, np.zeros(2), SMOOTH)
    return list(zip(estimates, (a.shape[1:], (*a.shape[1:], 2))))


@entry
def smooth_jacobian_point(a):
    # the smoothed argmax at a point: fy's loss gradient plus its target
    estimates = smoothing.smooth_jacobian(_onehot, a, SMOOTH)
    return list(zip(estimates, ((len(a),), _square(a))))


def _model_step(a, kind):
    """backward with output gradient rows a, then one optimizer step."""
    model = net.Mlp.init([2, 3, 1], ["tanh", "identity"], 0)
    _, tape = net.forward(model, np.ones((len(a), 2)))
    grads = net.backward(model, tape, a)
    net.optimizer_step(net.OptimizerState.create(kind, 0.1, model), model, grads)
    return [(grads, model.flat.shape), (model.flat, model.flat.shape)]


@entry
def sgd_step(a):
    return _model_step(a, "sgd")


@entry
def adam_step(a):
    return _model_step(a, "adam")


@entry
def forward_batch(a):
    model = net.Mlp.init([a.shape[-1], 3, 1], ["tanh", "identity"], 0)
    return [(net.forward(model, a)[0], (len(a), 1))]


@entry
def fy_argmax(a):
    # fy's argmax box on a stack of 1 x 1 grids' scores
    return [(trainers._floored_argmax(a, 1), (len(a), 1))]


@entry
def rank_metrics(a):
    metrics = trainers.rank_metrics(a, np.argsort(-np.ones(a.shape), axis=-1))
    return [(list(metrics.values()), (2,))]


@entry
def path_metrics(a):
    metrics = trainers.path_metrics(a, np.ones((len(a), 1, 1)), 1)
    return [(list(metrics.values()), (1,))]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(a=arrays())
def test_entry_points_return_finite_output_of_their_shape_or_a_package_error(name, a):
    try:
        with warnings.catch_warnings():
            # overflow inside a relaxation warns on its way to NonFiniteResult
            warnings.simplefilter("ignore", RuntimeWarning)
            outputs = ENTRY_POINTS[name](a)
    except NewtonBenchError:
        return
    for out, shape in outputs:
        out = np.asarray(out)
        assert out.shape == shape
        assert np.all(np.isfinite(out))


# what the contract test found, one explicit case each
@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: newton.newton_loss_eval([[1e308]], newton.NewtonTarget([[-1e308]])),
            "^loss value must be finite, got inf$",
        ),
        (
            lambda: newton.newton_target_from_parts([[-1e308]], [[1e308]], [[0.0]], 1.0),
            "^z_star must be finite, got -inf$",
        ),
        (
            lambda: smoothing.smooth_grad(_switch(np.array([-1e308, 1e308])), np.zeros(2), SMOOTH),
            "^gradient estimate must be finite, got ",
        ),
        (
            lambda: smoothing.smooth_jacobian(lambda u: np.array([1e308]), np.zeros(2), SMOOTH),
            "^mean estimate must be finite, got inf$",
        ),
    ],
    ids=["loss-value", "target", "smoothed-gradient", "smoothed-mean"],
)
def test_an_overflowing_output_raises(call, message):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteResult, match=message):
            call()


G = np.ones((1, 2))
MODEL = net.Mlp.init([2, 1], ["identity"], 0)
LINE = net.Mlp.init([1, 1], ["identity"], 0)  # one weight: a full-rank Newton check
SLICE = dict(method="neuralsort", y_base=np.zeros(3), coord=0, lo=0.0, hi=1.0, steps=3)
HUGE = 10**400  # an int no float holds


def _slice(**setting):
    return slices.gradient_slice(**{**SLICE, **setting})


GE0, GT0 = "a finite real number >= 0", "a finite real number > 0"
INT1 = "an integer >= 1"


# each was accepted, or stopped with a bare TypeError, IndexError or
# OverflowError, before the bound moved into checked_int and checked_real
@pytest.mark.parametrize(
    "call,name,rule,value",
    [
        (lambda v: linalg.TikhonovSolver(np.eye(2), v), "lam", GE0, True),
        (lambda v: linalg.woodbury_solve(G, v, G), "lam", GT0, True),
        (lambda v: newton.inject_fisher(G, v), "lam", GT0, True),
        (lambda v: newton.NewtonConfig(lam=v), "lam", GE0, True),
        (lambda v: net.OptimizerState.create("adam", v, MODEL), "lr", GT0, True),
        (lambda v: smoothing.SmoothingConfig(0.1, 2, seed=v), "seed", "an integer >= 0", True),
        (lambda v: _slice(fisher_lambda=v), "fisher_lambda", GT0, True),
        (lambda v: _slice(coord=v), "coord", "an integer >= 0", True),
        (lambda v: checks.check_oracles(grids_per_size=v), "grids_per_size", INT1, True),
        (lambda v: linalg.TikhonovSolver(np.eye(2), v), "lam", GE0, "0.1"),
        (lambda v: linalg.woodbury_solve(G, v, G), "lam", GT0, "0.1"),
        (lambda v: newton.inject_fisher(G, v), "lam", GT0, "0.1"),
        (lambda v: newton.newton_target_fisher(G, SHIFTED, v), "lam", GT0, "0.1"),
        (lambda v: newton.NewtonConfig(lam=v), "lam", GE0, "0.1"),
        (lambda v: net.OptimizerState.create("adam", v, MODEL), "lr", GT0, "0.1"),
        (lambda v: _slice(fisher_lambda=v), "fisher_lambda", GT0, "0.1"),
        (lambda v: _slice(steps=v), "steps", "an integer >= 2", 2.5),
        (lambda v: checks.check_oracles(grids_per_size=v), "grids_per_size", INT1, 2.5),
        (lambda v: diffsort.SortConfig("softsort", tau=v), "tau", GT0, HUGE),
        (lambda v: _slice(coord=v), "coord", "an integer >= 0", 1.5),
        (lambda v: linalg.TikhonovSolver(np.eye(2), v), "lam", GE0, HUGE),
        (
            lambda v: trainers.ExperimentConfig("rank", "neuralsort", "nl_fisher", lam=v),
            "lam", GT0, HUGE,
        ),
    ],
    ids=[
        "solver-bool", "woodbury-bool", "inject-bool", "newton-config-bool", "optimizer-bool",
        "smoothing-seed-bool", "slice-lambda-bool", "slice-coord-bool", "oracles-bool",
        "solver-str", "woodbury-str", "inject-str", "target-fisher-str", "newton-config-str",
        "optimizer-str", "slice-lambda-str", "slice-steps-float", "oracles-float", "tau-huge",
        "slice-coord-float", "solver-huge", "experiment-lam-huge",
    ],
)
def test_a_bad_setting_raises_config_error_naming_it(call, name, rule, value):
    message = f"{name} must be {rule}, got {reprlib.repr(value)}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "value,shown",
    [
        (HUGE, "1" + "0" * 17 + "..." + "0" * 19),
        (10**5000, "an int of 16610 bits"),  # more digits than str() converts
        ("0.1" * 100, "'0.10.10.10.1...10.10.10.10.1'"),
    ],
    ids=["huge", "past-str-limit", "long-str"],
)
def test_a_refused_value_is_shown_cut_short(value, shown):
    for check in (errors.checked_int, errors.checked_real):
        with pytest.raises(ConfigError) as info:
            check(value, "lam", 0)
        assert str(info.value).endswith(f", got {shown}")
        assert len(str(info.value)) < 100


# an unknown choice is a bad setting like any other
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: newton.NewtonConfig(variant="newton"), "unknown variant 'newton'"),
        (
            lambda: newton.newton_target_fisher(G, SHIFTED, 0.1, inversion="lu"),
            "unknown inversion 'lu'",
        ),
        (
            lambda: newton.split_step_check_newton(LINE, [1.0], SHIFTED, 0.5, trainable="bias"),
            "unknown trainable selector 'bias'",
        ),
    ],
    ids=["variant", "inversion", "trainable"],
)
def test_an_unknown_choice_raises_config_error(call, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError) and issubclass(ConfigError, NewtonBenchError)


def test_path_metrics_rows_must_hold_one_grid_each():
    message = r"^held-out outputs must have shape \(\*, 4\), got shape \(2, 3\)$"
    with pytest.raises(ShapeMismatch, match=message):
        trainers.path_metrics(np.zeros((2, 3)), np.ones((2, 2, 2)), 2)


# one stored label per held-out row: fewer labels used to broadcast against
# the rows and score above 100%, or stop at numpy's broadcast ValueError
@pytest.mark.parametrize(
    "score,message",
    [
        (
            lambda: trainers.rank_metrics(np.zeros((2, 3)), np.zeros((1, 3), dtype=np.int64)),
            r"^rankings must have shape \(2, 3\), got shape \(1, 3\)$",
        ),
        (
            lambda: trainers.path_metrics(np.zeros((2, 4)), np.ones((1, 2, 2)), 2),
            r"^masks must have shape \(2, 2, 2\), got shape \(1, 2, 2\)$",
        ),
    ],
    ids=["rank", "path"],
)
def test_metrics_want_one_label_per_row(score, message):
    with pytest.raises(ShapeMismatch, match=message):
        score()


# ------------------------------------------------------- the scalar settings

# (entry point, setting, least, strict, int or float): entry(**{setting: v})
# calls the entry point with v and every other argument ordinary
SETTINGS = [
    (partial(linalg.TikhonovSolver, M=np.eye(2)), "lam", 0, False, float),
    (partial(linalg.woodbury_solve, G=G, B=G), "lam", 0, True, float),
    (newton.NewtonConfig, "lam", 0, False, float),
    (partial(newton.inject_fisher, batch_grads=G), "lam", 0, True, float),
    (partial(newton.newton_target_hessian, y_bar=G, probe=SHIFTED), "lam", 0, False, float),
    (partial(newton.newton_target_fisher, y_bar=G, probe=SHIFTED), "lam", 0, True, float),
    (
        partial(newton.newton_target_from_parts, y_bar=G, grads=G, hessian=np.eye(2)),
        "lam", 0, False, float,
    ),
    (partial(net.OptimizerState.create, kind="adam", model=MODEL), "lr", 0, True, float),
    (
        partial(newton.split_step_check_gd, model=MODEL, batch=np.ones((1, 2)), probe=SHIFTED),
        "eta", 0, True, float,
    ),
    (
        partial(newton.split_step_check_newton, model=LINE, x=[1.0], probe=SHIFTED,
                trainable="weights"),
        "eta", 0, True, float,
    ),
    (partial(smoothing.SmoothingConfig, samples=2), "sigma", 0, True, float),
    (partial(smoothing.SmoothingConfig, sigma=0.1), "samples", 1, False, int),
    (partial(smoothing.SmoothingConfig, sigma=0.1, samples=2), "seed", 0, False, int),
    (partial(diffsort.SortConfig, method="softsort"), "tau", 0, True, float),
    (partial(diffsort.SortConfig, method="dsn_cauchy"), "beta", 0, True, float),
    (partial(diffsort.softsort_perm, y=[1.0, 0.0]), "tau", 0, True, float),
    (partial(diffsort.neuralsort_perm, y=[1.0, 0.0]), "tau", 0, True, float),
    (partial(diffsort.dsn_perm, y=[1.0, 0.0], family="cauchy"), "beta", 0, True, float),
    (partial(slices.gradient_slice, **{**SLICE, "method": "softsort"}), "tau", 0, True, float),
    (partial(slices.gradient_slice, **{**SLICE, "method": "dsn_cauchy"}), "beta", 0, True, float),
    (partial(slices.gradient_slice, **SLICE), "fisher_lambda", 0, True, float),
    (partial(slices.gradient_slice, **SLICE), "coord", 0, False, int),
    (partial(slices.gradient_slice, **SLICE), "steps", 2, False, int),
    (partial(slices.gradient_slice, **SLICE), "lo", None, False, float),
    (partial(slices.gradient_slice, **SLICE), "hi", None, False, float),
    (partial(checks.check_grad, count=1, n=3), "seed", 0, False, int),
    (partial(checks.check_grad, n=3), "count", 1, False, int),
    (checks.check_lemmas, "seed", 0, False, int),
    (partial(checks.check_oracles, grids_per_size=1, sizes=(3,)), "seed", 0, False, int),
    (partial(checks.check_oracles, sizes=(3,)), "grids_per_size", 1, False, int),
    *(
        (partial(gen, seed=0, count=2, feature_dim=1, **{size: 3}), name, least, False, int)
        for gen, size in ((datagen.gen_ranking_data, "n"), (datagen.gen_grid_data, "size"))
        for name, least in (("seed", 0), (size, 2), ("count", 1), ("feature_dim", 1))
    ),
    *(
        (partial(trainers.ExperimentConfig, task=task, method=method, mode=mode), name, least,
         strict, kind)
        for task, method, mode, name, least, strict, kind in (
            ("rank", "neuralsort", "nl_hessian", "lam", 0, True, float),
            ("rank", "neuralsort", "baseline", "seed", 0, False, int),
            ("rank", "neuralsort", "baseline", "steps", 1, False, int),
            ("rank", "neuralsort", "baseline", "batch", 1, False, int),
            ("rank", "neuralsort", "baseline", "n", 2, False, int),
            ("path", "ss_loss", "baseline", "grid", 2, False, int),
            ("path", "ss_loss", "baseline", "sigma", 0, True, float),
            ("path", "ss_loss", "baseline", "samples", 1, False, int),
            ("rank", "softsort", "baseline", "tau", 0, True, float),
            ("rank", "dsn_cauchy", "baseline", "beta", 0, True, float),
        )
    ),
]


def _qualname(fn):
    fn = getattr(fn, "func", fn)
    return f"{fn.__module__.removeprefix('newtonbench.')}.{fn.__qualname__}"


def _bad_values(least, strict, kind):
    """(id, value) pairs each setting must refuse."""
    values = [("bool", True), ("str", "1"), ("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf),
              ("huge", HUGE)]
    if kind is int:
        values += [("float", 2.5), ("below", least - 1)]
    elif least is not None:
        values.append(("below", np.nextafter(float(least), -np.inf)))
        if strict:
            values.append(("at", least))
    return values


def _message(name, least, strict, kind, value):
    if kind is int:
        rule = f"an integer >= {least}"
    else:
        bound = "" if least is None else f" {'>' if strict else '>='} {least}"
        rule = f"a finite real number{bound}"
    return f"^{re.escape(f'{name} must be {rule}, got {reprlib.repr(value)}')}$"


@pytest.mark.parametrize(
    "entry,name,least,strict,kind,value",
    [
        pytest.param(entry, name, least, strict, kind, value,
                     id=f"{_qualname(entry)}-{name}-{value_id}")
        for entry, name, least, strict, kind in SETTINGS
        for value_id, value in _bad_values(least, strict, kind)
    ],
)
def test_every_setting_refuses_a_bad_value_by_name(entry, name, least, strict, kind, value):
    with pytest.raises(ConfigError, match=_message(name, least, strict, kind, value)):
        entry(**{name: value})


@pytest.mark.parametrize(
    "entry,name,least,kind",
    [
        pytest.param(entry, name, least, kind, id=f"{_qualname(entry)}-{name}")
        for entry, name, least, _, kind in SETTINGS
    ],
)
def test_every_setting_takes_an_ordinary_value(entry, name, least, kind):
    entry(**{name: least + 1 if kind is int else (least or 0) + 0.5})


# parameters named like a scalar setting that are not one
EXEMPT = {
    ("net.Mlp.init", "seed"): "a SeedSequence or an int, handed to numpy's default_rng",
    ("net.OptimizerState", "lr"): "the optimizer's running state; OptimizerState.create checks lr",
    ("bench.datagen.Dataset", "seed"): "a record of what the generator or loader checked",
}
SETTING_NAMES = {"lam", "lr", "eta", "sigma", "tau", "beta", "seed", "samples", "steps", "count",
                 "feature_dim", "fisher_lambda", "coord", "grids_per_size"}
MODULES = (errors, linalg, net, newton, shortest_path, smoothing, diffsort,
           checks, cli, datagen, report, slices, trainers)


def _public_callables():
    """Every public function and class of the package but its exceptions,
    and each public method of those classes."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj) and not issubclass(obj, Exception):
                yield obj
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(func):
                        yield getattr(obj, attr)


def test_every_parameter_named_like_a_setting_is_checked():
    # a new copy of a setting cannot go unchecked: SETTINGS lists it, or
    # EXEMPT says why it is not a scalar setting
    listed = {(_qualname(entry), name) for entry, name, *_ in SETTINGS}
    found = {
        (_qualname(fn), param)
        for fn in _public_callables()
        for param in inspect.signature(fn).parameters
        if param in SETTING_NAMES
    }
    assert sorted(found - listed - set(EXEMPT)) == []
    assert sorted(set(EXEMPT) - found) == []


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bench", "rank", "--seeds", "0"], "--seeds must be an integer >= 1, got 0"),
        (["slice", "grad", "--coord", "0", "--n", "1"], "--n must be an integer >= 2, got 1"),
        (["slice", "grad", "--coord", "0", "--steps", "1"], "steps must be an integer >= 2, got 1"),
        (
            ["slice", "grad", "--coord", "0", "--lambda", "nan"],
            "fisher_lambda must be a finite real number > 0, got nan",
        ),
        (
            ["slice", "grad", "--coord", "0", "--lo=-inf"],
            "lo must be a finite real number, got -inf",
        ),
        (
            ["ablate", "lambda", "--lambdas", "1,nan"],
            "--lambdas entry must be a finite real number > 0, got nan",
        ),
        (["check", "oracles", "--grids", "0"], "grids_per_size must be an integer >= 1, got 0"),
    ],
    ids=["seeds", "slice-n", "slice-steps", "slice-lambda", "slice-lo", "ablate-lambdas",
         "oracles"],
)
def test_a_bad_cli_setting_exits_2_with_one_line(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rcpum import (
    EXCLUDED,
    AsfEvaluator,
    BundleModel,
    BundleScenario,
    ConfigurationError,
    DiscreteBeta,
    LogitModel,
    TabulatedModel,
    solve_choice,
    ybar_given_beta,
)
from rcpum.distributions import flat_offsets
from rcpum.logit import choice_probabilities

DIMS = (1, 1)


def test_symmetric_logit_at_center():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0))
    got = ybar_given_beta(model, np.zeros(2), np.ones(2))
    assert np.allclose(got, [0.5, 0.5])


def test_logit_closed_form_at_log_two():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0))
    got = ybar_given_beta(model, np.array([math.log(2.0), 0.0]), np.ones(2))
    assert np.allclose(got, [2 / 3, 1 / 3])


def test_single_scenario_bundle_ties_averaged():
    scen = BundleScenario(1.0, (1.0, -1.0), ((1, 2, 1.0),))
    model = BundleModel(dims=DIMS, scenarios=(scen,))
    got = ybar_given_beta(model, np.zeros(2), np.ones(2))
    assert np.allclose(got, [1.0, 0.5])


def test_asf_mixture_at_center():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0))
    beta = DiscreteBeta(DIMS, [[1, 1], [1, 3]], [0.5, 0.5])
    evaluator = AsfEvaluator(model, beta)
    assert np.allclose(evaluator.asf(np.zeros(2)), [0.5, 0.5])


def test_asf_mixture_closed_form_average():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0))
    beta = DiscreteBeta(DIMS, [[1, 1], [1, 3]], [0.5, 0.5])
    evaluator = AsfEvaluator(model, beta)
    x = np.array([0.0, 0.1])

    def softmax2(u):
        e = np.exp(u)
        return e / e.sum()

    expected = 0.5 * softmax2([0.0, 0.1]) + 0.5 * softmax2([0.0, 0.3])
    assert np.allclose(evaluator.asf(x), expected, atol=1e-14)


def test_point_mass_asf_equals_ybar():
    model = LogitModel(dims=DIMS, alphas=(0.3, -0.2), outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.2, 0.7]], [1.0])
    evaluator = AsfEvaluator(model, beta)
    x = np.array([0.2, -0.1])
    assert np.allclose(evaluator.asf(x), ybar_given_beta(model, x, np.array([1.2, 0.7])))


@given(st.lists(st.floats(-2, 2), min_size=2, max_size=2))
def test_simplex_conservation(x):
    model = LogitModel(dims=DIMS, alphas=(0.4, -0.6))
    beta = DiscreteBeta(DIMS, [[1, 1], [1, 3]], [0.5, 0.5])
    out = AsfEvaluator(model, beta).asf(np.array(x))
    assert abs(out.sum() - 1.0) <= 1e-12
    model_o = LogitModel(dims=DIMS, alphas=(0.4, -0.6), outside_good=True)
    out_o = AsfEvaluator(model_o, beta).asf(np.array(x))
    assert 0.0 <= out_o.sum() <= 1.0


@given(st.floats(0.0, 1.0))
def test_mixture_linearity(w):
    # a two-point mixture equals the weight-combination of point masses
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True)
    b1, b2 = [1.0, 1.0], [1.0, 3.0]
    x = np.array([0.07, -0.04])
    mixed = AsfEvaluator(model, DiscreteBeta(DIMS, [b1, b2], [w, 1.0 - w])).asf(x)
    part = w * ybar_given_beta(model, x, np.array(b1)) + (1 - w) * ybar_given_beta(
        model, x, np.array(b2)
    )
    assert np.allclose(mixed, part, atol=1e-15)


def test_constant_in_beta_at_center():
    # with all indices zero the value function is evaluated at the same
    # point for every coefficient vector, so mean demand cannot depend on it
    scenarios = (
        BundleScenario(0.5, (0.4, -0.2), ((1, 2, 0.3),)),
        BundleScenario(0.5, (-0.1, 0.5), ((1, 2, -0.6),)),
    )
    model = BundleModel(dims=DIMS, scenarios=scenarios, smoothing=1.0)
    c = model.center
    vals = [ybar_given_beta(model, c, np.array(b)) for b in ([0.0, 0.0], [5.0, -3.0], [1.0, 2.0])]
    for v in vals[1:]:
        assert np.allclose(v, vals[0])


def test_bundle_feasibility_bounds(smoothed_bundle):
    model, beta = smoothed_bundle
    evaluator = AsfEvaluator(model, beta)
    for x in ([0.0, 0.0], [0.3, -0.2], [-0.5, 0.5]):
        out = evaluator.asf(np.array(x))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_repeated_asf_returns_equal_rows(logit_mixture):
    model, beta = logit_mixture
    evaluator = AsfEvaluator(model, beta)
    x = np.array([0.01, 0.02])
    first = evaluator.asf(x)
    second = evaluator.asf(x.copy())
    assert np.array_equal(first, second)


def test_tabulated_model_mean_demand():
    from rcpum import TabulatedModel, solve_choice

    tab0 = {(0.0, 0.0): 0.0, (1.0, 0.0): 0.8, (0.0, 1.0): -0.5}
    tab1 = {(0.0, 0.0): 0.0, (1.0, 0.0): -1.2, (0.0, 1.0): 0.4}
    model = TabulatedModel(dims=DIMS, weights=(0.3, 0.7), tables=(tab0, tab1))
    b = np.array([1.0, 1.0])
    x = np.array([0.2, 0.1])
    want = 0.3 * solve_choice(model, x, b, 0) + 0.7 * solve_choice(model, x, b, 1)
    assert np.allclose(ybar_given_beta(model, x, b), want)


def test_one_good_rearrangement_end_to_end():
    # demand values computed by the model at a fixed covariate, index atoms
    # from the coefficient support: the rearrangement recovers the demand map
    from rcpum import quantile_match_vprime

    dims = (1,)
    model = LogitModel(dims=dims, alphas=(0.0,), outside_good=True)
    atoms = np.linspace(0.4, 1.6, 13)
    beta = DiscreteBeta(dims, atoms.reshape(-1, 1), np.full(13, 1 / 13))
    x = np.array([1.0])
    w_atoms = [float(ybar_given_beta(model, x, np.array([b]))[0]) for b in atoms]
    etas = [float(model.indices(x, np.array([b]))[0]) for b in atoms]
    weights = [1 / 13] * 13
    grid, f = quantile_match_vprime(w_atoms, weights, etas, weights, 25)
    sigmoid = 1.0 / (1.0 + np.exp(-grid))
    assert np.max(np.abs(f - sigmoid)) < 5e-3
    assert np.all(np.diff(f) >= -1e-12)


def test_concurrent_asf_reads_consistent(logit_mixture):
    import concurrent.futures

    model, beta = logit_mixture
    evaluator = AsfEvaluator(model, beta)
    xs = [np.array([0.01 * i, -0.02 * i]) for i in range(8)]
    serial = [evaluator.asf(x).copy() for x in xs]
    fresh = AsfEvaluator(model, beta)
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(fresh.asf, xs * 4))
    for i, x in enumerate(xs * 4):
        assert np.array_equal(threaded[i], serial[i % 8])


def test_dims_mismatch_rejected():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0))
    beta = DiscreteBeta((2,), [[1.0, 1.0]], [1.0])
    with pytest.raises(ConfigurationError):
        AsfEvaluator(model, beta)


# Dyadic covariates, coefficients and disturbances keep every utility exact
# in floating point, so argmax ties do not depend on summation order.
dyadic = st.integers(min_value=-64, max_value=64).map(lambda n: n / 16)
DYADIC_WEIGHTS = {1: (1.0,), 2: (0.25, 0.75), 3: (0.5, 0.25, 0.25)}


@st.composite
def finite_scenario_models(draw, smoothing=st.none()):
    """A bundle or tabulated model over {0,1}^K with consideration sets,
    returned with its scenario weights; a drawn smoothing scale other than
    None makes it a smoothed bundle model."""
    smoothing = draw(smoothing)
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    n_goods = len(dims)
    lattice = list(itertools.product((0.0, 1.0), repeat=n_goods))
    subsets = st.sets(st.sampled_from(lattice), min_size=1)
    weights = DYADIC_WEIGHTS[draw(st.integers(1, 3))]
    if smoothing is not None or draw(st.booleans()):
        pairs = list(itertools.combinations(range(1, n_goods + 1), 2))
        scenarios = tuple(
            BundleScenario(
                w,
                tuple(draw(st.lists(dyadic, min_size=n_goods, max_size=n_goods))),
                tuple((j, k, draw(dyadic)) for j, k in pairs),
                draw(st.none() | subsets.map(frozenset)),
            )
            for w in weights
        )
        return BundleModel(dims=dims, scenarios=scenarios, smoothing=smoothing), weights
    tables = []
    for _ in weights:
        keys = draw(subsets)
        considered = draw(st.sets(st.sampled_from(sorted(keys)), min_size=1))
        tables.append({y: draw(dyadic) if y in considered else EXCLUDED for y in keys})
    return TabulatedModel(dims=dims, weights=weights, tables=tuple(tables)), weights


def draw_point_and_support(data, model, coords=dyadic):
    dim = model.total_dim
    x = np.array(data.draw(st.lists(coords, min_size=dim, max_size=dim)))
    support = data.draw(
        st.lists(st.lists(dyadic, min_size=dim, max_size=dim), min_size=1, max_size=4)
    )
    return x, np.array(support)


def loop_indices(model, x, beta):
    offs = flat_offsets(model.dims)
    return np.array(
        [
            sum((x[j] - model.center[j]) * beta[j] for j in range(offs[k], offs[k + 1]))
            for k in range(model.n_goods)
        ]
    )


def assert_batched_rows(model, x, support, reference, atol):
    got = ybar_given_beta(model, x, support)
    assert got.shape == (len(support), model.n_goods)
    for row, beta in zip(got, support):
        single = ybar_given_beta(model, x, beta)
        assert single.shape == (model.n_goods,)
        np.testing.assert_allclose(single, row, rtol=0, atol=atol)
        np.testing.assert_allclose(row, reference(beta), rtol=0, atol=atol)


@given(finite_scenario_models(), st.data())
def test_hard_argmax_kernel_matches_solve_choice(model_weights, data):
    model, weights = model_weights
    x, support = draw_point_and_support(data, model)

    def reference(beta):
        return sum(w * solve_choice(model, x, beta, t) for t, w in enumerate(weights))

    assert_batched_rows(model, x, support, reference, 1e-15)


@given(finite_scenario_models(smoothing=st.sampled_from((0.5, 1.0, 2.0))), st.data())
def test_smoothed_bundle_kernel_matches_softmax_enumeration(model_weights, data):
    model, weights = model_weights
    x, support = draw_point_and_support(data, model)

    def reference(beta):
        idx = loop_indices(model, x, beta)
        out = np.zeros(model.n_goods)
        for w, scen in zip(weights, model.scenarios):
            bundles = [y for y in model.lattice if scen.disturbance(y) is not EXCLUDED]
            z = np.array([(np.dot(y, idx) + scen.disturbance(y)) for y in bundles])
            z = (z - z.max()) / model.smoothing
            p = np.exp(z) / np.exp(z).sum()
            out += w * (p @ np.array(bundles))
        return out

    assert_batched_rows(model, x, support, reference, 1e-14)


@given(
    st.lists(dyadic, min_size=1, max_size=3),
    st.booleans(),
    st.sampled_from(("linear", "power")),
    st.data(),
)
def test_logit_kernel_matches_closed_form(alphas, outside_good, index_form, data):
    n_goods = len(alphas)
    if index_form == "power":
        dims = (1,) * n_goods
        coords = st.integers(min_value=1, max_value=64).map(lambda n: n / 16)
    else:
        dims = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n_goods, max_size=n_goods)))
        coords = dyadic
    model = LogitModel(
        dims=dims,
        alphas=tuple(alphas),
        outside_good=outside_good,
        index_form=index_form,
        center=np.ones(n_goods) if index_form == "power" else None,
    )
    x, support = draw_point_and_support(data, model, coords)

    def reference(beta):
        u = x**beta if index_form == "power" else loop_indices(model, x, beta)
        return choice_probabilities(alphas, u, outside_good)

    assert_batched_rows(model, x, support, reference, 1e-15)


def test_bundle_disturbances_compiled_once(monkeypatch):
    calls = []
    disturbance = BundleScenario.disturbance

    def counted(self, y):
        calls.append(y)
        return disturbance(self, y)

    monkeypatch.setattr(BundleScenario, "disturbance", counted)
    scenarios = (
        BundleScenario(0.5, (0.4, -0.2), ((1, 2, 0.3),)),
        BundleScenario(0.25, (-0.1, 0.5), ((1, 2, -0.6),)),
        BundleScenario(0.25, (1.0, -0.8), (), frozenset({(0.0, 0.0), (1.0, 0.0)})),
    )
    model = BundleModel(dims=DIMS, scenarios=scenarios, smoothing=1.0)
    evaluator = AsfEvaluator(model, DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5]))
    evaluator.asf(np.zeros(2))
    compiled = len(calls)
    assert compiled == len(scenarios) * len(model.lattice)
    for i in range(1, 20):
        evaluator.asf(np.array([0.01 * i, -0.02 * i]))
    assert len(calls) == compiled


def _batch_models():
    smoothed = BundleModel(
        dims=(1, 2),
        scenarios=(
            BundleScenario(0.6, (0.5, -0.3), ((1, 2, 0.4),)),
            BundleScenario(0.4, (-0.2, 0.1), (), frozenset({(0.0, 0.0), (1.0, 1.0)})),
        ),
        smoothing=0.7,
    )
    hard = BundleModel(
        dims=(1, 2),
        scenarios=(
            BundleScenario(0.5, (0.25, -0.5), ((1, 2, 0.5),)),
            BundleScenario(0.5, (0.0, 0.0)),
        ),
    )
    power = LogitModel(
        dims=(1, 1, 1), alphas=(0.2, 0.0, -0.4), index_form="power", center=np.ones(3)
    )
    return {
        "logit_linear": LogitModel(dims=(2, 1), alphas=(0.1, -0.3), outside_good=True),
        "logit_power": power,
        "smoothed_bundle": smoothed,
        "hard_argmax_bundle": hard,
    }


@pytest.mark.parametrize("case", list(_batch_models()))
def test_asf_batch_equals_stacked_asf_rows(case):
    model = _batch_models()[case]
    support = [[1.0, 1.0, 0.5], [2.0, -1.0, 0.25], [0.5, 3.0, 1.0]]
    beta = DiscreteBeta(model.dims, support, [0.5, 0.25, 0.25])
    rng = np.random.default_rng(3)
    X = model.center + rng.uniform(-0.2, 0.2, size=(9, model.total_dim))
    X = np.vstack([X, X[2], model.center])  # a repeated row and the center
    batched = AsfEvaluator(model, beta)
    got = batched.asf_batch(X)
    single = AsfEvaluator(model, beta)
    want = np.array([single.asf(x) for x in X])
    assert got.shape == (len(X), model.n_goods)
    assert np.array_equal(got, want)
    # every row, the repeated one too, went through one kernel call
    assert (batched.points_evaluated, batched.kernel_calls) == (len(X), 1)
    assert (single.points_evaluated, single.kernel_calls) == (len(X), len(X))
    # a later batch evaluates all its rows again, to the same bits
    extra = model.center + 0.05
    again = batched.asf_batch(np.vstack([X[:3], extra]))
    assert np.array_equal(again[:3], got[:3])
    assert np.array_equal(again[3], single.asf(extra))
    assert (batched.points_evaluated, batched.kernel_calls) == (len(X) + 4, 2)

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rcpum import (
    AsfEvaluator,
    BundleModel,
    ConfigurationError,
    DiscreteBeta,
    LogitModel,
    ybar_given_beta,
)
from rcpum.distributions import flat_offsets
from rcpum.logit import choice_probabilities

DIMS = (1, 1)


def joint_shift_ybar(model, x, beta):
    """The kernel before factoring: per scenario, the softmax of U + D
    shifted by its joint maximum, built as one (..., scenarios, budget)
    array and contracted with the weights and the budget."""
    kernel = model.kernel
    z = (model.indices(x, beta) @ kernel.Y.T)[..., None, :] + kernel.D
    z -= z.max(axis=-1, keepdims=True)
    z /= kernel.sigma
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return np.einsum("t,...tb,bk->...k", kernel.w, z, kernel.Y)


def factored_normaliser(model, x, beta):
    """min_t Z_t of every (point, support) row, Z = E F' with E and F the
    separately shifted utility and disturbance factors."""
    kernel = model.kernel
    U = model.indices(x, beta) @ kernel.Y.T
    E = np.exp((U - U.max(axis=-1, keepdims=True)) / kernel.sigma)
    return (E @ kernel.F.T).min(axis=-1)


def underflow_bundle(dims=DIMS):
    """Two goods with a complementarity of 8 at Gumbel scale 0.01: where the
    utility and the disturbance favour different bundles, the separately
    shifted factors of the dominant term underflow."""
    return BundleModel(
        dims=dims,
        weights=(1.0,),
        intercepts=((0.0, 0.0),),
        complementarities=([(1, 2, 8.0)],),
        smoothing=0.01,
    )


def test_symmetric_logit_at_center():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0))
    got = ybar_given_beta(model, np.zeros(2), np.ones(2))
    assert np.allclose(got, [0.5, 0.5])


def test_logit_closed_form_at_log_two():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0))
    got = ybar_given_beta(model, np.array([math.log(2.0), 0.0]), np.ones(2))
    assert np.allclose(got, [2 / 3, 1 / 3])


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
    model = BundleModel(
        dims=DIMS,
        weights=(0.5, 0.5),
        intercepts=((0.4, -0.2), (-0.1, 0.5)),
        complementarities=([(1, 2, 0.3)], [(1, 2, -0.6)]),
        smoothing=1.0,
    )
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
# in floating point, so the kernel and the loop references score the same
# utilities.
dyadic = st.integers(min_value=-64, max_value=64).map(lambda n: n / 16)
DYADIC_WEIGHTS = {1: (1.0,), 2: (0.25, 0.75), 3: (0.5, 0.25, 0.25)}


def considered(model, t):
    """Scenario t's considered lattice bundles and their disturbances,
    summed from the raw intercepts and pairs as the benchmark oracle does,
    without the compiled D."""
    c = model.consideration[t]
    bundles = [y for y in model.lattice if c is None or y in c]
    disturbances = [
        sum(q * e for q, e in zip(y, model.intercepts[t]))
        + sum(y[j - 1] * y[k - 1] * v for j, k, v in model.complementarities[t])
        for y in bundles
    ]
    return np.array(bundles), np.array(disturbances)


def draw_bundle_model(draw, dims, numbers, weights, smoothing, quantities=(0.0, 1.0)):
    """A smoothed bundle model over quantities^K with a pair term on every
    good pair and random consideration sets."""
    n_goods = len(dims)
    lattice = list(itertools.product(quantities, repeat=n_goods))
    pairs = list(itertools.combinations(range(1, n_goods + 1), 2))
    T = len(weights)
    return BundleModel(
        dims=dims,
        weights=weights,
        intercepts=[draw(st.lists(numbers, min_size=n_goods, max_size=n_goods)) for _ in range(T)],
        complementarities=[[(j, k, draw(numbers)) for j, k in pairs] for _ in range(T)],
        consideration=[
            draw(st.none() | st.sets(st.sampled_from(lattice), min_size=1)) for _ in range(T)
        ],
        lattice=lattice,
        smoothing=smoothing,
    )


@st.composite
def finite_scenario_models(draw):
    """A smoothed bundle model over {0,1}^K with consideration sets and
    dyadic numbers."""
    smoothing = draw(st.sampled_from((0.5, 1.0, 2.0)))
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    weights = DYADIC_WEIGHTS[draw(st.integers(1, 3))]
    return draw_bundle_model(draw, dims, dyadic, weights, smoothing)


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
def test_smoothed_bundle_kernel_matches_softmax_enumeration(model, data):
    x, support = draw_point_and_support(data, model)

    def reference(beta):
        idx = loop_indices(model, x, beta)
        out = np.zeros(model.n_goods)
        for t, w in enumerate(model.weights):
            bundles, disturbances = considered(model, t)
            z = bundles @ idx + disturbances
            z = (z - z.max()) / model.smoothing
            p = np.exp(z) / np.exp(z).sum()
            out += w * (p @ bundles)
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
    compile_kernel = BundleModel._compile

    def counted(self, *args):
        calls.append(args)
        return compile_kernel(self, *args)

    monkeypatch.setattr(BundleModel, "_compile", counted)
    model = BundleModel(
        dims=DIMS,
        weights=(0.5, 0.25, 0.25),
        intercepts=((0.4, -0.2), (-0.1, 0.5), (1.0, -0.8)),
        complementarities=([(1, 2, 0.3)], [(1, 2, -0.6)], []),
        consideration=(None, None, {(0.0, 0.0), (1.0, 0.0)}),
        smoothing=1.0,
    )
    assert len(calls) == 1
    evaluator = AsfEvaluator(model, DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5]))
    for i in range(20):
        evaluator.asf(np.array([0.01 * i, -0.02 * i]))
    assert len(calls) == 1


def test_underflowing_factors_fall_back_to_the_joint_shift():
    model = underflow_bundle()
    grid = np.array([-5.0, -4.0, -1.0, -0.02, 0.0, 0.5, 5.0])
    X = np.array(list(itertools.product(grid, grid)))
    support = np.array([[1.0, 1.0], [2.0, 0.5]])
    floor = factored_normaliser(model, X, support)
    assert floor[X.tolist().index([-5.0, -5.0]), 0] == 0.0
    assert (floor < 1e-250).any() and (floor > 1e-250).any()
    got = ybar_given_beta(model, X, support)
    assert not np.isnan(got).any()
    np.testing.assert_allclose(got, joint_shift_ybar(model, X, support), rtol=0, atol=1e-15)
    # one point against one coefficient vector falls back too
    x, beta = np.array([-5.0, -5.0]), np.ones(2)
    single = ybar_given_beta(model, x, beta)
    assert single.shape == (2,) and not np.isnan(single).any()
    np.testing.assert_allclose(single, joint_shift_ybar(model, x, beta), rtol=0, atol=1e-15)


small = st.floats(-2.0, 2.0)


@st.composite
def bundle_models_with_quantities(draw):
    """A bundle model with non-dyadic numbers over a {0, 1, 2}^K or
    {0, 1}^K lattice, up to four scenarios."""
    T = draw(st.integers(1, 4))
    weights = [1.0 / T] * (T - 1)
    weights.append(1.0 - sum(weights))
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    quantities = draw(st.sampled_from(((0.0, 1.0), (0.0, 1.0, 2.0))))
    return draw_bundle_model(draw, dims, small, weights, 1.0, quantities)


@given(bundle_models_with_quantities())
def test_compiled_disturbances_equal_a_per_bundle_loop(model):
    # the per-(scenario, bundle) loop the kernel's D is compiled to match,
    # bit for bit: intercepts good by good, then pairs in the given order
    budget = list(dict.fromkeys(model.lattice))
    for t, row in enumerate(model.kernel.D):
        want = []
        for y in budget:
            c = model.consideration[t]
            if c is not None and y not in c:
                want.append(-np.inf)
                continue
            d = sum(q * e for q, e in zip(y, model.intercepts[t].tolist()))
            for j, k, v in model.complementarities[t]:
                d += y[j - 1] * y[k - 1] * v
            want.append(d)
        assert row.tobytes() == np.array(want).tobytes()


@st.composite
def small_kernel_models(draw):
    """A smoothed bundle over {0,1}^K with consideration sets, or a logit,
    with K <= 4, up to 6 scenarios and non-dyadic numbers."""
    n_goods = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=n_goods, max_size=n_goods)))
    numbers = st.lists(small, min_size=n_goods, max_size=n_goods)
    if draw(st.booleans()):
        return LogitModel(dims=dims, alphas=tuple(draw(numbers)), outside_good=draw(st.booleans()))
    raw = np.array(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)), dtype=float)
    weights = raw / raw.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return draw_bundle_model(draw, dims, small, weights, draw(st.floats(0.25, 2.0)))


@given(small_kernel_models(), st.data())
def test_factored_kernel_matches_joint_shift(model, data):
    dim = model.total_dim
    x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    support = np.array(
        data.draw(st.lists(st.lists(small, min_size=dim, max_size=dim), min_size=1, max_size=4))
    )
    X = np.vstack([x, model.center, 0.5 * x])
    got = ybar_given_beta(model, X, support)
    np.testing.assert_allclose(got, joint_shift_ybar(model, X, support), rtol=0, atol=1e-14)


def test_asf_batch_memory_stays_below_the_four_dimensional_softmax():
    # K 4 (budget 16) with 8 scenarios: the joint-shift kernel allocated one
    # (nodes, S, T, B) float64 array per call
    rng = np.random.default_rng(11)
    pairs = list(itertools.combinations(range(1, 5), 2))
    intercepts, comps = [], []
    for _ in range(8):
        intercepts.append(rng.uniform(-1, 1, 4))
        comps.append([(j, k, rng.uniform(-1, 1)) for j, k in pairs])
    model = BundleModel(
        dims=(1, 1, 1, 1),
        weights=[0.125] * 8,
        intercepts=intercepts,
        complementarities=comps,
        smoothing=0.8,
    )
    S = 8
    beta = DiscreteBeta(model.dims, rng.uniform(0.5, 1.5, (S, 4)), np.full(S, 1 / S))
    evaluator = AsfEvaluator(model, beta)
    X = model.center + rng.uniform(-0.2, 0.2, (2000, 4))
    T, B = model.kernel.D.shape
    assert (T, B) == (8, 16)
    tracemalloc.start()
    try:
        evaluator.asf_batch(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * len(X) * S * T * B * 8


def _batch_models():
    smoothed = BundleModel(
        dims=(1, 2),
        weights=(0.6, 0.4),
        intercepts=((0.5, -0.3), (-0.2, 0.1)),
        complementarities=([(1, 2, 0.4)], []),
        consideration=(None, {(0.0, 0.0), (1.0, 1.0)}),
        smoothing=0.7,
    )
    power = LogitModel(
        dims=(1, 1, 1), alphas=(0.2, 0.0, -0.4), index_form="power", center=np.ones(3)
    )
    return {
        "logit_linear": LogitModel(dims=(2, 1), alphas=(0.1, -0.3), outside_good=True),
        "logit_power": power,
        "smoothed_bundle": smoothed,
        "underflow_bundle": underflow_bundle(dims=(1, 2)),
    }


@pytest.mark.parametrize("case", list(_batch_models()))
def test_asf_batch_equals_stacked_asf_rows(case):
    model = _batch_models()[case]
    points = [[1.0, 1.0, 0.5], [2.0, -1.0, 0.25], [0.5, 3.0, 1.0]]
    rng = np.random.default_rng(3)
    X = model.center + rng.uniform(-0.2, 0.2, size=(9, model.total_dim))
    # a repeated row, the center, and a far point where the underflow
    # bundle's second support point alone takes the joint-shift fallback
    X = np.vstack([X, X[2], model.center, model.center + [1.0, 9.0, 0.0]])
    if case == "underflow_bundle":
        fallback = factored_normaliser(model, X, np.array(points)) < 1e-250
        assert fallback[-1].tolist() == [False, True, False]
        assert not fallback[:-1].any()
    for support, weights in ((points, [0.5, 0.25, 0.25]), (points[1:2], [1.0])):
        beta = DiscreteBeta(model.dims, support, weights)
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

import itertools
import math

import numpy as np
import pytest

from rcpum import (
    AsfEvaluator,
    ConfigurationError,
    DiscreteBeta,
    ExtrapolationWarning,
    LogitModel,
    PreconditionError,
    TaylorVModel,
    VDerivTable,
    WeightingError,
    average_indirect_utility,
    default_trust_radius,
    derivative_table,
    path_integral_v,
    recover_moments_scale,
    recover_v_derivatives,
)
from rcpum import logit

DIMS = (1, 1)
ALPHAS = (0.0, 0.0)


@pytest.fixture(scope="module")
def recovered_taylor():
    """Taylor model (orders 1..3) recovered end to end from the outside-good
    logit with a unit point-mass coefficient vector."""
    model = LogitModel(dims=DIMS, alphas=ALPHAS, outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    evaluator = AsfEvaluator(model, beta)
    table = derivative_table(evaluator, 2)
    moments = {}
    for order in (1, 2):
        moments.update(dict(recover_moments_scale(table, order, 1.0).items()))
    v = recover_v_derivatives(table, moments)
    vmodel = TaylorVModel(gradient=evaluator.asf(model.center), v_derivs=v, trust_radius=0.35)
    return model, beta, evaluator, vmodel


def closed_form(u):
    return math.log((1.0 + math.exp(u[0]) + math.exp(u[1])) / 3.0)


def test_taylor_matches_closed_form_small_box(recovered_taylor):
    _, _, _, vmodel = recovered_taylor
    for u1 in np.linspace(-0.1, 0.1, 5):
        for u2 in np.linspace(-0.1, 0.1, 5):
            assert vmodel.value((u1, u2)) == pytest.approx(
                closed_form((u1, u2)), abs=1e-4
            )


def test_taylor_zero_at_center(recovered_taylor):
    _, _, _, vmodel = recovered_taylor
    assert vmodel.value((0.0, 0.0)) == 0.0


def test_taylor_exchange_symmetry(recovered_taylor):
    _, _, _, vmodel = recovered_taylor
    assert vmodel.value((0.08, 0.02)) == pytest.approx(
        vmodel.value((0.02, 0.08)), abs=1e-12
    )


def test_taylor_warns_outside_trust_radius(recovered_taylor):
    _, _, _, vmodel = recovered_taylor
    with pytest.warns(ExtrapolationWarning):
        vmodel.value((0.9, 0.0))


def test_taylor_gradient_consistency(recovered_taylor):
    # finite differences of the Taylor value match the order-1 coefficients
    _, _, evaluator, vmodel = recovered_taylor
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (vmodel.value(e) - vmodel.value(-e)) / (2 * h)
        assert fd == pytest.approx(vmodel.gradient[i], abs=1e-6)


def test_taylor_convexity_along_probes(recovered_taylor):
    _, _, _, vmodel = recovered_taylor
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = rng.normal(size=2)
        d /= np.abs(d).max() * 4
        a = np.zeros(2)
        step = 0.05
        second = (
            vmodel.value(a + 2 * step * d) - 2 * vmodel.value(a + step * d) + vmodel.value(a)
        ) / step**2
        assert second >= -1e-6


def test_taylor_with_supplied_derivatives_no_outside_good():
    # symmetric two-good simplex: V(u) - V(0) = log((exp(u1) + exp(u2)) / 2);
    # all third-order coefficients vanish at the center, so the order-3
    # Taylor value is the quadratic and still lands within 1e-4 at 0.1
    entries = LogitModel(dims=DIMS, alphas=ALPHAS).kernel.value_partials(3)
    v_derivs = VDerivTable({g: v for g, v in entries.items() if len(g) > 1})
    vmodel = TaylorVModel(gradient=np.array([0.5, 0.5]), v_derivs=v_derivs, trust_radius=0.35)
    truth = math.log((math.exp(0.1) + 1.0) / 2.0)
    assert vmodel.value((0.1, 0.0)) == pytest.approx(truth, abs=1e-4)
    assert vmodel.value((0.1, 0.0)) == pytest.approx(vmodel.value((0.0, 0.1)), abs=1e-15)


def test_path_integral_closed_form():
    model = LogitModel(dims=DIMS, alphas=ALPHAS, outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    evaluator = AsfEvaluator(model, beta)
    xi, xf = np.zeros(2), np.array([0.1, 0.0])
    got = path_integral_v(evaluator, xi, xf)
    assert got == pytest.approx(closed_form((0.1, 0.0)), abs=1e-8)


def test_path_integral_no_outside_good_reference_value():
    # log((exp(0.1) + 1) / 2), the two-good simplex closed form
    model = LogitModel(dims=DIMS, alphas=ALPHAS)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    evaluator = AsfEvaluator(model, beta)
    got = path_integral_v(evaluator, np.zeros(2), np.array([0.1, 0.0]))
    assert got == pytest.approx(math.log((math.exp(0.1) + 1.0) / 2.0), abs=1e-8)


def test_path_integral_empty_path_and_reversal():
    model = LogitModel(dims=DIMS, alphas=ALPHAS, outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    evaluator = AsfEvaluator(model, beta)
    xi, xf = np.zeros(2), np.array([0.2, -0.1])
    assert path_integral_v(evaluator, xi, xi) == 0.0
    assert path_integral_v(evaluator, xf, xi) == -path_integral_v(evaluator, xi, xf)


def test_path_integral_node_doubling_stable():
    model = LogitModel(dims=DIMS, alphas=ALPHAS, outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    evaluator = AsfEvaluator(model, beta)
    xi, xf = np.zeros(2), np.array([0.3, 0.2])
    a = path_integral_v(evaluator, xi, xf, n_nodes=32)
    b = path_integral_v(evaluator, xi, xf, n_nodes=64)
    assert abs(a - b) < 1e-9


def test_path_integral_is_the_per_node_sum_of_one_batch():
    dims = (2, 1, 1)
    model = LogitModel(dims=dims, alphas=(0.1, -0.2, 0.3), outside_good=True)
    beta = DiscreteBeta(dims, [[1.0, 0.5, 1.0, 1.0], [1.0, -1.5, 1.0, 1.0]], [0.3, 0.7])
    evaluator = AsfEvaluator(model, beta)
    xi, xf = np.array([0.2, 0.0, -0.1, 0.0]), np.array([-0.1, 0.0, 0.3, 0.2])
    got = path_integral_v(evaluator, xi, xf)
    assert (evaluator.points_evaluated, evaluator.kernel_calls) == (32, 1)
    # one asf call per node, integrated from xf, the lexicographically smaller end
    nodes, weights = np.polynomial.legendre.leggauss(32)
    delta = (xi - xf)[[0, 2, 3]]
    terms = [
        w * float(np.dot(evaluator.asf(t * xi + (1.0 - t) * xf), delta))
        for t, w in zip((nodes + 1.0) / 2.0, weights / 2.0)
    ]
    assert got == -math.fsum(terms)
    assert path_integral_v(evaluator, xf, xi) == -got


def test_path_integral_requires_unit_first_coefficient():
    model = LogitModel(dims=DIMS, alphas=ALPHAS, outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 2.0]], [1.0])
    evaluator = AsfEvaluator(model, beta)
    with pytest.raises(PreconditionError):
        path_integral_v(evaluator, np.zeros(2), np.array([0.1, 0.0]))


def test_path_integral_agrees_with_taylor(recovered_taylor):
    _, _, evaluator, vmodel = recovered_taylor
    xf = np.array([0.1, 0.05])
    via_path = path_integral_v(evaluator, np.zeros(2), xf)
    assert vmodel.value(xf) == pytest.approx(via_path, abs=1e-3)


def test_average_indirect_utility_zero_at_center(recovered_taylor):
    model, beta, _, vmodel = recovered_taylor
    got = average_indirect_utility(vmodel, model, beta, np.zeros(2))
    assert got == 0.0


def test_average_indirect_utility_mixture_closed_form():
    model = LogitModel(dims=DIMS, alphas=ALPHAS, outside_good=True)
    mix = DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5])
    evaluator = AsfEvaluator(model, mix)
    table = derivative_table(evaluator, 2)
    moments = {}
    for order in (1, 2):
        moments.update(dict(recover_moments_scale(table, order, 1.0).items()))
    v = recover_v_derivatives(table, moments)
    vmodel = TaylorVModel(gradient=evaluator.asf(model.center), v_derivs=v, trust_radius=0.5)
    x = np.array([0.1, 0.1])
    got = average_indirect_utility(vmodel, model, mix, x)
    want = 0.5 * closed_form((0.1, 0.1)) + 0.5 * closed_form((0.1, 0.3))
    assert got == pytest.approx(want, abs=1e-4)


def test_inverse_weighting_applies_reciprocals():
    model = LogitModel(dims=DIMS, alphas=ALPHAS, outside_good=True)
    beta = DiscreteBeta(DIMS, [[0.5, 1.0], [2.0, 1.0]], [0.5, 0.5])

    class UnitV:
        trust_radius = math.inf

        def values(self, U):
            return np.ones(len(U))

    got = average_indirect_utility(UnitV(), model, beta, np.zeros(2), "inverse_abs_beta11")
    assert got == pytest.approx(0.5 * 2.0 + 0.5 * 0.5)


def test_inverse_weighting_rejects_zero_coefficient():
    model = LogitModel(dims=DIMS, alphas=ALPHAS, outside_good=True)
    beta = DiscreteBeta(DIMS, [[0.0, 1.0]], [1.0])

    class UnitV:
        trust_radius = math.inf

        def values(self, U):
            return np.ones(len(U))

    with pytest.raises(WeightingError):
        average_indirect_utility(UnitV(), model, beta, np.ones(2), "inverse_abs_beta11")


def test_counterfactual_point_mass_matches_ybar(recovered_taylor):
    # one demand row per support point, the point mass's equal to the
    # closed-form logit choice probabilities at its indices
    model, beta, evaluator, _ = recovered_taylor
    x = np.array([0.05, -0.03])
    demand = evaluator.ybar_given_beta(x, beta.points)
    assert demand.shape == (1, 2)
    assert np.allclose(demand[0], logit.choice_probabilities(ALPHAS, x, True), rtol=1e-14)


def test_counterfactual_mixture_at_log_two():
    model = LogitModel(dims=DIMS, alphas=ALPHAS)
    mix = DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5])
    evaluator = AsfEvaluator(model, mix)
    demand = evaluator.ybar_given_beta(np.array([math.log(2.0), 0.0]), mix.points)
    assert np.allclose(demand, [[2 / 3, 1 / 3]] * 2)


def test_counterfactual_taylor_gradient_inside_radius(recovered_taylor):
    model, beta, evaluator, vmodel = recovered_taylor
    x = np.array([0.05, 0.02])
    via_taylor = vmodel.gradient_at(model.indices(x, beta.points[0]))
    (via_eval,) = evaluator.ybar_given_beta(x, beta.points)
    assert np.allclose(via_taylor, via_eval, atol=1e-4)
    assert np.all(via_taylor >= 0.0) and via_taylor.sum() <= 1.0 + 1e-9


def test_default_trust_radius_half_largest_index():
    model = LogitModel(dims=DIMS, alphas=ALPHAS, outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5])
    x = np.array([0.1, 0.2])
    # largest index magnitude over the support is 3 * 0.2 = 0.6
    assert default_trust_radius(model, beta, x) == pytest.approx(0.3)
    assert default_trust_radius(model, beta, 10 * x) == 1.0


def test_taylor_weights_match_ordered_sum():
    # the unordered-multiset form with 1/prod(counts!) weights must equal
    # the classic ordered Taylor sum with 1/r! weights
    import itertools

    rng = np.random.default_rng(17)
    k = 3
    grad = rng.normal(size=k)
    hess = rng.normal(size=(k, k))
    hess = hess @ hess.T + np.eye(k)  # positive definite, symmetric
    third = rng.normal(size=(k, k, k)) * 0.05
    # symmetrize the third-order block
    sym3 = np.zeros_like(third)
    for perm in itertools.permutations(range(3)):
        sym3 += np.transpose(third, perm)
    sym3 /= 6.0

    v_derivs = VDerivTable(
        {(i + 1, j + 1): hess[i, j] for i in range(k) for j in range(i, k)}
        | {
            (i + 1, j + 1, l + 1): sym3[i, j, l]
            for i in range(k)
            for j in range(i, k)
            for l in range(j, k)
        }
    )
    vmodel = TaylorVModel(gradient=grad, v_derivs=v_derivs, trust_radius=0.4)

    u = rng.uniform(-0.2, 0.2, size=k)
    ordered = float(grad @ u)
    for i in range(k):
        for j in range(k):
            ordered += hess[i, j] * u[i] * u[j] / 2.0
    for i in range(k):
        for j in range(k):
            for l in range(k):
                ordered += sym3[i, j, l] * u[i] * u[j] * u[l] / 6.0
    assert vmodel.value(u) == pytest.approx(ordered, rel=1e-12, abs=1e-12)

    # gradient of the polynomial at an off-center point
    h = 1e-6
    for i in range(k):
        e = np.zeros(k)
        e[i] = h
        fd = (vmodel.value(u + e) - vmodel.value(u - e)) / (2 * h)
        assert vmodel.gradient_at(u)[i] == pytest.approx(fd, abs=1e-8)


def test_taylor_model_rejects_nonconvex_tables():
    with pytest.raises(ConfigurationError):
        TaylorVModel(
            gradient=np.array([0.5, 0.5]),
            v_derivs=VDerivTable({(1, 1): 0.25, (1, 2): 0.6, (2, 2): 0.25}),
            trust_radius=0.5,
        )


def _reference_taylor_sum(vmodel, u):
    """V(u) by the per-term loop: coefficient times multinomial weight times
    the product of the indices it names."""
    total = float(np.dot(vmodel.gradient, u))
    for gamma, coef in vmodel.v_derivs.items():
        term = coef
        for g in set(gamma):
            term /= math.factorial(gamma.count(g))
        for g in gamma:
            term *= u[g - 1]
        total += term
    return total


def test_taylor_values_match_per_point_sum(recovered_taylor):
    _, _, _, vmodel = recovered_taylor
    U = np.random.default_rng(5).uniform(-0.5, 0.5, size=(40, 2))
    got = vmodel.values(U)
    assert got.shape == (40,)
    for u, v in zip(U, got):
        assert v == pytest.approx(_reference_taylor_sum(vmodel, u), rel=1e-14, abs=1e-17)
    assert vmodel.value(U[0]) == got[0]


def test_taylor_values_three_goods_fourth_order():
    rng = np.random.default_rng(23)
    goods = (1, 2, 3)
    # a dominant diagonal keeps the polynomial convex on the probes
    scale = {2: 0.05, 3: 0.02, 4: 0.05}
    v_derivs = VDerivTable(
        {
            g: (0.3 if len(set(g)) == 1 else scale[m]) * rng.uniform(0.5, 1.0)
            for m in (2, 3, 4)
            for g in itertools.combinations_with_replacement(goods, m)
        }
    )
    vmodel = TaylorVModel(
        gradient=np.array([0.2, 0.3, 0.1]), v_derivs=v_derivs, trust_radius=0.3
    )
    U = rng.uniform(-0.3, 0.3, size=(25, 3))
    for u, v in zip(U, vmodel.values(U)):
        assert v == pytest.approx(_reference_taylor_sum(vmodel, u), rel=1e-14, abs=1e-17)


def _power_formula(vmodel, U):
    """V(u) at every row of U and the gradient at each, with every monomial
    taken by ``**``; the clipped exponents keep 0 * inf out at u_k = 0."""
    goods = range(1, vmodel.n_goods + 1)
    terms = vmodel.v_derivs.items()
    exponents = np.array([[g.count(k) for k in goods] for g, _ in terms])
    coefs = np.array([v / math.prod(math.factorial(g.count(k)) for k in set(g)) for g, v in terms])
    values = U @ vmodel.gradient + np.prod(U[:, None, :] ** exponents, axis=-1) @ coefs
    lowered = np.maximum(exponents - np.eye(vmodel.n_goods, dtype=int)[:, None, :], 0)
    gradients = [
        vmodel.gradient + (np.prod(u**lowered, axis=-1) * exponents.T) @ coefs for u in U
    ]
    return values, np.array(gradients)


def test_taylor_power_table_matches_power_formula():
    rng = np.random.default_rng(31)
    goods = (1, 2, 3, 4)
    # a dominant diagonal keeps the polynomial convex on the probes
    v_derivs = VDerivTable(
        {
            g: (0.3 if len(set(g)) == 1 else 0.02) * rng.uniform(0.5, 1.0)
            for m in (2, 3, 4)
            for g in itertools.combinations_with_replacement(goods, m)
        }
    )
    vmodel = TaylorVModel(gradient=np.array([0.2, 0.3, 0.1, 0.25]), v_derivs=v_derivs)
    U = rng.uniform(-0.5, 0.5, size=(30, 4))
    U[::3, 1] = 0.0  # rows with a zero index
    U[1, [0, 2]] = 0.0
    U[2] = 0.0
    values, gradients = _power_formula(vmodel, U)
    np.testing.assert_allclose(vmodel.values(U), values, rtol=1e-14, atol=0)
    got = np.array([vmodel.gradient_at(u) for u in U])
    np.testing.assert_allclose(got, gradients, rtol=1e-14, atol=0)
    assert np.array_equal(vmodel.gradient_at(U[2]), vmodel.gradient)


def test_taylor_model_rejects_terms_outside_goods():
    for gamma in ((0, 1), (1, 3)):
        with pytest.raises(ConfigurationError, match="outside 1..2"):
            TaylorVModel(gradient=np.array([0.5, 0.5]), v_derivs=VDerivTable({gamma: 0.1}))


def test_taylor_model_rejects_diagonal_nonconvexity():
    # convex along both axes, concave only along the (1, -1) diagonal
    with pytest.raises(ConfigurationError, match=r"non-convex along \[ 0.7"):
        TaylorVModel(
            gradient=np.array([0.5, 0.5]),
            v_derivs=VDerivTable({(1, 1): 0.2, (1, 2): 0.3, (2, 2): 0.2}),
            trust_radius=0.5,
        )


def test_taylor_model_rejects_overflowing_convexity_probe():
    # probes that far out overflow the polynomial, and a NaN second
    # difference certifies nothing; the overflow itself warns nothing (the
    # suite turns a RuntimeWarning into an error) and t prints short
    with pytest.raises(ConfigurationError, match=r"at t=-8e\+307 \(second diff nan\)"):
        TaylorVModel(
            gradient=np.array([0.5, 0.5]),
            v_derivs=VDerivTable({(1, 1): 0.2, (1, 2): 0.0, (2, 2): 0.2}),
            trust_radius=1e308,
        )


def test_average_indirect_utility_warns_per_outside_point(recovered_taylor):
    model, _, _, vmodel = recovered_taylor
    mix = DiscreteBeta(DIMS, [[1.0, 1.0], [4.0, 1.0], [1.0, 5.0]], [0.5, 0.25, 0.25])
    x = np.array([0.1, 0.1])  # indices 0.1, 0.4 and 0.5 against a radius of 0.35
    with pytest.warns(ExtrapolationWarning) as record:
        got = average_indirect_utility(vmodel, model, mix, x)
    assert len(record) == 2
    want = sum(
        w * vmodel.values(model.indices(x, b)[None])[0] for w, b in zip(mix.weights, mix.points)
    )
    assert got == pytest.approx(want, rel=1e-14)

import numpy as np
import pytest

from rcpum import (
    AsfEvaluator,
    ConfigurationError,
    DerivativeTable,
    DiscreteBeta,
    LogitModel,
    MomentIndex,
    PreconditionError,
    ProductBeta,
    RelevanceError,
    UnivariateAtoms,
    VDerivTable,
    chain_ratios,
    derivative_table,
    recover_moments_independence,
    recover_moments_scale,
    recover_moments_vknown,
    recover_v_derivatives,
)
from rcpum import logit

DIMS = (1, 1)


def _independence(table, max_order, abs_mean):
    """Independence-route tables of orders 1 to ``max_order``, each order
    anchored on the one below."""
    tables = {}
    for order in range(1, max_order + 1):
        tables[order] = recover_moments_independence(table, order, abs_mean, tables.get(order - 1))
    return tables


def test_ratio_of_moments_eq3_pair(logit_mixture_table):
    # entries whose combined good multisets agree share the value-function
    # factor, so their ratio is E[b2^2] / E[b1 b2] = 5/2
    _, table = logit_mixture_table
    got = table.value(1, ((2, 1), (2, 1))) / table.value(2, ((1, 1), (2, 1)))
    assert got == pytest.approx(5 / 2, rel=1e-6)
    # the companion pair: E[b1^2] / E[b1 b2] = 1/2 for the same mixture
    got = table.value(2, ((1, 1), (1, 1))) / table.value(1, ((1, 1), (2, 1)))
    assert got == pytest.approx(1 / 2, rel=1e-6)


def test_ratio_of_moments_point_mass_is_one():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    table = derivative_table(AsfEvaluator(model, beta), 2)
    for order in (1, 2):
        for ratio in chain_ratios(table, order).ratios.values():
            assert ratio == pytest.approx(1.0, rel=1e-6)


def test_chain_ratios_second_order(logit_mixture_table):
    _, table = logit_mixture_table
    chain = chain_ratios(table, 2)
    assert chain.reference == MomentIndex.of((1, 1), (1, 1)) or chain.reference.order == 2
    ref = chain.ratios[MomentIndex.of((1, 1), (1, 1))]
    rel = {
        str(i): chain.ratios[i] / ref
        for i in (
            MomentIndex.of((1, 1), (1, 1)),
            MomentIndex.of((1, 1), (2, 1)),
            MomentIndex.of((2, 1), (2, 1)),
        )
    }
    assert rel["b1.1*b1.1"] == pytest.approx(1.0)
    assert rel["b1.1*b2.1"] == pytest.approx(2.0, rel=1e-6)
    assert rel["b2.1*b2.1"] == pytest.approx(5.0, rel=1e-6)


def test_chain_ratios_same_good_fanout_single_good():
    # one good, two characteristics: everything is identified by fan-out;
    # the intercept is off-center so the third value-function derivative
    # (and hence every second-order entry) is nonzero
    dims = (2,)
    model = LogitModel(dims=dims, alphas=(0.4,), outside_good=True)
    beta = DiscreteBeta(dims, [[1.0, 0.5], [1.0, 2.0]], [0.5, 0.5])
    table = derivative_table(AsfEvaluator(model, beta), 2)
    chain = chain_ratios(table, 2)
    ref_val = beta.moment(chain.reference)
    for idx, r in chain.ratios.items():
        assert r == pytest.approx(beta.moment(idx) / ref_val, rel=1e-5, abs=1e-8)


def test_chain_ratios_relevance_failure():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True)
    beta = DiscreteBeta(DIMS, [[0.0, 0.0]], [1.0])
    table = derivative_table(AsfEvaluator(model, beta), 1)
    with pytest.raises(RelevanceError):
        chain_ratios(table, 1)


def test_chain_path_independence_three_goods():
    # two different one-step paths to the same good tuple agree
    dims = (1, 1, 1)
    model = LogitModel(dims=dims, alphas=(0.1, -0.2, 0.3), outside_good=True)
    beta = DiscreteBeta(
        dims, [[1.0, 1.0, 0.5], [1.0, 3.0, 2.0], [2.0, 1.0, 1.5]], [0.4, 0.3, 0.3]
    )
    table = derivative_table(AsfEvaluator(model, beta), 2)
    idx = {g: MomentIndex.of(*[(gg, 1) for gg in g]) for g in [(1, 1), (1, 2), (1, 3), (2, 3)]}

    def step(target_goods, num_k, src_goods, den_k):
        num = table.value(num_k, idx[target_goods].pairs)
        return num / table.value(den_k, idx[src_goods].pairs)

    # (1,1) -> (1,2) -> (2,3) and (1,1) -> (1,3) -> (2,3)
    via_2 = step((1, 2), 1, (1, 1), 2) * step((2, 3), 1, (1, 2), 3)
    via_3 = step((1, 3), 1, (1, 1), 3) * step((2, 3), 1, (1, 3), 2)
    assert via_2 == pytest.approx(via_3, rel=1e-8)
    truth = beta.moment(idx[(2, 3)]) / beta.moment(idx[(1, 1)])
    assert via_2 == pytest.approx(truth, rel=1e-6)


def test_recover_moments_scale_mixture(logit_mixture, logit_mixture_table):
    _, beta = logit_mixture
    _, table = logit_mixture_table
    mt = recover_moments_scale(table, 2, 1.0)
    assert mt[MomentIndex.of((1, 1), (1, 1))] == pytest.approx(1.0, rel=1e-6)
    assert mt[MomentIndex.of((1, 1), (2, 1))] == pytest.approx(2.0, rel=1e-6)
    assert mt[MomentIndex.of((2, 1), (2, 1))] == pytest.approx(5.0, rel=1e-6)
    assert mt.route == "scale"


def test_recover_moments_scale_first_order(logit_mixture_table):
    _, table = logit_mixture_table
    mt = recover_moments_scale(table, 1, 1.0)
    assert mt[MomentIndex.of((1, 1))] == pytest.approx(1.0, rel=1e-8)
    assert mt[MomentIndex.of((2, 1))] == pytest.approx(2.0, rel=1e-8)


def test_recover_moments_scale_point_mass():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    table = derivative_table(AsfEvaluator(model, beta), 2)
    for order in (1, 2):
        mt = recover_moments_scale(table, order, 1.0)
        for _, v in mt.items():
            assert v == pytest.approx(1.0, rel=1e-6)


def test_scale_equivariance(logit_mixture_table):
    _, table = logit_mixture_table
    base = recover_moments_scale(table, 2, 1.0)
    scaled = recover_moments_scale(table, 2, 3.5)
    for idx, v in base.items():
        assert scaled[idx] == v * 3.5


def test_independence_route_positive_mean():
    dims = DIMS
    model = LogitModel(dims=dims, alphas=(0.2, -0.1), outside_good=True)
    beta = ProductBeta(
        dims,
        (UnivariateAtoms((0.5, 1.5), (0.5, 0.5)), UnivariateAtoms((1.0, 3.0), (0.5, 0.5))),
    )
    table = derivative_table(AsfEvaluator(model, beta), 3)
    tables = _independence(table, 3, 1.0)
    for order, mt in tables.items():
        for idx, v in mt.items():
            assert v == pytest.approx(beta.moment(idx), rel=1e-3)
    assert tables[1][MomentIndex.of((1, 1))] == pytest.approx(1.0, rel=1e-6)
    assert tables[2][MomentIndex.of((1, 1), (1, 1))] == pytest.approx(1.25, rel=1e-4)


def test_independence_route_negative_mean():
    dims = DIMS
    model = LogitModel(dims=dims, alphas=(0.2, -0.1), outside_good=True)
    beta = ProductBeta(
        dims,
        (UnivariateAtoms((-1.5, -0.5), (0.5, 0.5)), UnivariateAtoms((1.0, 3.0), (0.5, 0.5))),
    )
    table = derivative_table(AsfEvaluator(model, beta), 2)
    tables = _independence(table, 2, 1.0)
    assert tables[1][MomentIndex.of((1, 1))] == pytest.approx(-1.0, rel=1e-6)
    for order, mt in tables.items():
        for idx, v in mt.items():
            assert v == pytest.approx(beta.moment(idx), rel=1e-3)


def test_independence_degenerate_first_reduces_to_scale(logit_mixture, logit_mixture_table):
    # beta_11 = 1 a.s.: at order 1 the independence route is the scale route
    _, table = logit_mixture_table
    ind = recover_moments_independence(table, 1, 1.0)
    sca = recover_moments_scale(table, 1, 1.0)
    for idx, v in sca.items():
        assert ind[idx] == pytest.approx(v, rel=1e-12)


def test_independence_higher_order_needs_the_order_below(logit_mixture_table):
    _, table = logit_mixture_table
    first = recover_moments_independence(table, 1, 1.0)
    for lower in (None, first):
        with pytest.raises(ConfigurationError, match="order 3 needs the recovered order-2"):
            recover_moments_independence(table, 3, 1.0, lower)


def test_recover_v_derivatives_known_values():
    # no outside good: d11 V = 1/4, d12 V = -1/4 at the symmetric point
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0))
    beta = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    table = derivative_table(AsfEvaluator(model, beta), 1)
    moments = {MomentIndex.of((1, 1)): 1.0, MomentIndex.of((2, 1)): 1.0}
    v = recover_v_derivatives(table, moments)
    assert v[(1, 1)] == pytest.approx(0.25, abs=1e-9)
    assert v[(1, 2)] == pytest.approx(-0.25, abs=1e-9)
    assert v[(2, 2)] == pytest.approx(0.25, abs=1e-9)
    # negative cross partial classifies the goods as local substitutes
    assert v[(1, 2)] < 0
    # exchange-symmetric model: equal own curvatures
    assert v[(1, 1)] == pytest.approx(v[(2, 2)], rel=1e-9)


def test_recover_v_derivatives_splits_agree(logit_mixture, logit_mixture_table):
    model, beta = logit_mixture
    _, table = logit_mixture_table
    moments = {}
    for order in (1, 2, 3):
        moments.update(dict(recover_moments_scale(table, order, 1.0).items()))
    v = recover_v_derivatives(table, moments)
    assert max(v.discrepancies.values()) < 1e-6
    for gamma, val in v.items():
        truth = logit.derivative(model.alphas, (0.0, 0.0), gamma, True)
        assert val == pytest.approx(truth, rel=1e-5, abs=1e-9)


def test_vderiv_convexity_guard():
    with pytest.raises(ConfigurationError):
        VDerivTable({(1, 1): -0.3, (1, 2): 0.1})


def test_vknown_route_matches_scale(logit_mixture, logit_mixture_table):
    model, beta = logit_mixture
    _, table = logit_mixture_table
    v = VDerivTable(model.kernel.value_partials(4))
    for order in (1, 2, 3):
        mv = recover_moments_vknown(table, v, order)
        ms = recover_moments_scale(table, order, 1.0)
        for idx, val in ms.items():
            assert mv[idx] == pytest.approx(val, abs=1e-6, rel=1e-6)


def test_vknown_point_mass_products():
    model = LogitModel(dims=DIMS, alphas=(0.1, -0.3), outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.5, 0.5]], [1.0])
    table = derivative_table(AsfEvaluator(model, beta), 2)
    v = VDerivTable(model.kernel.value_partials(3))
    mt = recover_moments_vknown(table, v, 2)
    for idx, val in mt.items():
        assert val == pytest.approx(beta.moment(idx), rel=1e-6)


def test_vknown_zero_derivative_rejected(logit_mixture_table):
    _, table = logit_mixture_table
    v = VDerivTable({(1, 1): 0.25, (1, 2): 0.0, (2, 2): 0.25})
    with pytest.raises(PreconditionError):
        recover_moments_vknown(table, v, 1)


def test_same_good_ratios_multiple_characteristics():
    dims = (2, 1)
    model = LogitModel(dims=dims, alphas=(0.0, 0.0), outside_good=True)
    beta = DiscreteBeta(dims, [[1.0, 0.5, 1.0], [1.0, 2.0, 3.0]], [0.5, 0.5])
    table = derivative_table(AsfEvaluator(model, beta), 2)
    num, den = MomentIndex.of((1, 1), (2, 1)), MomentIndex.of((1, 2), (2, 1))
    chain = chain_ratios(table, 2)
    got = chain.ratios[num] / chain.ratios[den]
    assert got == pytest.approx(beta.moment(num) / beta.moment(den), rel=1e-5)
    # both indices share good tuple (1, 2), so the value-function factor
    # cancels from one component's entries without symmetry of partials
    same_good = table.value(1, num.pairs) / table.value(1, den.pairs)
    assert got == pytest.approx(same_good, rel=1e-8)


def test_same_good_ratio_relevance_guard(logit_mixture_table):
    _, table = logit_mixture_table
    with pytest.raises(RelevanceError):
        chain_ratios(table, 2, tau_rel=1e9)


@pytest.mark.parametrize("rho,expected", [((1.0, 2.0), 0.5), ((2.0, 1.0), 2.0), ((1.5, 1.5), 1.0)])
def test_exponent_moment_ratio(rho, expected):
    # at the all-ones point the exponent drops out of the inner derivative,
    # so the order-1 chain reads E[rho_1] / E[rho_2]
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), index_form="power", center=np.ones(2))
    dist = DiscreteBeta(DIMS, [list(rho)], [1.0])
    ratios = chain_ratios(derivative_table(AsfEvaluator(model, dist), 1), 1).ratios
    got = ratios[MomentIndex.of((1, 1))] / ratios[MomentIndex.of((2, 1))]
    assert got == pytest.approx(expected, rel=1e-6)


def exact_estimates(alphas, beta, order):
    out = {}
    from rcpum.distributions import all_moment_indices

    for idx in all_moment_indices(DIMS, order):
        for k in (1, 2):
            gamma = tuple(sorted(idx.goods + (k,)))
            out[(k, idx)] = logit.derivative(alphas, (0.0, 0.0), gamma, True) * beta.moment(idx)
    return out


def _plugin_ratio(estimates, target, reference):
    """Plug-in moment ratio: the chain over a table of supplied entries."""
    table = DerivativeTable(
        dims=DIMS,
        center=None,
        entries={(k, idx.pairs): v for (k, idx), v in estimates.items()},
        stencil_nodes=0,
    )
    chain = chain_ratios(table, target.order)
    return chain.ratios[target] / chain.ratios[reference]


def test_plugin_exact_in_exact_out(logit_mixture):
    model, beta = logit_mixture
    est = exact_estimates(model.alphas, beta, 2)
    ref = MomentIndex.of((1, 1), (1, 1))
    for idx in (MomentIndex.of((1, 1), (2, 1)), MomentIndex.of((2, 1), (2, 1))):
        got = _plugin_ratio(est, idx, ref)
        assert got == pytest.approx(beta.moment(idx), rel=1e-12)


def test_plugin_perturbation_sensitivity(logit_mixture):
    # +-1% relative noise on the two entries of a ratio moves the moment by ~2%
    model, beta = logit_mixture
    est = exact_estimates(model.alphas, beta, 2)
    noisy = dict(est)
    target = MomentIndex.of((1, 1), (2, 1))
    ref = MomentIndex.of((1, 1), (1, 1))
    noisy[(1, target)] = est[(1, target)] * 1.01
    noisy[(2, ref)] = est[(2, ref)] * 0.99
    got = _plugin_ratio(noisy, target, ref)
    truth = beta.moment(target)
    assert abs(got - truth) / truth <= 0.0205
    assert abs(got - truth) / truth >= 0.015


def test_plugin_chained_product_identity(logit_mixture):
    # a two-step chained estimate is exactly the product of the step ratios
    model, beta = logit_mixture
    est = exact_estimates(model.alphas, beta, 2)
    m11 = MomentIndex.of((1, 1), (1, 1))
    m12 = MomentIndex.of((1, 1), (2, 1))
    m22 = MomentIndex.of((2, 1), (2, 1))
    r1 = est[(1, m12)] / est[(2, m11)]
    r2 = est[(1, m22)] / est[(2, m12)]
    assert _plugin_ratio(est, m22, m11) == r1 * r2


def test_plugin_zero_denominator(logit_mixture):
    model, beta = logit_mixture
    est = exact_estimates(model.alphas, beta, 2)
    dead = {k: 0.0 for k in est}
    with pytest.raises(RelevanceError):
        _plugin_ratio(dead, MomentIndex.of((1, 1), (2, 1)), MomentIndex.of((1, 1), (1, 1)))


def test_three_routes_agree_when_all_apply():
    # scale, independence, and v-known recover the same tables entrywise
    dims = DIMS
    model = LogitModel(dims=dims, alphas=(0.2, -0.1), outside_good=True)
    beta = ProductBeta(
        dims,
        (UnivariateAtoms((0.5, 1.5), (0.5, 0.5)), UnivariateAtoms((1.0, 3.0), (0.5, 0.5))),
    )
    table = derivative_table(AsfEvaluator(model, beta), 2)
    v = VDerivTable(model.kernel.value_partials(3))
    by_independence = _independence(table, 2, 1.0)
    for order in (1, 2):
        scale = beta.moment(MomentIndex(((1, 1),) * order))
        by_scale = recover_moments_scale(table, order, scale)
        by_v = recover_moments_vknown(table, v, order)
        for idx, val in by_scale.items():
            assert by_independence[order][idx] == pytest.approx(val, abs=1e-6, rel=1e-6)
            assert by_v[idx] == pytest.approx(val, abs=1e-6, rel=1e-6)


def test_recovery_at_nonzero_center():
    # recentering: identification runs at the covariate point where the
    # slope indices vanish, wherever that is configured to be
    center = np.array([0.5, -0.3])
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True, center=center)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5])
    table = derivative_table(AsfEvaluator(model, beta), 2)
    assert table.center == (0.5, -0.3)
    for order in (1, 2):
        mt = recover_moments_scale(table, order, 1.0)
        for idx, v in mt.items():
            assert v == pytest.approx(beta.moment(idx), rel=1e-5)

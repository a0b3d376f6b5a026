import dataclasses
import itertools
import math

import numpy as np
import pytest

from rcpum import (
    AsfEvaluator,
    ConfigurationError,
    DiscreteBeta,
    EvaluationError,
    FdScheme,
    LogitModel,
    MomentIndex,
    derivative_table,
)
from rcpum import logit
from rcpum.numdiff import fd_weights, richardson, stencil, table_plan

DIMS = (1, 1)


def point_mass_evaluator(alphas=(0.0, 0.0), beta=(1.0, 1.0), outside=False):
    model = LogitModel(dims=DIMS, alphas=alphas, outside_good=outside)
    dist = DiscreteBeta(DIMS, [list(beta)], [1.0])
    return AsfEvaluator(model, dist)


def _entry(evaluator, good, pairs, scheme):
    """Good ``good``'s estimate of the mixed partial over ``pairs``, read
    from a table of that order."""
    return derivative_table(evaluator, len(pairs), scheme).value(good, pairs)


def test_fd_weights_standard_stencils():
    assert np.allclose(fd_weights((-1, 0, 1), 1), [-0.5, 0.0, 0.5])
    assert np.allclose(fd_weights((-1, 0, 1), 2), [1.0, -2.0, 1.0])
    assert np.allclose(fd_weights((-2, -1, 0, 1, 2), 3), [-0.5, 1.0, 0.0, -1.0, 0.5])
    assert np.allclose(fd_weights((0, 1), 1), [-1.0, 1.0])


def test_stencil_shapes():
    assert stencil("central", 1)[0] == (-1, 0, 1)
    assert stencil("central", 2)[0] == (-1, 0, 1)
    assert stencil("central", 3)[0] == (-2, -1, 0, 1, 2)
    assert stencil("forward", 1)[0] == (0, 1)
    assert stencil("forward", 2)[0] == (0, 1, 2)


def test_richardson_eliminates_leading_error():
    # D(h) = 1 + h^2 exactly: one level of order-2 extrapolation is exact
    d = [1 + h**2 for h in (0.1, 0.05)]
    assert richardson(d, 2, 2) == pytest.approx(1.0, abs=1e-14)


def test_softmax_jacobian_own_derivative():
    ev = point_mass_evaluator()
    got = _entry(ev, 1, ((1, 1),), FdScheme())
    assert got == pytest.approx(0.25, abs=1e-9)


def test_softmax_jacobian_cross_derivative():
    ev = point_mass_evaluator()
    got = _entry(ev, 2, ((1, 1),), FdScheme())
    assert got == pytest.approx(-0.25, abs=1e-9)


def test_flat_asf_all_zero():
    ev = point_mass_evaluator(beta=(0.0, 0.0))
    for pairs in (((1, 1),), ((1, 1), (2, 1)), ((2, 1), (2, 1))):
        assert _entry(ev, 1, pairs, FdScheme()) == pytest.approx(0.0, abs=1e-12)


def analytic_entry(alphas, outside, beta_dist, k, idx):
    gamma = tuple(sorted(idx.goods + (k,)))
    return logit.derivative(alphas, (0.0, 0.0), gamma, outside) * beta_dist.moment(idx)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_mixed_partials_match_analytic(order, logit_mixture, logit_mixture_table):
    model, beta = logit_mixture
    _, table = logit_mixture_table
    for k, idx, val in table.classes(order):
        truth = analytic_entry(model.alphas, True, beta, k, idx)
        assert val == pytest.approx(truth, abs=2e-7, rel=2e-6)


@pytest.fixture(scope="module")
def smoothed_bundle_table3(smoothed_bundle):
    model, beta = smoothed_bundle
    return derivative_table(AsfEvaluator(model, beta), 3)


# The FD entries of the smoothed bundle stay within 3.3e-11 (orders 1-2) and
# 3.2e-7 (order 3) of the table's largest entry.
@pytest.mark.parametrize("order, tol", [(1, 1e-9), (2, 1e-9), (3, 2e-6)])
def test_bundle_mixed_partials_match_kernel_partials(
    order, tol, smoothed_bundle, smoothed_bundle_table3
):
    model, beta = smoothed_bundle
    table = smoothed_bundle_table3
    partials = model.kernel.value_partials(order + 1)
    largest = max(abs(v) for v in table.entries.values())
    for k, idx, val in table.classes(order):
        truth = partials[tuple(sorted(idx.goods + (k,)))] * beta.moment(idx)
        assert abs(val - truth) <= tol * largest, (k, idx)


def test_repeated_variable_third_derivative():
    # the third own-derivative of demand reads the fourth value-function
    # derivative: 2/9 * (1/9 - 4/9) = -2/27 at the symmetric outside-good point
    ev = point_mass_evaluator(outside=True)
    got = _entry(ev, 1, ((1, 1), (1, 1), (1, 1)), FdScheme())
    assert got == pytest.approx(-2 / 27, abs=1e-6)


def test_convergence_under_step_halving(logit_mixture):
    model, beta = logit_mixture
    ev = AsfEvaluator(model, beta)
    truth = analytic_entry(model.alphas, True, beta, 2, MomentIndex.of((1, 1), (1, 1)))
    errors = []
    for h in (0.2, 0.1, 0.05):
        scheme = FdScheme(kind="central", base_step=h, richardson_levels=1)
        errors.append(abs(_entry(ev, 2, ((1, 1), (1, 1)), scheme) - truth))
    assert errors[0] > errors[1] > errors[2]


def test_forward_matches_central_on_logit(logit_mixture):
    # one-sided estimates agree with central ones within ten times the
    # tolerance the central scheme is held to on this oracle
    model, beta = logit_mixture
    ev = AsfEvaluator(model, beta)
    for k, pairs in ((1, ((1, 1),)), (2, ((1, 1), (2, 1)))):
        central = _entry(ev, k, pairs, FdScheme(kind="central"))
        forward = _entry(ev, k, pairs, FdScheme(kind="forward"))
        truth = analytic_entry(model.alphas, True, beta, k, MomentIndex(pairs))
        assert abs(forward - central) <= 10 * 1e-4 * abs(truth)
        assert abs(forward - truth) <= 10 * 1e-4 * abs(truth)


def test_forward_scheme_keeps_nodes_nonnegative():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True, nonnegative_domain=True)
    beta = DiscreteBeta(DIMS, [[1.0, 2.0]], [1.0])
    seen = []

    class Spy(AsfEvaluator):
        def asf_batch(self, X):
            seen.append(np.array(X))
            return super().asf_batch(X)

    ev = Spy(model, beta)
    _entry(ev, 1, ((1, 1), (2, 1)), FdScheme(kind="forward"))
    assert seen and all(np.all(X >= 0.0) for X in seen)


def test_central_rejected_on_nonnegative_domain():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), nonnegative_domain=True)
    ev = AsfEvaluator(model, DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0]))
    with pytest.raises(ConfigurationError):
        _entry(ev, 1, ((1, 1),), FdScheme(kind="central"))


class _NanEvaluator:
    center = np.zeros(2)

    class model:
        dims = DIMS
        nonnegative_domain = False

    def asf_batch(self, X):
        return np.tile([np.nan, 0.0], (len(X), 1))


def test_nonfinite_node_reported():
    with pytest.raises(EvaluationError) as err:
        _entry(_NanEvaluator(), 1, ((1, 1),), FdScheme())
    assert err.value.point is not None


class _SmoothField:
    """Evaluator stub over f(x) = exp(a x1 + b x2 + c x1 x2), whose mixed
    partials have closed forms, exercising the stencils with no model
    machinery in the loop."""

    A, B, C = 0.7, -0.4, 0.3

    class model:
        dims = DIMS
        nonnegative_domain = False

    center = np.array([0.2, -0.1])

    def asf_batch(self, X):
        x1, x2 = X.T
        f = np.exp(self.A * x1 + self.B * x2 + self.C * x1 * x2)
        return np.column_stack([f, np.zeros_like(f)])

    def exact(self, orders):
        # derivative of f w.r.t. x1 (orders[0] times) and x2 (orders[1] times)
        x1, x2 = self.center
        f = np.exp(self.A * x1 + self.B * x2 + self.C * x1 * x2)
        u = self.A + self.C * x2
        v = self.B + self.C * x1
        c = self.C
        table = {
            (1, 0): u,
            (0, 1): v,
            (2, 0): u**2,
            (1, 1): c + u * v,
            (0, 2): v**2,
            (3, 0): u**3,
            (2, 1): 2 * c * u + u**2 * v,
            (1, 2): 2 * c * v + u * v**2,
            (0, 3): v**3,
        }
        return table[orders] * f


@pytest.mark.parametrize("orders", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2)])
@pytest.mark.parametrize("kind", ["central", "forward"])
def test_mixed_partial_against_closed_form_field(orders, kind):
    field = _SmoothField()
    pairs = ((1, 1),) * orders[0] + ((2, 1),) * orders[1]
    got = _entry(field, 1, pairs, FdScheme(kind=kind))
    tol = 1e-6 if kind == "central" else 2e-4
    assert got == pytest.approx(field.exact(orders), rel=tol, abs=tol)


def test_derivative_table_entry_counts(logit_mixture_table):
    _, table = logit_mixture_table
    assert table.orders == (1, 2, 3)
    assert len(list(table.classes(1))) == 4
    assert len(list(table.classes(2))) == 6
    # one entry per derivative, not one per differentiation ordering
    order2_keys = [key for key in table.entries if len(key[1]) == 2]
    assert len(order2_keys) == 6


@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (1, 1, 1)], ids=str)
def test_derivative_table_stores_each_derivative_once(dims):
    n_goods, n_vars = len(dims), sum(dims)
    model = LogitModel(dims=dims, alphas=(0.0,) * n_goods, outside_good=True)
    beta = DiscreteBeta(dims, [[1.0] * n_vars], [1.0])
    table = derivative_table(AsfEvaluator(model, beta), 3)
    want = n_goods * sum(math.comb(n_vars + m - 1, m) for m in (1, 2, 3))
    assert len(table.entries) == want
    assert len(list(table.classes())) == want


def test_derivative_table_eq3_entries_present(logit_mixture_table):
    _, table = logit_mixture_table
    for k, pairs in (
        (2, ((1, 1), (1, 1))),
        (2, ((1, 1), (2, 1))),
        (1, ((2, 1), (1, 1))),
        (1, ((2, 1), (2, 1))),
    ):
        assert np.isfinite(table.value(k, pairs))


def test_table_lookup_is_order_invariant(logit_mixture_table):
    _, table = logit_mixture_table
    a = table.value(1, ((1, 1), (2, 1)))
    b = table.value(1, ((2, 1), (1, 1)))
    assert a == b


def test_tables_are_deterministic(logit_mixture):
    model, beta = logit_mixture
    t1 = derivative_table(AsfEvaluator(model, beta), 2)
    t2 = derivative_table(AsfEvaluator(model, beta), 2)
    assert t1.entries == t2.entries


def test_linearity_in_mixture_weights():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True)
    b1, b2, w = [1.0, 1.0], [1.0, 3.0], 0.25
    mix = DiscreteBeta(DIMS, [b1, b2], [w, 1 - w])
    tm = derivative_table(AsfEvaluator(model, mix), 2)
    t1 = derivative_table(AsfEvaluator(model, DiscreteBeta(DIMS, [b1], [1.0])), 2)
    t2 = derivative_table(AsfEvaluator(model, DiscreteBeta(DIMS, [b2], [1.0])), 2)
    for k, idx, val in tm.classes():
        combo = w * t1.value(k, idx.pairs) + (1 - w) * t2.value(k, idx.pairs)
        assert val == pytest.approx(combo, abs=1e-9)


class _CountingEvaluator(AsfEvaluator):
    """Evaluator recording, per asf_batch call, the kernel calls it made."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def asf_batch(self, X):
        before = self.kernel_calls
        out = super().asf_batch(X)
        self.batches.append(self.kernel_calls - before)
        return out


def test_table_makes_one_asf_batch_per_table(smoothed_bundle):
    model, beta = smoothed_bundle
    ev = _CountingEvaluator(model, beta)
    table = derivative_table(ev, 3)
    # one batch over the distinct nodes serves every class and every good
    assert ev.batches == [1]
    # the plan's distinct nodes, fewer than the stencils request
    plan = table_plan(model.dims, 3, FdScheme())
    assert ev.points_evaluated == len(plan.offsets) < table.stencil_nodes
    again = derivative_table(ev, 3)
    # a second table evaluates its nodes again, in one more kernel call
    assert ev.batches == [1, 1]
    assert again.entries == table.entries


def test_table_plan_is_memoised_and_read_only():
    dims, scheme = (1, 2), FdScheme(kind="forward")
    plan = table_plan(dims, 3, scheme)
    assert table_plan(dims, 3, FdScheme(kind="forward")) is plan
    for array in (plan.offsets, plan.columns, plan.weights, plan.starts, plan.divisors):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        plan.weights[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.offsets = None
    # nodes shared by classes and levels are evaluated once, but counted
    # once per request
    assert len(np.unique(plan.offsets, axis=0)) == len(plan.offsets) < plan.requested
    pairs = [(1, 1), (2, 1), (2, 2)]
    assert plan.keys == tuple(
        (k, combo)
        for order in (1, 2, 3)
        for combo in itertools.combinations_with_replacement(pairs, order)
        for k in (1, 2)
    )


def _scalar_loop_entry(evaluator, k, pairs, scheme):
    """One entry by the plain node loop: every tensor-stencil node through
    evaluator.asf, one good at a time.  Also returns the entry's rounding
    scale sum_l |r_l| sum_i |w_i| / h_l^order, with r the Richardson
    coefficients and w the stencil weights."""
    powers = {}
    for g, c in pairs:
        pos = sum(evaluator.model.dims[: g - 1]) + c - 1
        powers[pos] = powers.get(pos, 0) + 1
    order = len(pairs)
    estimates, spreads = [], []
    for lvl in range(scheme.levels + 1):
        h = scheme.step_for(order) / 2**lvl
        per_var = [(pos, *stencil(scheme.kind, r)) for pos, r in powers.items()]
        acc = spread = 0.0
        for combo in itertools.product(*[range(len(offs)) for _, offs, _ in per_var]):
            x = np.array(evaluator.center, dtype=float)
            w = 1.0
            for (pos, offs, wts), i in zip(per_var, combo):
                x[pos] += offs[i] * h
                w *= wts[i]
            acc += w * evaluator.asf(x)[k - 1]
            spread += abs(w)
        estimates.append(acc / h**order)
        spreads.append(spread / h**order)
    levels = np.eye(scheme.levels + 1)
    coefficients = richardson(levels, scheme.base_accuracy, scheme.accuracy_stride)
    estimate = richardson(estimates, scheme.base_accuracy, scheme.accuracy_stride)
    return estimate, np.abs(coefficients) @ spreads


@pytest.mark.parametrize("kind", ["central", "forward"])
def test_derivative_table_matches_scalar_node_loop(kind, smoothed_bundle):
    model, beta = smoothed_bundle
    scheme = FdScheme(kind=kind)
    table = derivative_table(AsfEvaluator(model, beta), 4, scheme)
    reference = AsfEvaluator(model, beta)
    eps = np.finfo(float).eps
    for (k, pairs), val in table.entries.items():
        want, rounding = _scalar_loop_entry(reference, k, pairs, scheme)
        # Mean demand lies in [0, 1], so two summation orders of the same
        # stencil sums differ by a few ulps of the rounding scale; at order 4
        # that scale reaches 2e9 on central and 7e10 on forward stencils.
        assert abs(val - want) <= 4 * eps * rounding, (k, pairs)


def test_nan_producing_model_reports_node():
    class HalfNan(AsfEvaluator):
        def ybar_given_beta(self, x, beta):
            out = np.array(super().ybar_given_beta(x, beta))
            out[np.asarray(x)[..., 1] > 0.004] = np.nan
            return out

    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True)
    ev = HalfNan(model, DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 2.0]], [0.5, 0.5]))
    with pytest.raises(EvaluationError) as err:
        derivative_table(ev, 2)
    assert err.value.point[1] > 0.004
    assert str(err.value.point.tolist()) in str(err.value)


def test_nonnegative_domain_table_rejects_central_before_evaluating():
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), nonnegative_domain=True)
    ev = _CountingEvaluator(model, DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0]))
    with pytest.raises(ConfigurationError):
        derivative_table(ev, 2, FdScheme(kind="central"))
    assert ev.batches == [] and ev.kernel_calls == 0

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rcpum import (
    EXCLUDED,
    BundleModel,
    BundleScenario,
    ConfigurationError,
    InfeasibleScenarioError,
    LogitModel,
    TabulatedModel,
    latent_utility,
    solve_choice,
)

DIMS = (1, 1)
X0 = np.zeros(2)
B0 = np.zeros(2)


def example2_model(consideration=None):
    scen = BundleScenario(1.0, (1.0, -1.0), ((1, 2, 1.0),), consideration)
    return BundleModel(dims=DIMS, scenarios=(scen,))


def test_latent_utility_example2_table():
    model = example2_model()
    assert latent_utility(model, (1, 1), X0, B0, 0) == pytest.approx(1.0)
    assert latent_utility(model, (1, 0), X0, B0, 0) == pytest.approx(1.0)
    assert latent_utility(model, (0, 1), X0, B0, 0) == pytest.approx(-1.0)


def test_latent_utility_zero_bundle_is_zero():
    model = example2_model()
    assert latent_utility(model, (0, 0), X0, np.array([2.0, -3.0]), 0) == 0.0


def test_latent_utility_excluded_bundle():
    model = example2_model(consideration=frozenset({(0.0, 0.0), (1.0, 0.0)}))
    assert latent_utility(model, (1, 1), X0, B0, 0) is EXCLUDED


def test_latent_utility_checks_budget_membership():
    model = example2_model()
    with pytest.raises(ConfigurationError):
        latent_utility(model, (2, 0), X0, B0, 0)


def test_solve_choice_tie_averaged():
    # v(1,0) = v(1,1) = 1 beats v(0,0) = 0 and v(0,1) = -1
    got = solve_choice(example2_model(), X0, B0, 0)
    assert np.allclose(got, [1.0, 0.5])


def test_solve_choice_restricted_consideration():
    scen = BundleScenario(1.0, (-2.0, 0.0), (), frozenset({(0.0, 0.0), (1.0, 0.0)}))
    model = BundleModel(dims=DIMS, scenarios=(scen,))
    assert np.allclose(solve_choice(model, X0, B0, 0), [0.0, 0.0])


def test_solve_choice_four_way_tie():
    scen = BundleScenario(1.0, (0.0, 0.0))
    model = BundleModel(dims=DIMS, scenarios=(scen,))
    assert np.allclose(solve_choice(model, X0, B0, 0), [0.5, 0.5])


def test_empty_consideration_rejected_at_construction():
    with pytest.raises(ConfigurationError):
        BundleModel(
            dims=DIMS, scenarios=(BundleScenario(1.0, (0.0, 0.0), (), frozenset()),)
        )
    with pytest.raises(ConfigurationError):
        TabulatedModel(dims=DIMS, weights=(1.0,), tables=({(0.0, 0.0): EXCLUDED},))


class _AllExcluded:
    """Solver input violating the nonempty-consideration invariant."""

    dims = DIMS

    def scenario_table(self, s):
        return {(0.0, 0.0): EXCLUDED, (1.0, 0.0): EXCLUDED}

    def indices(self, x, beta):
        return np.zeros(2)


def test_solve_choice_infeasible_scenario():
    with pytest.raises(InfeasibleScenarioError):
        solve_choice(_AllExcluded(), X0, B0, 0)


dyadic = st.integers(min_value=-2**10, max_value=2**10).map(lambda n: n / 2**5)


@given(
    st.lists(dyadic, min_size=2, max_size=2),
    st.lists(dyadic, min_size=3, max_size=3),
    st.integers(min_value=-6, max_value=6).map(lambda e: 2.0**e),
)
def test_solve_choice_positive_scale_invariance(beta, eps, lam):
    # dyadic utilities and power-of-two scales keep the scaling exact in
    # floating point, so the argmax set is preserved bitwise
    scen = BundleScenario(1.0, tuple(eps[:2]), ((1, 2, eps[2]),))
    model = BundleModel(dims=DIMS, scenarios=(scen,))
    scaled = BundleModel(
        dims=DIMS,
        scenarios=(
            BundleScenario(1.0, (eps[0] * lam, eps[1] * lam), ((1, 2, eps[2] * lam),)),
        ),
    )
    x = np.array([0.25, -0.5])
    base = solve_choice(model, x, np.array(beta), 0)
    got = solve_choice(scaled, x, np.array(beta) * lam, 0)
    assert np.array_equal(base, got)


@given(st.lists(dyadic, min_size=2, max_size=2), st.lists(dyadic, min_size=3, max_size=3))
def test_solve_choice_stays_in_hull(beta, eps):
    scen = BundleScenario(1.0, tuple(eps[:2]), ((1, 2, eps[2]),))
    model = BundleModel(dims=DIMS, scenarios=(scen,))
    y = solve_choice(model, np.array([0.125, 0.375]), np.array(beta), 0)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)


def test_center_dimension_checked():
    with pytest.raises(ConfigurationError):
        LogitModel(dims=DIMS, alphas=(0.0, 0.0), center=np.zeros(3))


def test_scenario_weights_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        BundleModel(
            dims=DIMS,
            scenarios=(BundleScenario(0.6, (0.0, 0.0)), BundleScenario(0.6, (0.0, 0.0))),
        )


def test_consideration_must_be_inside_lattice():
    with pytest.raises(ConfigurationError):
        BundleModel(
            dims=DIMS,
            scenarios=(BundleScenario(1.0, (0.0, 0.0), (), frozenset({(2.0, 0.0)})),),
        )


def test_power_index_model_validation():
    with pytest.raises(ConfigurationError):
        LogitModel(dims=DIMS, alphas=(0.0, 0.0), index_form="power")
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), index_form="power", center=np.ones(2))
    assert np.allclose(model.indices(np.array([2.0, 4.0]), np.array([1.0, 0.5])), [2.0, 2.0])


def test_tabulated_model_budget_union():
    tab0 = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0}
    tab1 = {(0.0, 0.0): 0.0, (0.0, 1.0): 2.0}
    model = TabulatedModel(dims=DIMS, weights=(0.5, 0.5), tables=(tab0, tab1))
    assert latent_utility(model, (0.0, 1.0), X0, B0, 0) is EXCLUDED
    assert latent_utility(model, (0.0, 1.0), X0, B0, 1) == pytest.approx(2.0)


def test_value_partials_cover_orders():
    partials = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True).kernel.value_partials(4)
    assert {len(g) for g in partials} == {1, 2, 3, 4}
    assert len(partials) == 2 + 3 + 4 + 5
    assert partials[(1,)] == pytest.approx(1 / 3)
    assert partials[(1, 2)] == pytest.approx(-1 / 9)


def test_value_partials_need_a_smooth_kernel():
    with pytest.raises(ConfigurationError, match="hard-argmax"):
        example2_model().kernel.value_partials(2)


def smoothed_value(model, u):
    """Closed-form V(u) of a smoothed bundle model, summed over its
    scenarios and lattice without the compiled kernel."""
    total = 0.0
    for scen in model.scenarios:
        scores = [
            (float(np.dot(y, u)) + d) / model.smoothing
            for y in model.lattice
            if (d := scen.disturbance(y)) is not EXCLUDED
        ]
        top = max(scores)
        log_sum = top + math.log(sum(math.exp(z - top) for z in scores))
        total += scen.weight * model.smoothing * log_sum
    return total


def fd_partial(model, u, gamma, h=1e-2):
    """Nested fourth-order central differences of the closed-form value."""
    if not gamma:
        return smoothed_value(model, u)
    g, rest = gamma[0], gamma[1:]
    total = 0.0
    for off, w in ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)):
        shifted = np.array(u, dtype=float)
        shifted[g - 1] += off * h
        total += w * fd_partial(model, shifted, rest, h)
    return total / h


def test_value_partials_match_brute_force_on_smoothed_bundle():
    scenarios = (
        BundleScenario(0.5, (0.4, -0.2), ((1, 2, 0.3),)),
        BundleScenario(0.3, (-0.5, 0.6), ((1, 2, -0.4),)),
        BundleScenario(0.2, (0.9, -0.7), (), frozenset({(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)})),
    )
    model = BundleModel(dims=DIMS, scenarios=scenarios, smoothing=0.7)
    partials = model.kernel.value_partials(4)
    for order in (1, 2, 3, 4):
        for gamma in itertools.combinations_with_replacement((1, 2), order):
            # the differences stay within 3e-8 at order 4
            assert partials[gamma] == pytest.approx(fd_partial(model, X0, gamma), abs=2e-7), gamma

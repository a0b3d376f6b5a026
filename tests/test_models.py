import itertools
import math

import numpy as np
import pytest

from rcpum import BundleModel, BundleScenario, ConfigurationError, LogitModel

DIMS = (1, 1)
X0 = np.zeros(2)


def test_disturbance_is_minus_inf_outside_consideration():
    scen = BundleScenario(1.0, (1.0, -1.0), ((1, 2, 1.0),), frozenset({(0.0, 0.0), (1.0, 0.0)}))
    assert scen.disturbance((1.0, 0.0)) == 1.0
    assert scen.disturbance((1.0, 1.0)) == -np.inf
    model = BundleModel(dims=DIMS, scenarios=(scen,), smoothing=1.0)
    assert model.kernel.D.tolist() == [[0.0, -np.inf, 1.0, -np.inf]]


@pytest.mark.parametrize("smoothing", [None, 0.0, -1.0, float("nan"), float("inf")])
def test_bundle_model_requires_positive_finite_smoothing(smoothing):
    # None is also the default: without a Gumbel shock the choice is a hard
    # argmax, whose mean demand is piecewise constant
    with pytest.raises(ConfigurationError, match="hard argmax, whose mean demand is piecewise"):
        BundleModel(dims=DIMS, scenarios=(BundleScenario(1.0, (0.0, 0.0)),), smoothing=smoothing)


def test_empty_consideration_rejected_at_construction():
    with pytest.raises(ConfigurationError, match="consideration sets must be nonempty"):
        BundleModel(
            dims=DIMS,
            scenarios=(BundleScenario(1.0, (0.0, 0.0), (), frozenset()),),
            smoothing=1.0,
        )


def test_center_dimension_checked():
    with pytest.raises(ConfigurationError):
        LogitModel(dims=DIMS, alphas=(0.0, 0.0), center=np.zeros(3))


def test_scenario_weights_must_sum_to_one():
    with pytest.raises(ConfigurationError, match="scenario weights sum to"):
        BundleModel(
            dims=DIMS,
            scenarios=(BundleScenario(0.6, (0.0, 0.0)), BundleScenario(0.6, (0.0, 0.0))),
            smoothing=1.0,
        )


def test_consideration_must_be_inside_lattice():
    with pytest.raises(ConfigurationError, match="inside the bundle lattice"):
        BundleModel(
            dims=DIMS,
            scenarios=(BundleScenario(1.0, (0.0, 0.0), (), frozenset({(2.0, 0.0)})),),
            smoothing=1.0,
        )


def test_power_index_model_validation():
    with pytest.raises(ConfigurationError):
        LogitModel(dims=DIMS, alphas=(0.0, 0.0), index_form="power")
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), index_form="power", center=np.ones(2))
    assert np.allclose(model.indices(np.array([2.0, 4.0]), np.array([1.0, 0.5])), [2.0, 2.0])


def test_value_partials_cover_orders():
    partials = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True).kernel.value_partials(4)
    assert {len(g) for g in partials} == {1, 2, 3, 4}
    assert len(partials) == 2 + 3 + 4 + 5
    assert partials[(1,)] == pytest.approx(1 / 3)
    assert partials[(1, 2)] == pytest.approx(-1 / 9)


def smoothed_value(model, u):
    """Closed-form V(u) of a smoothed bundle model, summed over its
    scenarios and lattice without the compiled kernel."""
    total = 0.0
    for scen in model.scenarios:
        scores = [
            (float(np.dot(y, u)) + d) / model.smoothing
            for y in model.lattice
            if (d := scen.disturbance(y)) > -np.inf
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

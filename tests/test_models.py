import itertools
import math

import numpy as np
import pytest

from rcpum import BundleModel, ConfigurationError, LogitModel

DIMS = (1, 1)
X0 = np.zeros(2)


def one_scenario(**changes):
    """Keyword arguments of a one-scenario model over two goods."""
    return dict(dims=DIMS, weights=(1.0,), intercepts=((0.0, 0.0),), smoothing=1.0) | changes


def test_disturbance_is_minus_inf_outside_consideration():
    model = BundleModel(
        **one_scenario(
            intercepts=((1.0, -1.0),),
            complementarities=([(1, 2, 1.0)],),
            consideration=({(0.0, 0.0), (1.0, 0.0)},),
        )
    )
    assert model.kernel.D.tolist() == [[0.0, -np.inf, 1.0, -np.inf]]
    assert model.consideration == (frozenset({(0.0, 0.0), (1.0, 0.0)}),)


@pytest.mark.parametrize("smoothing", [None, 0.0, -1.0, float("nan"), float("inf")])
def test_bundle_model_requires_positive_finite_smoothing(smoothing):
    # None is also the default: without a Gumbel shock the choice is a hard
    # argmax, whose mean demand is piecewise constant
    with pytest.raises(ConfigurationError, match="hard argmax, whose mean demand is piecewise"):
        BundleModel(**one_scenario(smoothing=smoothing))


def test_empty_consideration_rejected_at_construction():
    with pytest.raises(ConfigurationError, match="consideration sets must be nonempty"):
        BundleModel(**one_scenario(consideration=(set(),)))


def test_center_dimension_checked():
    with pytest.raises(ConfigurationError):
        LogitModel(dims=DIMS, alphas=(0.0, 0.0), center=np.zeros(3))


def test_scenario_weights_must_sum_to_one():
    with pytest.raises(ConfigurationError, match="scenario weights sum to"):
        BundleModel(**one_scenario(weights=(0.6, 0.6), intercepts=np.zeros((2, 2))))


def test_consideration_must_be_inside_lattice():
    with pytest.raises(ConfigurationError, match="inside the bundle lattice"):
        BundleModel(**one_scenario(consideration=({(2.0, 0.0)},)))


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"weights": ()}, "at least one disturbance scenario required"),
        ({"lattice": ()}, "bundle lattice must be nonempty"),
        ({"lattice": ((0.0, 1.0), (1.0,))}, "one quantity per good"),
        ({"weights": (1.5, -0.5), "intercepts": np.zeros((2, 2))}, "must be nonnegative"),
        ({"intercepts": ((0.0,),)}, "one intercept per good required in each scenario"),
        ({"intercepts": np.zeros((2, 2))}, "one intercept per good required in each scenario"),
        ({"complementarities": ([(2, 1, 0.5)],)}, "must satisfy j < k"),
        ({"complementarities": ([(1, 1, 0.5)],)}, "must satisfy j < k"),
        ({"complementarities": ([(0, 2, 0.5)],)}, "outside the good range"),
        ({"complementarities": ([(1, 3, 0.5)],)}, "outside the good range"),
        ({"complementarities": ([], [])}, "entry per scenario"),
        ({"consideration": (None, None)}, "entry per scenario"),
    ],
)
def test_bundle_model_rejects_malformed_scenarios(changes, message):
    with pytest.raises(ConfigurationError, match=message):
        BundleModel(**one_scenario(**changes))


def test_bundle_model_scenario_arrays_are_read_only():
    model = BundleModel(**one_scenario(weights=[0.25, 0.75], intercepts=[[0.5, -1], [0, 2]]))
    assert model.weights.tolist() == [0.25, 0.75]
    assert model.intercepts.tolist() == [[0.5, -1.0], [0.0, 2.0]]
    assert model.complementarities == ((), ())
    assert model.consideration == (None, None)
    for arr in (model.weights, model.intercepts):
        assert not arr.flags.writeable


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
    scenarios and considered bundles from the raw intercepts and pairs,
    without the compiled kernel."""
    total = 0.0
    for w, alpha, pairs, c in zip(
        model.weights, model.intercepts, model.complementarities, model.consideration
    ):
        scores = [
            (np.dot(y, u) + np.dot(y, alpha) + sum(y[j - 1] * y[k - 1] * v for j, k, v in pairs))
            / model.smoothing
            for y in model.lattice
            if c is None or y in c
        ]
        top = max(scores)
        log_sum = top + math.log(sum(math.exp(z - top) for z in scores))
        total += w * model.smoothing * log_sum
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
    model = BundleModel(
        dims=DIMS,
        weights=(0.5, 0.3, 0.2),
        intercepts=((0.4, -0.2), (-0.5, 0.6), (0.9, -0.7)),
        complementarities=([(1, 2, 0.3)], [(1, 2, -0.4)], []),
        consideration=(None, None, {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)}),
        smoothing=0.7,
    )
    partials = model.kernel.value_partials(4)
    for order in (1, 2, 3, 4):
        for gamma in itertools.combinations_with_replacement((1, 2), order):
            # the differences stay within 3e-8 at order 4
            assert partials[gamma] == pytest.approx(fd_partial(model, X0, gamma), abs=2e-7), gamma

import pytest

from rcpum import (
    AsfEvaluator,
    BundleModel,
    DiscreteBeta,
    LogitModel,
    derivative_table,
)

DIMS_K2 = (1, 1)


@pytest.fixture(scope="session")
def logit_mixture():
    """The two-good logit with an outside option and the {(1,1),(1,3)}
    coefficient mixture used throughout the recovery tests."""
    model = LogitModel(dims=DIMS_K2, alphas=(0.0, 0.0), outside_good=True)
    beta = DiscreteBeta(DIMS_K2, [[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5])
    return model, beta


@pytest.fixture(scope="session")
def logit_mixture_table(logit_mixture):
    model, beta = logit_mixture
    evaluator = AsfEvaluator(model, beta)
    return evaluator, derivative_table(evaluator, 3)


def bundle_scenarios():
    """Six disturbance scenarios over two goods, the last with a restricted
    consideration set, as ``BundleModel`` keyword arguments."""
    return dict(
        weights=(0.20, 0.20, 0.15, 0.15, 0.15, 0.15),
        intercepts=((0.5, -0.3), (-0.4, 0.6), (0.8, 0.2), (-0.2, -0.6), (0.3, 0.9), (1.0, -0.8)),
        complementarities=[[(1, 2, v)] for v in (0.4, -0.5, 0.3, 0.6, -0.2)] + [[]],
        consideration=(None,) * 5 + ({(0.0, 0.0), (1.0, 0.0)},),
    )


@pytest.fixture(scope="session")
def smoothed_bundle():
    """Six-scenario bundle model (one restricted consideration set) with
    Gumbel smoothing and a four-point coefficient mixture."""
    model = BundleModel(dims=DIMS_K2, smoothing=1.0, **bundle_scenarios())
    beta = DiscreteBeta(
        DIMS_K2, [[1.0, 1.0], [1.0, 3.0], [2.0, 1.0], [2.0, 2.0]], [0.25] * 4
    )
    return model, beta


@pytest.fixture(scope="session")
def smoothed_bundle_table(smoothed_bundle):
    model, beta = smoothed_bundle
    evaluator = AsfEvaluator(model, beta)
    return evaluator, derivative_table(evaluator, 2)

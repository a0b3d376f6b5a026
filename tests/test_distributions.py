import itertools
import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rcpum import (
    ConfigurationError,
    DiscreteBeta,
    MomentIndex,
    all_moment_indices,
    true_moments,
)

DIMS = (1, 1)


def test_moment_index_canonical_form():
    a = MomentIndex.of((2, 1), (1, 1))
    b = MomentIndex.of((1, 1), (2, 1))
    assert a == b
    assert a.pairs == ((1, 1), (2, 1))
    assert a.order == 2
    assert a.goods == (1, 2)


@given(st.permutations([(1, 1), (2, 1), (2, 1), (1, 2)]))
def test_moment_index_permutation_invariant(perm):
    dist = DiscreteBeta((2, 1), [[1.0, 0.5, 2.0], [0.3, 1.5, -1.0]], [0.5, 0.5])
    base = dist.moment(MomentIndex.of((1, 1), (2, 1), (2, 1), (1, 2)))
    assert dist.moment(MomentIndex(tuple(perm))) == base


def test_moment_index_rejects_zero_based():
    with pytest.raises(ConfigurationError):
        MomentIndex.of((0, 1))


def test_two_point_second_moment():
    dist = DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5])
    assert dist.moment(MomentIndex.of((2, 1), (2, 1))) == pytest.approx(5.0)
    assert dist.moment(MomentIndex.of((1, 1), (2, 1))) == pytest.approx(2.0)


def test_point_mass_moments_are_one():
    dist = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    for order in (1, 2, 3):
        for idx in all_moment_indices(DIMS, order):
            assert dist.moment(idx) == pytest.approx(1.0)


def test_product_moments_factorize():
    first, second = ((0.5, 1.5), (0.5, 0.5)), ((1.0, 3.0), (0.25, 0.75))
    dist = DiscreteBeta.product(DIMS, (first, second))
    m1 = sum(v * w for v, w in zip(*first))
    m2 = sum(v * w for v, w in zip(*second))
    assert dist.moment(MomentIndex.of((1, 1))) == pytest.approx(m1)
    assert dist.moment(MomentIndex.of((2, 1))) == pytest.approx(m2)
    assert dist.moment(MomentIndex.of((1, 1), (2, 1))) == pytest.approx(m1 * m2)
    assert dist.moment(MomentIndex.of((1, 1), (1, 1))) == pytest.approx(1.25)


def test_overflowing_moment_is_infinite():
    # a Python float product would raise OverflowError here, and numpy's warns
    dist = DiscreteBeta.product(DIMS, (((0.5, 1e308), (0.5, 0.5)), ((1.0, 3.0), (0.5, 0.5))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist.moment(MomentIndex.of((1, 1))) == 5e307
        assert true_moments(dist, [MomentIndex.of((1, 1), (1, 1), (2, 1))]) == [math.inf]


def test_product_support_matches_moments():
    # itertools.product order, last coordinate fastest, weights multiplied
    # left to right: the enumeration the ASF sums over
    marginals = (
        ((0.5, 1.5), (0.25, 0.75)),
        ((1.0, 3.0), (0.5, 0.5)),
        ((0.2, 0.9, 1.7), (0.2, 0.3, 0.5)),
    )
    dist = DiscreteBeta.product((2, 1), marginals)
    combos = list(itertools.product(*(list(zip(*m)) for m in marginals)))
    assert dist.points.tolist() == [[v for v, _ in combo] for combo in combos]
    assert dist.weights.tolist() == [math.prod(w for _, w in combo) for combo in combos]
    idx = MomentIndex.of((1, 1), (1, 2), (1, 2), (2, 1))
    brute = sum(math.prod(w for _, w in c) * c[0][0] * c[1][0] ** 2 * c[2][0] for c in combos)
    assert dist.moment(idx) == pytest.approx(brute, rel=1e-14)


def test_weight_validation():
    with pytest.raises(ConfigurationError):
        DiscreteBeta(DIMS, [[1.0, 1.0]], [0.5])
    with pytest.raises(ConfigurationError):
        DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 2.0]], [0.7, 0.4])
    with pytest.raises(ConfigurationError):
        DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 2.0]], [-0.5, 1.5])


def test_dimension_validation():
    with pytest.raises(ConfigurationError):
        DiscreteBeta(DIMS, [[1.0, 1.0, 1.0]], [1.0])
    with pytest.raises(ConfigurationError):
        DiscreteBeta.product(DIMS, (((1.0,), (1.0,)),))
    with pytest.raises(ConfigurationError, match="one weight per atom"):
        DiscreteBeta.product(DIMS, (((1.0,), (1.0,)), ((1.0, 2.0), (1.0,))))


def test_moment_index_bounds_checked_against_dims():
    dist = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    with pytest.raises(ConfigurationError):
        dist.moment(MomentIndex.of((3, 1)))
    with pytest.raises(ConfigurationError):
        dist.moment(MomentIndex.of((1, 2)))


def test_all_moment_indices_counts():
    assert len(all_moment_indices(DIMS, 1)) == 2
    assert len(all_moment_indices(DIMS, 2)) == 3
    assert len(all_moment_indices(DIMS, 3)) == 4
    assert len(all_moment_indices((2, 1), 2)) == 6


@pytest.mark.parametrize(
    "dist",
    [
        DiscreteBeta(
            (2, 1),
            [[1.0, 0.5, 2.0], [0.3, 1.5, -1.0], [-0.7, 2.5, 0.4]],
            [0.25, 0.35, 0.4],
        ),
        DiscreteBeta.product(
            (2, 1),
            (
                ((0.5, 1.5), (0.25, 0.75)),
                ((-1.0, 3.0), (0.5, 0.5)),
                ((0.2, 0.9, 1.7), (0.2, 0.3, 0.5)),
            ),
        ),
    ],
    ids=["discrete", "product"],
)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_true_moments_match_true_moment(dist, order):
    indices = all_moment_indices(dist.dims, order)
    got = true_moments(dist, indices)
    assert len(got) == len(indices)
    for idx, value in zip(indices, got):
        assert value == pytest.approx(dist.moment(idx), rel=1e-15, abs=0), str(idx)

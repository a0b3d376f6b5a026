"""The exact value-function derivatives are the oracle the rest of the
suite leans on, so they get their own independent check: high-accuracy
finite differences applied directly to the closed-form logit value."""

import itertools

import numpy as np
import pytest

from rcpum import logit


def fd_derivative(alphas, u, gamma, outside_good, h=1e-2):
    """Brute-force mixed partial of the closed-form value by nested
    fourth-order central differences, independent of the polynomial
    recursion under test."""
    if not gamma:
        return logit.value(alphas, u, outside_good)
    g, rest = gamma[0], gamma[1:]
    coeffs = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))
    total = 0.0
    for off, w in coeffs:
        shifted = np.array(u, dtype=float)
        shifted[g - 1] += off * h
        total += w * fd_derivative(alphas, shifted, rest, outside_good, h)
    return total / h


@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivatives_match_brute_force(outside, order):
    alphas = (0.3, -0.2)
    u = np.array([0.15, -0.1])
    for gamma in itertools.combinations_with_replacement((1, 2), order):
        exact = logit.derivative(alphas, u, gamma, outside)
        approx = fd_derivative(alphas, u, gamma, outside)
        assert exact == pytest.approx(approx, abs=5e-6)


def test_known_values_without_outside_good():
    # symmetric two-good logit at the center: p = (1/2, 1/2)
    assert logit.derivative((0, 0), (0, 0), (1, 1)) == pytest.approx(0.25)
    assert logit.derivative((0, 0), (0, 0), (1, 2)) == pytest.approx(-0.25)
    assert logit.derivative((0, 0), (0, 0), (1, 1, 1)) == pytest.approx(0.0, abs=1e-15)


def test_known_values_with_outside_good():
    # p = (1/3, 1/3): own curvature 2/9, cross -1/9, third order 2/27
    assert logit.derivative((0, 0), (0, 0), (1, 1), True) == pytest.approx(2 / 9)
    assert logit.derivative((0, 0), (0, 0), (1, 2), True) == pytest.approx(-1 / 9)
    assert logit.derivative((0, 0), (0, 0), (1, 1, 1), True) == pytest.approx(2 / 27)
    assert logit.derivative((0, 0), (0, 0), (1, 1, 2), True) == pytest.approx(-1 / 27)


def test_probabilities_overflow_guarded():
    p = logit.choice_probabilities((0.0, 0.0), (800.0, -800.0))
    assert np.isfinite(p).all()
    assert p[0] == pytest.approx(1.0)


def test_value_shift_invariance():
    # the value function inherits the logit softmax shift guard
    v = logit.value((0.0,), (1000.0,), outside_good=True)
    assert np.isfinite(v)
    assert v == pytest.approx(1000.0, abs=1e-6)


def test_logit_value_wrapper_normalized():
    oracle = logit.LogitValue((0.0, 0.0), outside_good=False)
    assert oracle.value((0.0, 0.0)) == 0.0
    truth = np.log((np.exp(0.1) + 1.0) / 2.0)
    assert oracle.value((0.1, 0.0)) == pytest.approx(truth, abs=1e-15)
    assert oracle.gradient((0.0, 0.0)) == pytest.approx([0.5, 0.5])


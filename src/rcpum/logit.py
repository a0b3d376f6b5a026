"""Closed forms for the multinomial logit: demand and value function, the
independent references for the compiled kernel.

The value function is V(u) = log(sum_j exp(alpha_j + u_j)), with an extra
unit term in the sum when an outside good is present.  Its exact partial
derivatives are not derived here: they are the softmax cumulants every
smooth model's kernel gives through ``FiniteBudgetKernel.value_partials``,
and ``derivative`` reads them from the logit kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LogitModel


def choice_probabilities(alphas, u, outside_good=False):
    """Logit demand at index vector u, guarded by a max shift."""
    z = np.asarray(alphas, dtype=float) + np.asarray(u, dtype=float)
    if outside_good:
        z = np.concatenate([z, [0.0]])
    shift = z.max()
    e = np.exp(z - shift)
    p = e / e.sum()
    return p[:-1] if outside_good else p


def value(alphas, u, outside_good=False):
    """V(u) = log-sum-exp of the shifted indices."""
    z = np.asarray(alphas, dtype=float) + np.asarray(u, dtype=float)
    if outside_good:
        z = np.concatenate([z, [0.0]])
    shift = z.max()
    return float(shift + np.log(np.exp(z - shift).sum()))


def derivative(alphas, u, gamma, outside_good=False):
    """Exact mixed partial d_gamma V(u) of the logit value function, read
    from the logit kernel at the intercepts alphas + u."""
    alphas = np.add(alphas, u, dtype=float)
    model = LogitModel(dims=(1,) * len(alphas), alphas=alphas, outside_good=outside_good)
    return model.kernel.value_partials(len(gamma))[tuple(sorted(gamma))]


@dataclass(frozen=True)
class LogitValue:
    """Value-function oracle for a logit model, normalized to V(0) = 0."""

    alphas: tuple[float, ...]
    outside_good: bool = False

    def value(self, u):
        zero = np.zeros(len(self.alphas))
        return value(self.alphas, u, self.outside_good) - value(
            self.alphas, zero, self.outside_good
        )

    def gradient(self, u):
        return choice_probabilities(self.alphas, u, self.outside_good)

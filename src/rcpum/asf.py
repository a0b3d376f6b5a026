"""Mean demand evaluation: the per-coefficient mean choice and the average
structural function with all heterogeneity integrated out.

Every model carries a compiled ``FiniteBudgetKernel`` (G, Y, D, w, sigma):
the good-sum matrix, the budget, the disturbance of each bundle in each
scenario (-inf where a bundle is not considered), the scenario weights, and
the Gumbel scale, or None for the hard argmax with ties averaged.  One
vectorized kernel evaluates all of them, logit included, at a whole
coefficient support at once:

    U = ((x - c) * B) @ G @ Y'                          (support x budget)
    P = softmax((U + D) / sigma) or argmax mask of U + D   (per scenario)
    ybar = sum_t w_t P_t @ Y

so the ASF makes one kernel call per batch of covariate points
(``asf_batch`` takes a whole stencil at once).  Nothing is sampled and
nothing is cached: the derivative table's stencil plan already evaluates
each distinct node once.
"""

from __future__ import annotations

import numpy as np

from .distributions import support_arrays
from .exceptions import ConfigurationError


def ybar_given_beta(model, x, beta):
    """Mean demand at fixed slope coefficients (disturbance integrated).

    ``beta`` is one coefficient vector, giving shape (K,), or an (S,
    total_dim) matrix of them, giving one demand row per coefficient vector.
    An (n, total_dim) covariate matrix against such a support gives (n, S,
    K).
    """
    kernel = model.kernel
    z = (model.indices(x, beta) @ kernel.Y.T)[..., None, :] + kernel.D
    best = z.max(axis=-1, keepdims=True)
    if kernel.sigma is None:
        p = (z == best).astype(float)
    else:
        # the softmax in place: z is the largest array of the kernel
        p = z
        p -= best
        p /= kernel.sigma
        np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)  # choice probabilities per scenario
    return np.einsum("t,...tb,bk->...k", kernel.w, p, kernel.Y)


class AsfEvaluator:
    """Average structural function of a model under a coefficient mixture.

    Evaluations are deterministic and hold no state beyond two work
    counters: ``points_evaluated`` counts the covariate rows evaluated and
    ``kernel_calls`` the kernel calls that evaluated them.  Values are safe
    to compute from several threads; the counters are not synchronised.
    """

    def __init__(self, model, beta_dist):
        if tuple(beta_dist.dims) != model.dims:
            raise ConfigurationError("model and coefficient distribution disagree on dims")
        self.model = model
        self.beta_dist = beta_dist
        self._weights, self._points = support_arrays(beta_dist)
        self.points_evaluated = 0
        self.kernel_calls = 0

    @property
    def center(self):
        return self.model.center

    def ybar_given_beta(self, x, beta):
        return ybar_given_beta(self.model, x, beta)

    def asf(self, x):
        """Average structural function: mean demand over the full mixture."""
        return self.asf_batch(np.asarray(x, dtype=float)[None])[0]

    def asf_batch(self, X):
        """The ASF at every row of an (n, total_dim) covariate matrix, as an
        (n, K) array from one kernel call; rows equal ``asf`` of the same
        point bitwise."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ConfigurationError("asf_batch takes a matrix with one covariate point per row")
        values = self._weights @ self.ybar_given_beta(X, self._points)
        self.points_evaluated += len(X)
        self.kernel_calls += 1
        return values

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
(``asf_batch`` takes a whole stencil at once).  Nothing is cached: the
derivative table's stencil plan already evaluates each distinct node once.
Exact evaluation is what the identification path uses.  A seeded
Monte-Carlo fallback over disturbance scenarios exists behind the same
interface but nothing in the acceptance path consumes randomness.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .distributions import support_arrays
from .exceptions import ConfigurationError
from .models import BundleModel, TabulatedModel


def _scenario_choices(model, x, beta):
    """Choice probabilities over the budget in every scenario, shaped
    beta.shape[:-1] + (scenarios, budget)."""
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
    p /= p.sum(axis=-1, keepdims=True)
    return p


def ybar_given_beta(model, x, beta):
    """Mean demand at fixed slope coefficients (disturbance integrated).

    ``beta`` is one coefficient vector, giving shape (K,), or an (S,
    total_dim) matrix of them, giving one demand row per coefficient vector.
    An (n, total_dim) covariate matrix against such a support gives (n, S,
    K).
    """
    p = _scenario_choices(model, x, beta)
    return np.einsum("t,...tb,bk->...k", model.kernel.w, p, model.kernel.Y)


class AsfEvaluator:
    """Average structural function of a model under a coefficient mixture.

    Evaluations are deterministic and hold no state beyond two work
    counters: ``points_evaluated`` counts the covariate rows evaluated and
    ``kernel_calls`` the kernel calls that evaluated them.  Values are safe
    to compute from several threads; the counters are not synchronised.
    """

    def __init__(self, model, beta_dist, strategy="exact", n_draws=0, seed=None):
        if tuple(beta_dist.dims) != model.dims:
            raise ConfigurationError("model and coefficient distribution disagree on dims")
        if strategy not in ("exact", "monte_carlo"):
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        if strategy == "monte_carlo":
            if not isinstance(model, (BundleModel, TabulatedModel)):
                raise ConfigurationError("Monte-Carlo fallback needs a finite-scenario model")
            if seed is None:
                raise ConfigurationError("Monte-Carlo evaluation requires an explicit seed")
            if n_draws < 1:
                raise ConfigurationError("Monte-Carlo evaluation requires n_draws >= 1")
        self.model = model
        self.beta_dist = beta_dist
        self.strategy = strategy
        self.n_draws = n_draws
        self.seed = seed
        self._weights, self._points = support_arrays(beta_dist)
        self.points_evaluated = 0
        self.kernel_calls = 0

    @property
    def center(self):
        return self.model.center

    def ybar_given_beta(self, x, beta):
        if self.strategy == "monte_carlo":
            return self._monte_carlo_ybar(x, beta)
        return ybar_given_beta(self.model, x, beta)

    def _monte_carlo_ybar(self, x, beta):
        # Scenario draws are re-seeded per (covariate, coefficient) pair
        # (stable digest, not the salted builtin hash) so results depend on
        # neither evaluation order, batching nor the process.  The mean over
        # drawn rows of D weights each scenario by its share of the draws.
        xs, bs = np.broadcast_arrays(*self.model._check_shapes(x, beta))
        w = self.model.kernel.w
        shares = np.empty(xs.shape[:-1] + w.shape)
        for i in np.ndindex(xs.shape[:-1]):
            digest = hashlib.blake2s(xs[i].tobytes() + bs[i].tobytes()).digest()
            point_key = int.from_bytes(digest[:8], "little")
            rng = np.random.default_rng((self.seed, point_key))
            draws = rng.choice(len(w), size=self.n_draws, p=w)
            shares[i] = np.bincount(draws, minlength=len(w)) / self.n_draws
        p = _scenario_choices(self.model, x, beta)
        return np.einsum("...t,...tb,bk->...k", shares, p, self.model.kernel.Y)

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

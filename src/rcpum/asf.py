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

so the ASF makes one kernel call per covariate point.  Exact evaluation is
what the identification path uses.  A seeded Monte-Carlo fallback over
disturbance scenarios exists behind the same interface but nothing in the
acceptance path consumes randomness.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

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
        p = np.exp((z - best) / kernel.sigma)
    return p / p.sum(axis=-1, keepdims=True)


def ybar_given_beta(model, x, beta):
    """Mean demand at fixed slope coefficients (disturbance integrated).

    ``beta`` is one coefficient vector, giving shape (K,), or an (S,
    total_dim) matrix of them, giving one demand row per coefficient vector.
    """
    p = _scenario_choices(model, x, beta)
    return np.einsum("t,...tb,bk->...k", model.kernel.w, p, model.kernel.Y)


class AsfEvaluator:
    """Average structural function of a model under a coefficient mixture.

    Evaluations are deterministic and cached; the cache is insert-only and
    guarded by a lock so concurrent readers see consistent values.
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
        support = list(beta_dist.support())
        self._weights = np.array([w for w, _ in support], dtype=float)
        self._points = np.array([b for _, b in support], dtype=float)
        self._cache = {}
        self._lock = threading.Lock()

    @property
    def center(self):
        return self.model.center

    def ybar_given_beta(self, x, beta):
        if self.strategy == "monte_carlo":
            return self._monte_carlo_ybar(x, beta)
        return ybar_given_beta(self.model, x, beta)

    def _monte_carlo_ybar(self, x, beta):
        # Scenario draws are re-seeded per coefficient vector (stable digest,
        # not the salted builtin hash) so results depend on neither
        # evaluation order nor the process.  The mean over drawn rows of D
        # weights each scenario by its share of the draws.
        x = np.asarray(x, dtype=float)
        beta = np.asarray(beta, dtype=float)
        w = self.model.kernel.w
        shares = np.empty(beta.shape[:-1] + w.shape)
        for i in np.ndindex(beta.shape[:-1]):
            digest = hashlib.blake2s(x.tobytes() + beta[i].tobytes()).digest()
            point_key = int.from_bytes(digest[:8], "little")
            rng = np.random.default_rng((self.seed, point_key))
            draws = rng.choice(len(w), size=self.n_draws, p=w)
            shares[i] = np.bincount(draws, minlength=len(w)) / self.n_draws
        p = _scenario_choices(self.model, x, beta)
        return np.einsum("...t,...tb,bk->...k", shares, p, self.model.kernel.Y)

    def asf(self, x):
        """Average structural function: mean demand over the full mixture."""
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        with self._lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = self._weights @ self.ybar_given_beta(x, self._points)
        out.setflags(write=False)
        with self._lock:
            self._cache.setdefault(key, out)
        return out

"""Mean demand evaluation: the per-coefficient mean choice and the average
structural function with all heterogeneity integrated out.

Every model carries a compiled ``FiniteBudgetKernel`` (G, Y, D, w, sigma):
the good-sum matrix, the budget, the disturbance of each bundle in each
scenario (-inf where a bundle is not considered), the scenario weights, and
the positive Gumbel scale.  One vectorized kernel evaluates all of them,
logit included, at a whole coefficient support at once.  The softmax weight
exp((U_b + D_tb) / sigma) factors into a utility part and a disturbance part,
each shifted by its own maximum:

    U = ((x - c) * beta) @ G @ Y'               (support x budget)
    E = exp((U - max_b U) / sigma)              (support x budget)
    F = exp((D - max_b D) / sigma)              (scenarios x budget, compiled)
    Z = E @ F'                                  (support x scenarios)
    ybar = (E * ((w / Z) @ F)) @ Y

so no (support, scenario, budget) array is built.  The separate shifts can
underflow a row's dominant weight when the two maxima sit on different
bundles far apart; every (point, support) row with some Z below
``_FACTORED_FLOOR`` is recomputed with the joint shift,
softmax((U + D) / sigma) per scenario.  The choice is made row by row, so a
row's bits never depend on the batch it came in.

The ASF makes one kernel call per batch of covariate points (``asf_batch``
takes a whole stencil at once).  Nothing is sampled and nothing is cached:
the derivative table's stencil plan already evaluates each distinct node
once.
"""

from __future__ import annotations

import numpy as np

from .distributions import support_arrays
from .exceptions import ConfigurationError


# Z_t is the joint-shift normaliser, which lies in [1, B] for a budget of B
# bundles, times the factor exp((max_b (U_b + D_tb) - max U - max D_t) /
# sigma) <= 1.  At or above the floor the dominant term E_b F_tb is at least
# 1e-250 / B, far above the smallest normal float (2.2e-308) for any real
# budget, so E and F, both >= that term, carry it to full precision; the
# subnormal or vanished terms beside it weigh at most about B * 2e-58 of it;
# and w / Z stays below 1e250.  Below the floor, or NaN, the row takes the
# joint shift.
_FACTORED_FLOOR = 1e-250


def ybar_given_beta(model, x, beta):
    """Mean demand at fixed slope coefficients (disturbance integrated).

    ``beta`` is one coefficient vector, giving shape (K,), or an (S,
    total_dim) matrix of them, giving one demand row per coefficient vector.
    An (n, total_dim) covariate matrix against such a support gives (n, S,
    K).
    """
    kernel = model.kernel
    U = model.indices(x, beta) @ kernel.Y.T
    E = U - U.max(axis=-1, keepdims=True)
    E /= kernel.sigma
    np.exp(E, out=E)
    Z = E @ kernel.F.T
    joint = None
    if not Z.min(initial=np.inf) >= _FACTORED_FLOOR:  # some row is low or NaN
        low = ~(Z >= _FACTORED_FLOOR).all(axis=-1)
        joint = _joint_shift(kernel, U[low])
        Z[low] = 1.0  # placeholder: those rows are overwritten below
    del U  # the factored rows need only E and Z from here on
    np.divide(kernel.w, Z, out=Z)
    H = Z @ kernel.F
    H *= E
    ybar = H @ kernel.Y
    if joint is not None:
        ybar[low] = joint
    return ybar


def _joint_shift(kernel, U):
    """Mean demand of each row of an (r, B) utility matrix, from the softmax
    of U + D shifted by its joint maximum in every scenario."""
    z = U[:, None, :] + kernel.D
    z -= z.max(axis=-1, keepdims=True)
    z /= kernel.sigma
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)  # choice probabilities per scenario
    return kernel.w @ (z @ kernel.Y)


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

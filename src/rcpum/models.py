"""Latent utility model specifications.

A model fixes the goods, their characteristic counts, a centering covariate
point, and a disturbance family.  Utility of a quantity vector y is

    sum_k y_k * (beta_k' (x_k - c_k)) + D(y, eps)

so the slope indices vanish exactly at the centering point c, which is where
all identification formulas are evaluated.

Every model is compiled once, at construction, to a ``FiniteBudgetKernel``
stored on the model as ``model.kernel``: a softmax over a finite budget with
a positive Gumbel scale.  A hard argmax (scale zero) is not a model here: its
mean demand is piecewise constant, so its derivatives at the center identify
no moment.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError


@dataclass(frozen=True)
class FiniteBudgetKernel:
    """A model's choice rule as a softmax over a finite budget.

    ``G`` (total_dim x K) sums the shifted covariate products of each good
    into its index, ``Y`` (budget x K) lists the budget, ``D`` (scenarios x
    budget) holds the disturbance of every bundle in every scenario with
    -inf for bundles a scenario does not consider, and ``w`` the scenario
    weights.  In scenario t the choice puts probability softmax((u . Y_b +
    D_tb) / sigma) on bundle b, with ``sigma`` the positive Gumbel scale.
    ``F`` = exp((D - max_b D) / sigma), each scenario's disturbance factor
    of that softmax with largest entry 1, is compiled from them.
    """

    G: np.ndarray
    Y: np.ndarray
    D: np.ndarray
    w: np.ndarray
    sigma: float
    F: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("G", "Y", "D", "w"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        F = np.exp((self.D - self.D.max(axis=1, keepdims=True)) / self.sigma)
        F.setflags(write=False)
        object.__setattr__(self, "F", F)

    def value_partials(self, max_order):
        """Partials at u = 0 of V(u) = sum_t w_t sigma log sum_b exp((Y_b . u
        + D_tb) / sigma), orders 1..max_order, keyed by sorted good tuple.

        An order-m partial is sigma^(1-m) sum_t w_t kappa_t, with kappa_t the
        joint cumulant of the budget's components under scenario t's softmax.
        """
        gammas, exponents, steps = _cumulant_plan(self.Y.shape[1], max_order)
        p = self.F / self.F.sum(axis=1, keepdims=True)
        mu = p @ np.prod(self.Y[:, None, :] ** exponents, axis=-1)
        kappa = mu.copy()
        for cols, starts, coefs, lower, rest in steps:
            kappa[:, cols] -= np.add.reduceat(coefs * kappa[:, lower] * mu[:, rest], starts, axis=1)
        scale = self.sigma ** (1.0 - exponents.sum(axis=1))
        return dict(zip(gammas, (scale * (self.w @ kappa)).tolist()))


@functools.cache
def _cumulant_plan(n_goods, max_order):
    """Multi-indices alpha of orders 1..max_order, as sorted good tuples and
    as rows of per-good exponents, and the moment-cumulant recursion

        kappa_alpha = mu_alpha - sum C(alpha - e_j, beta - e_j) kappa_beta mu_(alpha - beta)

    over e_j <= beta < alpha, j the first good with alpha_j > 0.  Each order
    m >= 2 is one read-only step: its columns, the start of each column's run
    of terms, and each term's coefficient and beta and alpha - beta positions.
    """
    gammas = tuple(
        gamma
        for order in range(1, max_order + 1)
        for gamma in itertools.combinations_with_replacement(range(1, n_goods + 1), order)
    )
    alphas = [tuple(gamma.count(k) for k in range(1, n_goods + 1)) for gamma in gammas]
    position = {alpha: i for i, alpha in enumerate(alphas)}
    steps = []
    for order in range(2, max_order + 1):
        cols = [i for i, gamma in enumerate(gammas) if len(gamma) == order]
        starts, coefs, lower, rest = [], [], [], []
        for alpha in (alphas[i] for i in cols):
            j = next(i for i, a in enumerate(alpha) if a)
            starts.append(len(coefs))
            for beta in itertools.product(*(range(a + 1) for a in alpha)):
                if beta[j] and beta != alpha:
                    # C(alpha - e_j, beta - e_j) = C(alpha, beta) beta_j / alpha_j
                    coefs.append(math.prod(map(math.comb, alpha, beta)) * beta[j] // alpha[j])
                    lower.append(position[beta])
                    rest.append(position[tuple(a - b for a, b in zip(alpha, beta))])
        arrays = (np.array(starts), np.array(coefs, dtype=float), np.array(lower), np.array(rest))
        steps.append((slice(cols[0], cols[-1] + 1),) + arrays)
    exponents = np.array(alphas, dtype=float).reshape(len(gammas), n_goods)
    for a in [exponents] + [a for step in steps for a in step[1:]]:
        a.setflags(write=False)
    return gammas, exponents, tuple(steps)


def _as_center(center, total_dim):
    if center is None:
        c = np.zeros(total_dim)
    else:
        c = np.asarray(center, dtype=float)
    if c.shape != (total_dim,):
        raise ConfigurationError(f"center has shape {c.shape}, expected ({total_dim},)")
    c.setflags(write=False)
    return c


@dataclass(frozen=True)
class ModelSpec:
    """Common fields of every model variant."""

    dims: tuple[int, ...]
    center: np.ndarray = None
    nonnegative_domain: bool = False

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ConfigurationError("dims must list at least one characteristic per good")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "center", _as_center(self.center, sum(dims)))

    @property
    def n_goods(self):
        return len(self.dims)

    @property
    def total_dim(self):
        return sum(self.dims)

    def _compile(self, Y, D, w, sigma):
        """Store the model's finite-budget kernel on the frozen instance."""
        G = np.repeat(np.eye(self.n_goods), self.dims, axis=0)
        object.__setattr__(self, "kernel", FiniteBudgetKernel(G, Y, D, w, sigma))

    def _check_shapes(self, x, beta):
        """Covariates and coefficients as arrays that broadcast against each
        other: an (n, total_dim) covariate matrix against an (S, total_dim)
        support is lifted to (n, 1, total_dim)."""
        x = np.asarray(x, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if x.ndim not in (1, 2) or beta.ndim not in (1, 2) or (
            x.shape[-1] != self.total_dim or beta.shape[-1] != self.total_dim
        ):
            raise ConfigurationError(
                f"covariate/coefficient vectors must have length {self.total_dim}"
            )
        if x.ndim == 2 and beta.ndim == 2:
            x = x[:, None, :]
        return x, beta

    def indices(self, x, beta):
        """Utility index of each good: beta_k' (x_k - c_k).

        ``x`` and ``beta`` are one vector each, or a matrix with one per row.
        A covariate matrix against a coefficient matrix gives shape (n, S,
        K): one row of indices per covariate point and coefficient vector.
        """
        x, beta = self._check_shapes(x, beta)
        return ((x - self.center) * beta) @ self.kernel.G


@dataclass(frozen=True)
class LogitModel(ModelSpec):
    """Multinomial logit with nonrandom intercepts and closed-form demand.

    With ``index_form="power"`` the utility index of good k is x_k ** rho_k
    for a scalar shifter (d_k must be 1), the random exponent playing the
    role of the slope coefficient; the centering point must be all-ones.

    The kernel is the softmax over the unit vectors, plus the zero bundle
    when there is an outside good, with the intercepts as the one scenario's
    disturbance.
    """

    alphas: tuple[float, ...] = None
    outside_good: bool = False
    index_form: str = "linear"

    def __post_init__(self):
        super().__post_init__()
        alphas = self.alphas if self.alphas is not None else (0.0,) * self.n_goods
        alphas = tuple(float(a) for a in alphas)
        if len(alphas) != self.n_goods:
            raise ConfigurationError("one intercept per good required")
        object.__setattr__(self, "alphas", alphas)
        if self.index_form not in ("linear", "power"):
            raise ConfigurationError(f"unknown index_form {self.index_form!r}")
        if self.index_form == "power":
            if any(d != 1 for d in self.dims):
                raise ConfigurationError("power indices require a single shifter per good")
            if not np.allclose(self.center, 1.0):
                raise ConfigurationError("power indices are centered at the all-ones point")
        Y = np.eye(self.n_goods)
        D = alphas
        if self.outside_good:
            Y = np.vstack([Y, np.zeros(self.n_goods)])
            D = alphas + (0.0,)
        self._compile(Y, [D], [1.0], 1.0)

    def indices(self, x, beta):
        if self.index_form == "power":
            x, beta = self._check_shapes(x, beta)
            if np.any(x <= 0):
                raise ConfigurationError("power indices need strictly positive shifters")
            return x**beta
        return super().indices(x, beta)


def _default_lattice(n_goods):
    return tuple(itertools.product((0.0, 1.0), repeat=n_goods))


@dataclass(frozen=True)
class BundleModel(ModelSpec):
    """Finite bundle choice with latent consideration sets (per Example-2
    style utilities: per-good intercepts plus pairwise complementarities).

    The T disturbance scenarios are given as arrays: ``weights`` (T,) and
    ``intercepts`` (T, K); ``complementarities`` holds one sequence of (j,
    k, v) triples per scenario, each adding v to the utility of a bundle
    holding goods j < k (1-based); ``consideration`` holds per scenario the
    bundles the agent evaluates, or None for the whole lattice.  Either
    sequence may itself be None: no pairs, or the whole lattice, in every
    scenario.

    ``smoothing`` is required: it adds an i.i.d. Gumbel taste shock of the
    given positive scale to every considered bundle, which integrates to a
    closed-form softmax over the lattice and makes the mean demand
    real-analytic in covariates.

    The kernel's D adds the intercepts good by good, then each scenario's
    pair terms in the order given, over the whole budget at once, and sets
    -inf outside the consideration set: every entry is summed in the order
    of a per-(scenario, bundle) loop, so D equals that loop's bitwise.
    """

    weights: np.ndarray = None
    intercepts: np.ndarray = None
    complementarities: tuple = None
    consideration: tuple = None
    lattice: tuple[tuple[float, ...], ...] = None
    smoothing: float = None

    def __post_init__(self):
        super().__post_init__()
        K = self.n_goods
        weights = np.array(() if self.weights is None else self.weights, dtype=float)
        T = len(weights)
        if weights.shape != (T,) or T == 0:
            raise ConfigurationError("at least one disturbance scenario required")
        lattice = self.lattice if self.lattice is not None else _default_lattice(K)
        lattice = tuple(tuple(float(q) for q in y) for y in lattice)
        if not lattice:
            raise ConfigurationError("bundle lattice must be nonempty")
        if any(len(y) != K for y in lattice):
            raise ConfigurationError("lattice vectors must have one quantity per good")
        pairs = ((),) * T if self.complementarities is None else tuple(self.complementarities)
        consider = (None,) * T if self.consideration is None else tuple(self.consideration)
        if len(pairs) != T or len(consider) != T:
            raise ConfigurationError("one complementarity and consideration entry per scenario")
        if (weights < 0).any():
            raise ConfigurationError("scenario weights must be nonnegative")
        intercepts = () if self.intercepts is None else self.intercepts
        if len(intercepts) != T or any(len(row) != K for row in intercepts):
            raise ConfigurationError("one intercept per good required in each scenario")
        pairs = tuple(tuple((int(j), int(k), float(v)) for j, k, v in comps) for comps in pairs)
        for j, k, _ in (triple for comps in pairs for triple in comps):
            if not j < k:
                raise ConfigurationError("complementarity pairs must satisfy j < k")
            if not (1 <= j and k <= K):
                raise ConfigurationError("complementarity pair outside the good range")
        consider = tuple(
            c if c is None else frozenset(tuple(float(q) for q in y) for y in c) for c in consider
        )
        for c in (c for c in consider if c is not None):
            if not c:
                raise ConfigurationError("consideration sets must be nonempty")
            if not c <= set(lattice):
                raise ConfigurationError("consideration set must lie inside the bundle lattice")
        total = sum(weights.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ConfigurationError(f"scenario weights sum to {total}, expected 1 within 1e-12")
        if self.smoothing is None or not 0 < self.smoothing < np.inf:
            raise ConfigurationError(
                f"bundle smoothing must be a positive finite Gumbel scale, got {self.smoothing}: "
                "without it the choice is a hard argmax, whose mean demand is piecewise "
                "constant, so its derivatives at the center identify no moment"
            )
        intercepts = np.array(intercepts, dtype=float)
        for name, value in (("weights", weights), ("intercepts", intercepts)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "complementarities", pairs)
        object.__setattr__(self, "consideration", consider)
        object.__setattr__(self, "lattice", lattice)
        budget = tuple(dict.fromkeys(lattice))  # a repeated lattice vector is one bundle
        Y = np.array(budget)
        D = np.zeros((T, len(budget)))
        for k in range(K):
            D += np.outer(intercepts[:, k], Y[:, k])
        for row, comps, c in zip(D, pairs, consider):
            for j, k, v in comps:
                row += Y[:, j - 1] * Y[:, k - 1] * v
            if c is not None:
                row[[y not in c for y in budget]] = -np.inf
        self._compile(Y, D, weights, self.smoothing)

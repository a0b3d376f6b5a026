"""Value-function reconstruction away from the center, and welfare
aggregates.

Two reconstruction routes: a multivariate Taylor polynomial assembled from
recovered derivative tables (valid inside a trust radius, flagged outside),
and a quadrature line integral of mean demand for models whose first
characteristic carries a unit coefficient.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import flat_offsets, flat_position
from .exceptions import ConfigurationError, ExtrapolationWarning, PreconditionError, WeightingError

PATH_NODES = 32
WEIGHTINGS = ("unweighted", "inverse_abs_beta11")
_UNIT_COEF_TOL = 1e-12


@dataclass(frozen=True)
class TaylorVModel:
    """Taylor polynomial of the value function around the center index point.

    ``gradient`` holds the first-order coefficients (mean demand at the
    center); ``tables`` maps derivative order (>= 2) to a VDerivTable.  The
    additive constant is fixed by V(center) = 0.  Construction compiles the
    polynomial to an exponent matrix (one row of per-good powers per term)
    and multinomial-weighted coefficients, and its gradient likewise, then
    probes axis and diagonal segments for numerical convexity.
    """

    gradient: np.ndarray
    tables: dict
    trust_radius: float = 1.0

    def __post_init__(self):
        g = np.asarray(self.gradient, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "gradient", g)
        object.__setattr__(self, "tables", dict(self.tables))
        terms = []
        for order, tab in sorted(self.tables.items()):
            for gamma, v in tab.items():
                if len(gamma) != order:
                    raise ConfigurationError(
                        f"table at order {order} holds a key of length {len(gamma)}"
                    )
                if not all(1 <= k <= self.n_goods for k in gamma):
                    raise ConfigurationError(
                        f"Taylor term {gamma} names a good outside 1..{self.n_goods}"
                    )
                if not np.isfinite(v):
                    raise ConfigurationError(f"non-finite Taylor coefficient at {gamma}")
                terms.append((gamma, v))
        goods = range(1, self.n_goods + 1)
        exponents = np.array([[gamma.count(k) for k in goods] for gamma, _ in terms], dtype=int)
        exponents = exponents.reshape(len(terms), self.n_goods)
        coefs = np.array([v * _inverse_count_factorial(gamma) for gamma, v in terms], dtype=float)
        object.__setattr__(self, "_exponents", exponents)
        object.__setattr__(self, "_coefs", coefs)
        # the gradient's polynomial: d/du_k of each term with e_k > 0 is the
        # monomial of exponents e - e_k with coefficient e_k times its own
        terms_in, goods_in = np.nonzero(exponents)
        object.__setattr__(self, "_slope_goods", goods_in)
        object.__setattr__(
            self, "_slope_exponents", exponents[terms_in] - np.eye(self.n_goods, dtype=int)[goods_in]
        )
        object.__setattr__(self, "_slope_coefs", coefs[terms_in] * exponents[terms_in, goods_in])
        self._check_convexity()

    @property
    def n_goods(self):
        return len(self.gradient)

    def _check_convexity(self, tol=1e-6):
        k = self.n_goods
        eye = np.eye(k)
        directions = [eye[i] for i in range(k)]
        directions += [
            (eye[i] + s * eye[j]) / math.sqrt(2)
            for i in range(k)
            for j in range(i + 1, k)
            for s in (1.0, -1.0)
        ]
        directions = np.array(directions)
        r = self.trust_radius
        ts = np.linspace(-0.8 * r, 0.8 * r, 5)
        step = 0.1 * r

        def along(shift):
            return self.values((directions[:, None, :] * (ts + shift)[:, None]).reshape(-1, k))

        second = (along(step) - 2 * along(0.0) + along(-step)) / (step * step)
        second = second.reshape(len(directions), len(ts))
        # a NaN second difference (the polynomial overflowed) fails the probe too
        bad = np.argwhere(~(second >= -tol))
        if len(bad):
            i, j = bad[0]
            raise ConfigurationError(
                f"Taylor model is non-convex along {directions[i]} at t={ts[j]:.3f} "
                f"(second diff {second[i, j]:.2e})"
            )

    def values(self, U):
        """V(u) - V(center-index point) at every row of an (n, K) matrix of
        index points, by the symmetric Taylor sum; no trust-radius check."""
        U = np.asarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.n_goods:
            raise ConfigurationError(f"index vectors must have length {self.n_goods}")
        return U @ self.gradient + _monomials(U, self._exponents) @ self._coefs

    def value(self, u):
        """V(u) - V(center-index point), warning outside the trust radius."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_goods,):
            raise ConfigurationError(f"index vector must have length {self.n_goods}")
        _warn_outside(u[None], self.trust_radius)
        return float(self.values(u[None])[0])

    def gradient_at(self, u):
        """Gradient of the Taylor polynomial (mean demand at index u)."""
        u = np.asarray(u, dtype=float)
        _warn_outside(u[None], self.trust_radius)
        slopes = _monomials(u[None], self._slope_exponents)[0] * self._slope_coefs
        return self.gradient + np.bincount(self._slope_goods, slopes, minlength=self.n_goods)


def _monomials(U, exponents):
    """prod_k U[:, k] ** exponents[:, k] for every row of an (n, K) matrix
    and every row of a (terms, K) exponent matrix, as (n, terms): gathered
    from a table of the powers U^0 .. U^top built by repeated
    multiplication, so U^0 is exactly 1."""
    top = exponents.max(initial=0)
    powers = np.empty(U.shape + (top + 1,))
    powers[..., 0] = 1.0
    for j in range(1, top + 1):
        np.multiply(powers[..., j - 1], U, out=powers[..., j])
    return powers[:, np.arange(U.shape[1]), exponents].prod(axis=-1)


def _warn_outside(U, trust_radius):
    """One ExtrapolationWarning per row of U beyond the trust radius,
    attributed to the caller of the public function."""
    for u in U[np.max(np.abs(U), axis=1) > trust_radius]:
        warnings.warn(
            f"index point {np.round(u, 6).tolist()} lies outside the trust radius "
            f"{trust_radius}; extrapolated value",
            ExtrapolationWarning,
            stacklevel=3,
        )


def _inverse_count_factorial(gamma):
    """1 / prod(count!) over repeated entries: the multinomial Taylor weight."""
    mult = 1.0
    for g in set(gamma):
        mult /= math.factorial(gamma.count(g))
    return mult


def default_trust_radius(model, beta_dist, x, cap=1.0):
    """Half the largest index magnitude over the support at x, capped."""
    largest = float(np.max(np.abs(model.indices(x, beta_dist.points))))
    return min(cap, 0.5 * largest) if largest > 0 else cap


def _first_char_positions(dims):
    offs = flat_offsets(dims)
    return [offs[k] for k in range(len(dims))]


def _require_unit_first_coefficients(beta_dist):
    positions = _first_char_positions(beta_dist.dims)
    firsts = beta_dist.points[:, positions].T
    off = np.argwhere(np.abs(firsts - 1.0) > _UNIT_COEF_TOL)
    if len(off):
        k, s = off[0]
        raise PreconditionError(
            "path-integral recovery needs a unit coefficient on the first "
            f"characteristic of every good; found {firsts[k, s]} at position {positions[k]}"
        )


def _require_first_char_only(dims, x, center, name):
    offs = flat_offsets(dims)
    for k, d in enumerate(dims):
        for c in range(1, d):
            pos = offs[k] + c
            if abs(x[pos] - center[pos]) > 0:
                raise PreconditionError(
                    f"{name} must match the center in all characteristics beyond the first"
                )


def path_integral_v(evaluator, x_init, x_final, n_nodes=PATH_NODES):
    """Difference of the value function along a covariate segment.

    Gauss-Legendre quadrature of the mean demand dotted with the segment
    direction, over the convex combination t * x_final + (1 - t) * x_init.
    Requires a unit coefficient on the first characteristic of each good and
    segment endpoints that move only those characteristics.  Every node is
    evaluated in one ``asf_batch`` call.  The segment is integrated in a
    canonical orientation so that swapping the endpoints negates the result
    exactly.
    """
    model = evaluator.model
    dims = model.dims
    x_init = np.asarray(x_init, dtype=float)
    x_final = np.asarray(x_final, dtype=float)
    if x_init.shape != (model.total_dim,) or x_final.shape != (model.total_dim,):
        raise ConfigurationError("segment endpoints must be full covariate vectors")
    _require_unit_first_coefficients(evaluator.beta_dist)
    _require_first_char_only(dims, x_init, model.center, "x_init")
    _require_first_char_only(dims, x_final, model.center, "x_final")

    sign = 1.0
    if tuple(x_final) < tuple(x_init):
        x_init, x_final = x_final, x_init
        sign = -1.0

    first = _first_char_positions(dims)
    delta = np.array([x_final[p] - x_init[p] for p in first])
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    t = (nodes[:, None] + 1.0) / 2.0
    demand = evaluator.asf_batch(t * x_final + (1.0 - t) * x_init)
    return sign * math.fsum(w * float(np.dot(d, delta)) for w, d in zip(weights / 2.0, demand))


def average_indirect_utility(vmodel, model, beta_dist, x, weighting="unweighted"):
    """Average of individual value differences over the coefficient mixture.

    ``weighting="inverse_abs_beta11"`` divides each support point's value by
    the magnitude of its first coefficient, fixing the conversion rate of the
    first characteristic to one util.  The whole support is evaluated in one
    ``vmodel.values`` call; each index point beyond ``vmodel.trust_radius``
    raises an ExtrapolationWarning.
    """
    if weighting not in WEIGHTINGS:
        raise ConfigurationError(f"unknown weighting {weighting!r}")
    weights, betas = beta_dist.weights, beta_dist.points
    if weighting == "inverse_abs_beta11":
        first = np.abs(betas[:, flat_position(model.dims, 1, 1)])
        if np.any(first < _UNIT_COEF_TOL):
            raise WeightingError(
                "inverse-magnitude weighting undefined: a support point has a zero "
                "coefficient on the first characteristic of good 1"
            )
        weights = weights * (1.0 / first)
    U = model.indices(np.asarray(x, dtype=float), betas)
    _warn_outside(U, vmodel.trust_radius)
    return float(weights @ vmodel.values(U))


def _merge_atoms(values, weights):
    agg = {}
    for v, w in zip(values, weights):
        agg[float(v)] = agg.get(float(v), 0.0) + float(w)
    vals = np.array(sorted(agg))
    wts = np.array([agg[v] for v in vals])
    return vals, wts


def quantile_match_vprime(w_atoms, w_weights, eta_atoms, eta_weights, grid_size=101):
    """Monotone map carrying the index distribution onto the demand
    distribution: the one-dimensional quantile rearrangement.

    Both inputs are finite scalar distributions; piecewise-linear CDFs built
    on the atoms proxy for absolute continuity.  Returns (grid, values) with
    values nondecreasing.
    """
    ev, ew = _merge_atoms(eta_atoms, eta_weights)
    wv, ww = _merge_atoms(w_atoms, w_weights)
    if len(ev) < 2:
        raise PreconditionError(
            "index distribution is degenerate (single atom); the rearrangement "
            "needs a non-degenerate coefficient distribution and a nonzero covariate"
        )
    ecdf = np.cumsum(ew)
    wcdf = np.cumsum(ww)
    grid = np.linspace(ev[0], ev[-1], grid_size)
    q = np.interp(grid, ev, ecdf)
    values = np.interp(q, wcdf, wv)
    return grid, values

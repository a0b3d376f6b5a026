"""Finite-difference estimation of mixed partial derivatives of the average
structural function at the centering point.

Distinct covariates are handled by tensor products of one-dimensional
stencils; repeated covariates use the one-dimensional stencil of the
corresponding higher derivative order.  Central stencils have base accuracy
order 2, forward (one-sided) stencils order 1; Richardson extrapolation
raises either as configured.  Forward stencils keep every node in the
nonnegative orthant, for models identified only there.

Each derivative class is estimated for every good at once: the nodes of all
Richardson levels go to the ASF in one ``asf_batch`` call, and the stencil
weights contract the (nodes, K) values into one vector per level.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import MomentIndex, flat_position
from .exceptions import ConfigurationError, EvaluationError

DEFAULT_STEP_LOW_ORDER = 6e-3
DEFAULT_STEP_ORDER3 = 2e-2


@dataclass(frozen=True)
class FdScheme:
    """Finite-difference configuration.

    ``base_step=None`` picks the default per total derivative order (6e-3 up
    to order 2, 2e-2 beyond); ``richardson_levels=None`` picks 1 level for
    central and 2 for forward stencils.
    """

    kind: str = "central"
    base_step: float | None = None
    richardson_levels: int | None = None

    def __post_init__(self):
        if self.kind not in ("central", "forward"):
            raise ConfigurationError(f"unknown scheme kind {self.kind!r}")
        if self.base_step is not None and self.base_step <= 0:
            raise ConfigurationError("base_step must be positive")
        if self.richardson_levels is not None and self.richardson_levels < 0:
            raise ConfigurationError("richardson_levels must be >= 0")

    def step_for(self, order):
        if self.base_step is not None:
            return self.base_step
        return DEFAULT_STEP_LOW_ORDER if order <= 2 else DEFAULT_STEP_ORDER3

    @property
    def levels(self):
        if self.richardson_levels is not None:
            return self.richardson_levels
        return 1 if self.kind == "central" else 2

    @property
    def base_accuracy(self):
        return 2 if self.kind == "central" else 1

    @property
    def accuracy_stride(self):
        # Central truncation errors run in even powers of h, forward in all.
        return 2 if self.kind == "central" else 1


def fd_weights(offsets, order):
    """Stencil weights on integer offsets for the given derivative order."""
    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    if order >= n:
        raise ConfigurationError("stencil needs more nodes than the derivative order")
    rows = np.vstack([offsets**j for j in range(n)])
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(rows, rhs)


@functools.cache
def stencil(kind, order):
    """Integer offsets and read-only weights for one variable.

    Central stencils are the smallest symmetric ones (accuracy 2); forward
    stencils are the minimal one-sided ones (accuracy 1), relying on the
    extra Richardson level configured for them.
    """
    if kind == "central":
        half = (order + 1) // 2
        offsets = tuple(range(-half, half + 1))
    else:
        offsets = tuple(range(0, order + 1))
    weights = fd_weights(offsets, order)
    weights.setflags(write=False)
    return offsets, weights


@functools.cache
def _tensor_stencil(kind, orders):
    """Tensor product of the one-variable stencils of the given orders:
    integer offsets (nodes x variables) and weights, zero-weight nodes
    dropped."""
    per_var = [stencil(kind, r) for r in orders]
    offsets = np.array(list(itertools.product(*[offs for offs, _ in per_var])), dtype=float)
    weights = np.array([math.prod(w) for w in itertools.product(*[w for _, w in per_var])])
    keep = weights != 0.0
    offsets, weights = offsets[keep], weights[keep]
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return offsets, weights


def _variable_powers(dims, pairs):
    """Flat-position multiplicities of the differentiation variables."""
    powers = {}
    for g, c in pairs:
        p = flat_position(dims, g, c)
        powers[p] = powers.get(p, 0) + 1
    return dict(sorted(powers.items()))


def _require_scheme_fits_domain(evaluator, scheme):
    if evaluator.model.nonnegative_domain and scheme.kind != "forward":
        raise ConfigurationError("nonnegative-orthant models require the forward scheme")


def _class_estimate(evaluator, powers, scheme):
    """Richardson-extrapolated estimate of one mixed partial of every
    good's mean demand, shape (K,), and the number of stencil nodes used."""
    offsets, weights = _tensor_stencil(scheme.kind, tuple(powers.values()))
    order = sum(powers.values())
    steps = scheme.step_for(order) / 2.0 ** np.arange(scheme.levels + 1)
    center = np.asarray(evaluator.center, dtype=float)
    nodes = np.repeat(center[None], len(steps) * len(offsets), axis=0)
    nodes[:, list(powers)] += (steps[:, None, None] * offsets).reshape(-1, len(powers))
    values = evaluator.asf_batch(nodes)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        x = nodes[np.argmin(finite)]
        raise EvaluationError(f"non-finite demand at stencil node {x.tolist()}", point=x)
    levels = weights @ values.reshape(len(steps), len(offsets), -1) / steps[:, None] ** order
    return richardson(levels, scheme.base_accuracy, scheme.accuracy_stride), len(nodes)


def richardson(values, base_order, stride):
    """Extrapolate estimates at steps h, h/2, ..., h/2^L to higher order.

    Each estimate may be a scalar or an array of estimates extrapolated
    elementwise.
    """
    col = list(values)
    power = base_order
    while len(col) > 1:
        factor = 2.0**power
        col = [(factor * col[i + 1] - col[i]) / (factor - 1.0) for i in range(len(col) - 1)]
        power += stride
    return col[0]


def mixed_partial(evaluator, good, pairs, scheme=None):
    """FD estimate of one mixed partial of mean demand at the center.

    ``good`` is the demand component (1-based); ``pairs`` lists the
    differentiation variables as (good, characteristic) pairs.
    """
    scheme = scheme or FdScheme()
    pairs = tuple(tuple(p) for p in pairs)
    if not pairs:
        raise ConfigurationError("at least one differentiation variable required")
    dims = evaluator.model.dims
    if not 1 <= good <= len(dims):
        raise ConfigurationError(f"good index {good} outside 1..{len(dims)}")
    _require_scheme_fits_domain(evaluator, scheme)
    estimate, _ = _class_estimate(evaluator, _variable_powers(dims, pairs), scheme)
    return estimate[good - 1]


@dataclass(frozen=True)
class DerivativeTable:
    """All mixed-partial estimates at the center up to ``max_order``.

    Mixed partials are symmetric, so each derivative is stored once, keyed
    by (component good, sorted tuple of (good, characteristic) pairs).
    ``stencil_nodes`` counts the ASF nodes the estimates requested.
    """

    dims: tuple[int, ...]
    max_order: int
    center: tuple[float, ...]
    scheme: FdScheme
    entries: dict
    stencil_nodes: int

    def value(self, good, pairs):
        """Lookup by (good, characteristic) pairs in any order."""
        key = (good, tuple(sorted(tuple(p) for p in pairs)))
        if key not in self.entries:
            raise KeyError(f"no entry for component {good}, index {key[1]}")
        return self.entries[key]

    def classes(self, order=None):
        """Iterate (component, MomentIndex, value) in sorted key order."""
        for (k, pairs), v in sorted(self.entries.items()):
            if order is None or len(pairs) == order:
                yield k, MomentIndex(pairs), v

    @property
    def orders(self):
        return tuple(sorted({len(pairs) for _, pairs in self.entries}))


def derivative_table(evaluator, max_order, scheme=None):
    """Estimate every mixed partial of orders 1..max_order, once each; one
    stencil serves every good's entry of a derivative class."""
    scheme = scheme or FdScheme()
    if max_order < 1:
        raise ConfigurationError("max_order must be >= 1")
    _require_scheme_fits_domain(evaluator, scheme)
    dims = evaluator.model.dims
    all_pairs = [(g + 1, c + 1) for g, d in enumerate(dims) for c in range(d)]
    entries = {}
    n_nodes = 0
    for order in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(all_pairs, order):
            estimate, used = _class_estimate(evaluator, _variable_powers(dims, combo), scheme)
            n_nodes += used
            for k in range(1, len(dims) + 1):
                entries[(k, combo)] = estimate[k - 1]
    return DerivativeTable(
        dims=dims,
        max_order=max_order,
        center=tuple(float(v) for v in evaluator.center),
        scheme=scheme,
        entries=entries,
        stencil_nodes=n_nodes,
    )

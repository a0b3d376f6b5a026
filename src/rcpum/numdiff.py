"""Finite-difference estimation of mixed partial derivatives of the average
structural function at the centering point.

Distinct covariates are handled by tensor products of one-dimensional
stencils; repeated covariates use the one-dimensional stencil of the
corresponding higher derivative order.  Central stencils have base accuracy
order 2, forward (one-sided) stencils order 1; Richardson extrapolation
raises either as configured.  Forward stencils keep every node in the
nonnegative orthant, for models identified only there.

The estimates are linear in the ASF, so a list of derivative classes is one
``StencilPlan``: estimates = R . W . ASF(center + O).  ``O`` holds the
distinct node displacements of every class and Richardson level, ``W`` the
stencil weights of each (class, level) row, divided by h^order after the
contraction so that sums which cancel exactly still do, and ``R`` the
Richardson combination of each class's levels.  A table evaluates its plan
with one ``asf_batch`` call that yields every good's estimate of every
class.  The plan depends only on (dims, max_order, scheme), so it is built
at the first table of a shape and memoised.  ``stencil_nodes`` still counts
the nodes the class stencils request, once per class and level.
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
# Each Richardson level halves the step, and rounding error grows with it: on
# logit_k2_mixture the largest moment relative error is 7.4e-7 with 4 levels,
# 8.8e-6 with 6, 7.4e-3 with 8 and 1.15 with 12.
MAX_RICHARDSON_LEVELS = 6
# An order-m stencil divides by h^m: on the same config with unit scales the
# error is 2e-2 at order 6 and >= 1 at orders 7 to 12.  The bound keeps the
# table finite, not accurate.
MAX_ORDER = 8


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
        if self.base_step is not None and not 0 < self.base_step < math.inf:
            raise ConfigurationError("base_step must be positive and finite")
        levels = self.richardson_levels
        if levels is not None and not 0 <= levels <= MAX_RICHARDSON_LEVELS:
            raise ConfigurationError(
                f"richardson_levels must be between 0 and {MAX_RICHARDSON_LEVELS}"
            )

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


@dataclass(frozen=True, eq=False)
class StencilPlan:
    """Richardson-extrapolated FD estimates of a list of derivative classes
    as one linear map of the ASF values at ``center + offsets``.

    ``offsets`` holds the distinct node displacements (nodes x variables),
    in order of first request.  Each (class, level) pair is one row of a
    sparse stencil operator, stored as the run
    ``columns[starts[r]:starts[r + 1]]`` with ``weights`` alongside, and
    ``divisors`` holds the row's h^order.  ``keys`` names the table entries
    the estimates fill, class by class and good by good; ``requested``
    counts the nodes the stencils request before deduplication.  Every
    array is read-only.
    """

    classes: tuple
    keys: tuple
    scheme: FdScheme
    offsets: np.ndarray
    columns: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    divisors: np.ndarray

    @classmethod
    def build(cls, dims, classes, scheme):
        classes = tuple(classes)
        n_vars = sum(dims)
        halvings = 2.0 ** np.arange(scheme.levels + 1)
        displacements, weights, divisors, row_sizes = [], [], [], []
        for combo in classes:
            powers = _variable_powers(dims, combo)
            offsets, w = _tensor_stencil(scheme.kind, tuple(powers.values()))
            h = scheme.step_for(len(combo)) / halvings
            disp = np.zeros((len(h), len(offsets), n_vars))
            disp[:, :, list(powers)] = h[:, None, None] * offsets
            displacements.append(disp.reshape(-1, n_vars))
            weights.append(np.tile(w, len(h)))
            divisors.append(h ** len(combo))
            row_sizes += [len(offsets)] * len(h)
        disp = np.concatenate(displacements)
        # distinct nodes (equal bitwise) in order of first request: the only
        # deduplication, since the ASF evaluates every row it is given
        node_of = {}
        columns = np.array([node_of.setdefault(row.tobytes(), len(node_of)) for row in disp])
        offsets = np.empty((len(node_of), n_vars))
        offsets[columns] = disp
        arrays = (
            offsets,
            columns,
            np.concatenate(weights),
            np.cumsum([0] + row_sizes[:-1]),
            np.concatenate(divisors),
        )
        for a in arrays:
            a.setflags(write=False)
        keys = tuple((k, combo) for combo in classes for k in range(1, len(dims) + 1))
        return cls(classes, keys, scheme, *arrays)

    @property
    def requested(self):
        return len(self.columns)

    def estimates(self, evaluator):
        """Every good's estimate of every class, shaped (classes, K), from
        one ``asf_batch`` call over the distinct nodes."""
        nodes = np.asarray(evaluator.center, dtype=float) + self.offsets
        values = evaluator.asf_batch(nodes)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            x = nodes[np.argmin(finite)]
            raise EvaluationError(f"non-finite demand at stencil node {x.tolist()}", point=x)
        rows = np.add.reduceat(self.weights[:, None] * values[self.columns], self.starts, axis=0)
        levels = (rows / self.divisors[:, None]).reshape(len(self.classes), -1, values.shape[1])
        scheme = self.scheme
        return richardson(levels.swapaxes(0, 1), scheme.base_accuracy, scheme.accuracy_stride)


@functools.cache
def table_plan(dims, max_order, scheme):
    """The memoised plan of every derivative class of orders 1..max_order,
    in table order."""
    all_pairs = [(g + 1, c + 1) for g, d in enumerate(dims) for c in range(d)]
    classes = [
        combo
        for order in range(1, max_order + 1)
        for combo in itertools.combinations_with_replacement(all_pairs, order)
    ]
    return StencilPlan.build(dims, classes, scheme)


_moment_index = functools.cache(MomentIndex)  # one shared index per table key


@dataclass(frozen=True)
class DerivativeTable:
    """Mixed-partial estimates at the center, or externally supplied
    estimates when ``center`` is None.

    Mixed partials are symmetric, so each derivative is stored once, keyed
    by (component good, sorted tuple of (good, characteristic) pairs).
    ``stencil_nodes`` counts the ASF nodes the class stencils requested,
    before nodes shared between classes and levels were deduplicated.
    """

    dims: tuple[int, ...]
    center: tuple[float, ...] | None
    entries: dict
    stencil_nodes: int

    def value(self, good, pairs):
        """Lookup by (good, characteristic) pairs in any order."""
        try:
            return self.entries[(good, pairs)]
        except (KeyError, TypeError):
            pass
        key = (good, tuple(sorted(tuple(p) for p in pairs)))
        if key not in self.entries:
            raise KeyError(f"no entry for component {good}, index {key[1]}")
        return self.entries[key]

    def classes(self, order=None):
        """Iterate (component, MomentIndex, value) in sorted key order."""
        for (k, pairs), v in sorted(self.entries.items()):
            if order is None or len(pairs) == order:
                yield k, _moment_index(pairs), v

    @property
    def orders(self):
        return tuple(sorted({len(pairs) for _, pairs in self.entries}))


def derivative_table(evaluator, max_order, scheme=None):
    """Estimate every mixed partial of orders 1..max_order, once each, with
    one ``asf_batch`` call through the memoised plan of the table's shape."""
    scheme = scheme or FdScheme()
    if not 1 <= max_order <= MAX_ORDER:
        raise ConfigurationError(f"max_order must be between 1 and {MAX_ORDER}")
    if evaluator.model.nonnegative_domain and scheme.kind != "forward":
        raise ConfigurationError("nonnegative-orthant models require the forward scheme")
    dims = evaluator.model.dims
    plan = table_plan(dims, max_order, scheme)
    estimates = plan.estimates(evaluator)
    return DerivativeTable(
        dims=dims,
        center=tuple(float(v) for v in evaluator.center),
        entries=dict(zip(plan.keys, estimates.ravel().tolist())),
        stencil_nodes=plan.requested,
    )

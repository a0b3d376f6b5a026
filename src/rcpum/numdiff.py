"""Finite-difference estimation of mixed partial derivatives of the average
structural function at the centering point.

Distinct covariates are handled by tensor products of one-dimensional
stencils; repeated covariates use the one-dimensional stencil of the
corresponding higher derivative order.  Central stencils have base accuracy
order 2, forward (one-sided) stencils order 1; Richardson extrapolation
raises either as configured.  Forward stencils keep every node in the
nonnegative orthant, for models identified only there.
"""

from __future__ import annotations

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


def stencil(kind, order):
    """Integer offsets and weights for one variable.

    Central stencils are the smallest symmetric ones (accuracy 2); forward
    stencils are the minimal one-sided ones (accuracy 1), relying on the
    extra Richardson level configured for them.
    """
    if kind == "central":
        half = (order + 1) // 2
        offsets = tuple(range(-half, half + 1))
    else:
        offsets = tuple(range(0, order + 1))
    return offsets, fd_weights(offsets, order)


def _variable_powers(dims, pairs):
    """Flat-position multiplicities of the differentiation variables."""
    powers = {}
    for g, c in pairs:
        p = flat_position(dims, g, c)
        powers[p] = powers.get(p, 0) + 1
    return dict(sorted(powers.items()))


def _tensor_estimate(evaluator, component, powers, h, kind):
    center = np.asarray(evaluator.center, dtype=float)
    per_var = [(pos, *stencil(kind, r)) for pos, r in powers.items()]
    total_order = sum(powers.values())
    acc = 0.0
    for combo in itertools.product(*[range(len(offs)) for _, offs, _ in per_var]):
        x = center.copy()
        w = 1.0
        for (pos, offs, wts), i in zip(per_var, combo):
            x[pos] += offs[i] * h
            w *= wts[i]
        if w == 0.0:
            continue
        val = evaluator.asf(x)[component - 1]
        if not np.isfinite(val):
            raise EvaluationError(f"non-finite demand at stencil node {x.tolist()}", point=x)
        acc += w * val
    return acc / h**total_order


def richardson(values, base_order, stride):
    """Extrapolate estimates at steps h, h/2, ..., h/2^L to higher order."""
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
    if evaluator.model.nonnegative_domain and scheme.kind != "forward":
        raise ConfigurationError("nonnegative-orthant models require the forward scheme")
    powers = _variable_powers(dims, pairs)
    h0 = scheme.step_for(len(pairs))
    estimates = [
        _tensor_estimate(evaluator, good, powers, h0 / 2**lvl, scheme.kind)
        for lvl in range(scheme.levels + 1)
    ]
    return richardson(estimates, scheme.base_accuracy, scheme.accuracy_stride)


@dataclass(frozen=True)
class DerivativeTable:
    """All mixed-partial estimates at the center up to ``max_order``.

    Mixed partials are symmetric, so each derivative is stored once, keyed
    by (component good, sorted tuple of (good, characteristic) pairs).
    """

    dims: tuple[int, ...]
    max_order: int
    center: tuple[float, ...]
    scheme: FdScheme
    entries: dict

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
    """Estimate every mixed partial of orders 1..max_order, once each."""
    scheme = scheme or FdScheme()
    if max_order < 1:
        raise ConfigurationError("max_order must be >= 1")
    dims = evaluator.model.dims
    all_pairs = [(g + 1, c + 1) for g, d in enumerate(dims) for c in range(d)]
    entries = {}
    for order in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(all_pairs, order):
            for k in range(1, len(dims) + 1):
                entries[(k, combo)] = mixed_partial(evaluator, k, combo, scheme)
    return DerivativeTable(
        dims=dims,
        max_order=max_order,
        center=tuple(float(v) for v in evaluator.center),
        scheme=scheme,
        entries=entries,
    )

"""Finite-support slope-coefficient distributions and their exact moments.

Coefficients are indexed by (good, characteristic) pairs, both 1-based, and
stored flat in good-major order: the coefficient on characteristic ``c`` of
good ``g`` lives at position ``offset(g) + c - 1``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .exceptions import ConfigurationError

WEIGHT_TOL = 1e-12
# Largest product support built from marginals: a bound on memory, since every
# ASF evaluation is linear in the support size.
MAX_PRODUCT_SUPPORT = 1 << 16


@functools.cache
def flat_offsets(dims):
    """Starting flat position of each good's characteristic block; ``dims``
    is a tuple."""
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d)
    return tuple(offs)


def flat_position(dims, good, char):
    """Map a 1-based (good, char) pair to its flat coordinate."""
    if not 1 <= good <= len(dims):
        raise ConfigurationError(f"good index {good} outside 1..{len(dims)}")
    if not 1 <= char <= dims[good - 1]:
        raise ConfigurationError(
            f"characteristic index {char} outside 1..{dims[good - 1]} for good {good}"
        )
    return flat_offsets(dims)[good - 1] + char - 1


@dataclass(frozen=True, order=True)
class MomentIndex:
    """Canonical name of one product moment of the slope coefficients.

    ``pairs`` is a sorted tuple of (good, char) pairs; two indices naming the
    same product compare equal regardless of construction order.  ``goods``
    (the sorted good indices, with multiplicity) and ``label`` (as in
    ``'b1.1*b2.1'``) are derived once, at construction.
    """

    pairs: tuple[tuple[int, int], ...]
    goods: tuple[int, ...] = field(init=False, repr=False, compare=False)
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = tuple(sorted(tuple(p) for p in self.pairs))
        for g, c in pairs:
            if g < 1 or c < 1:
                raise ConfigurationError(f"indices must be 1-based, got ({g},{c})")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "goods", tuple(sorted(g for g, _ in pairs)))
        object.__setattr__(
            self, "label", "*".join(f"b{g}.{c}" for g, c in pairs) if pairs else "1"
        )

    @classmethod
    def of(cls, *pairs):
        return cls(tuple(pairs))

    @property
    def order(self):
        return len(self.pairs)

    def validate(self, dims):
        for g, c in self.pairs:
            flat_position(dims, g, c)

    def __str__(self):
        return self.label


def _check_weights(weights):
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ConfigurationError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        raise ConfigurationError(f"weights sum to {w.sum()}, expected 1 within {WEIGHT_TOL}")


@dataclass(frozen=True)
class DiscreteBeta:
    """Finitely many support vectors with probability weights.
    ``weights_checked`` skips the sum check for weights checked elsewhere."""

    dims: tuple[int, ...]
    points: np.ndarray
    weights: np.ndarray
    weights_checked: InitVar[bool] = False

    def __post_init__(self, weights_checked):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if not weights_checked:
            _check_weights(w)
        if pts.shape[0] != w.shape[0]:
            raise ConfigurationError("one weight per support point required")
        if pts.shape[1] != sum(self.dims):
            raise ConfigurationError(
                f"support vectors have dimension {pts.shape[1]}, expected {sum(self.dims)}"
            )
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def product(cls, dims, marginals):
        """Mutually independent coordinates, one (values, weights) marginal
        each, over their product support in ``itertools.product`` order (the
        last coordinate fastest), each weight the product of its marginal
        weights taken left to right.  Each marginal's weights are checked, the
        product's are not: within ``WEIGHT_TOL`` of 1 each, their product may
        sum further from 1.  A product of more than ``MAX_PRODUCT_SUPPORT``
        points is rejected before anything of its size is allocated."""
        if len(marginals) != sum(dims):
            raise ConfigurationError(f"{len(marginals)} marginals supplied, expected {sum(dims)}")
        for values, weights in marginals:
            _check_weights(weights)
            if len(values) != len(weights):
                raise ConfigurationError("one weight per atom required")
        size = math.prod(len(values) for values, _ in marginals)
        if size > MAX_PRODUCT_SUPPORT:
            raise ConfigurationError(f"a product of {size} points, more than {MAX_PRODUCT_SUPPORT}")
        points = np.array(list(itertools.product(*(v for v, _ in marginals))), dtype=float)
        weights = (np.asarray(w, dtype=float) for _, w in marginals)
        joint = functools.reduce(lambda a, b: np.multiply.outer(a, b).ravel(), weights, np.ones(1))
        return cls(dims, points.reshape(size, len(marginals)), joint, weights_checked=True)

    def moment(self, idx: MomentIndex) -> float:
        return true_moments(self, [idx])[0]


def true_moments(dist, indices):
    """Exact moments of ``indices``, all of one order, as a list of floats,
    from one pass over the support; a product beyond the float range is
    infinite."""
    indices = tuple(indices)
    if not indices:
        return []
    cols = np.asarray(
        [[flat_position(dist.dims, g, c) for g, c in idx.pairs] for idx in indices], dtype=np.intp
    )
    with np.errstate(over="ignore"):
        products = np.prod(dist.points[:, cols], axis=2)  # (support, indices)
    return (dist.weights @ products).tolist()


def all_moment_indices(dims, order):
    """Every canonical moment index of the given order, sorted."""
    pairs = [(g + 1, c + 1) for g, d in enumerate(dims) for c in range(d)]
    seen = sorted(
        {MomentIndex(combo) for combo in itertools.combinations_with_replacement(pairs, order)}
    )
    return seen

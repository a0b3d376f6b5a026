"""Finite-support slope-coefficient distributions and their exact moments.

Coefficients are indexed by (good, characteristic) pairs, both 1-based, and
stored flat in good-major order: the coefficient on characteristic ``c`` of
good ``g`` lives at position ``offset(g) + c - 1``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError

WEIGHT_TOL = 1e-12


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
    return w


@dataclass(frozen=True)
class DiscreteBeta:
    """Finitely many support vectors with probability weights."""

    dims: tuple[int, ...]
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = _check_weights(self.weights)
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

    def support(self):
        """Iterate (weight, coefficient vector) pairs."""
        return zip(self.weights, self.points)

    def moment(self, idx: MomentIndex) -> float:
        idx.validate(self.dims)
        pos = [flat_position(self.dims, g, c) for g, c in idx.pairs]
        vals = np.prod(self.points[:, pos], axis=1) if pos else np.ones(len(self.weights))
        return float(np.dot(self.weights, vals))


@dataclass(frozen=True)
class UnivariateAtoms:
    """Finite distribution of a single scalar coefficient."""

    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        w = _check_weights(self.weights)
        if len(v) != len(w):
            raise ConfigurationError("one weight per atom required")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    def raw_moment(self, power: int) -> float:
        # a numpy scalar power overflows to inf, where a Python float power raises
        return float(sum(w * np.float64(v) ** power for v, w in zip(self.values, self.weights)))


@dataclass(frozen=True)
class ProductBeta:
    """Mutually independent coordinates, each with a finite distribution.

    Satisfies the independence premise for the first coordinate by
    construction, so it is the natural input for the independence route.
    """

    dims: tuple[int, ...]
    marginals: tuple[UnivariateAtoms, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if len(self.marginals) != sum(self.dims):
            raise ConfigurationError(
                f"{len(self.marginals)} marginals supplied, expected {sum(self.dims)}"
            )

    def support(self):
        """Iterate the full product support as (weight, vector) pairs."""
        grids = [list(zip(m.values, m.weights)) for m in self.marginals]
        for combo in itertools.product(*grids):
            w = math.prod(c[1] for c in combo)
            yield w, np.array([c[0] for c in combo])

    def moment(self, idx: MomentIndex) -> float:
        idx.validate(self.dims)
        powers: dict[int, int] = {}
        for g, c in idx.pairs:
            p = flat_position(self.dims, g, c)
            powers[p] = powers.get(p, 0) + 1
        out = 1.0
        for p, k in powers.items():
            out *= self.marginals[p].raw_moment(k)
        return out


def support_arrays(dist):
    """Support weights (S,) and coefficient vectors (S, total_dim) as arrays."""
    support = list(dist.support())
    return (
        np.array([w for w, _ in support], dtype=float),
        np.array([b for _, b in support], dtype=float),
    )


def true_moments(dist, indices):
    """Exact moments of ``indices``, all of one order, as a list of floats.

    A ``DiscreteBeta`` takes every product in one pass over its support;
    other distributions are asked index by index.
    """
    indices = tuple(indices)
    if not isinstance(dist, DiscreteBeta) or not indices:
        return [dist.moment(idx) for idx in indices]
    cols = np.asarray(
        [[flat_position(dist.dims, g, c) for g, c in idx.pairs] for idx in indices], dtype=np.intp
    )
    products = np.prod(dist.points[:, cols], axis=2)  # (support, indices)
    return (dist.weights @ products).tolist()


def all_moment_indices(dims, order):
    """Every canonical moment index of the given order, sorted."""
    pairs = [(g + 1, c + 1) for g, d in enumerate(dims) for c in range(d)]
    seen = sorted(
        {MomentIndex(combo) for combo in itertools.combinations_with_replacement(pairs, order)}
    )
    return seen

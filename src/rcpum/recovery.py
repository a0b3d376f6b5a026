"""Constructive recovery of coefficient moments and value-function
derivatives from a table of mean-demand derivatives.

Every route rests on the factorization

    d_(gamma,xi) Ybar_k (center) = d_gamma d_k V(center) * E[beta_(gamma,xi)]

so ratios of derivative entries whose combined good multisets agree equal
ratios of moments.  Ratios are chained across good tuples one component at a
time starting from the all-ones tuple, then fanned out across characteristic
tuples within each good tuple.  A scale value pins the units: either a known
moment of the first coefficient, its known absolute mean plus independence,
or a supplied table of value-function derivatives.

``chain_ratios`` reads any ``DerivativeTable``: a plug-in estimate from
externally supplied derivative estimates is the chain over a table built
from those entries.  On a power-index logit centered at the all-ones point
the exponent drops out of the first derivatives, so the order-1 chain
gives the mean-exponent ratios.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import MomentIndex
from .exceptions import AnchorError, ConfigurationError, PreconditionError, RelevanceError

DEFAULT_TAU_REL = 1e-7
_CONVEXITY_TOL = 1e-8  # diagonal second partials down to -tol pass


@dataclass(frozen=True)
class MomentTable:
    """Recovered moments of one order.

    ``relevance`` is the relevance map of the ratio chain the moments came
    from, empty when the route does not chain ratios.
    """

    order: int
    entries: dict
    route: str
    relevance: dict = field(default_factory=dict)

    def __getitem__(self, idx):
        return self.entries[idx]

    def __contains__(self, idx):
        return idx in self.entries

    def items(self):
        return sorted(self.entries.items())


@dataclass(frozen=True)
class VDerivTable:
    """Partial derivatives of the value function at the center.

    Keys are sorted good multi-indices (length = moment order + 1).  The
    diagonal second-order entries must be nonnegative up to tolerance, since
    the value function is convex.
    """

    entries: dict
    discrepancies: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for gamma, v in self.entries.items():
            key = tuple(sorted(int(g) for g in gamma))
            clean[key] = float(v)
            if len(key) == 2 and key[0] == key[1] and v < -_CONVEXITY_TOL:
                raise ConfigurationError(
                    f"diagonal entry {key} = {v} violates convexity of the value function"
                )
        object.__setattr__(self, "entries", clean)

    def __getitem__(self, gamma):
        return self.entries[tuple(sorted(gamma))]

    def __contains__(self, gamma):
        return tuple(sorted(gamma)) in self.entries

    def items(self):
        return sorted(self.entries.items())


@functools.cache
def moment_indices_for(dims, good_tuple):
    """Canonical moment indices with the given good multiset, sorted."""
    choices = [range(1, dims[g - 1] + 1) for g in good_tuple]
    return tuple(
        sorted({MomentIndex(tuple(zip(good_tuple, xi))) for xi in itertools.product(*choices)})
    )


@functools.cache
def good_multisets(n_goods, order):
    return tuple(itertools.combinations_with_replacement(range(1, n_goods + 1), order))


@dataclass(frozen=True)
class ChainResult:
    """Moment ratios of one order relative to a reference moment."""

    order: int
    reference: MomentIndex
    ratios: dict
    relevance: dict


def _probe(table, component, dims, good_tuple, tau_rel):
    """Largest-magnitude entry over characteristic tuples, or None."""
    best = None
    for idx in moment_indices_for(dims, good_tuple):
        v = table.value(component, idx.pairs)
        if best is None or abs(v) > abs(best[1]):
            best = (idx, v)
    if best is None or abs(best[1]) <= tau_rel:
        return None
    return best


def chain_ratios(table, order, tau_rel=DEFAULT_TAU_REL):
    """Identify every moment ratio of the given order.

    Walks the good-multiset graph one component at a time from the all-ones
    tuple; each step divides adjacent derivative entries whose combined good
    multisets match, then fans out across characteristic tuples within the
    reached tuple.
    """
    dims = table.dims
    n_goods = len(dims)
    start = (1,) * order

    anchor = None
    for k in range(1, n_goods + 1):
        cand = _probe(table, k, dims, start, tau_rel)
        if cand is not None and (anchor is None or abs(cand[1]) > abs(anchor[2])):
            anchor = (k, cand[0], cand[1])
    if anchor is None:
        raise RelevanceError(f"no derivative entry above {tau_rel} for good tuple {start}")
    k0, ref_idx, ref_val = anchor

    ratios = {}
    relevance = {start: (k0, ref_idx, abs(ref_val))}
    for idx in moment_indices_for(dims, start):
        ratios[idx] = table.value(k0, idx.pairs) / ref_val

    # Each reached tuple remembers which component's entries scale it.
    reached = {start: k0}
    queue = [start]
    pending = set(good_multisets(n_goods, order)) - {start}
    while queue:
        delta = queue.pop(0)
        for a in sorted(set(delta)):
            for b in range(1, n_goods + 1):
                if b == a:
                    continue
                gamma = list(delta)
                gamma.remove(a)
                gamma.append(b)
                gamma = tuple(sorted(gamma))
                if gamma in reached:
                    continue
                num = _probe(table, a, dims, gamma, tau_rel)
                den = _probe(table, b, dims, delta, tau_rel)
                if num is None or den is None:
                    continue
                base = ratios[den[0]] / den[1]
                for idx in moment_indices_for(dims, gamma):
                    ratios[idx] = base * table.value(a, idx.pairs)
                relevance[gamma] = (a, num[0], abs(num[1]))
                reached[gamma] = a
                pending.discard(gamma)
                queue.append(gamma)
    if pending:
        missing = sorted(pending)[0]
        raise RelevanceError(f"no relevant characteristic tuple found for good tuple {missing}")
    return ChainResult(order=order, reference=ref_idx, ratios=ratios, relevance=relevance)


def _rescaled_entries(chain, anchor_idx, anchor_value, tau_rel, what):
    """Ratios renormalized to the anchor moment, then multiplied by its
    known value; the two-step form keeps scaling the anchor value exactly
    multiplicative in the output."""
    r = chain.ratios[anchor_idx]
    if abs(r) <= tau_rel:
        raise RelevanceError(
            f"the {what} moment {anchor_idx} is numerically irrelevant (ratio {r:.3e})"
        )
    return {idx: (ratio / r) * anchor_value for idx, ratio in chain.ratios.items()}


def recover_moments_scale(table, order, known_scale, tau_rel=DEFAULT_TAU_REL):
    """Moments of one order given the known moment of the first coefficient."""
    if known_scale == 0 or not np.isfinite(known_scale):
        raise ConfigurationError("the known scale moment must be finite and nonzero")
    chain = chain_ratios(table, order, tau_rel)
    scale_idx = MomentIndex(((1, 1),) * order)
    entries = _rescaled_entries(chain, scale_idx, known_scale, tau_rel, "scale")
    return MomentTable(order, entries, "scale", chain.relevance)


def recover_moments_independence(table, order, abs_mean, lower=None, tau_rel=DEFAULT_TAU_REL):
    """Moments of one order under first-coefficient independence, anchored
    by the known absolute first moment.

    The sign of the first moment is read from the own first derivative of
    good 1 (positive diagonal curvature of the value function), and order 1
    is scaled by the signed mean.  A higher order is anchored by multiplying
    the signed mean into a moment of ``lower``, the recovered table of the
    order below, that avoids the first coefficient.
    """
    d11 = table.value(1, ((1, 1),))
    if abs(d11) <= tau_rel:
        raise RelevanceError(
            "own first derivative of good 1 is numerically zero; sign unidentified"
        )
    mean11 = abs_mean if d11 > 0 else -abs_mean
    if order == 1:
        chain = chain_ratios(table, 1, tau_rel)
        entries = _rescaled_entries(chain, MomentIndex(((1, 1),)), mean11, tau_rel, "first")
        return MomentTable(1, entries, "independence", chain.relevance)

    if lower is None or lower.order != order - 1:
        raise ConfigurationError(f"order {order} needs the recovered order-{order - 1} moments")
    candidates = [
        (idx, val)
        for idx, val in lower.items()
        if (1, 1) not in idx.pairs and abs(val) > tau_rel
    ]
    # The factorization needs the anchor to avoid the first coefficient;
    # tuples avoiding good 1 entirely are preferred when they exist.
    strict = [c for c in candidates if 1 not in c[0].goods]
    pool = strict or candidates
    if not pool:
        raise AnchorError(f"no nonzero order-{order - 1} moment avoiding the first coefficient")
    anchor_idx, anchor_val = max(pool, key=lambda c: (abs(c[1]), c[0]))
    lifted_idx = MomentIndex(anchor_idx.pairs + ((1, 1),))
    chain = chain_ratios(table, order, tau_rel)
    try:
        entries = _rescaled_entries(chain, lifted_idx, mean11 * anchor_val, tau_rel, "anchor")
    except RelevanceError as exc:
        raise AnchorError(str(exc)) from exc
    return MomentTable(order, entries, "independence", chain.relevance)


def recover_v_derivatives(table, moments, tau_rel=DEFAULT_TAU_REL):
    """Value-function partials at the center from a table and known moments.

    ``moments`` maps MomentIndex to value (possibly across several orders).
    Candidates from different (component, moment) splits of the same sorted
    multi-index are averaged; their spread is kept as a diagnostic.  Partials
    that break convexity raise PreconditionError.
    """
    if isinstance(moments, MomentTable):
        moments = dict(moments.items())
    by_gamma = {}
    for k, idx, val in table.classes():
        if idx not in moments:
            continue
        m = moments[idx]
        if abs(m) <= tau_rel:
            continue
        gamma = tuple(sorted(idx.goods + (k,)))
        by_gamma.setdefault(gamma, []).append(val / m)
    if not by_gamma:
        raise RelevanceError("no usable (entry, moment) pair; all moments below threshold")
    entries = {}
    spread = {}
    for gamma, cands in by_gamma.items():
        entries[gamma] = math.fsum(cands) / len(cands)
        spread[gamma] = float(max(cands) - min(cands)) if len(cands) > 1 else 0.0
    try:
        return VDerivTable(entries=entries, discrepancies=spread)
    except ConfigurationError as exc:
        raise PreconditionError(f"recovered {exc}") from exc


def recover_moments_vknown(table, v_derivs, order, tau_rel=DEFAULT_TAU_REL):
    """Moments of one order by direct division with supplied value-function
    derivatives; no chaining and no scale assumption."""
    groups = {}
    for k, idx, val in table.classes(order):
        gamma = tuple(sorted(idx.goods + (k,)))
        if gamma not in v_derivs:
            raise PreconditionError(f"value-function derivative {gamma} not supplied")
        dv = v_derivs[gamma]
        if not np.isfinite(dv) or abs(dv) <= tau_rel:
            raise PreconditionError(f"supplied value-function derivative {gamma} is zero")
        groups.setdefault(idx, []).append(val / dv)
    entries = {idx: math.fsum(vals) / len(vals) for idx, vals in groups.items()}
    return MomentTable(order=order, entries=entries, route="vknown")


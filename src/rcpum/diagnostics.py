"""Testable restrictions and internal consistency checks on derivative
tables.

All statistics are reported, never auto-rejected; pass/fail thresholds live
in the scenario runner because the underlying restrictions are population
inequalities, not finite-precision tests.
"""

from __future__ import annotations

import math

from .exceptions import ConfigurationError, RelevanceError
from .recovery import DEFAULT_TAU_REL


def cauchy_schwarz_check(table, tau_rel=DEFAULT_TAU_REL):
    """Product of second-derivative ratios that model-consistent data keeps
    at or above one (an exact Cauchy-Schwarz bound on second moments)."""
    if len(table.dims) < 2:
        raise ConfigurationError("the check needs at least two goods")
    if 2 not in table.orders:
        raise ConfigurationError("the check needs second-order entries")
    own_1 = table.value(2, ((1, 1), (1, 1)))
    cross_1 = table.value(1, ((1, 1), (2, 1)))
    own_2 = table.value(1, ((2, 1), (2, 1)))
    cross_2 = table.value(2, ((1, 1), (2, 1)))
    for name, den in (("cross_1", cross_1), ("cross_2", cross_2)):
        if abs(den) <= tau_rel:
            raise RelevanceError(f"denominator {name} has magnitude {abs(den):.3e}")
    return (own_1 / cross_1) * (own_2 / cross_2)


def overid_residual(v_derivs, tau_rel=DEFAULT_TAU_REL):
    """Largest relative spread among the value-function candidates that
    different (component, moment) splits of one multi-index give.

    The factorization makes every split estimate the same partial, so an
    entry inconsistent with it shows up here whenever ``overid_dof`` is
    positive.  Partials at or below ``tau_rel`` are skipped.
    """
    return max(
        (
            v_derivs.discrepancies.get(gamma, 0.0) / abs(v)
            for gamma, v in v_derivs.items()
            if abs(v) > tau_rel
        ),
        default=0.0,
    )


def overid_dof(dims, orders):
    """Restrictions the factorization puts on table entries of the given
    moment orders: entries minus value-function partials minus moments,
    plus the one scale the product leaves free, summed over orders."""
    n_goods, n_vars = len(dims), sum(dims)
    dof = 0
    for m in orders:
        n_moments = math.comb(n_vars + m - 1, m)
        dof += n_goods * n_moments - math.comb(n_goods + m, m + 1) - n_moments + 1
    return dof


def sign_first_moment(table, tau_rel=DEFAULT_TAU_REL):
    """Sign of the first moment of the first coefficient, read from the own
    first derivative of good 1 (positive diagonal curvature)."""
    v = table.value(1, ((1, 1),))
    if abs(v) <= tau_rel:
        return "indeterminate"
    return "+" if v > 0 else "-"


def complementarity_signs(v_derivs, tau_rel=DEFAULT_TAU_REL):
    """Sign matrix of the second value-function derivatives: nonnegative
    off-diagonals mark local complements, negative ones substitutes."""
    n = max(max(g) for g in v_derivs.entries) if v_derivs.entries else 0
    signs = [[0] * n for _ in range(n)]
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            key = tuple(sorted((j, k)))
            if key in v_derivs:
                v = v_derivs[key]
                signs[j - 1][k - 1] = 0 if abs(v) <= tau_rel else (1 if v > 0 else -1)
    return signs


def build_report(table, v_derivs=None, relevance=None, tau_rel=DEFAULT_TAU_REL):
    """The diagnostics block of ``summary.json``, as JSON-ready values, from
    a table and optional recovery output.

    ``overid_dof`` counts the restrictions the factorization puts on the
    recovered orders of the table.  At 0 (one good, or two goods with one
    characteristic each) the value-function candidates agree by
    construction, so ``overid_residual`` is rounding only and tests nothing.
    The relevance map is keyed by the comma-joined good tuple.
    """
    try:
        cs = float(cauchy_schwarz_check(table, tau_rel))
    except (ConfigurationError, RelevanceError, KeyError):
        cs = None
    residual, dof = None, 0
    if v_derivs is not None:
        residual = overid_residual(v_derivs, tau_rel)
        dof = overid_dof(table.dims, {len(g) - 1 for g in v_derivs.entries})
    return {
        "cauchy_schwarz_stat": cs,
        "overid_residual": residual,
        "overid_dof": dof,
        "sign_beta11": sign_first_moment(table, tau_rel),
        "complementarity_signs": complementarity_signs(v_derivs, tau_rel) if v_derivs else None,
        "relevance": {
            ",".join(map(str, gamma)): {
                "component": k,
                "index": None if idx is None else str(idx),
                "magnitude": float(mag),
            }
            for gamma, (k, idx, mag) in (relevance or {}).items()
        },
    }

"""Seeded scenario configs for the benchmark workloads.

Each workload is a fixed ladder of structural shapes (goods K,
characteristics per good d, coefficient support size S, disturbance
scenarios T, derivative order M, recovery route).  The seed draws only the
numbers inside each shape: intercepts, support points, complementarities,
consideration sets and welfare points.  Cost therefore follows the ladder and
stays comparable across seeds, while the values the program sees change.

Every generated config is one the CLI must solve: coefficients keep a fixed
sign per coordinate and stay away from zero, and logit intercepts keep every
value-function partial that recovery divides by away from zero, so every
moment is relevant and every recovered moment has a well-defined relative
error.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bundled configs (shipped with the package) that join a workload verbatim.
BUNDLED = {
    "ladder-logit": ("independence_k2", "logit_k2_homogeneous", "logit_k2_mixture"),
    "ladder-bundle": ("bundle_k2_smoothed",),
}

# (K, d, S, M, route) per generated logit scenario.  M = 4 only at d = 1.
LOGIT_LADDER = (
    (2, 1, 1, 3, "scale"),
    (2, 1, 4, 4, "scale"),
    (2, 2, 4, 2, "vknown"),
    (2, 1, 4, 3, "independence"),
    (2, 2, 8, 3, "scale"),
    (3, 1, 2, 2, "scale"),
    (3, 1, 8, 4, "vknown"),
    (3, 2, 4, 1, "scale"),
    (3, 2, 8, 2, "independence"),
    (3, 1, 8, 3, "independence"),
    (4, 1, 4, 3, "scale"),
    (4, 2, 2, 2, "vknown"),
    (4, 1, 8, 2, "independence"),
    (4, 2, 8, 1, "scale"),
)

# (K, d, S, T, M, route) per generated smoothed-bundle scenario.  The median
# and the p90 tail each fall inside a group of shapes of about equal cost
# (the three K = 3, d = 1, S = 4 ones; the three d = 1, S = 8, T = 10 ones),
# so they do not jump between two cost classes from run to run.
BUNDLE_LADDER = (
    (2, 1, 4, 6, 3, "scale"),
    (2, 2, 8, 10, 2, "independence"),
    (3, 1, 8, 10, 3, "scale"),
    (3, 2, 4, 6, 2, "scale"),
    (3, 1, 2, 4, 1, "independence"),
    (4, 1, 8, 10, 2, "scale"),
    (4, 2, 2, 4, 1, "scale"),
    (2, 1, 2, 4, 2, "scale"),
    (4, 1, 8, 10, 2, "independence"),
    (3, 1, 4, 6, 2, "scale"),
    (3, 1, 4, 6, 2, "independence"),
    (3, 1, 4, 6, 2, "scale"),
)

# Light welfare block on generated bundle configs, so that the welfare layer
# is measured and welfare error is checked: two Taylor points each, and one
# path segment on the one config with unit first coefficients.
BUNDLE_TAYLOR_POINTS = 2
BUNDLE_PATH_CONFIG = 7

# Smallest |d_gamma V(0)| a generated logit may have, by order |gamma|.
# Errors of recovered moments scale as about 1e-8 / |d_gamma V| at orders
# 1-2 and 4e-9 / |d_gamma V| at orders 3-4, against tolerances of 1e-4 and
# 1e-3; about 7% of draws of the K = 3, M = 4 shape fall below the floor.
VDERIV_FLOOR = {2: 1e-3, 3: 1e-3, 4: 1e-4, 5: 1e-4}

WORKLOADS = tuple(BUNDLED)
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Scenario:
    """One generated config plus the shape it was drawn from."""

    name: str
    config: dict
    model: str
    K: int
    d: int
    S: int
    T: int
    M: int
    route: str
    points: int
    segments: int

    def shape(self):
        return {k: v for k, v in vars(self).items() if k != "config"}


def _factor(S, n_coords):
    """Atom counts per coordinate whose product is S (leading coordinates
    take the factors 2 first)."""
    counts = [1] * n_coords
    rest = S
    i = 0
    while rest > 1:
        if i >= n_coords:
            raise ValueError(f"cannot split support size {S} over {n_coords} coordinates")
        counts[i] = 2 if rest % 2 == 0 else rest
        rest //= counts[i]
        i += 1
    return counts


def _beta_block(rng, dims, S, route, unit_first=False, negative_first=False):
    """Coefficient distribution: discrete for scale/vknown, product for
    independence.  Each coordinate keeps one sign, magnitudes in [0.5, 2.5]."""
    D = sum(dims)
    firsts = set(np.cumsum((0,) + tuple(dims))[:-1].tolist())
    sign = np.ones(D)
    if negative_first:
        sign[0] = -1.0
    if route == "independence":
        marginals = []
        for pos, n in enumerate(_factor(S, D)):
            if unit_first and pos in firsts:
                vals = [1.0]
            else:
                vals = sorted(rng.uniform(0.5, 2.5, size=n).round(3).tolist())
            vals = [float(sign[pos] * v) for v in vals]
            w = _weights(rng, len(vals))
            marginals.append({"values": vals, "weights": w})
        return {"type": "product", "marginals": marginals}
    pts = rng.uniform(0.5, 2.5, size=(S, D)).round(3) * sign
    if unit_first:
        pts[:, sorted(firsts)] = 1.0
    return {"type": "discrete", "points": pts.tolist(), "weights": _weights(rng, S)}


def _weights(rng, n):
    """Positive probability weights, rounded, summing to 1."""
    raw = rng.integers(1, 5, size=n).astype(float)
    w = (raw / raw.sum()).round(6)
    w[-1] = 1.0 - w[:-1].sum()
    return w.tolist()


def _recovery(route, M, beta):
    block = {"route": route, "max_order": M}
    if route == "scale":
        block["scales"] = {str(m): _moment_11(beta, m) for m in range(1, M + 1)}
    elif route == "independence":
        block["abs_mean"] = abs(_moment_11(beta, 1))
    return block


def _moment_11(beta, m):
    """E[beta_11^m] of a generated coefficient block."""
    if beta["type"] == "product":
        atoms = beta["marginals"][0]
        return float(sum(w * v**m for v, w in zip(atoms["values"], atoms["weights"])))
    pts = np.asarray(beta["points"])[:, 0]
    return float(np.dot(beta["weights"], pts**m))


def _alphas(rng, K, M, outside):
    """Logit intercepts whose value function is relevant to order M + 1.

    A recovered moment of order m is a demand derivative divided, directly
    or along a chain of ratios, by a partial of V of order m + 1 at the
    centre.  Near a root of one of them the moment is not identified and
    finite-difference error swamps it: with two goods, no outside good and
    equal intercepts every even-order partial is exactly 0.  Draws with a
    partial below VDERIV_FLOOR are drawn again.
    """
    from rcpum import logit

    while True:
        alphas = rng.uniform(-0.5, 0.5, size=K).round(3).tolist()
        if all(
            abs(logit.derivative(alphas, np.zeros(K), gamma, outside)) >= VDERIV_FLOOR[order]
            for order in range(2, M + 2)
            for gamma in itertools.combinations_with_replacement(range(1, K + 1), order)
        ):
            return alphas


def _logit(rng, K, d, S, M, route, outside):
    dims = [d] * K
    negative_first = route == "independence" and K == 3
    beta = _beta_block(rng, dims, S, route, negative_first=negative_first)
    return {
        "model": {
            "type": "logit",
            "dims": dims,
            "alphas": _alphas(rng, K, M, outside),
            "outside_good": outside,
        },
        "beta": beta,
        "recovery": _recovery(route, M, beta),
    }


def _bundle_scenarios(rng, K, T):
    lattice = list(itertools.product((0, 1), repeat=K))
    w = _weights(rng, T)
    out = []
    for t in range(T):
        scen = {"weight": w[t], "intercepts": rng.uniform(-0.8, 0.8, size=K).round(3).tolist()}
        scen["complementarities"] = [
            [j, k, round(float(rng.uniform(-0.6, 0.6)), 3)]
            for j in range(1, K + 1)
            for k in range(j + 1, K + 1)
        ]
        # Every second scenario considers the empty bundle, each single good
        # and a random half of the multi-good bundles.
        if t % 2 == 1:
            multi = [y for y in lattice if sum(y) > 1]
            keep = rng.choice(len(multi), size=len(multi) // 2, replace=False)
            considered = [y for y in lattice if sum(y) <= 1] + [multi[i] for i in sorted(keep)]
            scen["consideration"] = [list(y) for y in considered]
        out.append(scen)
    return out


def _bundle(rng, K, d, S, T, M, route, unit_first=False):
    dims = [d] * K
    beta = _beta_block(rng, dims, S, route, unit_first=unit_first)
    return {
        "model": {
            "type": "bundle",
            "dims": dims,
            "smoothing": round(float(rng.uniform(0.8, 1.2)), 3),
            "scenarios": _bundle_scenarios(rng, K, T),
        },
        "beta": beta,
        "recovery": _recovery(route, M, beta),
    }


def _taylor_points(rng, dims, n, radius):
    """Covariate offsets on random directions at fixed radii up to ``radius``."""
    D = sum(dims)
    pts = []
    for i in range(n):
        v = rng.normal(size=D)
        v *= radius * (i + 1) / n / np.linalg.norm(v)
        pts.append(v.round(4).tolist())
    return pts


def _segments(rng, dims, n, radius):
    """Segments moving only the first characteristic of each good."""
    firsts = np.cumsum((0,) + tuple(dims))[:-1]
    segs = []
    for _ in range(n):
        ends = []
        for _ in range(2):
            x = np.zeros(sum(dims))
            x[firsts] = rng.uniform(-radius, radius, size=len(dims)).round(4)
            ends.append(x.tolist())
        segs.append(ends)
    return segs


def generate(workload, seed, bundled_dir):
    """Scenarios of one workload for one seed, bundled configs first."""
    if workload not in _STREAM:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([int(seed), _STREAM[workload]])
    out = [_bundled(name, bundled_dir) for name in BUNDLED[workload]]
    if workload == "ladder-logit":
        for i, (K, d, S, M, route) in enumerate(LOGIT_LADDER):
            cfg = _logit(rng, K, d, S, M, route, outside=i % 2 == 0)
            out.append(Scenario(f"logit-{i:02d}", cfg, "logit", K, d, S, 0, M, route, 0, 0))
    else:
        for i, (K, d, S, T, M, route) in enumerate(BUNDLE_LADDER):
            segments = int(i == BUNDLE_PATH_CONFIG)
            cfg = _bundle(rng, K, d, S, T, M, route, unit_first=bool(segments))
            dims = cfg["model"]["dims"]
            cfg["welfare"] = {
                "points": _taylor_points(rng, dims, BUNDLE_TAYLOR_POINTS, 0.2),
                "trust_radius": 0.5,
                "path_segments": _segments(rng, dims, segments, 0.4),
            }
            out.append(
                Scenario(f"bundle-{i:02d}", cfg, "bundle", K, d, S, T, M, route,
                         BUNDLE_TAYLOR_POINTS, segments)
            )
    return out


def _bundled(name, bundled_dir):
    cfg = json.loads((Path(bundled_dir) / f"{name}.json").read_text(encoding="utf-8"))
    model = cfg["model"]
    dims = model["dims"]
    beta = cfg["beta"]
    if beta["type"] == "discrete":
        S = len(beta["points"])
    else:
        S = int(np.prod([len(m["values"]) for m in beta["marginals"]]))
    welfare = cfg.get("welfare") or {}
    return Scenario(
        name=name,
        config=cfg,
        model=model["type"],
        K=len(dims),
        d=max(dims),
        S=S,
        T=len(model.get("scenarios", ())),
        M=cfg["recovery"]["max_order"],
        route=cfg["recovery"]["route"],
        points=len(welfare.get("points", ())),
        segments=len(welfare.get("path_segments", ())),
    )

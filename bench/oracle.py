"""Exact oracles and the per-scenario correctness gate.

Truths are computed here from the generated config, independently of the
program's own report columns: coefficient moments from the support, and
welfare from the closed-form value function.  Logit uses
``rcpum.logit.value``; Gumbel-smoothed bundles use

    Vbar(u) = sum_s w_s sigma log sum_{y in C_s} exp((y.u + D_s(y)) / sigma).
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from rcpum import logit

# Relative error allowed on a recovered moment, by order: the acceptance
# suite's tolerances, with order 4 held to the order-3 one.
MOMENT_REL_TOL = {1: 1e-4, 2: 1e-4, 3: 1e-3, 4: 1e-3}
# Absolute error allowed on welfare: the acceptance suite's Taylor bound for
# index points within 0.3 of the centre, and a path-integral bound near
# rounding, since the quadrature of the analytic mean demand is that exact.
TAYLOR_ABS_TOL = 5e-3
PATH_ABS_TOL = 1e-8


def _positions(dims):
    offs = np.cumsum((0,) + tuple(dims))
    return {(g + 1, c + 1): int(offs[g]) + c for g, d in enumerate(dims) for c in range(d)}


def _parse_label(label):
    """'b1.1*b2.1' -> [(1, 1), (2, 1)]."""
    return [tuple(int(v) for v in term[1:].split(".")) for term in label.split("*")]


class Truth:
    """Exact moments and value function of one generated config."""

    def __init__(self, config):
        model = config["model"]
        self.dims = tuple(model["dims"])
        self.center = np.asarray(model.get("center") or np.zeros(sum(self.dims)), dtype=float)
        self.pos = _positions(self.dims)
        beta = config["beta"]
        if beta["type"] == "discrete":
            self.support = [
                (float(w), np.asarray(p, dtype=float)) for w, p in zip(beta["weights"], beta["points"])
            ]
        else:
            grids = [list(zip(m["values"], m["weights"])) for m in beta["marginals"]]
            self.support = [
                (math.prod(w for _, w in combo), np.array([v for v, _ in combo], dtype=float))
                for combo in itertools.product(*grids)
            ]
        self.value = _value_function(model)
        self._moments = {}

    def moment(self, label):
        if label not in self._moments:
            cols = [self.pos[p] for p in _parse_label(label)]
            self._moments[label] = math.fsum(w * float(np.prod(b[cols])) for w, b in self.support)
        return self._moments[label]

    def indices(self, x, beta):
        shifted = (np.asarray(x, dtype=float) - self.center) * beta
        offs = np.cumsum((0,) + self.dims)
        return np.array([shifted[offs[k] : offs[k + 1]].sum() for k in range(len(self.dims))])

    def taylor_welfare(self, x, weighting):
        """Average of V(u(x, beta)) - V(0) over the support."""
        zero = self.value(np.zeros(len(self.dims)))
        pos11 = self.pos[(1, 1)]
        total = 0.0
        for w, b in self.support:
            scale = 1.0 / abs(b[pos11]) if weighting == "inverse_abs_beta11" else 1.0
            total += w * scale * (self.value(self.indices(x, b)) - zero)
        return total

    def path_integral(self, x_init, x_final):
        """Vbar(x_final) - Vbar(x_init) averaged over the support."""
        return math.fsum(
            w * (self.value(self.indices(x_final, b)) - self.value(self.indices(x_init, b)))
            for w, b in self.support
        )


def _value_function(model):
    if model["type"] == "logit":
        alphas = tuple(model.get("alphas") or (0.0,) * len(model["dims"]))
        outside = bool(model.get("outside_good", False))
        return lambda u: logit.value(alphas, u, outside)
    if model["type"] == "bundle" and model.get("smoothing") is not None:
        K = len(model["dims"])
        lattice = [tuple(y) for y in (model.get("lattice") or itertools.product((0, 1), repeat=K))]
        sigma = float(model["smoothing"])
        scens = []
        for s in model["scenarios"]:
            allowed = None if s.get("consideration") is None else {tuple(y) for y in s["consideration"]}
            ys, ds = [], []
            for y in lattice:
                if allowed is not None and tuple(y) not in allowed:
                    continue
                d = sum(q * e for q, e in zip(y, s["intercepts"]))
                d += sum(y[j - 1] * y[k - 1] * v for j, k, v in s.get("complementarities", ()))
                ys.append(y)
                ds.append(d)
            scens.append((float(s["weight"]), np.asarray(ys, dtype=float), np.asarray(ds)))

        def value(u):
            total = 0.0
            for w, ys, ds in scens:
                z = (ys @ np.asarray(u, dtype=float) + ds) / sigma
                top = z.max()
                total += w * sigma * (top + math.log(np.exp(z - top).sum()))
            return total

        return value
    return None


def check(truth, config, out_dir):
    """Oracle checks on one scenario's reports.

    Returns (problems, moment_rel_err_max, welfare_abs_err_max); the error
    maxima are None when the scenario reports nothing of that kind.
    """
    problems = []
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    results = summary["results"]
    if summary["failure"] is not None:
        problems.append(f"run failure {summary['failure']}")

    max_order = config["recovery"]["max_order"]
    n_coefs = sum(truth.dims)
    moment_err = None
    for order in range(1, max_order + 1):
        block = results["moments"].get(str(order))
        expected = math.comb(n_coefs + order - 1, order)
        if block is None or len(block["entries"]) != expected:
            problems.append(f"order {order}: {0 if block is None else len(block['entries'])} "
                            f"of {expected} moments reported")
            continue
        for label, got in block["entries"].items():
            tru = truth.moment(label)
            err = abs(got - tru) / abs(tru)
            moment_err = err if moment_err is None else max(moment_err, err)
            if not err <= MOMENT_REL_TOL[order]:
                problems.append(f"moment {label}: rel err {err:.3g} > {MOMENT_REL_TOL[order]}")

    welfare_err = None
    block = config.get("welfare")
    if block is not None:
        got = results["welfare"]
        if got is None or truth.value is None:
            problems.append("welfare requested but not reported")
        else:
            weighting = block.get("weighting", "unweighted")
            pairs = [
                (p["value"], truth.taylor_welfare(p["x"], weighting), TAYLOR_ABS_TOL)
                for p in got["points"]
            ]
            pairs += [
                (p["value"], truth.path_integral(p["x_init"], p["x_final"]), PATH_ABS_TOL)
                for p in got["path_integrals"]
            ]
            if len(got["points"]) != len(block.get("points", ())) or len(
                got["path_integrals"]
            ) != len(block.get("path_segments", ())):
                problems.append("welfare output does not match the request")
            for val, tru, tol in pairs:
                err = abs(val - tru)
                welfare_err = err if welfare_err is None else max(welfare_err, err)
                if not err <= tol:
                    problems.append(f"welfare value {val!r}: abs err {err:.3g} > {tol}")
    return problems, moment_err, welfare_err

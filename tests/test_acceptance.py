"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single `ACCEPTANCE <nn> <name>: PASS` line on success;
a failed assertion is the corresponding FAIL line.  Shared session fixtures
reuse the heavy derivative tables where the criteria allow it; criterion 1
times its own cold run.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from rcpum import (
    AsfEvaluator,
    BundleModel,
    DiscreteBeta,
    FdScheme,
    LogitModel,
    MomentIndex,
    TaylorVModel,
    VDerivTable,
    build_report,
    cauchy_schwarz_check,
    chain_ratios,
    derivative_table,
    path_integral_v,
    recover_moments_independence,
    recover_moments_scale,
    recover_moments_vknown,
    recover_v_derivatives,
)
from rcpum.cli import resolve_config_path, run

DIMS = (1, 1)
CRIT1_SCHEME = FdScheme(kind="central", richardson_levels=1)


def _ok(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def worst_rel_err(moment_table, beta):
    return max(
        abs(v - beta.moment(idx)) / abs(beta.moment(idx))
        for idx, v in moment_table.items()
    )


def test_criterion_01_logit_scale_route():
    start = time.perf_counter()
    model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5])
    evaluator = AsfEvaluator(model, beta)
    table = derivative_table(evaluator, 3, CRIT1_SCHEME)
    recovered = {m: recover_moments_scale(table, m, 1.0) for m in (1, 2, 3)}
    elapsed = time.perf_counter() - start

    oracle = {
        1: {"b1.1": 1.0, "b2.1": 2.0},
        2: {"b1.1*b1.1": 1.0, "b1.1*b2.1": 2.0, "b2.1*b2.1": 5.0},
    }
    for m, want in oracle.items():
        got = {str(i): v for i, v in recovered[m].items()}
        assert set(got) == set(want)
        for key, val in want.items():
            assert got[key] == pytest.approx(val, rel=1e-4), f"order {m} moment {key}"
    assert worst_rel_err(recovered[1], beta) < 1e-4
    assert worst_rel_err(recovered[2], beta) < 1e-4
    assert worst_rel_err(recovered[3], beta) < 1e-3
    assert elapsed < 10.0, f"criterion-1 pipeline took {elapsed:.2f}s"
    _ok(1, "logit scale route")


def test_criterion_02_bundles_route(smoothed_bundle, smoothed_bundle_table):
    model, beta = smoothed_bundle
    _, table = smoothed_bundle_table
    assert len(model.scenarios) == 6
    assert sum(1 for s in model.scenarios if s.consideration is not None) == 1
    assert len(beta.weights) == 4
    for m in (1, 2):
        scale = beta.moment(MomentIndex(((1, 1),) * m))
        recovered = recover_moments_scale(table, m, scale)
        assert worst_rel_err(recovered, beta) < 1e-3, f"order {m}"
    _ok(2, "bundles route")


@pytest.mark.parametrize("mean_sign", [+1.0, -1.0])
def test_criterion_03_independence_route(mean_sign):
    first = (0.5, 1.5) if mean_sign > 0 else (-1.5, -0.5)
    beta = DiscreteBeta.product(
        DIMS,
        ((first, (0.5, 0.5)), ((1.0, 3.0), (0.5, 0.5))),
    )
    model = LogitModel(dims=DIMS, alphas=(0.2, -0.1), outside_good=True)
    table = derivative_table(AsfEvaluator(model, beta), 3, CRIT1_SCHEME)
    tables = {}
    for m in (1, 2, 3):
        tables[m] = recover_moments_independence(table, m, 1.0, lower=tables.get(m - 1))
    recovered_mean = tables[1][MomentIndex.of((1, 1))]
    assert math.copysign(1.0, recovered_mean) == mean_sign
    for m in (1, 2, 3):
        assert worst_rel_err(tables[m], beta) < 1e-3, f"order {m}"
    _ok(3, f"independence route (mean {'+' if mean_sign > 0 else '-'}1)")


def test_criterion_04_route_consistency(logit_mixture, logit_mixture_table):
    model, beta = logit_mixture
    _, table = logit_mixture_table
    v_known = VDerivTable(model.kernel.value_partials(4))
    for m in (1, 2, 3):
        by_scale = recover_moments_scale(table, m, 1.0)
        by_v = recover_moments_vknown(table, v_known, m)
        for idx, val in by_scale.items():
            assert by_v[idx] == pytest.approx(val, abs=1e-6, rel=1e-6), str(idx)
    _ok(4, "route consistency (scale vs v-known)")


def _overid(table, beta):
    """Over-identification residual and dof after scale-route recovery."""
    moments = {}
    for m in table.orders:
        scale = beta.moment(MomentIndex(((1, 1),) * m))
        moments.update(dict(recover_moments_scale(table, m, scale).items()))
    report = build_report(table, v_derivs=recover_v_derivatives(table, moments))
    return report["overid_residual"], report["overid_dof"]


def test_criterion_05_symmetry(logit_mixture, logit_mixture_table, smoothed_bundle):
    # The factorization (symmetric in its mixed partials) over-identifies
    # tables with more than one characteristic per good.
    dims = (2, 2)
    beta = DiscreteBeta(
        dims,
        [[1.0, 0.5, 1.0, -0.5], [1.0, 1.5, 3.0, 0.5], [2.0, -1.0, 1.0, 1.0]],
        [0.3, 0.3, 0.4],
    )
    models = {
        "logit": LogitModel(dims=dims, alphas=(0.2, -0.1), outside_good=True),
        "bundle": BundleModel(dims=dims, scenarios=smoothed_bundle[0].scenarios, smoothing=1.0),
    }
    tables = {name: derivative_table(AsfEvaluator(m, beta), 2) for name, m in models.items()}
    for name, table in tables.items():
        residual, dof = _overid(table, beta)
        assert dof > 0, name
        assert residual < 1e-5, name
    clean = tables["logit"]
    for key, value in clean.entries.items():
        corrupted = dataclasses.replace(clean, entries={**clean.entries, key: value * 1.01})
        residual, _ = _overid(corrupted, beta)
        assert residual > 5e-3, key
    _, table = logit_mixture_table
    assert _overid(table, logit_mixture[1])[1] == 0
    _ok(5, "over-identification residual and fault detection")


def test_criterion_06_testable_restriction():
    rng = np.random.default_rng(20260809)
    done = 0
    while done < 20:
        alphas = tuple(rng.uniform(-1.0, 1.0, size=2))
        n_pts = int(rng.integers(2, 5))
        points = rng.uniform(0.3, 3.0, size=(n_pts, 2))
        weights = rng.dirichlet(np.ones(n_pts))
        weights = weights / weights.sum()
        model = LogitModel(dims=DIMS, alphas=alphas, outside_good=True)
        beta = DiscreteBeta(DIMS, points, weights)
        table = derivative_table(AsfEvaluator(model, beta), 2, CRIT1_SCHEME)
        # stay inside the maintained relevance condition: the four ratio
        # entries must be boundedly nonzero for the restriction to be sharp
        entries = [
            table.value(2, ((1, 1), (1, 1))),
            table.value(1, ((1, 1), (2, 1))),
            table.value(1, ((2, 1), (2, 1))),
            table.value(2, ((1, 1), (2, 1))),
        ]
        if min(abs(e) for e in entries) < 1e-3:
            continue
        stat = cauchy_schwarz_check(table)
        assert stat >= 1.0 - 1e-8, f"scenario {done}: stat {stat}"
        done += 1

    point_mass = DiscreteBeta(DIMS, [[1.2, 0.8]], [1.0])
    model = LogitModel(dims=DIMS, alphas=(0.3, -0.4), outside_good=True)
    table = derivative_table(AsfEvaluator(model, point_mass), 2, CRIT1_SCHEME)
    assert cauchy_schwarz_check(table) == pytest.approx(1.0, abs=1e-6)
    _ok(6, "testable restriction (Cauchy-Schwarz)")


def test_criterion_07_v_recovery():
    alphas = (0.0, 0.0)
    model = LogitModel(dims=DIMS, alphas=alphas, outside_good=True)
    beta = DiscreteBeta(DIMS, [[1.0, 1.0]], [1.0])
    evaluator = AsfEvaluator(model, beta)
    table = derivative_table(evaluator, 2, CRIT1_SCHEME)
    moments = {}
    for m in (1, 2):
        moments.update(dict(recover_moments_scale(table, m, 1.0).items()))
    v = recover_v_derivatives(table, moments)
    tables = {o: VDerivTable({g: x for g, x in v.items() if len(g) == o}) for o in (2, 3)}
    vmodel = TaylorVModel(gradient=evaluator.asf(model.center), tables=tables, trust_radius=0.35)

    def truth(u):
        return math.log((1.0 + math.exp(u[0]) + math.exp(u[1])) / 3.0)

    for bound, tol in ((0.1, 1e-4), (0.3, 5e-3)):
        worst = max(
            abs(vmodel.value((u1, u2)) - truth((u1, u2)))
            for u1 in np.linspace(-bound, bound, 7)
            for u2 in np.linspace(-bound, bound, 7)
        )
        assert worst < tol, f"box {bound}: {worst}"

    x_final = np.array([0.1, 0.0])
    via_path = path_integral_v(evaluator, np.zeros(2), x_final)
    assert abs(via_path - truth(x_final)) < 1e-8
    assert abs(vmodel.value(x_final) - via_path) < 1e-3
    _ok(7, "value-function recovery (Taylor and path integral)")


def test_criterion_08_exponent_model():
    for rho, expected in (((1.0, 2.0), 0.5), ((2.0, 1.0), 2.0)):
        model = LogitModel(dims=DIMS, alphas=(0.0, 0.0), index_form="power", center=np.ones(2))
        dist = DiscreteBeta(DIMS, [list(rho)], [1.0])
        ratios = chain_ratios(derivative_table(AsfEvaluator(model, dist), 1), 1).ratios
        ratio = ratios[MomentIndex.of((1, 1))] / ratios[MomentIndex.of((2, 1))]
        assert ratio == pytest.approx(expected, abs=1e-3 * expected)
    _ok(8, "exponent-model moment ratio")


def test_criterion_09_convergence(logit_mixture):
    model, beta = logit_mixture
    errors = []
    for level in range(3):
        scheme = FdScheme(kind="central", base_step=0.05 / 2**level, richardson_levels=1)
        table = derivative_table(AsfEvaluator(model, beta), 2, scheme)
        recovered = recover_moments_scale(table, 2, 1.0)
        errors.append(worst_rel_err(recovered, beta))
    for coarse, fine in zip(errors, errors[1:]):
        if coarse >= 1e-6:
            assert fine < coarse, f"no decrease: {errors}"
    assert errors[-1] < 1e-6 or all(b < a for a, b in zip(errors, errors[1:]))
    _ok(9, "moment error decreases under step halving")


def test_criterion_10_determinism(tmp_path):
    scenarios = (
        "logit_k2_mixture",
        "bundle_k2_smoothed",
        "independence_k2",
        "logit_k2_homogeneous",
    )
    for name in scenarios:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            code = run(resolve_config_path(name), out)
            assert code == 0, name
            outs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                    if p.name != "run_meta.json"
                }
            )
        assert outs[0].keys() == outs[1].keys(), name
        for fname in outs[0]:
            assert outs[0][fname] == outs[1][fname], f"{name}: {fname} differs"
    _ok(10, "byte-identical reports across runs")

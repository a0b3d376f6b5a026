import json

import numpy as np
import pytest

from rcpum import (
    AsfEvaluator,
    ConfigurationError,
    DiscreteBeta,
    LogitModel,
    VDerivTable,
    build_report,
    cauchy_schwarz_check,
    complementarity_signs,
    derivative_table,
    sign_first_moment,
)

DIMS = (1, 1)


def table_for(points, weights, alphas=(0.0, 0.0), order=2):
    model = LogitModel(dims=DIMS, alphas=alphas, outside_good=True)
    beta = DiscreteBeta(DIMS, points, weights)
    return derivative_table(AsfEvaluator(model, beta), order)


def test_cauchy_schwarz_point_mass_equality():
    table = table_for([[1.0, 1.0]], [1.0])
    assert cauchy_schwarz_check(table) == pytest.approx(1.0, abs=1e-6)


def test_cauchy_schwarz_mixture_value():
    # E[b1^2] E[b2^2] / E[b1 b2]^2 = (1 * 5) / 4 for the {(1,1),(1,3)} mixture
    table = table_for([[1.0, 1.0], [1.0, 3.0]], [0.5, 0.5])
    assert cauchy_schwarz_check(table) == pytest.approx(1.25, rel=1e-5)


def test_cauchy_schwarz_never_below_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        pts = rng.uniform(0.3, 3.0, size=(3, 2))
        w = np.full(3, 1 / 3)
        table = table_for(pts.tolist(), w.tolist(), alphas=tuple(rng.uniform(-1, 1, 2)))
        assert cauchy_schwarz_check(table) >= 1.0 - 1e-8


def test_sign_first_moment_positive(logit_mixture_table):
    _, table = logit_mixture_table
    assert sign_first_moment(table) == "+"


def test_sign_first_moment_negative():
    table = table_for([[-1.0, 1.0]], [1.0], order=1)
    assert sign_first_moment(table) == "-"


def test_sign_first_moment_indeterminate():
    table = table_for([[0.0, 1.0]], [1.0], order=1)
    assert sign_first_moment(table) == "indeterminate"


def test_complementarity_signs_logit_substitutes():
    v = VDerivTable({(1, 1): 0.25, (1, 2): -0.25, (2, 2): 0.25})
    signs = complementarity_signs(v)
    assert signs == [[1, -1], [-1, 1]]
    assert signs[0][1] == signs[1][0]


def test_build_report_assembles(logit_mixture_table):
    _, table = logit_mixture_table
    v = VDerivTable({(1, 1): 0.25, (1, 2): -0.25, (2, 2): 0.25})
    report = build_report(table, v_derivs=v, relevance={(1,): (1, None, 0.2)})
    assert report["cauchy_schwarz_stat"] == pytest.approx(1.25, rel=1e-5)
    assert report["sign_beta11"] == "+"
    assert report["complementarity_signs"][0][1] == -1
    assert report["relevance"] == {"1": {"component": 1, "index": None, "magnitude": 0.2}}
    # the block is what summary.json holds
    assert json.loads(json.dumps(report)) == report


def test_cauchy_schwarz_needs_two_goods():
    model = LogitModel(dims=(2,), alphas=(0.4,), outside_good=True)
    beta = DiscreteBeta((2,), [[1.0, 0.5]], [1.0])
    table = derivative_table(AsfEvaluator(model, beta), 2)
    with pytest.raises(ConfigurationError):
        cauchy_schwarz_check(table)


def test_build_report_overid_dof(logit_mixture_table):
    _, table = logit_mixture_table
    v = VDerivTable({(1, 1): 0.25, (1, 2): -0.25, (2, 2): 0.25})
    assert build_report(table, v_derivs=v)["overid_dof"] == 0
    assert build_report(table)["overid_residual"] is None
    dims = (2, 2)
    model = LogitModel(dims=dims, alphas=(0.2, -0.1), outside_good=True)
    beta = DiscreteBeta(dims, [[1.0, 0.5, 1.0, -0.5], [1.0, 1.5, 3.0, 0.5]], [0.5, 0.5])
    wide = derivative_table(AsfEvaluator(model, beta), 2)
    # per recovered order m (read off the partials' lengths m + 1):
    # K*C(D+m-1, m) entries - C(K+m, m+1) partials - C(D+m-1, m) moments + 1
    assert build_report(wide, v_derivs=v)["overid_dof"] == 8 - 3 - 4 + 1
    v3 = VDerivTable({**v.entries, (1, 1, 1): 0.1})
    assert build_report(wide, v_derivs=v3)["overid_dof"] == (8 - 3 - 4 + 1) + (20 - 4 - 10 + 1)

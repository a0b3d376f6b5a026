import csv
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcpum import (
    ConfigurationError,
    all_moment_indices,
    chain_ratios,
    cli,
    derivative_table,
    recovery,
)
from rcpum.cli import main, parse_config, resolve_config_path, run
from rcpum.distributions import MAX_PRODUCT_SUPPORT, WEIGHT_TOL
from rcpum.models import LogitModel
from rcpum.numdiff import table_plan


def bundled(name):
    return resolve_config_path(name)


def read_reports(out):
    out = Path(out)
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "run_meta.json"
    }


def test_bundled_logit_scenario_runs_clean(tmp_path):
    code = run(bundled("logit_k2_mixture"), tmp_path / "out")
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failure"] is None
    m2 = summary["results"]["moments"]["2"]["entries"]
    assert m2["b1.1*b1.1"] == pytest.approx(1.0, rel=1e-4)
    assert m2["b1.1*b2.1"] == pytest.approx(2.0, rel=1e-4)
    assert m2["b2.1*b2.1"] == pytest.approx(5.0, rel=1e-4)
    assert (tmp_path / "out" / "moments.csv").exists()
    assert (tmp_path / "out" / "v_derivs.csv").exists()
    assert summary["results"]["diagnostics"]["relevance"]


def test_clean_run_writes_four_reports(tmp_path):
    out = tmp_path / "out"
    assert run(bundled("logit_k2_mixture"), out) == 0
    assert {p.name for p in out.iterdir()} == {
        "moments.csv",
        "v_derivs.csv",
        "summary.json",
        "run_meta.json",
    }
    with open(out / "moments.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["order", "index", "recovered", "true", "abs_err", "rel_err", "route"]
    raw = json.loads(bundled("logit_k2_mixture").read_text())
    n_coefs, max_order = sum(raw["model"]["dims"]), raw["recovery"]["max_order"]
    assert len(rows) - 1 == sum(math.comb(n_coefs + m - 1, m) for m in range(1, max_order + 1))
    # one row per moment, by order and then index, carrying summary.json's values
    moments = json.loads((out / "summary.json").read_text())["results"]["moments"]
    expected = [
        [str(m), idx, f"{block['entries'][idx]:.17g}", f"{block['true'][idx]:.17g}"]
        for m, block in ((m, moments[str(m)]) for m in range(1, max_order + 1))
        for idx in map(str, all_moment_indices(tuple(raw["model"]["dims"]), m))
    ]
    assert [row[:4] for row in rows[1:]] == expected


def test_summary_relevance_is_the_chain_map(tmp_path):
    out = tmp_path / "out"
    assert run(bundled("logit_k2_mixture"), out) == 0
    config = parse_config(json.loads(bundled("logit_k2_mixture").read_text()))
    table = derivative_table(config.evaluator, config.max_order, config.scheme)
    expected = {}
    for order in range(1, config.max_order + 1):
        for gamma, (k, idx, mag) in chain_ratios(table, order, config.tau_rel).relevance.items():
            expected[",".join(map(str, gamma))] = {
                "component": k,
                "index": str(idx),
                "magnitude": mag,
            }
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["diagnostics"]["relevance"] == expected


def test_main_entrypoint(tmp_path):
    code = main(
        ["run", "--config", "logit_k2_homogeneous", "--out", str(tmp_path / "o"), "--max-order", "2"]
    )
    assert code == 0


def test_malformed_json_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{ not json")
    assert run(cfg, tmp_path / "out") == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    raw = json.loads(bundled("logit_k2_mixture").read_text())
    raw["extra_block"] = {}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run(cfg, tmp_path / "out") == 1
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("seed", 0), ("asf", {"strategy": "exact"})], ids=["seed", "asf"]
)
def test_removed_keys_are_unknown(tmp_path, capsys, key, value):
    # the ASF is exact, so a run has nothing to seed and no evaluator to pick
    raw = json.loads(bundled("bundle_k2_smoothed").read_text())
    raw[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run(cfg, tmp_path / "out") == 1
    assert f"config error: unknown keys in config: ['{key}']" in capsys.readouterr().err


def test_variant_foreign_key_rejected(tmp_path, capsys):
    raw = json.loads(bundled("logit_k2_mixture").read_text())
    raw["model"]["smoothing"] = 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run(cfg, tmp_path / "out") == 1
    assert "unknown keys" in capsys.readouterr().err


def test_missing_scale_rejected(tmp_path, capsys):
    raw = json.loads(bundled("logit_k2_mixture").read_text())
    del raw["recovery"]["scales"]["3"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run(cfg, tmp_path / "out") == 1


def test_irrelevant_coefficients_exit_two(tmp_path):
    raw = json.loads(bundled("logit_k2_mixture").read_text())
    raw["beta"] = {"type": "discrete", "points": [[0.0, 0.0]], "weights": [1.0]}
    raw.pop("welfare", None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run(cfg, tmp_path / "out") == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failure"]["error"] == "RelevanceError"
    assert summary["results"]["moments"] == {}


def test_failed_rerun_leaves_no_stale_reports(tmp_path):
    out = tmp_path / "out"
    assert run(bundled("logit_k2_mixture"), out) == 0
    raw = json.loads(bundled("logit_k2_mixture").read_text())
    raw["beta"]["points"] = [[0.0] * len(p) for p in raw["beta"]["points"]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run(cfg, out) == 2
    assert {p.name for p in out.iterdir()} == {"summary.json", "run_meta.json"}


def test_reports_are_deterministic(tmp_path):
    for name in ("logit_k2_mixture", "bundle_k2_smoothed"):
        run(bundled(name), tmp_path / f"{name}_a")
        run(bundled(name), tmp_path / f"{name}_b")
        assert read_reports(tmp_path / f"{name}_a") == read_reports(tmp_path / f"{name}_b")


def test_run_meta_counts_asf_work(tmp_path):
    out = tmp_path / "out"
    assert run(bundled("bundle_k2_smoothed"), out) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    for key in ("asf_points", "asf_batches", "stencil_nodes"):
        assert isinstance(meta[key], int) and meta[key] > 0, key
    # the plan evaluates each distinct node once, and one kernel call serves many points
    assert meta["asf_batches"] < meta["asf_points"] < meta["stencil_nodes"]
    # dims (1, 1) to order 2: 2 + 3 derivative classes
    assert meta["table_classes"] == 5
    stages = meta["stage_seconds"]
    assert set(stages) == set(cli.STAGES)
    assert all(isinstance(v, float) and v >= 0 for v in stages.values())
    assert stages["table"] > 0 and stages["reports"] > 0
    # one kernel call each for the center, the table and the one path segment
    config = parse_config(json.loads(bundled("logit_k2_homogeneous").read_text()))
    assert len(config.welfare["path_segments"]) == 1
    out = tmp_path / "homogeneous"
    assert run(bundled("logit_k2_homogeneous"), out) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    plan = table_plan(config.model.dims, config.max_order, config.scheme)
    assert meta["asf_batches"] == 3
    assert meta["asf_points"] == len(plan.offsets) + 1 + 32


def test_v_derivs_csv_has_three_fields_per_row(tmp_path):
    out = tmp_path / "out"
    assert run(bundled("logit_k2_mixture"), out) == 0
    with open(out / "v_derivs.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "value", "split_spread"]
    assert len(rows) > 1 and all(len(row) == 3 for row in rows)
    assert "1,1" in [row[0] for row in rows[1:]]


def test_config_echo_round_trip(tmp_path):
    run(bundled("independence_k2"), tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    config = parse_config(summary["config"])
    assert isinstance(config.model, LogitModel)
    assert config.route == "independence"
    assert config.max_order == 3
    assert config.abs_mean == 1.0
    assert config.tau_rel == pytest.approx(1e-7)


def test_csv_column_order(tmp_path):
    run(bundled("logit_k2_homogeneous"), tmp_path / "out", max_order=1)
    header = (tmp_path / "out" / "moments.csv").read_text().splitlines()[0]
    assert header == "order,index,recovered,true,abs_err,rel_err,route"
    for line in (tmp_path / "out" / "moments.csv").read_text().splitlines():
        assert not line.endswith("\r")


def test_route_override(tmp_path):
    code = run(bundled("logit_k2_mixture"), tmp_path / "out", route="vknown", max_order=2)
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["results"]["moments"]["2"]["route"] == "vknown"
    assert summary["results"]["moments"]["2"]["entries"]["b2.1*b2.1"] == pytest.approx(
        5.0, rel=1e-4
    )


def test_fractional_max_order_argument_exits_one(tmp_path, capsys):
    assert run(bundled("logit_k2_mixture"), tmp_path / "out", max_order=2.7) == 1
    assert capsys.readouterr().err == "config error: recovery.max_order must be an integer\n"
    assert not (tmp_path / "out").exists()


def test_forward_scheme_override(tmp_path):
    code = run(bundled("logit_k2_homogeneous"), tmp_path / "out", scheme="forward", max_order=1)
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["results"]["moments"]["1"]["entries"]["b1.1"] == pytest.approx(1.0, rel=1e-4)


def test_welfare_block_reported(tmp_path):
    run(bundled("logit_k2_homogeneous"), tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    welfare = summary["results"]["welfare"]
    assert welfare["weighting"] == "unweighted"
    assert len(welfare["points"]) == 2
    assert len(welfare["path_integrals"]) == 1
    import math

    truth = math.log((1.0 + math.exp(0.1) + 1.0) / 3.0)
    assert welfare["path_integrals"][0]["value"] == pytest.approx(truth, abs=1e-8)


def test_nonnegative_domain_requires_forward(tmp_path, capsys):
    raw = json.loads(bundled("logit_k2_mixture").read_text())
    raw["model"]["nonnegative_domain"] = True
    raw["recovery"]["max_order"] = 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run(cfg, tmp_path / "out") == 1
    assert "forward" in capsys.readouterr().err
    raw["fd"] = {"kind": "forward"}
    cfg.write_text(json.dumps(raw))
    assert run(cfg, tmp_path / "out2") == 0
    summary = json.loads((tmp_path / "out2" / "summary.json").read_text())
    assert summary["results"]["moments"]["2"]["entries"]["b2.1*b2.1"] == pytest.approx(
        5.0, rel=1e-3
    )


def _set(path, value, *more, names=()):
    """Config edit setting ``path`` to ``value``, and each further
    (path, value) pair of ``more``; ``names`` lists what the error message
    of the edited config must name."""

    def edit(raw):
        for where, what in ((path, value),) + more:
            block = raw
            for key in where[:-1]:
                block = block[key] if isinstance(key, int) else block.setdefault(key, {})
            block[where[-1]] = what

    edit.names = names
    return edit


@pytest.mark.parametrize(
    "name, edit",
    [
        ("logit_k2_mixture", _set(("recovery", "scales"), [1.0, 1.0, 1.0])),
        ("logit_k2_mixture", _set(("recovery", "v_derivs"), [0.25])),
        ("logit_k2_mixture", _set(("recovery", "scales", "1"), "nan")),
        ("logit_k2_mixture", _set(("recovery", "scales", "2"), 0.0)),
        ("logit_k2_mixture", _set(("recovery", "scales"), {"1": 1.0, "2": 1.0})),
        ("logit_k2_mixture", _set(("recovery", "tau_rel"), "nan")),
        ("logit_k2_mixture", _set(("recovery", "tau_rel"), -1.0)),
        ("independence_k2", _set(("recovery", "abs_mean"), 0.0)),
        (
            "bundle_k2_smoothed",
            _set(("recovery", "route"), "vknown", (("model", "smoothing"), None)),
        ),
        (
            "logit_k2_homogeneous",
            _set(
                ("recovery", "route"),
                "vknown",
                (("model", "index_form"), "power"),
                (("model", "center"), [1.0, 1.0]),
            ),
        ),
        ("logit_k2_mixture", _set(("welfare", "points"), [["a", 0.1]])),
        ("logit_k2_mixture", _set(("welfare", "points"), [[0.1]])),
        ("logit_k2_mixture", _set(("welfare", "path_segments"), [[[0.0, 0.0]]])),
        ("logit_k2_mixture", _set(("welfare", "path_segments"), [[[0.0, 0.0], [0.1]]])),
        ("logit_k2_mixture", _set(("diagnostics",), {"cauchy_schwarz": True})),
        ("logit_k2_homogeneous", _set(("welfare", "weighting"), "bogus")),
        ("logit_k2_mixture", _set(("model", "outside_good"), "no")),
        (
            "logit_k2_mixture",
            _set(("model", "nonnegative_domain"), "no", (("fd", "kind"), "forward")),
        ),
        ("logit_k2_mixture", _set(("recovery", "max_order"), 2.5)),
        ("logit_k2_mixture", _set(("fd", "richardson_levels"), 1.7)),
        ("logit_k2_homogeneous", _set(("welfare", "trust_radius"), -0.5)),
        ("logit_k2_mixture", _set(("fd", "base_step"), float("nan"))),
        ("logit_k2_mixture", _set(("model", "dims"), [1.5, 1])),
        ("logit_k2_mixture", _set(("model", "dims"), [True, 1])),
        ("logit_k2_mixture", _set(("fd", "richardson_levels"), 1e308)),
        ("independence_k2", _set(("recovery", "max_order"), 1e308)),
        (
            "bundle_k2_smoothed",
            _set(
                ("model", "scenarios"),
                [{"weight": 1.0, "intercepts": [0.5, -0.3], "complementarities": [[1.5, 2, 0.4]]}],
            ),
        ),
        ("bundle_k2_smoothed", _set(("model", "smoothing"), True)),
        ("bundle_k2_smoothed", _set(("model", "smoothing"), float("nan"))),
        ("bundle_k2_smoothed", _set(("model", "smoothing"), float("inf"))),
        ("logit_k2_homogeneous", _set(("welfare", "trust_radius"), True)),
        ("logit_k2_mixture", _set(("recovery", "tau_rel"), True)),
        ("logit_k2_mixture", _set(("fd", "base_step"), True)),
        ("independence_k2", _set(("recovery", "abs_mean"), True)),
        ("logit_k2_mixture", _set(("recovery", "scales", "2"), True)),
        ("logit_k2_mixture", _set(("model", "center"), [True, 0.0])),
        ("logit_k2_mixture", _set(("welfare", "points"), [[True, 0.0]])),
        ("logit_k2_mixture", _set(("welfare", "points"), [["0.1", 0.0]])),
        ("logit_k2_mixture", _set(("beta", "points"), [[True, 1.0], [1.0, 3.0]])),
        (
            "independence_k2",
            _set(("beta", "marginals"), [{"values": [True, 2.0], "weights": [0.5, 0.5]}] * 2),
        ),
        (
            "logit_k2_homogeneous",
            _set(
                ("model",),
                {
                    "type": "logit",
                    "dims": [1, 1],
                    "alphas": [0.3, -0.2],
                    "outside_good": True,
                    "index_form": "power",
                    "center": [1.0, 1.0],
                },
                (("beta", "points"), [[1.0, 1.5], [2.0, 0.5]]),
                (("beta", "weights"), [0.5, 0.5]),
                (("recovery", "max_order"), 3),
                (("recovery", "scales"), {"1": 1.5, "2": 2.5, "3": 4.5}),
                (("welfare",), None),
            ),
        ),
        ("logit_k2_mixture", _set(("beta", "points", 0, 0), float("nan"))),
        ("logit_k2_mixture", _set(("beta", "weights", 1), float("nan"))),
        ("independence_k2", _set(("beta", "marginals", 1, "values", 0), float("inf"))),
        ("independence_k2", _set(("model", "alphas", 0), float("-inf"))),
        ("bundle_k2_smoothed", _set(("model", "scenarios", 2, "weight"), float("nan"))),
        ("bundle_k2_smoothed", _set(("model", "scenarios", 0, "intercepts", 1), float("inf"))),
        (
            "bundle_k2_smoothed",
            _set(("model", "scenarios", 1, "complementarities", 0, 2), float("-inf")),
        ),
        ("logit_k2_mixture", _set(("model", "alphas", 1), 10**400)),
        (
            "independence_k2",
            _set(
                ("beta", "marginals"),
                [{"values": [0.5, 1.5], "weights": [0.5, 0.5], "extra": 1}] * 2,
                names=("beta.marginals[]", "extra"),
            ),
        ),
        (
            "logit_k2_mixture",
            _set(("beta",), {"type": "discrete", "weights": [0.5, 0.5]}, names=("beta", "points")),
        ),
        # beyond any memory: the beta's length check must come before the model allocates
        ("logit_k2_mixture", _set(("model", "dims"), [10**12, 1], names=("1000000000001",))),
        (
            "logit_k2_mixture",
            _set(
                ("recovery", "route"),
                "vknown",
                (("recovery", "v_derivs"), {"0,1": 1.0}),
                names=("recovery.v_derivs", "'0,1'"),
            ),
        ),
        (
            "logit_k2_mixture",
            _set(("recovery", "v_derivs"), {"1,3": 1.0}, names=("recovery.v_derivs", "'1,3'")),
        ),
        (
            "logit_k2_mixture",
            _set(("recovery", "v_derivs"), {"1": 1.0}, names=("recovery.v_derivs", "'1'")),
        ),
        (
            "logit_k2_mixture",
            _set(("recovery", "v_derivs"), {"a,b": 1.0}, names=("recovery.v_derivs", "'a,b'")),
        ),
        (
            "logit_k2_mixture",
            _set(
                ("recovery", "v_derivs"),
                {"1,2": -0.1, "2,1": -0.2},
                names=("recovery.v_derivs", "(1, 2) twice"),
            ),
        ),
        (
            "logit_k2_mixture",
            _set(("recovery", "scales", "0"), 1.0, names=("recovery.scales", "'0'")),
        ),
        (
            "logit_k2_mixture",
            _set(("recovery", "scales", "9"), 1.0, names=("recovery.scales", "'9'")),
        ),
        ("logit_k2_mixture", _set(("model", "dims"), 2, names=("model.dims",))),
        (
            "logit_k2_mixture",
            _set(("beta", "points"), [[1.0, 1.0], [1.0]], names=("beta.points[]", "got 1")),
        ),
        (
            "bundle_k2_smoothed",
            _set(
                ("model", "scenarios", 0, "complementarities"),
                [[1, 2]],
                names=("model.scenarios[].complementarities[]", "got 2"),
            ),
        ),
        ("logit_k2_mixture", _set(("model", "alphas"), 3, names=("model.alphas",))),
        ("bundle_k2_smoothed", _set(("model", "lattice"), 3, names=("model.lattice",))),
        ("bundle_k2_smoothed", _set(("model", "lattice"), [3], names=("model.lattice[]",))),
        ("bundle_k2_smoothed", _set(("model", "scenarios"), 3, names=("model.scenarios",))),
        (
            "bundle_k2_smoothed",
            _set(
                ("model", "scenarios", 0, "intercepts"),
                3,
                names=("model.scenarios[].intercepts",),
            ),
        ),
        (
            "bundle_k2_smoothed",
            _set(
                ("model", "scenarios", 5, "consideration"),
                3,
                names=("model.scenarios[].consideration",),
            ),
        ),
        (
            "bundle_k2_smoothed",
            _set(
                ("model", "scenarios", 5, "consideration"),
                [3],
                names=("model.scenarios[].consideration[]",),
            ),
        ),
        ("logit_k2_mixture", _set(("beta", "weights"), 3, names=("beta.weights",))),
        ("independence_k2", _set(("beta", "marginals"), 3, names=("beta.marginals",))),
        (
            "independence_k2",
            _set(("beta", "marginals", 0, "values"), 3, names=("beta.marginals[].values",)),
        ),
        (
            "independence_k2",
            _set(("beta", "marginals", 1, "weights"), 3, names=("beta.marginals[].weights",)),
        ),
        ("logit_k2_mixture", _set(("welfare", "points"), 3, names=("welfare.points",))),
        (
            "logit_k2_mixture",
            _set(("welfare", "path_segments"), 3, names=("welfare.path_segments",)),
        ),
    ],
    ids=[
        "scales_list",
        "v_derivs_list",
        "scale_nan",
        "scale_zero",
        "scale_missing",
        "tau_rel_nan",
        "tau_rel_negative",
        "abs_mean_zero",
        "vknown_without_v_derivs",
        "vknown_power_index",
        "welfare_point_non_numeric",
        "welfare_point_wrong_length",
        "path_segment_one_vector",
        "path_segment_wrong_length",
        "diagnostics_block",
        "welfare_weighting_unknown",
        "outside_good_string",
        "nonnegative_domain_string",
        "max_order_fractional",
        "richardson_levels_fractional",
        "trust_radius_negative",
        "base_step_nan",
        "dims_fractional",
        "dims_boolean",
        "richardson_levels_huge",
        "max_order_huge",
        "complementarity_good_fractional",
        "smoothing_boolean",
        "smoothing_nan",
        "smoothing_infinite",
        "trust_radius_boolean",
        "tau_rel_boolean",
        "base_step_boolean",
        "abs_mean_boolean",
        "scale_boolean",
        "center_boolean",
        "welfare_point_boolean",
        "welfare_point_string",
        "beta_point_boolean",
        "marginal_value_boolean",
        "power_index_order_three",
        "beta_point_nan",
        "beta_weight_nan",
        "marginal_value_infinite",
        "alpha_negative_infinite",
        "scenario_weight_nan",
        "intercept_infinite",
        "complementarity_negative_infinite",
        "alpha_integer_beyond_float_range",
        "marginal_unknown_key",
        "discrete_beta_without_points",
        "dims_beyond_memory",
        "v_derivs_good_zero",
        "v_derivs_good_beyond_k",
        "v_derivs_one_good",
        "v_derivs_good_not_integer",
        "v_derivs_conflicting_orderings",
        "scales_order_zero",
        "scales_order_nine",
        "dims_number",
        "beta_points_ragged",
        "complementarity_pair_only",
        "alphas_number",
        "lattice_number",
        "lattice_entry_number",
        "scenarios_number",
        "intercepts_number",
        "consideration_number",
        "consideration_entry_number",
        "beta_weights_number",
        "marginals_number",
        "marginal_values_number",
        "marginal_weights_number",
        "welfare_points_number",
        "path_segments_number",
    ],
)
def test_invalid_config_exits_one(tmp_path, capsys, name, edit):
    raw = json.loads(bundled(name).read_text())
    edit(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err
    for word in edit.names:
        assert word in err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "block, flag",
    [
        (None, ("--max-order", "2")),
        ("recovery", ("--max-order", "2")),
        ("recovery", ("--route", "scale")),
        ("fd", ("--scheme", "forward")),
    ],
)
def test_override_into_a_non_object_exits_one(tmp_path, capsys, block, flag):
    # a command-line override writes into its block only once the block is
    # known to be an object; ``None`` replaces the whole config by an array
    raw = [] if block is None else {**json.loads(bundled("logit_k2_mixture").read_text()), block: 5}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *flag]) == 1
    assert capsys.readouterr().err == f"config error: {block or 'config'} must be an object\n"


@pytest.mark.parametrize("case", ["out_is_a_file", "out_under_a_file", "report_is_a_directory"])
def test_unusable_out_exits_one(tmp_path, capsys, case):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out, named = {
        "out_is_a_file": (blocker, blocker),
        "out_under_a_file": (blocker / "out", blocker / "out"),
        "report_is_a_directory": (tmp_path / "out", tmp_path / "out" / "moments.csv"),
    }[case]
    if case == "report_is_a_directory":
        named.mkdir(parents=True)
    assert main(["run", "--config", "logit_k2_homogeneous", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(named) in err


def test_power_index_scale_route_run(tmp_path):
    # at the all-ones center the order-1 chain reads mean-exponent ratios
    raw = {
        "model": {
            "type": "logit",
            "dims": [1, 1],
            "center": [1.0, 1.0],
            "alphas": [0.3, -0.2],
            "outside_good": True,
            "index_form": "power",
        },
        "beta": {"type": "discrete", "points": [[1.0, 2.0], [1.5, 0.5]], "weights": [0.5, 0.5]},
        "recovery": {"route": "scale", "max_order": 1, "scales": {"1": 1.25}},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failure"] is None
    assert summary["results"]["moments"]["1"]["entries"]["b2.1"] == pytest.approx(1.25, abs=1e-6)


def test_wrong_sign_scale_failing_convexity_exits_two(tmp_path):
    # a negative first-order scale flips the sign of every first moment,
    # so the recovered own curvature of the value function comes out negative
    raw = json.loads(bundled("bundle_k2_smoothed").read_text())
    raw["recovery"]["scales"]["1"] = -1.5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    command = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    # the child process imports rcpum from wherever this one did
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "rcpum.cli", *command], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    failure = json.loads((tmp_path / "out" / "summary.json").read_text())["failure"]
    assert failure["stage"] == "v_derivatives"
    assert failure["error"] == "PreconditionError"
    assert "recovered diagonal entry (1, 1)" in failure["message"]
    assert "violates convexity" in failure["message"]


def test_vknown_route_reads_kernel_partials_on_smoothed_bundle(tmp_path):
    assert run(bundled("bundle_k2_smoothed"), tmp_path / "out", route="vknown") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for block in summary["results"]["moments"].values():
        assert block["route"] == "vknown"
        for idx, value in block["entries"].items():
            assert value == pytest.approx(block["true"][idx], rel=1e-6), idx


@pytest.mark.parametrize(
    "model, message",
    [
        (
            {
                "type": "tabulated",
                "dims": [1, 1],
                "weights": [1.0],
                "tables": [{"[0, 0]": 0.0, "[1, 0]": 0.2, "[0, 1]": -0.1}],
            },
            "unknown model type 'tabulated'",
        ),
        (
            {"type": "bundle", "dims": [1, 1], "scenarios": [{"weight": 1.0, "intercepts": [0, 1]}]},
            "without it the choice is a hard argmax, whose mean demand is piecewise constant, "
            "so its derivatives at the center identify no moment",
        ),
        (
            {"type": "logit", "dims": [1, 1], "index_form": "power", "center": [1.0, 1.0]},
            "vknown route needs recovery.v_derivs for a power-index logit",
        ),
    ],
    ids=["tabulated", "hard_argmax_bundle", "power_index_logit"],
)
def test_vknown_without_v_derivs_names_the_cause(model, message):
    raw = {
        "model": model,
        "beta": {"type": "discrete", "points": [[1.0, 1.0]], "weights": [1.0]},
        "recovery": {"route": "vknown", "max_order": 1},
    }
    with pytest.raises(ConfigurationError, match=message):
        parse_config(raw)


def _run_tie_at_center(tmp_path, model):
    raw = {
        "model": model,
        "beta": {"type": "discrete", "points": [[1.0, 1.0], [1.0, 3.0]], "weights": [0.5, 0.5]},
        "recovery": {"route": "scale", "max_order": 2, "scales": {"1": 1.0, "2": 1.0}},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code = run(cfg, tmp_path / "out")
    assert not (tmp_path / "out" / "summary.json").exists()
    return code


def test_hard_argmax_tie_at_center_exits_one(tmp_path, capsys):
    # every bundle ties at the center, so finite differences of the hard
    # argmax would straddle the jumps of a piecewise-constant mean demand
    model = {"type": "bundle", "dims": [1, 1], "scenarios": [{"weight": 1.0, "intercepts": [0, 0]}]}
    assert _run_tie_at_center(tmp_path, model) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bundle smoothing must be a positive finite Gumbel scale")
    assert "hard argmax, whose mean demand is piecewise constant" in err


def test_tabulated_model_type_is_unknown(tmp_path, capsys):
    model = {
        "type": "tabulated",
        "dims": [1, 1],
        "weights": [1.0],
        "tables": [{"[0, 0]": 0.0, "[1, 0]": 0.0, "[0, 1]": 0.0}],
    }
    assert _run_tie_at_center(tmp_path, model) == 1
    assert "config error: unknown model type 'tabulated'" in capsys.readouterr().err


def test_independence_route_keeps_orders_below_an_irrelevant_one(tmp_path):
    # E[beta_2^3] = -8/9 + 8/9 = 0, so order 3 has no relevant entry
    raw = json.loads(bundled("independence_k2").read_text())
    raw["beta"]["marginals"][1] = {"values": [-2.0, 1.0], "weights": [1 / 9, 8 / 9]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run(cfg, out) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"]["error"] == "RelevanceError"
    assert "(2, 2, 2)" in summary["failure"]["message"]
    assert sorted(summary["results"]["moments"]) == ["1", "2"]
    with open(out / "moments.csv", newline="", encoding="utf-8") as fh:
        orders = {row["order"] for row in csv.DictReader(fh)}
    assert orders == {"1", "2"}


@pytest.mark.parametrize(
    "name, route, edit, chains, stage",
    [
        ("logit_k2_mixture", None, None, [1, 2, 3], None),
        ("independence_k2", None, None, [1, 2, 3], None),
        ("bundle_k2_smoothed", None, None, [1, 2], None),
        # order 2 has no entry above the threshold: recovery stops there
        ("independence_k2", None, _set(("recovery", "tau_rel"), 0.05), [1, 2], "recovery order 2"),
        # the vknown route divides by value-function partials and chains nothing
        ("logit_k2_mixture", "vknown", None, [], None),
    ],
    ids=["scale", "independence", "bundle_scale", "independence_failing", "vknown"],
)
def test_run_chains_each_order_at_most_once(
    tmp_path, monkeypatch, name, route, edit, chains, stage
):
    chained = []
    chain = recovery.chain_ratios

    def counting(table, order, *args, **kwargs):
        chained.append(order)
        return chain(table, order, *args, **kwargs)

    monkeypatch.setattr(recovery, "chain_ratios", counting)
    monkeypatch.setattr(cli, "chain_ratios", counting)
    raw = json.loads(bundled(name).read_text())
    if edit is not None:
        edit(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run(cfg, tmp_path / "out", route=route) == (0 if stage is None else 2)
    assert chained == chains
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["failure"] or {}).get("stage") == stage
    # the relevance map holds the chains of the reported orders, none of a failing one
    reported = chains[:-1] if stage else chains
    relevance = summary["results"]["diagnostics"]["relevance"]
    assert {len(gamma.split(",")) for gamma in relevance} == set(reported)


def test_failing_order_keeps_the_orders_below(tmp_path):
    raw = json.loads(bundled("independence_k2").read_text())
    raw["recovery"]["tau_rel"] = 0.05
    summaries = {}
    for max_order in (3, 1):
        raw["recovery"]["max_order"] = max_order
        cfg = tmp_path / f"cfg{max_order}.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / f"out{max_order}"
        run(cfg, out)
        summaries[max_order] = json.loads((out / "summary.json").read_text())
    assert summaries[3]["failure"]["stage"] == "recovery order 2"
    assert summaries[1]["failure"] is None
    results = {m: summary["results"] for m, summary in summaries.items()}
    assert list(results[3]["moments"]) == ["1"]
    assert results[3]["moments"] == results[1]["moments"]
    assert results[3]["diagnostics"]["relevance"] == results[1]["diagnostics"]["relevance"]


def test_product_weights_are_checked_per_marginal():
    # each marginal sums to 1 + 0.9e-12, inside the tolerance; their product
    # sums to about 1 + 1.8e-12, outside it, and is kept as it is
    raw = json.loads(bundled("independence_k2").read_text())
    for m in raw["beta"]["marginals"]:
        m["weights"] = [0.5, 0.5 + 0.9e-12]
    beta = parse_config(raw).beta
    assert beta.weights.sum() - 1.0 > WEIGHT_TOL
    assert beta.weights[-1] == (0.5 + 0.9e-12) * (0.5 + 0.9e-12)
    raw["beta"]["marginals"][1]["weights"] = [0.5, 0.5 + 2e-12]
    with pytest.raises(ConfigurationError, match="beta.marginals: weights sum"):
        parse_config(raw)


def test_oversized_product_exits_one_before_building_its_support(tmp_path, capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("the product support was built")

    monkeypatch.setattr(itertools, "product", build)
    n = MAX_PRODUCT_SUPPORT.bit_length()  # 2**n support points, more than the cap
    raw = json.loads(bundled("independence_k2").read_text())
    raw["model"]["dims"] = [n - 1, 1]
    raw["beta"]["marginals"] = [{"values": [0.5, 1.5], "weights": [0.5, 0.5]}] * n
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run(cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        f"config error: beta.marginals: a product of {2**n} points, "
        f"more than {MAX_PRODUCT_SUPPORT}\n"
    )


def test_resolve_config_path_passthrough(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{}")
    assert resolve_config_path(str(p)) == p
    assert str(resolve_config_path("no_such_bundle")).endswith("no_such_bundle")

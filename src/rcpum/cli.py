"""Declarative scenario runner.

Parses a JSON configuration naming a model, a coefficient distribution, a
finite-difference scheme, a recovery route, and an optional welfare
request; runs the pipeline; and writes one file per kind of output:

- ``moments.csv``: every recovered moment, one row each, sorted by order
  and then index;
- ``v_derivs.csv``: the value-function partials;
- ``summary.json``: the config echo, the failure record and every result,
  diagnostics and their relevance map included;
- ``run_meta.json``: wall-clock data, per-stage seconds among them, and
  work counters.

The first three are byte-identical across runs with the same config:
nothing in the pipeline is random.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .asf import AsfEvaluator
from .diagnostics import build_report
from .distributions import DiscreteBeta, ProductBeta, UnivariateAtoms, true_moments
from .exceptions import (
    AnchorError,
    ConfigurationError,
    EvaluationError,
    PreconditionError,
    RelevanceError,
    WeightingError,
)
from .models import BundleModel, BundleScenario, LogitModel
from .numdiff import MAX_ORDER, FdScheme, derivative_table
from .recovery import (
    DEFAULT_TAU_REL,
    VDerivTable,
    chain_ratios,  # unused here: bench/tracing.py wraps it, tests/test_bench_contract.py checks it
    recover_moments_independence,
    recover_moments_scale,
    recover_moments_vknown,
    recover_v_derivatives,
)
from .welfare import (
    WEIGHTINGS,
    TaylorVModel,
    average_indirect_utility,
    default_trust_radius,
    path_integral_v,
)

_RUN_FAILURES = (
    RelevanceError,
    AnchorError,
    PreconditionError,
    WeightingError,
    EvaluationError,
)


def _expect_keys(block, where, required=(), optional=()):
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be an object")
    allowed = set(required) | set(optional)
    unknown = set(block) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigurationError(f"missing keys in {where}: {sorted(missing)}")


def _flag(block, key, where):
    """An optional JSON boolean, False when absent or null."""
    value = block.get(key)
    if value is None:
        return False
    if not isinstance(value, bool):
        raise ConfigurationError(f"{where}.{key} must be true or false")
    return value


def _integer(value, where):
    """A JSON integer; integral floats are accepted, booleans are not."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigurationError(f"{where} must be an integer")
    return int(value)


def _number(value, where):
    """A finite JSON number as a float; booleans and strings are not
    numbers, and NaN and the infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{where} must be a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigurationError(f"{where} must be finite, got {x}")
    return x


def _array(value, where, length=None):
    """A JSON array, with ``length`` entries when that is given."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{where} must be an array")
    if length is not None and len(value) != length:
        raise ConfigurationError(f"{where} must have {length} entries, got {len(value)}")
    return value


def _numbers(values, where, length=None):
    """A JSON array of numbers, with ``length`` entries when that is given,
    as a tuple of floats."""
    return tuple(_number(v, f"{where}[]") for v in _array(values, where, length))


_MODEL_KEYS = {
    "logit": ("alphas", "outside_good", "index_form"),
    "bundle": ("scenarios", "lattice", "smoothing"),
}


def _model_dims(block):
    """The model block's keys checked and its ``dims`` read, before anything
    of ``sum(dims)`` rows is built."""
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigurationError("model must be an object with a 'type' key")
    kind = block["type"]
    if kind not in _MODEL_KEYS:
        raise ConfigurationError(f"unknown model type {kind!r}")
    _expect_keys(
        block,
        "model",
        required=("type", "dims"),
        optional=("center", "nonnegative_domain") + _MODEL_KEYS[kind],
    )
    return tuple(_integer(d, "model.dims[]") for d in _array(block["dims"], "model.dims"))


def _build_model(block, dims):
    common = dict(
        dims=dims,
        center=None
        if block.get("center") is None
        else _covariates(block["center"], sum(dims), "model.center"),
        nonnegative_domain=_flag(block, "nonnegative_domain", "model"),
    )
    if block["type"] == "logit":
        return LogitModel(
            alphas=_numbers(block.get("alphas", (0.0,) * len(dims)), "model.alphas"),
            outside_good=_flag(block, "outside_good", "model"),
            index_form=block.get("index_form", "linear"),
            **common,
        )
    scens = []
    triple = "model.scenarios[].complementarities[]"
    pair = f"{triple} goods"
    consider = "model.scenarios[].consideration"
    for s in _array(block.get("scenarios", ()), "model.scenarios"):
        _expect_keys(
            s,
            "model.scenarios[]",
            required=("weight", "intercepts"),
            optional=("complementarities", "consideration"),
        )
        comps = []
        for c in _array(s.get("complementarities", []), "model.scenarios[].complementarities"):
            j, k, v = _array(c, triple, 3)
            comps.append((_integer(j, pair), _integer(k, pair), _number(v, f"{triple} values")))
        consideration = s.get("consideration")
        if consideration is not None:
            consideration = frozenset(
                _numbers(y, f"{consider}[]") for y in _array(consideration, consider)
            )
        scens.append(
            BundleScenario(
                weight=_number(s["weight"], "model.scenarios[].weight"),
                intercepts=_numbers(s["intercepts"], "model.scenarios[].intercepts"),
                complementarities=tuple(comps),
                consideration=consideration,
            )
        )
    lattice = block.get("lattice")
    smoothing = block.get("smoothing")
    return BundleModel(
        scenarios=tuple(scens),
        lattice=None
        if lattice is None
        else tuple(_numbers(y, "model.lattice[]") for y in _array(lattice, "model.lattice")),
        smoothing=None if smoothing is None else _number(smoothing, "model.smoothing"),
        **common,
    )


_BETA_KEYS = {"discrete": ("points", "weights"), "product": ("marginals",)}


def _build_beta(block, dims):
    """The coefficient distribution; both types check their length against
    ``sum(dims)`` without allocating anything of that size."""
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigurationError("beta must be an object with a 'type' key")
    kind = block["type"]
    if kind not in _BETA_KEYS:
        raise ConfigurationError(f"unknown beta distribution type {kind!r}")
    _expect_keys(block, "beta", required=("type",) + _BETA_KEYS[kind])
    if kind == "discrete":
        n = sum(dims)
        points = [_numbers(p, "beta.points[]", n) for p in _array(block["points"], "beta.points")]
        return DiscreteBeta(dims, points, _numbers(block["weights"], "beta.weights"))
    marginals = []
    for m in _array(block["marginals"], "beta.marginals"):
        _expect_keys(m, "beta.marginals[]", required=("values", "weights"))
        marginals.append(
            UnivariateAtoms(
                _numbers(m["values"], "beta.marginals[].values"),
                _numbers(m["weights"], "beta.marginals[].weights"),
            )
        )
    return ProductBeta(dims, tuple(marginals))


def _build_scheme(block):
    if block is None:
        return FdScheme()
    _expect_keys(block, "fd", optional=("kind", "base_step", "richardson_levels"))
    return FdScheme(
        kind=block.get("kind", "central"),
        base_step=None
        if block.get("base_step") is None
        else _number(block["base_step"], "fd.base_step"),
        richardson_levels=None
        if block.get("richardson_levels") is None
        else _integer(block["richardson_levels"], "fd.richardson_levels"),
    )


def _optional_object(block, key, where):
    value = block.get(key)
    if value is not None and not isinstance(value, dict):
        raise ConfigurationError(f"{where}.{key} must be an object")
    return value or {}


def _keyed_numbers(rec, key, what, upper, lengths):
    """``recovery.<key>`` as numbers keyed by sorted tuples: each JSON key
    lists comma-separated integers from 1 to ``upper``, as many as one of
    ``lengths``, and keys naming one tuple must agree."""
    where = f"recovery.{key}"
    out = {}
    for k, v in _optional_object(rec, key, "recovery").items():
        try:
            ints = tuple(sorted(int(part) for part in k.split(",")))
        except ValueError:
            ints = ()
        if len(ints) not in lengths or not all(1 <= i <= upper for i in ints):
            raise ConfigurationError(f"{where} keys must be {what}, got {k!r}")
        value = _number(v, f"{where}[{k}]")
        if out.setdefault(ints, value) != value:
            raise ConfigurationError(f"{where} gives {ints} twice: {out[ints]} and {value}")
    return out


def _covariates(value, n, where):
    return np.array(_numbers(value, where, n))


def _parse_welfare(block, n):
    """Welfare request with covariate points and path segments as arrays."""
    _expect_keys(
        block, "welfare", optional=("points", "weighting", "trust_radius", "path_segments")
    )
    segments = []
    for seg in _array(block.get("path_segments", []), "welfare.path_segments"):
        pair = _array(seg, "welfare.path_segments[]", 2)
        segments.append(tuple(_covariates(x, n, "welfare.path_segments[][]") for x in pair))
    weighting = block.get("weighting", "unweighted")
    if weighting not in WEIGHTINGS:
        raise ConfigurationError(f"welfare.weighting must be one of {list(WEIGHTINGS)}")
    radius = block.get("trust_radius")
    if radius is not None:
        radius = _number(radius, "welfare.trust_radius")
        if radius <= 0:
            raise ConfigurationError("welfare.trust_radius must be positive")
    return {
        "points": [
            _covariates(x, n, "welfare.points[]")
            for x in _array(block.get("points", []), "welfare.points")
        ],
        "weighting": weighting,
        "trust_radius": radius,
        "path_segments": segments,
    }


@dataclass
class ScenarioConfig:
    """Validated configuration with the objects the pipeline consumes."""

    model: object
    beta: object
    scheme: FdScheme
    route: str
    max_order: int
    scales: dict
    abs_mean: float | None
    v_derivs: VDerivTable | None
    tau_rel: float
    welfare: dict | None
    evaluator: AsfEvaluator
    echo: dict


def parse_config(raw):
    """Validate a raw config dict; unknown keys are rejected."""
    _expect_keys(
        raw,
        "config",
        required=("model", "beta", "recovery"),
        optional=("fd", "welfare"),
    )
    # the beta is built first: its length check rejects a huge dims before
    # the model allocates a centre and a good-sum matrix of sum(dims) rows
    dims = _model_dims(raw["model"])
    beta = _build_beta(raw["beta"], dims)
    model = _build_model(raw["model"], dims)

    rec = raw["recovery"]
    _expect_keys(
        rec,
        "recovery",
        required=("route", "max_order"),
        optional=("scales", "abs_mean", "tau_rel", "v_derivs"),
    )
    route = rec["route"]
    if route not in ("scale", "independence", "vknown"):
        raise ConfigurationError(f"unknown recovery route {route!r}")
    max_order = _integer(rec["max_order"], "recovery.max_order")
    if not 1 <= max_order <= MAX_ORDER:
        raise ConfigurationError(f"recovery.max_order must be between 1 and {MAX_ORDER}")
    power_index = getattr(model, "index_form", "linear") == "power"
    if power_index and max_order > 1:
        raise ConfigurationError(
            "power indices are first order only: the n-th derivative of x**rho at x = 1 is "
            "the falling factorial rho(rho-1)...(rho-n+1), not rho**n, so a derivative that "
            "repeats a shifter mixes in lower-order moments"
        )
    orders = f"orders from 1 to {MAX_ORDER}"
    scales = {
        m: v for (m,), v in _keyed_numbers(rec, "scales", orders, MAX_ORDER, (1,)).items()
    }
    if route == "scale":
        for m in range(1, max_order + 1):
            if not scales.get(m):
                raise ConfigurationError(f"scale route needs a nonzero recovery.scales[{m}]")
    abs_mean = rec.get("abs_mean")
    abs_mean = None if abs_mean is None else _number(abs_mean, "recovery.abs_mean")
    if route == "independence" and not (abs_mean is not None and abs_mean > 0):
        raise ConfigurationError("independence route needs a positive recovery.abs_mean")
    v_derivs = None
    if rec.get("v_derivs") is not None:
        goods = f"lists of 2 to {MAX_ORDER + 1} goods from 1 to {len(dims)}"
        v_derivs = VDerivTable(
            _keyed_numbers(rec, "v_derivs", goods, len(dims), range(2, MAX_ORDER + 2))
        )
    if route == "vknown" and v_derivs is None:
        # the kernel's exact partials serve every linear-index model
        if power_index:
            raise ConfigurationError("vknown route needs recovery.v_derivs for a power-index logit")
        v_derivs = VDerivTable(model.kernel.value_partials(max_order + 1))
    tau_rel = _number(rec.get("tau_rel", DEFAULT_TAU_REL), "recovery.tau_rel")
    if tau_rel <= 0:
        raise ConfigurationError("recovery.tau_rel must be positive")

    welfare = raw.get("welfare")
    if welfare is not None:
        welfare = _parse_welfare(welfare, sum(dims))

    scheme = _build_scheme(raw.get("fd"))
    if model.nonnegative_domain and scheme.kind != "forward":
        raise ConfigurationError("nonnegative-orthant models require the forward scheme")

    return ScenarioConfig(
        model=model,
        beta=beta,
        scheme=scheme,
        route=route,
        max_order=max_order,
        scales=scales,
        abs_mean=abs_mean,
        v_derivs=v_derivs,
        tau_rel=tau_rel,
        welfare=welfare,
        evaluator=AsfEvaluator(model, beta),
        echo=raw,
    )


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _recover(config, table):
    """Recover order by order with the configured route, stopping at the
    first order that fails.

    Returns (tables keyed by order, failure record or None); the orders
    below a failing one are kept.
    """
    tables = {}
    for order in range(1, config.max_order + 1):
        try:
            if config.route == "scale":
                tables[order] = recover_moments_scale(
                    table, order, config.scales[order], config.tau_rel
                )
            elif config.route == "independence":
                tables[order] = recover_moments_independence(
                    table, order, config.abs_mean, tables.get(order - 1), config.tau_rel
                )
            else:
                tables[order] = recover_moments_vknown(
                    table, config.v_derivs, order, config.tau_rel
                )
        except _RUN_FAILURES as exc:
            return tables, _failure_record(f"recovery order {order}", exc)
    return tables, None


def _failure_record(stage, exc):
    return {"stage": stage, "error": type(exc).__name__, "message": str(exc)}


STAGES = ("parse", "table", "recovery", "v_derivatives", "welfare", "diagnostics", "reports")


class _StageClock:
    """Wall seconds per pipeline stage; each lap is charged to the stage
    that just ended."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self._last = time.perf_counter()

    def lap(self, stage):
        now = time.perf_counter()
        self.seconds[stage] += now - self._last
        self._last = now


def run(config_path, out_dir, max_order=None, scheme=None, route=None):
    """Execute one scenario; returns the process exit code."""
    started = time.time()
    clock = _StageClock()
    try:
        raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if max_order is not None:
            _override(raw, "recovery", "max_order", int(max_order))
        if scheme is not None:
            _override(raw, "fd", "kind", scheme)
        if route is not None:
            _override(raw, "recovery", "route", route)
        config = parse_config(raw)
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _output_error(exc, out)
    clock.lap("parse")

    evaluator = config.evaluator
    failure = None
    moment_tables = {}
    v_table = None
    welfare_out = None
    table = None
    # mean demand at the center: the Taylor gradient and summary.json's asf_center
    asf_center = evaluator.asf(config.model.center)
    try:
        table = derivative_table(evaluator, config.max_order, config.scheme)
    except _RUN_FAILURES as exc:
        failure = _failure_record("derivative_table", exc)
    clock.lap("table")

    if table is not None:
        moment_tables, failure = _recover(config, table)
    clock.lap("recovery")

    all_moments = {}
    for mt in moment_tables.values():
        all_moments.update(mt.entries)
    if table is not None and all_moments:
        try:
            v_table = recover_v_derivatives(table, all_moments, config.tau_rel)
        except _RUN_FAILURES as exc:
            failure = failure or _failure_record("v_derivatives", exc)
    clock.lap("v_derivatives")

    if config.welfare is not None and v_table is not None and failure is None:
        try:
            welfare_out = _run_welfare(config, evaluator, asf_center, v_table)
        except _RUN_FAILURES + (ConfigurationError,) as exc:
            failure = _failure_record("welfare", exc)
    clock.lap("welfare")

    report = None
    if table is not None:
        # the chains that the reported moments came from
        relevance = {}
        for mt in moment_tables.values():
            relevance.update(mt.relevance)
        report = build_report(
            table,
            v_derivs=v_table,
            relevance=relevance,
            tau_rel=config.tau_rel,
        )
    clock.lap("diagnostics")

    try:
        _write_reports(out, config, asf_center, moment_tables, v_table, welfare_out, report, failure)
        clock.lap("reports")
        meta = {
            "started_unix": started,
            "elapsed_seconds": time.time() - started,
            "stage_seconds": clock.seconds,
            "asf_points": evaluator.points_evaluated,
            "asf_batches": evaluator.kernel_calls,
            "stencil_nodes": 0 if table is None else table.stencil_nodes,
            "table_classes": 0 if table is None else len(table.entries) // len(table.dims),
        }
        (out / "run_meta.json").write_text(
            json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        return _output_error(exc, out)
    return 2 if failure is not None else 0


def _override(raw, block, key, value):
    """Set ``raw[block][key]`` for a command-line flag, once the config and
    the block are known to be objects; an absent or null block becomes one."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be an object")
    if raw.get(block) is None:
        raw[block] = {}
    if not isinstance(raw[block], dict):
        raise ConfigurationError(f"{block} must be an object")
    raw[block][key] = value


def _output_error(exc, out):
    """Report an output file that could not be made or written; exit code 1."""
    print(f"output error: {exc.filename or out}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def _run_welfare(config, evaluator, asf_center, v_table):
    block = config.welfare
    model = config.model
    orders = sorted({len(g) for g in v_table.entries})
    tables = {
        o: VDerivTable({g: v for g, v in v_table.items() if len(g) == o}) for o in orders
    }
    points = block["points"]
    radius = block["trust_radius"]
    if radius is None:
        radius = max(
            (default_trust_radius(model, config.beta, x) for x in points),
            default=1.0,
        )
    vmodel = TaylorVModel(
        gradient=asf_center,
        tables=tables,
        trust_radius=radius,
    )
    weighting = block["weighting"]
    out = {"weighting": weighting, "points": [], "path_integrals": []}
    for x in points:
        # extrapolation warnings are advisory; the trust radius is echoed
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = average_indirect_utility(vmodel, model, config.beta, x, weighting)
        out["points"].append({"x": [float(v) for v in x], "value": float(val)})
    for xi, xf in block["path_segments"]:
        out["path_integrals"].append(
            {
                "x_init": [float(v) for v in xi],
                "x_final": [float(v) for v in xf],
                "value": path_integral_v(evaluator, xi, xf),
            }
        )
    return out


def _moment_rows(config, moment_tables):
    """Per order, the (label, recovered, true) triple of each moment, in
    index order; every moment report is rendered from these."""
    rows = {}
    for order, mt in sorted(moment_tables.items()):
        items = mt.items()
        truths = true_moments(config.beta, [idx for idx, _ in items])
        rows[order] = [(idx.label, float(v), t) for (idx, v), t in zip(items, truths)]
    return rows


def _write_reports(out, config, asf_center, moment_tables, v_table, welfare_out, report, failure):
    """Write moments.csv (when an order was recovered), v_derivs.csv (when
    the value-function partials were), and summary.json into the existing
    directory ``out``."""
    moment_rows = _moment_rows(config, moment_tables)
    if moment_rows:
        lines = []
        for order, rows in moment_rows.items():
            route = moment_tables[order].route
            for label, rec, tru in rows:
                abs_err = abs(rec - tru)
                rel_err = abs_err / abs(tru) if tru != 0 else float("inf")
                lines.append(
                    (order, label, _fmt(rec), _fmt(tru), _fmt(abs_err), _fmt(rel_err), route)
                )
        _write_csv(
            out / "moments.csv",
            ("order", "index", "recovered", "true", "abs_err", "rel_err", "route"),
            lines,
        )
    v_rows = [
        (",".join(map(str, g)), v, v_table.discrepancies.get(g, 0.0))
        for g, v in (v_table.items() if v_table is not None else ())
    ]
    if v_table is not None:
        _write_csv(
            out / "v_derivs.csv",
            ("index", "value", "split_spread"),
            [(label, _fmt(v), _fmt(spread)) for label, v, spread in v_rows],
        )

    summary = {
        "version": __version__,
        "config": config.echo,
        "failure": failure,
        "results": {
            "asf_center": [float(v) for v in asf_center],
            "moments": {
                str(order): {
                    "route": moment_tables[order].route,
                    "entries": {label: rec for label, rec, _ in rows},
                    "true": {label: tru for label, _, tru in rows},
                }
                for order, rows in moment_rows.items()
            },
            "v_derivatives": {label: v for label, v, _ in v_rows},
            "welfare": welfare_out,
            "diagnostics": report,
        },
    }
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8"
    )


def resolve_config_path(name):
    """Accept a filesystem path or the bare name of a bundled scenario."""
    p = Path(name)
    if p.exists():
        return p
    if "/" not in str(name) and not str(name).endswith(".json"):
        candidate = resources.files("rcpum") / "configs" / f"{name}.json"
        if candidate.is_file():
            return candidate
    return p


def main(argv=None):
    parser = argparse.ArgumentParser(prog="rcpum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one scenario config")
    runp.add_argument("--config", required=True, help="config path or bundled scenario name")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--max-order", type=int, default=None)
    runp.add_argument("--scheme", choices=("central", "forward"), default=None)
    runp.add_argument("--route", choices=("scale", "independence", "vknown"), default=None)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(
            resolve_config_path(args.config),
            args.out,
            max_order=args.max_order,
            scheme=args.scheme,
            route=args.route,
        )
    parser.error(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

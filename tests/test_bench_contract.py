"""The benchmark imports rcpum callables by name and feeds its generated
configs to the CLI; a rename or a tightened check under ``src/`` must fail
here rather than silently break ``bench/run.py``.  The benchmark's files are
read, never changed."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rcpum.cli import parse_config, run

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
BUNDLED_CONFIGS = ROOT / "src" / "rcpum" / "configs"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.mark.parametrize("workload", ["ladder-logit", "ladder-bundle"])
def test_every_generated_config_parses(workload):
    # the logit ladder draws its intercepts through logit.derivative
    workloads = _load("workloads")
    for scenario in workloads.generate(workload, 1, BUNDLED_CONFIGS):
        parse_config(scenario.config)


def test_every_trace_target_resolves(tracing):
    for owner, attr, name, _ in tracing._TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


def test_install_wraps_and_restores_every_target(tracing):
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing._TARGETS]
    with pytest.raises(RuntimeError, match="inside"):
        with tracing.Tracer().install():
            for (owner, attr, _, _), fn in zip(tracing._TARGETS, originals):
                assert getattr(owner, attr) is not fn, attr
            raise RuntimeError("inside the traced block")
    for (owner, attr, _, _), fn in zip(tracing._TARGETS, originals):
        assert getattr(owner, attr) is fn, attr


@pytest.mark.parametrize("name", sorted(p.stem for p in BUNDLED_CONFIGS.glob("*.json")))
def test_oracle_accepts_bundled_reports(tmp_path, name):
    # the benchmark's correctness gate reads the reports the CLI writes
    oracle = _load("oracle")
    config = json.loads((BUNDLED_CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    out = tmp_path / name
    assert run(BUNDLED_CONFIGS / f"{name}.json", out) == 0
    problems, moment_err, _ = oracle.check(oracle.Truth(config), config, out)
    assert problems == []
    assert moment_err is not None

"""The traced benchmark wraps rcpum callables by name; a rename under
``src/`` must fail here rather than silently break ``bench/run.py --trace 1``.
The benchmark's files are read, never changed."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


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

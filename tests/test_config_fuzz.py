"""Config fuzzing: a bundled config with a few keys deleted, added or set to
a value of the wrong type or range must make ``cli.run`` exit 0, 1 or 2,
with no exception escaping and no traceback printed."""

import contextlib
import copy
import io
import json
import math
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcpum.cli import resolve_config_path, run

BUNDLED = ("bundle_k2_smoothed", "independence_k2", "logit_k2_homogeneous", "logit_k2_mixture")
CONFIGS = {name: json.loads(resolve_config_path(name).read_text()) for name in BUNDLED}

# No moderately large integer: a max_order, level count or dims entry of a
# few thousand is in range, and the run would build a table that large.
BAD_VALUES = (
    True,
    False,
    "x",
    math.nan,
    math.inf,
    -math.inf,
    1e308,
    -1e308,
    -1,
    -0.5,
    [],
    [1.0, "x"],
    {},
    {"x": 1.0},
)


def _containers(node, path=()):
    """(path, node) for every object and array in a parsed JSON tree."""
    if isinstance(node, (dict, list)):
        yield path, node
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _containers(child, path + (key,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _apply(raw, mutation):
    path, kind, value = mutation
    value = copy.deepcopy(value)  # a later mutation may edit inside it
    block = _at(raw, path[:-1])
    if kind == "delete":
        del block[path[-1]]
    elif kind == "append":
        block.append(value)
    else:
        block[path[-1]] = value


@st.composite
def mutations(draw):
    """A bundled config's name and one to three mutations of it, each
    drawn from the tree the earlier ones left."""
    name = draw(st.sampled_from(BUNDLED))
    raw = copy.deepcopy(CONFIGS[name])
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        path, block = draw(st.sampled_from(list(_containers(raw))))
        keys = list(block) if isinstance(block, dict) else list(range(len(block)))
        kind = draw(st.sampled_from(("set", "delete", "add") if keys else ("add",)))
        bad = st.sampled_from(BAD_VALUES)
        if kind == "delete":
            edit = (path + (draw(st.sampled_from(keys)),), "delete", None)
        elif kind == "set":
            edit = (path + (draw(st.sampled_from(keys)),), "set", draw(bad))
        elif isinstance(block, dict):
            edit = (path + ("unknown",), "set", draw(bad))
        else:
            edit = (path + (None,), "append", draw(bad))
        _apply(raw, edit)
        edits.append(edit)
    return name, tuple(edits)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations())
@example(("logit_k2_mixture", ((("fd", "richardson_levels"), "set", 1e308),)))
@example(("independence_k2", ((("beta", "marginals", 0, "values", 1), "set", 1e308),)))
@example(("independence_k2", ((("recovery", "max_order"), "set", 1e308),)))
@example(("logit_k2_mixture", ((("welfare", "trust_radius"), "set", 1e308),)))
@example(("logit_k2_mixture", ((("model", "dims", 0), "set", 10**12),)))
@example(("logit_k2_mixture", ((("model", "type"), "set", []),)))
@example(("independence_k2", ((("beta", "type"), "set", {}),)))
@example(("logit_k2_mixture", tuple((("beta", "weights", i), "set", 1e308) for i in (0, 1))))
def test_mutated_config_exits_cleanly(case):
    name, edits = case
    raw = copy.deepcopy(CONFIGS[name])
    for edit in edits:
        _apply(raw, edit)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/cfg.json"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        with contextlib.redirect_stderr(err):
            code = run(cfg, f"{tmp}/out")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

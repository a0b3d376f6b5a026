"""Spans around the public callables of each rcpum layer.

The program is not edited: ``Tracer.install`` replaces the module and class
attributes that ``rcpum.cli.run`` calls through with timing wrappers, and
restores them on exit.  Spans are kept in memory as
(name, start, end, parent, scenario) and reduced to per-layer totals.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from rcpum import cli
from rcpum.asf import AsfEvaluator


def _table_counts(table):
    return {"numdiff.entries": len(table.entries), "numdiff.classes": sum(1 for _ in table.classes())}


def _moment_counts(result):
    tables = result.values() if isinstance(result, dict) else (result,)
    return {"recovery.moments": sum(len(t.entries) for t in tables)}


# (owner, attribute, span name, counts taken from the result)
_TARGETS = (
    (cli, "run", "cli.run", None),
    (cli, "parse_config", "cli.parse", None),
    (cli, "derivative_table", "numdiff.table", _table_counts),
    (AsfEvaluator, "asf", "asf", None),
    (AsfEvaluator, "ybar_given_beta", "asf.ybar", None),
    (cli, "recover_moments_scale", "recovery.moments", _moment_counts),
    (cli, "recover_moments_independence", "recovery.moments", _moment_counts),
    (cli, "recover_moments_vknown", "recovery.moments", _moment_counts),
    (cli, "chain_ratios", "recovery.relevance", None),
    (cli, "recover_v_derivatives", "recovery.vderiv", None),
    (cli, "build_report", "diagnostics.report", None),
    (cli, "TaylorVModel", "welfare.taylor", None),
    (cli, "average_indirect_utility", "welfare.taylor", lambda _: {"welfare.points": 1}),
    (cli, "path_integral_v", "welfare.path", lambda _: {"welfare.segments": 1}),
)

# Span names; their self times partition a traced cli.run.
SELF_PARTS = tuple(dict.fromkeys(name for _, _, name, _ in _TARGETS))


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self.scenario = None
        self._stack = []
        self._results = []

    def _wrap(self, name, fn, counter):
        spans, stack, results, clock = self.spans, self._stack, self._results, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.scenario)
            if counter is not None:
                # counted in take(), so that counting is not timed as cli.run
                results.append((counter, result))
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _TARGETS]
        try:
            for (owner, attr, name, counter), (_, _, fn) in zip(_TARGETS, saved):
                setattr(owner, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("spans still open")
        counts = Counter()
        for counter, result in self._results:
            counts.update(counter(result))
        spans = self.spans[:]
        del self.spans[:], self._results[:]  # the wrappers hold these lists
        return spans, counts


def reduce_spans(spans, counts):
    """Per-layer totals of one pass: inclusive and self seconds per span
    name, span counts, ASF cache misses and ASF calls made by the table."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    busy, own, n = Counter(), Counter(), Counter(counts)
    asf_with_ybar = set()
    for i, (name, start, end, parent, _) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - child[i]
        n[name] += 1
        if name == "asf.ybar":
            asf_with_ybar.add(parent)
        elif name == "asf" and parent >= 0 and spans[parent][0] == "numdiff.table":
            n["asf.table_calls"] += 1
    n["asf.points"] = len(asf_with_ybar)
    return busy, own, n


def write_spans(passes, path):
    """Spans of every traced pass as CSV: pass, name, start and end
    (seconds), parent (row index within the pass, -1 for none), scenario."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,name,start,end,parent,scenario\n")
        for i, spans in enumerate(passes):
            for name, start, end, parent, scenario in spans:
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{scenario}\n")

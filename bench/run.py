"""rcpum benchmark: seeded scenario configs run back to back through
``rcpum.cli.run``, with oracle checks on every report.

    python3 bench/run.py --workload ladder-logit --seed 1 --seconds 55 --trace 0

One process, single-threaded, closed loop: each scenario starts when the
previous one has finished.  ``--trace 0`` measures end-to-end metrics with
no instrumentation; ``--trace 1`` spends the first half of the time untraced
and the second half with spans around every layer, and reports per-layer
metrics.  ``--workload all`` runs every workload in both modes, each in its
own child process, and prints every metric.  The last line of standard
output is one JSON object; see bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED_CONFIGS = SRC / "rcpum" / "configs"
WORK = ROOT / ".bench_work"

# Percentile reported as scenario_ms_tail, fixed per workload so that runs
# compare; each leaves at least ten samples beyond it in a 55 s run on a
# 2-CPU Xeon VM.
TAIL_PCT = {"ladder-logit": 95, "ladder-bundle": 90}
# Fresh set-up interpreters per --trace 0 run, started between timed passes
# at even steps of measured time so that their median spans the whole run.
SETUP_RUNS = 9
SETUP_CHILD = (
    "import json, sys\n"
    "from rcpum.cli import parse_config\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        parse_config(json.load(fh))\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("scenario_ms_p50", "ms"),
    ("scenario_ms_tail", "ms"),
    ("scenarios_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("asf.calls", "count"),
    ("asf.points", "count"),
    ("asf.ybar_calls", "count"),
    ("asf.hit_ratio", "ratio"),
    ("asf.us_per_point", "us"),
    ("asf.busy_s", "s"),
    ("asf.ybar_s", "s"),
    ("asf.self_s", "s"),
    ("numdiff.table_s", "s"),
    ("numdiff.self_s", "s"),
    ("numdiff.entries", "count"),
    ("numdiff.classes", "count"),
    ("numdiff.calls_per_class", "ratio"),
    ("recovery.moments_s", "s"),
    ("recovery.relevance_s", "s"),
    ("recovery.vderiv_s", "s"),
    ("recovery.moments", "count"),
    ("diagnostics.report_s", "s"),
    ("welfare.taylor_s", "s"),
    ("welfare.path_s", "s"),
    ("welfare.points", "count"),
    ("welfare.segments", "count"),
    ("cli.parse_s", "s"),
    ("cli.self_s", "s"),
    ("cli.run_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("moment_rel_err_max", "ratio"),
    ("welfare_abs_err_max", "util"),
)
UNITS = dict(END_TO_END + PER_LAYER)


def _digest(out_dir):
    """SHA-256 of the report files (run_meta.json holds wall-clock data)
    and their total size in bytes."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        if path.name == "run_meta.json":
            continue
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


class Workload:
    """Generated scenarios of one workload and the outcome of every run."""

    def __init__(self, name, seed, work):
        import oracle
        import workloads

        self.name = name
        self.work = work
        self.scenarios = workloads.generate(name, seed, BUNDLED_CONFIGS)
        self.paths = {}
        for sc in self.scenarios:
            path = work / "configs" / f"{sc.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(sc.config, indent=1) + "\n", encoding="utf-8")
            self.paths[sc.name] = path
        self.truths = {sc.name: oracle.Truth(sc.config) for sc in self.scenarios}
        self.reference = {}
        self.failures = {}
        self.attempted = 0
        self.failed = 0
        self.moment_err = 0.0
        self.welfare_err = 0.0

    def run_one(self, cli, name, config_path):
        """One closed-loop step; returns (seconds, exit code, error text)."""
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.run(config_path, self.work / "out" / name)
        except Exception:  # a raised exception is a failed scenario, not a crash
            code = None
            err.write(traceback.format_exc())
        return time.perf_counter() - start, code, err.getvalue()

    def run_pass(self, cli, tracer=None):
        """Every scenario once; returns per-scenario seconds and pass wall time."""
        results = []
        start = time.perf_counter()
        for sc in self.scenarios:
            if tracer is not None:
                tracer.scenario = sc.name
            results.append(self.run_one(cli, sc.name, self.paths[sc.name]))
        wall = time.perf_counter() - start
        report_bytes = self._verify(results)
        return [r[0] for r in results], wall, report_bytes

    def _verify(self, results):
        import oracle

        report_bytes = 0
        for sc, (_, code, err) in zip(self.scenarios, results):
            self.attempted += 1
            out = self.work / "out" / sc.name
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if "Traceback" in err:
                problems.append("traceback: " + err.strip().splitlines()[-1])
            if (out / "summary.json").is_file():
                found, m_err, w_err = oracle.check(self.truths[sc.name], sc.config, out)
                problems += found
                self.moment_err = max(self.moment_err, m_err or 0.0)
                self.welfare_err = max(self.welfare_err, w_err or 0.0)
                digest, size = _digest(out)
                report_bytes += size
                if self.reference.setdefault(sc.name, digest) != digest:
                    problems.append("reports differ from the first run of this config")
            else:
                problems.append("no summary.json written")
            shutil.rmtree(out, ignore_errors=True)
            if problems:
                self.failed += 1
                self.failures.setdefault(sc.name, problems)
        return report_bytes

    def self_test(self, cli):
        """The gate must fail a config whose scales are off by 1%."""
        import oracle

        cfg = json.loads((BUNDLED_CONFIGS / "logit_k2_mixture.json").read_text(encoding="utf-8"))
        truth = oracle.Truth(cfg)
        scales = cfg["recovery"]["scales"]
        cfg["recovery"]["scales"] = {m: 1.01 * v for m, v in scales.items()}
        path = self.work / "selftest.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        _, code, _ = self.run_one(cli, "selftest", path)
        out = self.work / "out" / "selftest"
        flagged = code != 0 or bool(oracle.check(truth, cfg, out)[0])
        shutil.rmtree(out, ignore_errors=True)
        return flagged


def _setup_seconds(paths):
    """Wall time of one fresh interpreter that imports rcpum.cli and parses
    every config of the workload."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, *map(str, paths)],
        cwd=ROOT,
        env=env,
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


def _loop(bench, cli, seconds, tracer=None, setup_runs=0):
    """Whole passes, at least one, until ``seconds`` of measured time have
    elapsed.  Between passes, outside the timed window, ``setup_runs`` set-up
    samples are taken at even steps of measured time.  Returns the scenario
    times, the wall time, the set-up samples and, traced, each pass's
    (report bytes, spans, counts)."""
    times, wall, setups, traced = [], 0.0, [], []
    while not times or wall < seconds:
        t, w, report_bytes = bench.run_pass(cli, tracer)
        times += t
        wall += w
        if tracer is not None:
            traced.append((report_bytes, *tracer.take()))
        while len(setups) < min(setup_runs, setup_runs * wall / seconds):
            setups.append(_setup_seconds(bench.paths.values()))
    while len(setups) < setup_runs:
        setups.append(_setup_seconds(bench.paths.values()))
    return times, wall, setups, traced


def _layer_metrics(per_pass, untraced_rate, traced_rate):
    """Per-layer metrics: the median over traced passes of per-pass totals."""
    from tracing import SELF_PARTS, reduce_spans

    rows = []
    problems = []
    first_counts = None
    for report_bytes, spans, counts in per_pass:
        busy, own, n = reduce_spans(spans, counts)
        total = busy["cli.run"]
        accounted = sum(own[name] for name in SELF_PARTS)
        if abs(accounted - total) > 1e-9 * max(total, 1.0) + 1e-9:
            problems.append(f"self times sum to {accounted}, cli.run to {total}")
        classes = n["numdiff.classes"]
        row = {
            "asf.calls": n["asf"],
            "asf.points": n["asf.points"],
            "asf.ybar_calls": n["asf.ybar"],
            "asf.hit_ratio": 1.0 - n["asf.points"] / n["asf"] if n["asf"] else 0.0,
            "asf.us_per_point": 1e6 * busy["asf"] / n["asf.points"] if n["asf.points"] else 0.0,
            "asf.busy_s": busy["asf"],
            "asf.ybar_s": busy["asf.ybar"],
            "asf.self_s": own["asf"],
            "numdiff.table_s": busy["numdiff.table"],
            "numdiff.self_s": own["numdiff.table"],
            "numdiff.entries": n["numdiff.entries"],
            "numdiff.classes": classes,
            "numdiff.calls_per_class": n["asf.table_calls"] / classes if classes else 0.0,
            "recovery.moments_s": busy["recovery.moments"],
            "recovery.relevance_s": busy["recovery.relevance"],
            "recovery.vderiv_s": busy["recovery.vderiv"],
            "recovery.moments": n["recovery.moments"],
            "diagnostics.report_s": busy["diagnostics.report"],
            "welfare.taylor_s": busy["welfare.taylor"],
            "welfare.path_s": busy["welfare.path"],
            "welfare.points": n["welfare.points"],
            "welfare.segments": n["welfare.segments"],
            "cli.parse_s": busy["cli.parse"],
            "cli.self_s": own["cli.run"],
            "cli.run_s": total,
            "cli.report_bytes": report_bytes,
            "trace.accounted_frac": accounted / total,
        }
        counts_here = {k: v for k, v in row.items() if UNITS[k] in ("count", "bytes")}
        if first_counts is None:
            first_counts = counts_here
        elif counts_here != first_counts:
            problems.append(f"per-layer counts changed between passes: {counts_here}")
        rows.append(row)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics.update(first_counts)  # identical in every pass, so kept as integers
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return metrics, first_counts, problems


def _provenance(seed, bench):
    import numpy
    import rcpum

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[label] = (index / "size").read_text().strip()
    return {
        "seed": seed,
        "workload": bench.name,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rcpum": rcpum.__version__,
        "instances": [sc.shape() for sc in bench.scenarios],
    }


def _print_instances(instances):
    print(f"{'scenario':22s} {'model':7s}  K  d  S  T  M {'route':13s} pts segs")
    for r in instances:
        print(
            f"{r['name']:22s} {r['model']:7s} {r['K']:2d} {r['d']:2d} {r['S']:2d} {r['T']:2d} "
            f"{r['M']:2d} {r['route']:13s} {r['points']:3d} {r['segments']:4d}"
        )


def run_workload(name, seed, seconds, trace):
    work = WORK / f"{name}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    from rcpum import cli

    bench = Workload(name, seed, work)
    prov = _provenance(seed, bench)
    print(" ".join(f"{k}={prov[k]}" for k in ("nproc", "cpu_model", "caches", "python", "numpy")))
    _print_instances(prov["instances"])
    selftest_ok = bench.self_test(cli)
    bench.run_pass(cli)  # warm-up: lazy imports, first-call costs, reference digests

    problems = [] if selftest_ok else ["gate self-test: 1% scale error was not flagged"]
    info = {}
    if trace == 0:
        times, wall, setups, _ = _loop(bench, cli, seconds, setup_runs=SETUP_RUNS)
        pct = TAIL_PCT[name]
        metrics = {
            "setup_s": statistics.median(setups),
            "scenario_ms_p50": 1e3 * statistics.median(times),
            "scenario_ms_tail": 1e3 * statistics.quantiles(times, n=100)[pct - 1],
            "scenarios_per_s": len(times) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        beyond = sum(t * 1e3 > metrics["scenario_ms_tail"] for t in times)
        info = {"tail_percentile": pct, "samples": len(times), "samples_beyond_tail": beyond}
        if beyond < 10:
            print(f"warning: only {beyond} samples beyond p{pct}; run longer", file=sys.stderr)
        names = [m for m, _ in END_TO_END]
        shown = names + ["failed_frac", "moment_rel_err_max", "welfare_abs_err_max"]
        counts = None
    else:
        from tracing import Tracer, write_spans

        times, wall, _, _ = _loop(bench, cli, seconds / 2.0)
        untraced_rate = len(times) / wall
        tracer = Tracer()
        with tracer.install():
            t_times, t_wall, _, per_pass = _loop(bench, cli, seconds / 2.0, tracer)
        write_spans([spans for _, spans, _ in per_pass], work / "spans.csv")
        metrics, counts, found = _layer_metrics(per_pass, untraced_rate, len(t_times) / t_wall)
        problems += found
        info = {"traced_passes": len(per_pass), "scenarios_per_pass": len(bench.scenarios)}
        names = shown = [m for m, _ in PER_LAYER]

    metrics["failed_frac"] = bench.failed / bench.attempted
    metrics["moment_rel_err_max"] = bench.moment_err
    metrics["welfare_abs_err_max"] = bench.welfare_err
    digest = hashlib.sha256(
        json.dumps([sorted(bench.reference.items()), counts], sort_keys=True).encode()
    ).hexdigest()
    for sc_name, found in sorted(bench.failures.items()):
        print(f"FAILED {sc_name}: {'; '.join(found[:3])}")
    for p in problems:
        print(f"PROBLEM {p}")
    print(f"workload {name} seed {seed} trace {trace}: {info}")
    print(f"report digest {digest}")
    for m in shown:
        print(f"{m:26s} {metrics[m]:.6g} {UNITS[m]}")
    result = {
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": metrics[m], "unit": UNITS[m]} for m in names},
    }
    record = dict(result, info=info, digest=digest, failures=bench.failures,
                  problems=problems, provenance=prov)
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work / "out", ignore_errors=True)
    return result


def run_all(seed, seconds):
    """Every workload in both modes, each in its own process."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} trace {trace} exited with {proc.returncode}")
            part = json.loads(lines[-1])
            combined["correct"] &= part["correct"]
            combined["attempted"] += part["attempted"]
            combined["failed"] += part["failed"]
            for m, v in part["metrics"].items():
                combined["metrics"][f"{name}/{m}"] = v
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rcpum" / "cli.py").is_file():
        print(f"bench: no rcpum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS} or all")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

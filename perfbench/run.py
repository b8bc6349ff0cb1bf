"""Benchmark of the peiffer package: one workload per process.

    python3 perfbench/run.py --workload family --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from ./src and
nowhere else.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it reports the per-layer metrics, measured by
wrapping the package's public functions from outside (see tracing.py).  The
last line of standard output is one JSON object; the lines before it are a
readable report.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
RUN_DIR = os.path.join(WORKDIR, "run")
SETUP_DIR = os.path.join(WORKDIR, "setup")
SPANS_FILE = os.path.join(ROOT, ".perfbench_spans.json")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "setup_s": "s",
}
MODULES = ("groups", "actions", "compat", "product", "xmod", "lie", "io", "cli")


class BenchError(RuntimeError):
    """The benchmark cannot run here, e.g. the package source is missing."""


def imported_package() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "peiffer" or k.startswith("peiffer.")}


def load_package() -> types.SimpleNamespace:
    """Import peiffer from ./src afresh and return its modules by name.

    peiffer.catalog is the catalog() function re-exported by __init__, so the
    catalog module is taken from sys.modules and stored as catalog_module.
    """
    if not os.path.isfile(os.path.join(SRC, "peiffer", "__init__.py")):
        raise BenchError(f"no package source at {SRC}/peiffer")
    for name in imported_package():
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("peiffer")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchError(f"peiffer imported from {pkg.__file__}, not from {SRC}")
    pk = types.SimpleNamespace(package=pkg, catalog_module=sys.modules["peiffer.catalog"])
    for name in MODULES:
        setattr(pk, name, importlib.import_module(f"peiffer.{name}"))
    return pk


def set_up(name: str, seed: int, workdir: str):
    """Imports, input generation and input files: everything before the
    first timed operation."""
    pk = load_package()
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    return workloads.WORKLOADS[name](pk, seed, workdir)


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def top_quantile(values, n):
    """The highest of the n-quantiles, e.g. n=20 for the 95th percentile,
    interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[-1]


class Tally:
    """Operations attempted and failed over a run, and the latency of each
    one that succeeded.  Latencies go in a flat array so that memory does
    not grow with the number of passes a run fits in."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.problems = []
        self.latencies_ms = array("d")

    def add(self, ops, problems):
        self.attempted += len(ops)
        self.failures += [op for op in ops if op.error is not None]
        self.latencies_ms.extend(op.seconds * 1000 for op in ops if op.error is None)
        self.problems += problems

    @property
    def failed(self):
        return len(self.failures) + len(self.problems)


def within(seconds, start, *paces):
    """Whether another round fits in the budget at the median pace so far."""
    return time.perf_counter() - start + sum(statistics.median(p) for p in paces) <= seconds


def sample_set_up(args) -> float:
    """Time one fresh set-up and throw it away.  The modules the passes use
    go back into sys.modules, so that imports inside the package's functions
    keep resolving to them."""
    live = imported_package()
    seconds = timed(set_up, args.workload, args.seed, SETUP_DIR)[1]
    for name in imported_package():
        del sys.modules[name]
    sys.modules.update(live)
    return seconds


def run_pass(workload, tally):
    (ops, problems), seconds = timed(workload.run_pass)
    tally.add(ops, problems)
    return seconds


def end_to_end(args, workload, first_setup_s, tally):
    """Whole passes for up to --seconds, and always at least one.

    The host's speed drifts between two levels about 1.5x apart, each held
    for seconds to tens of seconds, so the statistics are ones that move in
    proportion to the share of a run spent at each level.  wall_s is the
    mean pass; the median of a two-level sample jumps from one level to the
    other.  One fresh set-up, into its own directory and discarded, follows
    every pass, so set-up samples are spread over the run like the passes.
    """
    walls, setups = [], [first_setup_s]
    start = time.perf_counter()
    while not walls or within(args.seconds, start, walls, setups):
        walls.append(run_pass(workload, tally))
        setups.append(sample_set_up(args))
    op_ms = tally.latencies_ms or [0.0]
    values = {
        "wall_s": statistics.fmean(walls),
        "op_p50_ms": statistics.median(op_ms),
        "op_p95_ms": top_quantile(op_ms, 20),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - tally.failed / tally.attempted,
        "setup_s": statistics.median(setups),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    samples = {
        "passes": len(walls),
        "wall_median_s": statistics.median(walls),
        "wall_p90_s": top_quantile(walls, 10),
        "wall_max_s": max(walls),
        "setups": len(setups),
        "ops": len(op_ms),
    }
    return metrics, samples


def traced(workload, seconds, tally):
    """Alternate untraced and traced passes; per-layer numbers come from the
    traced ones, the overhead from the difference of the two mean passes."""
    plain, traced_walls, per_pass = [], [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while not plain or within(seconds, start, plain, traced_walls):
        plain.append(run_pass(workload, tally))
        tracer.reset()
        with tracing.installed(tracer, workload):
            traced_walls.append(run_pass(workload, tally))
        per_pass.append(tracing.layer_metrics(tracer))
    tracer.write(SPANS_FILE)
    units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
    metrics = {name: (statistics.median(p[name] for p in per_pass), units[name]) for name in per_pass[0]}
    nnz = workload.properties.get("nnz_share", 0.0)
    metrics["lie.input_nnz_share"] = (nnz, "ratio")
    metrics["trace.wall_s"] = (statistics.fmean(traced_walls), "s")
    metrics["trace.overhead_s"] = (statistics.fmean(traced_walls) - statistics.fmean(plain), "s")
    return metrics, {"traced_passes": len(traced_walls), "untraced_passes": len(plain)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workload, setup_s = timed(set_up, args.workload, args.seed, RUN_DIR)
        tally = Tally()
        if args.trace:
            metrics, samples = traced(workload, args.seconds, tally)
        else:
            metrics, samples = end_to_end(args, workload, setup_s, tally)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    report(args, workload, metrics, samples, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(args, workload, metrics, samples, tally):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("inputs " + json.dumps(workload.properties, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print(f"error_rate {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems[:10]:
        print(f"  FAILED pass check: {problem}")
    for op in tally.failures[:10]:
        print(f"  FAILED {op.label}: {op.error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())

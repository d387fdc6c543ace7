"""The atconv benchmark: one command, one process, one closed-loop client.

    python3 perfbench/run.py --workload train_micro --seed 1 --seconds 30 --trace 0

Every run measures all seven unit kinds (see ``units.py``) so that every
metric named in ``BENCHMARK.json`` is present in every run; the workload
decides how the run's time is shared among them, giving its own layer
the most samples:

- ``train_micro``: training and held-out evaluation of the micro classifier
  (GLU GELU/erf and Adam dominate);
- ``operator_h32``: the operator's forward and backward and the static
  baselines at B=8, C=64, H=W=32 (dyn_depthwise and conv1x1 dominate);
- ``analyze_c64``: ``analyze_operator`` at C=64, H=W=32 (per-call overhead
  and Python loops dominate).

A run sets up once untimed, warms every unit once, makes the one-off
output checks, then loops over units until every kind has had its share
of ``--seconds`` and its minimum sample count. The next unit is always of
the kind furthest behind, so each kind's samples spread over the whole
run and see the same machine. ``setup_s`` is one of these kinds: a fresh
import, data synthesis and model init, timed between the other units.
``--trace 0`` reports the end-to-end metrics with the package unwrapped,
then the tracemalloc peak of one unit of the workload's own kind.
``--trace 1`` wraps the package's public functions (``spans.py``) and
reports per-layer metrics (``layers.py``), FLOP and peak-byte accounting,
and the tracing overhead: the traced minus the untraced median over
alternating pairs of units in the same run. Its spans go to
``perfbench/_out``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a table
of every metric with its unit and sample count, and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import envinfo

envinfo.pin_threads()

# numpy and everything importing it load after the thread caps
import numpy as np  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import units  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

WORKLOADS = ("train_micro", "operator_h32", "analyze_c64")

# Share of the measured time each unit kind gets, per workload, and the
# samples each kind collects whatever --seconds says: 100 operator
# iterations leave 10 beyond the p90. At 30 s the minimums take about 94%
# of the time on a 2-vCPU Xeon; the workload's own kinds get the rest.
SHARES = {
    "train_micro": {"setup": .075, "train": .25, "eval": .185, "op": .21, "sdw": .04,
                    "sconv": .075, "analyze": .165},
    "operator_h32": {"setup": .075, "train": .22, "eval": .155, "op": .245, "sdw": .05,
                     "sconv": .09, "analyze": .165},
    "analyze_c64": {"setup": .075, "train": .22, "eval": .155, "op": .21, "sdw": .04,
                    "sconv": .075, "analyze": .225},
}
MINIMUMS = {"setup": 9, "train": 5, "eval": 8, "op": 100, "sdw": 30, "sconv": 10,
            "analyze": 5}
PEAK_UNIT = {"train_micro": "train", "operator_h32": "op", "analyze_c64": "analyze"}
# Untraced/traced unit pairs that measure the tracing overhead.
OVERHEAD_PAIRS = {"train": 2, "op": 15}


class Run:
    """Attempt and failure tally plus the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, bad: list) -> None:
        self.attempted += 1
        if bad:
            self.failures.append("; ".join(bad))

    def call(self, fn, *args):
        """fn(*args), or None after recording the exception as a failure."""
        try:
            return fn(*args)
        except Exception:  # the benchmark keeps going and reports it
            traceback.print_exc(file=sys.stderr)
            self.record([f"{getattr(fn, '__name__', fn)} raised"])
            return None

    def check(self, fn, *args):
        """Run a check returning its failed conditions, and record them."""
        bad = self.call(fn, *args)
        if bad is not None:
            self.record(bad)
        return bad

    def unit(self, kind: str, ctx, tracer=None):
        """Run one unit, inside a ``unit.<kind>`` span when tracing, and
        record its checks; returns (result, or None if it raised; seconds)."""
        t0 = time.perf_counter()
        span = tracer.open(f"unit.{kind}") if tracer is not None else None
        try:
            result = self.call(units.UNITS[kind], ctx)
        finally:
            if span is not None:
                tracer.close(span)
        dt = time.perf_counter() - t0
        if result is not None:
            self.record(result[1])
        return result, dt


def schedule(ctx, run: Run, shares: dict, seconds: float, tracer=None) -> dict:
    """Closed loop over units until every kind has had its share of
    ``seconds`` and its minimum count. A kind's progress is the lesser of
    its time and its count against those targets; the next unit is of the
    kind with the least progress, so all kinds reach their targets
    together. Returns {sample name: [values]} of the units that passed."""
    spent = dict.fromkeys(shares, 0.0)
    tries = dict.fromkeys(shares, 0)
    samples = {}

    def progress(k):
        by_time = spent[k] / (shares[k] * seconds) if seconds > 0 else math.inf
        return min(by_time, tries[k] / MINIMUMS[k])

    while True:
        kind = min(shares, key=progress)
        if progress(kind) >= 1:
            return samples
        result, dt = run.unit(kind, ctx, tracer)
        spent[kind] += dt
        tries[kind] += 1
        if result is not None and not result[1]:
            for name, v in result[0].items():
                samples.setdefault(name, []).append(v)


def peak_bytes(fn) -> int:
    """tracemalloc peak above the starting level while fn runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def end_to_end(samples: dict, peak: int) -> dict:
    """name -> (value, unit, sample count)."""
    def get(name):
        return samples.get(name) or [math.nan]

    m = {"peak_mib": (peak / 2**20, "MiB", 1)}
    for name, unit in (("setup_s", "s"), ("train_samples_per_s", "samples/s"),
                       ("eval_images_per_s", "images/s")):
        m[name] = (statistics.median(get(name)), unit, len(get(name)))
    for name in ("op_fwd_ms", "op_bwd_ms"):
        v = get(name)
        m[f"{name}.p50"] = (statistics.median(v), "ms", len(v))
        m[f"{name}.p90"] = (float(np.percentile(v, 90)), "ms", len(v))
    for name in ("static_dwconv_ms", "static_conv_ms", "analyze_ms"):
        m[f"{name}.p50"] = (statistics.median(get(name)), "ms", len(get(name)))
    return m


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the report (result fields, metrics with counts,
    environment, failure messages)."""
    env = envinfo.stamp(ROOT)
    run = Run()
    run.record([] if env["valid"] else ["environment: BLAS thread caps are not 1"])

    ctx = units.setup(seed)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if run.check(units.warm_up, ctx, workdir) is None:
            raise RuntimeError("warm-up failed; no references to check against")
        for check in units.ONE_OFF_CHECKS:
            run.check(check, ctx)
        if trace:
            metrics = traced(ctx, run, workload, seed, seconds)
        else:
            run.record([f"untraced run sees wrapper {w}" for w in spans.find_wrapped()])
            samples = schedule(ctx, run, SHARES[workload], seconds)
            peak = peak_bytes(lambda: run.unit(PEAK_UNIT[workload], ctx))
            metrics = end_to_end(samples, peak)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failures), "failures": run.failures,
        "metrics": metrics, "env": env,
    }


def traced(ctx, run: Run, workload: str, seed: int, seconds: float) -> dict:
    """The traced run: per-layer metrics, FLOPs, peak bytes, overhead."""
    mods = ctx.mods
    op_peak = peak_bytes(lambda: ctx.op.forward(ctx.x))
    tracer = spans.Tracer(mods.tensor.flop_counter)
    # alternate untraced and traced units, so both medians see the same
    # machine state
    overhead = {}
    for kind, n in OVERHEAD_PAIRS.items():
        plain, wrapped = [], []
        for _ in range(n):
            plain.append(run.unit(kind, ctx)[1])
            tracer.install()
            try:
                wrapped.append(run.unit(kind, ctx, tracer)[1])
            finally:
                tracer.restore()
        overhead[kind] = (statistics.median(wrapped) - statistics.median(plain)) * 1e3, n

    tracer.install()
    try:
        i = tracer.open("unit.setup")
        units.synthesize(mods, seed)
        tracer.close(i)
        # a fresh set-up would re-import the package, unwrapped
        shares = {k: v for k, v in SHARES[workload].items() if k != "setup"}
        schedule(ctx, run, shares, seconds, tracer)
        with mods.tensor.counting():
            i = tracer.open("unit.flops")
            ctx.op.forward_cached(ctx.x)
            tracer.close(i)
    finally:
        tracer.restore()
    run.record([f"wrapper left after restore: {w}" for w in spans.find_wrapped()])

    metrics, problems = layers.layer_metrics(tracer)
    run.record(problems)
    metrics.update(layers.flop_metrics(tracer, mods.complexity, units.OP_SHAPE, units.KERNEL))
    spec = mods.complexity.ShapeSpec(*units.OP_SHAPE, units.KERNEL, 4)
    metrics["op.peak_bytes.measured"] = (float(op_peak), "bytes", 1)
    metrics["op.peak_bytes.model"] = (float(mods.complexity.memory(spec)["atconv_bytes"]),
                                      "bytes", 1)
    for kind, label in (("train", "train_call_ms"), ("op", "op_iter_ms")):
        diff, n = overhead[kind]
        metrics[f"trace.overhead.{label}"] = (diff, "ms", n)
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.json.gz")
    return metrics


def print_report(report: dict) -> None:
    print(f"# atconv benchmark: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print(f"# env: {json.dumps(report['env'], sort_keys=True)}")
    width = max(len(n) for n in report["metrics"])
    for name, (value, unit, n) in report["metrics"].items():
        print(f"{name:<{width}}  {value:>16.6g} {unit:<10} n={n}")
    ratio = report["failed"] / max(report["attempted"], 1)
    print(f"{'failed_ratio':<{width}}  {ratio:>16.6g} {'ratio':<10} "
          f"n={report['attempted']}")
    for msg in report["failures"]:
        print(f"# FAILED: {msg}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report["metrics"].items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "atconv" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'atconv'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    out = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

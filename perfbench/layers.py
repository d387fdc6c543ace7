"""Per-layer metrics from the spans of a traced run.

Each metric is normalised by the unit of work of the layer it measures:

- ``primitives.*`` and ``micro.*``: per training step, from spans inside
  ``train.step`` (the ``train`` units);
- ``op.*`` except ``validate.calls``: per operator forward+backward (``op``);
- ``baselines.*``: per static forward+backward (``sdw`` / ``sconv``);
- ``tensor.*``, ``analysis.*`` and ``op.ATConvParams.validate.calls``: per
  ``analyze_operator`` call (``analyze``);
- ``train.evaluate.self_ms``: per held-out evaluation (``eval``).

FLOP counts come from one operator forward with ``tensor.counting()`` on:
the counter's delta inside each stage span, against the term of
``complexity.atconv_flops`` that models it. ``pool`` and ``dkm`` are
sub-terms of ``context_to_kernel`` (modelled as B*N*C and B*C*k^2).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import STEP

STEP_SELF = (
    "primitives.erf",
    "primitives.gelu_forward", "primitives.gelu_backward",
    "primitives.conv1x1_forward", "primitives.conv1x1_backward",
    "primitives.layer_norm_forward", "primitives.layer_norm_backward",
    "primitives.linear_forward", "primitives.linear_backward",
    "primitives.adaptive_avg_pool_forward", "primitives.adaptive_avg_pool_backward",
    "micro.glu_forward", "micro.glu_backward",
    "micro.block_forward", "micro.block_backward",
    "micro.patch_embed_forward", "micro.patch_embed_backward",
    "micro.cross_entropy", "micro.adam_step", "micro.MicroModel.set_parameter",
)
STEP_CALLS = ("primitives.erf", "micro.MicroModel.set_parameter")

UNIT_SELF = {
    "op": ("op.generate_kernels_forward", "op.generate_kernels_backward",
           "op.dkm_forward", "op.dkm_backward",
           "op.dyn_depthwise_forward", "op.dyn_depthwise_backward",
           "op.atconv_forward_cached", "op.atconv_backward"),
    "sdw": ("baselines.StaticDepthwise.forward_cached", "baselines.StaticDepthwise.backward"),
    "sconv": ("baselines.StaticConv.forward_cached", "baselines.StaticConv.backward"),
    "analyze": ("tensor.ensure_finite", "analysis.influence_map", "analysis.inhibition_map",
                "analysis.csc", "analysis.cer", "analysis.sym_eigenvalues"),
    "eval": ("train.evaluate",),
}
UNIT_CALLS = {"analyze": ("tensor.ensure_finite", "tensor.as_tensor4",
                          "op.ATConvParams.validate")}

FWD = ("micro.MicroModel.forward_cached", "micro.cross_entropy")
BWD = ("micro.MicroModel.backward",)
OPT = ("micro.adam_step", "micro.MicroModel.set_parameter")


def layer_metrics(tr) -> tuple:
    """(metrics, problems): metrics maps name -> (value, unit, samples);
    problems lists span-accounting faults (negative self time, a step whose
    self times do not add up to its duration)."""
    names = tr.name
    self_ms = tr.self_ns() / 1e6
    dur_ms = tr.duration_ns() / 1e6
    n_units = defaultdict(int)
    for n in names:
        if n.startswith("unit."):
            n_units[n[5:]] += 1
    steps = [i for i, n in enumerate(names) if n == STEP]

    self_sum = defaultdict(float)   # (name, scope) -> ms
    calls = defaultdict(int)
    counts = defaultdict(int)
    durs = defaultdict(list)        # name -> inclusive durations
    step_self = defaultdict(float)  # step index -> sum of self times inside it
    step_part = defaultdict(lambda: defaultdict(float))
    for i, n in enumerate(names):
        s = tr.step[i]
        scope = "step" if s >= 0 else names[tr.unit[i]][5:]
        self_sum[n, scope] += self_ms[i]
        calls[n, scope] += 1
        counts[n, scope] += tr.count[i]
        durs[n].append(dur_ms[i])
        if s >= 0:
            step_self[s] += self_ms[i]
            if tr.parent[i] == s:
                step_part[s][n] += dur_ms[i]

    n_steps = max(len(steps), 1)
    m = {}
    for n in STEP_SELF:
        m[f"{n}.self_ms"] = (self_sum[n, "step"] / n_steps, "ms", len(steps))
    for n in STEP_CALLS:
        m[f"{n}.calls"] = (calls[n, "step"] / n_steps, "count", len(steps))
    m["primitives.erf.elements"] = (counts["primitives.erf", "step"] / n_steps,
                                    "count", len(steps))
    for kind, group in UNIT_SELF.items():
        for n in group:
            m[f"{n}.self_ms"] = (self_sum[n, kind] / max(n_units[kind], 1), "ms", n_units[kind])
    for kind, group in UNIT_CALLS.items():
        for n in group:
            m[f"{n}.calls"] = (calls[n, kind] / max(n_units[kind], 1), "count", n_units[kind])

    step_ms, k = dur_ms[steps], len(steps)
    m["train.step_ms.p50"] = (float(np.median(step_ms)), "ms", k)
    m["train.step_ms.p90"] = (float(np.percentile(step_ms, 90)), "ms", k)
    for label, group in (("fwd", FWD), ("bwd", BWD), ("opt", OPT)):
        part = [sum(step_part[s][n] for n in group) for s in steps]
        m[f"train.step.{label}_ms"] = (float(np.median(part)), "ms", k)
    m["train.step.self_sum_ms"] = (float(np.median([step_self[s] for s in steps])), "ms", k)

    for n, metric in (("data.synth_dataset", "data.synth_dataset.ms"),
                      ("atck.save_atck", "atck.save_atck.ms")):
        m[metric] = (float(np.mean(durs[n])), "ms", len(durs[n]))
    saves = [tr.count[i] for i, n in enumerate(names) if n == "atck.save_atck"]
    m["atck.save_atck.bytes"] = (float(np.mean(saves)), "bytes", len(saves))

    problems = []
    if (self_ms < -1e-6).any():
        problems.append("trace: a span has negative self time")
    bad = [s for s in steps if abs(step_self[s] - dur_ms[s]) > 1e-3]
    if bad:
        problems.append(f"trace: {len(bad)} step(s) whose self times miss the step time")
    return m, problems


def flop_metrics(tr, complexity, shape, kernel: int) -> dict:
    """Counted FLOPs per operator stage against the analytic model."""
    names = tr.name
    fwd = [i for i, n in enumerate(names)
           if n == "op.atconv_forward_cached" and names[tr.unit[i]] == "unit.flops"][0]
    counted = defaultdict(int)
    for i, n in enumerate(names):
        if tr.parent[i] == fwd:
            counted[n] += tr.flops[i]
        elif n == "primitives.adaptive_avg_pool_forward" and names[tr.unit[i]] == "unit.flops":
            counted["pool"] += tr.flops[i]
    b, c, h, w = shape
    model = complexity.atconv_flops(complexity.ShapeSpec(b, c, h, w, kernel, 4))
    got = {
        "context_to_kernel": counted["op.generate_kernels_forward"] + counted["op.dkm_forward"],
        "conv": counted["op.dyn_depthwise_forward"],
        "projections": counted["primitives.conv1x1_forward"],
        "total": tr.flops[fwd],
        "pool": counted["pool"],
        "dkm": counted["op.dkm_forward"],
    }
    model = dict(model, pool=b * h * w * c, dkm=b * c * kernel * kernel)
    m = {}
    for term, value in got.items():
        m[f"flops.{term}.counted"] = (float(value), "flop", 1)
        m[f"flops.{term}.model"] = (float(model[term]), "flop", 1)
        m[f"flops.{term}.ratio"] = (value / model[term], "ratio", 1)
    return m

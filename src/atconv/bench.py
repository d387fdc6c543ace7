"""Latency / peak-memory measurement and the ablation grid.

Latency: median and p10/p90 of wall time over ``reps`` timed forward
passes after ``warmup`` untimed ones, monotonic clock, one operator and
one resolution per row. Peak bytes come from a separate tracked forward
pass using tracemalloc (array allocations are visible to it), so the
timed passes stay unperturbed. ``dry_run`` skips timing and measurement
entirely and emits zeros, which makes the CSV byte-stable for pipeline
tests.

The ablation grid walks the operator's structure from a static depthwise
conv to the full adaptive form, one switch at a time, then tries each
kernel modulation on top. Every row carries its parameter count, a
forward latency, and a finite-difference gradient check verdict; the
softmax row additionally runs a short training probe and records whether
the loss diverged, since a probability-simplex kernel starves gradients
and tends not to train.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .baselines import IdentityOp, StaticConv, StaticDepthwise, ToySAParams, ToySelfAttention
from .complexity import ShapeSpec, memory
from .errors import ArgumentError, NumericError
from .gradcheck import DEFAULT_TOL, atconv_check, check_pair
from .micro import AdamHyper, adam_init
from .op import ATConv, ATConvConfig, ATConvParams
from .rng import Rng
from .tensor import need_count
from .train import step

CSV_HEADER = "operator,H,lat_med_ms,lat_p10_ms,lat_p90_ms,peak_bytes_measured,peak_bytes_model"

OPERATORS = ("atconv", "toy_sa", "static_dwconv", "static_conv")

ABLATION_CSV_HEADER = "config,param_count,forward_ms,gradcheck_pass,probe_diverged"

ABLATION_STAGES = ("static_depthwise", "+generator", "+out_proj", "+value_proj",
                   "mod=softmax", "mod=central_diff", "mod=dkm")


def _need_sizes(batch, channels, reps, resolutions, kernel: int) -> None:
    """Raise ArgumentError naming the first of batch, channels, reps and
    the resolutions that is not a positive integer, or a resolution below
    the kernel size."""
    for value, name in ((batch, "batch"), (channels, "channels"), (reps, "reps")):
        need_count(value, name)
    for h in resolutions:
        need_count(h, "resolution")
        if h < kernel:
            raise ArgumentError(f"resolution {h} smaller than kernel {kernel}")


@dataclass
class BenchSettings:
    operators: tuple = OPERATORS
    batch: int = 8
    channels: int = 64
    kernel: int = 3
    resolutions: tuple = (16, 24, 32, 48)
    warmup: int = 3
    reps: int = 10
    dtype: str = "f32"
    seed: int = 0
    dry_run: bool = False

    def validate(self) -> None:
        for name in self.operators:
            if name not in OPERATORS:
                raise ArgumentError(f"unknown operator {name!r}, expected one of {OPERATORS}")
        if self.dtype not in ("f32", "f64"):
            raise ArgumentError(f"dtype must be f32 or f64, got {self.dtype!r}")
        _need_sizes(self.batch, self.channels, self.reps, self.resolutions, self.kernel)
        if self.reps < 3 or self.warmup < 0:
            raise ArgumentError("reps must be >= 3 and warmup >= 0")
        if list(self.resolutions) != sorted(self.resolutions):
            raise ArgumentError("resolutions must be ascending")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64


def make_operator(name: str, channels: int, kernel: int, rng: Rng, dtype):
    if name == "identity":
        return IdentityOp()
    if name == "atconv":
        return ATConv(ATConvParams.init(rng, channels, kernel, dtype))
    if name == "toy_sa":
        return ToySelfAttention(ToySAParams.init(rng, channels, dtype=dtype))
    if name == "static_dwconv":
        return StaticDepthwise.init(rng, channels, kernel, dtype)
    if name == "static_conv":
        return StaticConv.init(rng, channels, channels, kernel, dtype)
    raise ArgumentError(f"unknown operator {name!r}")


def model_peak_bytes(name: str, batch: int, channels: int, h: int, w: int,
                     kernel: int, elt_bytes: int) -> int:
    """Analytic peak-byte estimate matching the cost model's accounting.

    The two modeled operators defer to the cost model; the static convs
    hold one activation map plus their (input-independent) kernels. The
    dense conv adds its per-sample forward scratch at every k, all at the
    padded row width W+2p: the (C_in*k*k, H*(W+2p)) column buffer, the
    C_in padded planes with their spare row, and the C_out x H*(W+2p) GEMM
    output.
    """
    spec = ShapeSpec(batch, channels, h, w, kernel, elt_bytes)
    if name == "toy_sa":
        return memory(spec)["sa_bytes"]
    if name == "atconv":
        return memory(spec)["atconv_bytes"]
    n = h * w
    if name == "static_dwconv":
        return elt_bytes * (batch * n * channels + channels * kernel * kernel)
    if name == "static_conv":
        wp = w + kernel - 1
        held = batch * n * channels + channels * channels * kernel * kernel
        held += channels * (kernel * kernel * h * wp + (h + kernel) * wp + h * wp)
        return elt_bytes * held
    raise ArgumentError(f"unknown operator {name!r}")


def _measure_peak_bytes(fn) -> int:
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        return max(0, peak - base)
    finally:
        if not was_tracing:
            tracemalloc.stop()


def run_bench(settings: BenchSettings) -> list:
    """One row dict per (operator, resolution).

    Each operator draws its inputs in resolution order, warms up at every
    resolution, then times one forward per resolution in turn for each
    rep, so a drift in machine speed during the sweep hits every point of
    the latency curve alike instead of tilting its fitted slope.
    """
    settings.validate()
    elt = settings.np_dtype().itemsize
    rows = []
    for name in settings.operators:
        rng = Rng(settings.seed)
        op = make_operator(name, settings.channels, settings.kernel, rng, settings.np_dtype)
        inputs = {}
        for h in settings.resolutions:
            try:
                inputs[h] = rng.normal(0.0, 1.0, (settings.batch, settings.channels, h, h),
                                       settings.np_dtype)
                for _ in range(0 if settings.dry_run else settings.warmup):
                    op.forward(inputs[h])
            except MemoryError:
                inputs.pop(h, None)
        lats = {h: [] for h in inputs}
        for _ in range(0 if settings.dry_run else settings.reps):
            for h in list(lats):
                try:
                    t0 = time.perf_counter_ns()
                    op.forward(inputs[h])
                    lats[h].append((time.perf_counter_ns() - t0) / 1e6)
                except MemoryError:
                    del lats[h]
        for h in settings.resolutions:
            failed = h not in lats
            med = p10 = p90 = 0.0
            peak = 0
            if not failed and not settings.dry_run:
                try:
                    peak = _measure_peak_bytes(lambda: op.forward(inputs[h]))
                except MemoryError:
                    failed = True
                med, p10, p90 = (float(np.percentile(lats[h], q)) for q in (50, 10, 90))
            if failed:
                # the run continues; the row keeps the analytic model so the
                # operator still appears in the output
                med = p10 = p90 = float("nan")
                peak = -1
            rows.append({
                "operator": name,
                "H": h,
                "lat_med_ms": med,
                "lat_p10_ms": p10,
                "lat_p90_ms": p90,
                "peak_bytes_measured": int(peak),
                "peak_bytes_model": model_peak_bytes(
                    name, settings.batch, settings.channels, h, h,
                    settings.kernel, elt),
                "failed": failed,
            })
    return rows


def rows_to_csv(rows: list) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append("{operator},{H},{lat_med_ms:.6f},{lat_p10_ms:.6f},"
                     "{lat_p90_ms:.6f},{peak_bytes_measured},{peak_bytes_model}"
                     .format(**r))
    return "\n".join(lines) + "\n"


def fit_loglog_slope(resolutions, latencies_ms) -> float:
    """Least-squares slope of log latency against log token count N = H^2."""
    resolutions = np.asarray(resolutions, dtype=np.float64)
    lats = np.asarray(latencies_ms, dtype=np.float64)
    if resolutions.size != lats.size or resolutions.size < 2:
        raise ArgumentError("need matching resolution/latency lists of length >= 2")
    if np.any(lats <= 0):
        raise ArgumentError("latencies must be positive to fit a log-log slope")
    n = np.log(resolutions**2)
    return float(np.polyfit(n, np.log(lats), 1)[0])


def latency_slopes(rows: list) -> dict:
    """Per-operator log-log slope from bench rows."""
    out = {}
    for name in {r["operator"] for r in rows}:
        sub = [r for r in rows if r["operator"] == name]
        sub.sort(key=lambda r: r["H"])
        out[name] = fit_loglog_slope([r["H"] for r in sub],
                                     [r["lat_med_ms"] for r in sub])
    return out


# ======================================================================
# ablation grid
# ======================================================================

def _stage_config(stage: str, channels: int, kernel: int, rng: Rng, dtype) -> ATConvConfig:
    if stage == "static_depthwise":
        bound = 1.0 / (kernel * kernel)
        sk = rng.uniform(-bound, bound, (channels, kernel * kernel), dtype)
        return ATConvConfig(use_kernel_generator=False, use_value_proj=False,
                            use_out_proj=False, kernel_mod="none", static_kernel=sk)
    if stage == "+generator":
        return ATConvConfig(use_value_proj=False, use_out_proj=False, kernel_mod="none")
    if stage == "+out_proj":
        return ATConvConfig(use_value_proj=False, use_out_proj=True, kernel_mod="none")
    if stage == "+value_proj":
        return ATConvConfig(kernel_mod="none")
    if stage.startswith("mod="):
        return ATConvConfig(kernel_mod=stage.split("=", 1)[1])
    raise ArgumentError(f"unknown ablation stage {stage!r}")


def stage_param_count(config: ATConvConfig, channels: int, kernel: int) -> int:
    n = 0
    if config.use_kernel_generator:
        n += channels * channels + channels + kernel**4
    else:
        n += channels * kernel * kernel
    if config.kernel_mod == "dkm":
        n += channels
    if config.use_value_proj:
        n += channels * channels + channels
    if config.use_out_proj:
        n += channels * channels + channels
    return n


def _mse(y, target):
    diff = y - target
    return float((diff * diff).mean()), 2.0 * diff / diff.size


def _softmax_probe(channels: int, kernel: int, seed: int, steps: int = 100) -> bool:
    """Short regression probe; True if the loss diverged (grew or went
    non-finite). Recorded as an observation, not asserted."""
    rng = Rng(seed)
    op = ATConv(ATConvParams.init(rng, channels, kernel), ATConvConfig(kernel_mod="softmax"))
    x = rng.normal(0.0, 1.0, (2, channels, 8, 8))
    target = rng.normal(0.0, 1.0, (2, channels, 8, 8))
    params = op.named_parameters()
    state = adam_init(params)
    hyper = AdamHyper(lr=0.05, weight_decay=0.0)
    try:
        losses = [step(op, x, target, _mse, params, state, hyper)[0] for _ in range(steps)]
    except NumericError:
        return True
    return losses[-1] > losses[0]


def run_ablation(channels: int = 64, kernel: int = 3, seed: int = 0,
                 batch: int = 8, resolution: int = 16, reps: int = 5,
                 dry_run: bool = False) -> list:
    """One row per roadmap stage; see ABLATION_STAGES for the order."""
    _need_sizes(batch, channels, reps, (resolution,), kernel)
    rows = []
    for stage in ABLATION_STAGES:
        rng = Rng(seed)
        config = _stage_config(stage, channels, kernel, rng, np.float32)
        params = ATConvParams.init(rng, channels, kernel, np.float32)
        op = ATConv(params, config)
        x = rng.normal(0.0, 1.0, (batch, channels, resolution, resolution), np.float32)
        if dry_run:
            fwd_ms = 0.0
        else:
            op.forward(x)
            lats = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                op.forward(x)
                lats.append((time.perf_counter_ns() - t0) / 1e6)
            fwd_ms = float(np.percentile(lats, 50))
        small_cfg = _stage_config(stage, 3, kernel, Rng(seed + 1), np.float64)
        err = check_pair(*atconv_check(small_cfg, kernel, seed))["max"]
        probe = ""
        if stage == "mod=softmax" and not dry_run:
            probe = "true" if _softmax_probe(8, kernel, seed) else "false"
        rows.append({
            "config": stage,
            "param_count": stage_param_count(config, channels, kernel),
            "forward_ms": fwd_ms,
            "gradcheck_pass": bool(err < DEFAULT_TOL),
            "probe_diverged": probe,
        })
    return rows


def ablation_to_csv(rows: list) -> str:
    lines = [ABLATION_CSV_HEADER]
    for r in rows:
        lines.append("{config},{param_count},{forward_ms:.6f},{gradcheck_pass},"
                     "{probe_diverged}".format(**r))
    return "\n".join(lines) + "\n"

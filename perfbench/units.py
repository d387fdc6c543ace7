"""Inputs, timed units and output checks of the benchmark.

A *unit* is one closed-loop request: the client calls the package, waits
for the result, checks it and only then sends the next. There are seven
kinds, each through the public API of one module:

- ``setup``:   a fresh import of the package, data synthesis and model
  init from the run's seed (``setup``), which must give the same inputs;
- ``train``:   ``atconv.train.train`` at the acceptance config (B=64, C=32,
  2 blocks, patch 4, k=3, E=4, f32) on 64 synthetic 28x28 digits for 4
  epochs, writing an ATCK checkpoint;
- ``eval``:    ``atconv.train.evaluate`` of the warm-up model over 256
  held-out digits at batch 256;
- ``op``:      ``ATConv.forward_cached`` then ``atconv_backward`` at the
  default DKM config, B=8, C=64, H=W=32, f32 (forward and backward timed
  apart);
- ``sdw``/``sconv``: ``StaticDepthwise`` / ``StaticConv`` forward_cached +
  backward at the same shape;
- ``analyze``: ``analysis.analyze_operator`` on a seeded f64 ``ATConv`` at
  B=1, C=64, H=W=32 -- the work of
  ``atconv analyze --seed S --channels 64 --height 32 --width 32``.

Every unit compares its output with the one the warm-up call produced
(the same seed must give the same result), on top of the unit's own
sanity conditions. ``ONE_OFF_CHECKS`` hold the heavier correctness checks
made once per run, untimed.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

MODULES = ("tensor", "rng", "primitives", "op", "baselines", "micro", "train",
           "analysis", "data", "atck", "complexity")

TRAIN_CONFIG = dict(channels=32, blocks=2, patch=4, kernel=3, expansion=4)
TRAIN_BATCH = 64
TRAIN_SAMPLES = 64
TRAIN_EPOCHS = 4
TRAIN_TEST = 32          # per-epoch test set inside train()
EVAL_IMAGES = 256
EVAL_BATCH = 256
OP_SHAPE = (8, 64, 32, 32)
KERNEL = 3
ANALYZE_SHAPE = (1, 64, 32, 32)

# kinds the warm-up runs; ``setup`` has no warm-up, the run's own set-up is one
UNIT_KINDS = ("train", "eval", "op", "sdw", "sconv", "analyze")


def import_package() -> SimpleNamespace:
    """Import atconv from scratch: drop every cached atconv module first,
    so the import is paid again (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "atconv" or n.startswith("atconv.")]:
        del sys.modules[name]
    importlib.import_module("atconv")
    return SimpleNamespace(**{m: importlib.import_module(f"atconv.{m}") for m in MODULES})


@dataclass
class Context:
    seed: int
    mods: SimpleNamespace
    train_set: object
    test_set: object
    eval_x: np.ndarray
    eval_y: np.ndarray
    op: object
    x: np.ndarray
    gy: np.ndarray
    sdw: object
    sconv: object
    aop: object
    ax: np.ndarray
    ckpt_path: str = ""
    ref: dict = None
    model: object = None


def synthesize(mods, seed: int):
    """Training set, train()'s per-epoch test set and the held-out eval set."""
    train_set, held = mods.data.synth_dataset(seed, TRAIN_SAMPLES, TRAIN_TEST + EVAL_IMAGES)
    test_set = mods.data.IdxDataset(held.images[:TRAIN_TEST], held.labels[:TRAIN_TEST])
    return train_set, test_set, held.images[TRAIN_TEST:], held.labels[TRAIN_TEST:]


def setup(seed: int) -> Context:
    """Import, data synthesis and model init: what ``setup_s`` times."""
    mods = import_package()
    train_set, test_set, eval_x, eval_y = synthesize(mods, seed)
    Rng, op_mod, bl = mods.rng.Rng, mods.op, mods.baselines
    rng = Rng(seed)
    c = OP_SHAPE[1]
    op = op_mod.ATConv(op_mod.ATConvParams.init(rng, c, KERNEL, np.float32))
    x = rng.normal(0.0, 1.0, OP_SHAPE, np.float32)
    gy = rng.normal(0.0, 1.0, OP_SHAPE, np.float32)
    sdw = bl.StaticDepthwise.init(rng, c, KERNEL, np.float32)
    sconv = bl.StaticConv.init(rng, c, c, KERNEL, np.float32)
    # the same construction as `atconv analyze --seed seed`
    aop = op_mod.ATConv(op_mod.ATConvParams.init(Rng(seed), ANALYZE_SHAPE[1], KERNEL),
                        op_mod.ATConvConfig(kernel_mod="dkm"))
    ax = Rng(seed + 1).normal(0.0, 1.0, ANALYZE_SHAPE)
    return Context(seed, mods, train_set, test_set, eval_x, eval_y,
                   op, x, gy, sdw, sconv, aop, ax)


# ======================================================================
# units: each returns ({sample name: value}, [failed checks], outputs)
# ======================================================================

def _close(a, b, tol=1e-5) -> bool:
    """Equal shapes and max|a - b| <= tol * max|b|: a norm-wise f32
    tolerance, since a sum over many terms errs relative to its largest."""
    return a.shape == b.shape and float(np.abs(a - b).max()) <= tol * float(np.abs(b).max())


def unit_setup(ctx: Context):
    gc.collect()  # the modules dropped by the last re-import are cyclic garbage
    t0 = time.perf_counter()
    fresh = setup(ctx.seed)
    dt = time.perf_counter() - t0
    same = {
        "train images": (fresh.train_set.images, ctx.train_set.images),
        "eval images": (fresh.eval_x, ctx.eval_x),
        "operator input": (fresh.x, ctx.x),
        "operator weights": (fresh.op.params.w_f, ctx.op.params.w_f),
        "analyze input": (fresh.ax, ctx.ax),
    }
    bad = [f"setup: {k} differ from the run's own set-up"
           for k, (a, b) in same.items() if not np.array_equal(a, b)]
    return {"setup_s": dt}, bad, {}


def unit_train(ctx: Context):
    m = ctx.mods
    settings = m.train.TrainSettings(epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH,
                                     seed=ctx.seed, dtype="f32")
    config = m.micro.MicroConfig(**TRAIN_CONFIG)
    t0 = time.perf_counter()
    model, records = m.train.train(config, ctx.train_set, ctx.test_set, settings,
                                   checkpoint_path=ctx.ckpt_path)
    dt = time.perf_counter() - t0
    with open(ctx.ckpt_path, "rb") as f:
        ckpt = f.read()
    losses = [r["train_loss"] for r in records]
    out = {"loss": losses[-1], "ckpt": ckpt, "model": model}
    bad = []
    if len(records) != TRAIN_EPOCHS or not all(math.isfinite(v) for v in losses):
        bad.append("train: non-finite or missing epoch loss")
    if not losses[-1] < math.log(10.0):
        bad.append(f"train: final loss {losses[-1]!r} not below ln 10")
    if ctx.ref is not None:
        if losses[-1] != ctx.ref["train"]["loss"]:
            bad.append("train: final loss differs from the same-seed warm-up run")
        if ckpt != ctx.ref["train"]["ckpt"]:
            bad.append("train: checkpoint bytes differ from the same-seed warm-up run")
    return {"train_samples_per_s": TRAIN_SAMPLES * TRAIN_EPOCHS / dt}, bad, out


def unit_eval(ctx: Context):
    t0 = time.perf_counter()
    acc = ctx.mods.train.evaluate(ctx.model, ctx.eval_x, ctx.eval_y, batch_size=EVAL_BATCH)
    dt = time.perf_counter() - t0
    bad = []
    if not 0.0 <= acc <= 1.0:
        bad.append(f"eval: accuracy {acc!r} outside [0, 1]")
    if ctx.ref is not None and acc != ctx.ref["eval"]["acc"]:
        bad.append("eval: accuracy differs from the warm-up pass")
    return {"eval_images_per_s": EVAL_IMAGES / dt}, bad, {"acc": acc}


def unit_op(ctx: Context):
    t0 = time.perf_counter()
    y, cache = ctx.op.forward_cached(ctx.x)
    t1 = time.perf_counter()
    gx, grads = ctx.mods.op.atconv_backward(ctx.gy, cache)
    t2 = time.perf_counter()
    out = {"y": y, "gx": gx, "gw_f": grads["w_f"]}
    return ({"op_fwd_ms": (t1 - t0) * 1e3, "op_bwd_ms": (t2 - t1) * 1e3},
            _compare(ctx, "op", out), out)


def _static_unit(kind, metric):
    def unit(ctx: Context):
        layer = getattr(ctx, kind)
        t0 = time.perf_counter()
        y, cache = layer.forward_cached(ctx.x)
        gx, gw = layer.backward(ctx.gy, cache)[:2]
        dt = time.perf_counter() - t0
        out = {"y": y, "gx": gx, "gw": gw}
        return {metric: dt * 1e3}, _compare(ctx, kind, out), out
    return unit


def _compare(ctx: Context, kind: str, out: dict) -> list:
    if ctx.ref is None:
        return []
    ref = ctx.ref[kind]
    return [f"{kind}: {k} differs from the warm-up pass"
            for k in out if not _close(out[k], ref[k])]


def unit_analyze(ctx: Context):
    t0 = time.perf_counter()
    report = ctx.mods.analysis.analyze_operator(ctx.aop, ctx.ax)
    dt = time.perf_counter() - t0
    fields = {
        "far": report["far"],
        "centroid": np.asarray(report["routing_centroid"], dtype=np.float64),
        "inhibition_total": report["inhibition_total"],
        "csc": report["csc"],
        "cer": report["cer"],
        "influence": report["maps"]["influence"],
        "inhibition": report["maps"]["inhibition"],
    }
    bad = [f"analyze: {k} not finite" for k, v in fields.items()
           if not np.all(np.isfinite(v))]
    if not 0.0 <= report["far"] <= 1.0:
        bad.append(f"analyze: FAR {report['far']!r} outside [0, 1]")
    if ctx.ref is not None:
        ref = ctx.ref["analyze"]
        bad += [f"analyze: {k} differs from the warm-up pass" for k in fields
                if not np.allclose(fields[k], ref[k], rtol=1e-9, atol=1e-12)]
    return {"analyze_ms": dt * 1e3}, bad, fields


UNITS = {
    "setup": unit_setup,
    "train": unit_train,
    "eval": unit_eval,
    "op": unit_op,
    "sdw": _static_unit("sdw", "static_dwconv_ms"),
    "sconv": _static_unit("sconv", "static_conv_ms"),
    "analyze": unit_analyze,
}


def warm_up(ctx: Context, workdir: str) -> list:
    """Run every unit once; its outputs become the references the timed
    units are compared against. Returns the failed checks."""
    ctx.ckpt_path = os.path.join(workdir, "train.atck")
    ctx.ref, refs, bad = None, {}, []
    for kind in UNIT_KINDS:
        _, b, out = UNITS[kind](ctx)
        bad += b
        refs[kind] = out
        if kind == "train":
            ctx.model = out["model"]
    ctx.ref = refs
    return bad


# ======================================================================
# one-off checks (untimed, once per run)
# ======================================================================

def _f64_params(mods, params):
    named = {k: np.asarray(v, dtype=np.float64) for k, v in params.named().items()}
    return mods.op.ATConvParams(**named, kernel_size=params.kernel_size)


def check_f64_recompute(ctx: Context) -> list:
    """The f32 operator output matches an f64 recompute."""
    y32 = ctx.op.forward(ctx.x)
    y64 = ctx.mods.op.atconv_forward(ctx.x.astype(np.float64),
                                     _f64_params(ctx.mods, ctx.op.params))
    err = float(np.abs(y32 - y64).max() / np.abs(y64).max())
    ok = y32.dtype == np.float32 and err < 1e-5
    return [] if ok else [f"op: f32 output off the f64 recompute (rel {err:.2e})"]


def check_directional_derivative(ctx: Context) -> list:
    """<grad, d> from atconv_backward equals the central difference of
    <gy, f> along a random direction d over the input and every parameter.

    The error is taken relative to the sum of the per-argument terms' sizes,
    not to their sum, which can cancel. In f64 with eps = 1e-6 it stays
    below 1e-9; a 0.1% error in one gradient shows as about 1e-4."""
    m = ctx.mods
    p = _f64_params(m, ctx.op.params)
    x = ctx.x.astype(np.float64)
    gy = ctx.gy.astype(np.float64)
    rng = m.rng.Rng(ctx.seed + 2)
    dx = rng.normal(0.0, 1.0, x.shape)
    dp = {k: rng.normal(0.0, 1.0, v.shape) for k, v in p.named().items()}

    def shifted(eps):
        named = {k: v + eps * dp[k] for k, v in p.named().items()}
        q = m.op.ATConvParams(**named, kernel_size=p.kernel_size)
        return float((gy * m.op.atconv_forward(x + eps * dx, q)).sum())

    _, cache = m.op.atconv_forward_cached(x, p)
    gx, grads = m.op.atconv_backward(gy, cache)
    terms = [float((gx * dx).sum())] + [float((grads[k] * dp[k]).sum()) for k in dp]
    eps = 1e-6
    numeric = (shifted(eps) - shifted(-eps)) / (2 * eps)
    err = abs(numeric - sum(terms)) / max(sum(abs(t) for t in terms), 1e-300)
    return [] if err < 1e-7 else [f"op: directional derivative off by {err:.2e}"]


def check_static_equivalence(ctx: Context) -> list:
    """ATConv with generator, value and out projections off and the
    StaticDepthwise kernel as its static kernel is StaticDepthwise."""
    m = ctx.mods
    c, k = ctx.sdw.w.shape[0], ctx.sdw.k
    config = m.op.ATConvConfig(use_kernel_generator=False, use_value_proj=False,
                               use_out_proj=False, kernel_mod="none",
                               static_kernel=ctx.sdw.w.reshape(c, k * k))
    y, cache = m.op.atconv_forward_cached(ctx.x, ctx.op.params, config)
    gx, grads = m.op.atconv_backward(ctx.gy, cache)
    y_ref, c_ref = ctx.sdw.forward_cached(ctx.x)
    gx_ref, gw_ref = ctx.sdw.backward(ctx.gy, c_ref)
    ok = (_close(y, y_ref) and _close(gx, gx_ref)
          and _close(grads["static_kernel"], gw_ref.reshape(c, k * k)))
    return [] if ok else ["op: static-kernel ATConv differs from StaticDepthwise"]


def check_eigen_trace(ctx: Context) -> list:
    """The eigenvalues behind CER sum to the covariance trace."""
    y = ctx.aop.forward(ctx.ax).astype(np.float64)
    b, c, h, w = y.shape
    s = y.transpose(0, 2, 3, 1).reshape(b * h * w, c)
    s = s - s.mean(axis=0, keepdims=True)
    cov = s.T @ s / (s.shape[0] - 1)
    lams = ctx.mods.analysis.sym_eigenvalues(cov)
    tr = float(np.trace(cov))
    ok = abs(float(lams.sum()) - tr) <= 1e-9 * max(1.0, abs(tr))
    return [] if ok else ["analyze: eigenvalue sum differs from the trace"]


ONE_OFF_CHECKS = (check_f64_recompute, check_directional_derivative,
                  check_static_equivalence, check_eigen_trace)

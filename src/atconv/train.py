"""Minibatch training for the micro classifier.

Deterministic end to end for a fixed seed: parameter init, per-epoch
shuffling, and data synthesis all draw from the seeded generator, and the
numerics are plain single-threaded array code. Metrics stream out as one
JSON object per epoch; the final (or, on divergence, last clean)
parameters land in an ATCK checkpoint.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import atck
from .errors import ArgumentError, DimensionError, NumericError, TrainingDiverged
from .micro import (AdamHyper, MicroConfig, MicroModel, adam_init, adam_step,
                    cross_entropy)
from .rng import Rng
from .tensor import ensure_finite


@dataclass
class TrainSettings:
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    hyper: AdamHyper = field(default_factory=AdamHyper)
    dtype: str = "f32"
    target_test_acc: float | None = None  # stop early once reached

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ArgumentError("epochs and batch_size must be positive")
        if self.dtype not in ("f32", "f64"):
            raise ArgumentError(f"dtype must be f32 or f64, got {self.dtype!r}")


def _need_images(images, name: str) -> None:
    if len(images) == 0:
        raise DimensionError(f"the {name} has no images")


def evaluate(model: MicroModel, images: np.ndarray, labels: np.ndarray,
             batch_size: int = 256) -> float:
    """Top-1 accuracy over a non-empty dataset with one label per image,
    taken ``batch_size`` images at a time."""
    _need_images(images, "evaluation set")
    if batch_size < 1:
        raise ArgumentError(f"batch_size must be positive, got {batch_size}")
    if np.shape(labels) != (images.shape[0],):
        raise DimensionError(f"labels must be ({images.shape[0]},), got shape {np.shape(labels)}")
    hits = 0
    for lo in range(0, images.shape[0], batch_size):
        logits = model.forward(images[lo:lo + batch_size])
        hits += int((logits.argmax(axis=1) == labels[lo:lo + batch_size]).sum())
    return hits / images.shape[0]


def step(model, x, target, loss_fn, params: dict, state: dict, hyper: AdamHyper,
         loss_target=None):
    """One optimizer step; returns (loss, model output).

    Runs ``model.forward_cached``, then ``loss_fn(y, target) -> (loss,
    dloss/dy)``, and raises NumericError on a non-finite loss before any
    parameter changes. A loss below ``loss_target``, when one is given,
    ends the step there. Otherwise ``model.backward`` and ``adam_step``
    follow, which updates ``params`` in place: they must be the arrays the
    model computes with (its ``named_parameters()``), so the model sees
    the step.
    """
    y, cache = model.forward_cached(x)
    loss, gy = loss_fn(y, target)
    if not math.isfinite(loss):
        raise NumericError("loss became non-finite")
    if loss_target is not None and loss < loss_target:
        return loss, y
    _, grads = model.backward(gy, cache)
    adam_step(params, grads, state, hyper)
    return loss, y


def train(model_config: MicroConfig, train_set, test_set,
          settings: TrainSettings, metrics_path=None, checkpoint_path=None,
          op_config=None):
    """Train a fresh model; returns (model, per-epoch metric records).

    op_config tweaks only the mixer's internals (kernel modulation and
    the ablation switches); the loop itself never looks at it. An empty
    training or test set raises DimensionError before the first step.

    A non-finite loss or stepped parameter (gamma = +inf passes every
    forward), or a NumericError from a forward pass (training or
    evaluation), the backward pass or the optimizer step, aborts the run:
    the newest parameters whose forward and backward ran cleanly are
    checkpointed (when a path is given) and TrainingDiverged is raised from
    the error, naming the op that went non-finite. Those are the parameters
    that entered the failing step when only Adam's output is non-finite,
    and those that entered the step before it otherwise: Adam's
    ``state["start"]``, which ``adam_step`` fills after a clean forward and
    backward and ``adam_init`` with the initial parameters.
    """
    settings.validate()
    _need_images(train_set.images, "training set")
    _need_images(test_set.images, "test set")
    dtype = np.float32 if settings.dtype == "f32" else np.float64
    rng = Rng(settings.seed)
    model = MicroModel.init(rng, model_config, op_config=op_config, dtype=dtype)
    params = model.named_parameters()
    state = adam_init(params)

    # nothing writes the images, so sets already in the dtype are not copied
    x_train = train_set.images.astype(dtype, copy=False)
    y_train = train_set.labels
    x_test = test_set.images.astype(dtype, copy=False)
    y_test = test_set.labels

    records = []
    metrics_file = open(metrics_path, "w") if metrics_path is not None else None
    try:
        for epoch in range(settings.epochs):
            t0 = time.perf_counter()
            order = rng.permutation(len(y_train))
            loss_sum = 0.0
            hit_sum = 0
            seen = 0
            for lo in range(0, len(y_train), settings.batch_size):
                idx = order[lo:lo + settings.batch_size]
                xb, yb = x_train[idx], y_train[idx]
                where = f"epoch {epoch}, sample {lo}"
                loss, logits = step(model, xb, yb, cross_entropy, params, state,
                                    settings.hyper)
                for name, value in params.items():
                    ensure_finite(value, f"adam_step({name})")
                loss_sum += loss * len(yb)
                hit_sum += int((logits.argmax(axis=1) == yb).sum())
                seen += len(yb)
            where = f"epoch {epoch}, evaluation"
            test_acc = evaluate(model, x_test, y_test)
            record = {
                "epoch": epoch,
                "train_loss": loss_sum / seen,
                "train_acc": hit_sum / seen,
                "test_acc": test_acc,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
            }
            records.append(record)
            if metrics_file is not None:
                metrics_file.write(json.dumps(record) + "\n")
                metrics_file.flush()
            if (settings.target_test_acc is not None
                    and test_acc >= settings.target_test_acc):
                break
    except NumericError as err:
        # whichever stage failed, the newest parameters whose forward and
        # backward ran cleanly are the ones Adam's last update started from
        if checkpoint_path is not None:
            atck.save_atck(checkpoint_path, state["start"])
        raise TrainingDiverged(f"{err} at {where}") from err
    finally:
        if metrics_file is not None:
            metrics_file.close()
    if checkpoint_path is not None:
        atck.save_atck(checkpoint_path, params)
    return model, records


def overfit_single_sample(model_config: MicroConfig, image: np.ndarray,
                          label: int, steps: int = 200, lr: float = 1e-2,
                          seed: int = 0, loss_target: float = 0.01):
    """Drive the loss on one sample toward zero; returns (losses, hit_step).

    hit_step is the first step index whose loss drops below ``loss_target``,
    or None if that never happens within ``steps``. The step whose loss
    hits the target stops after its forward: no backward or Adam step runs
    for it. A non-finite loss raises NumericError (see ``step``).
    """
    rng = Rng(seed)
    model = MicroModel.init(rng, model_config, dtype=np.float64)
    params = model.named_parameters()
    state = adam_init(params)
    hyper = AdamHyper(lr=lr, weight_decay=0.0)
    xb = np.asarray(image, dtype=np.float64)
    if xb.ndim == 3:
        xb = xb[None]
    yb = np.array([label], dtype=np.int64)
    losses = []
    for i in range(steps):
        loss, _ = step(model, xb, yb, cross_entropy, params, state, hyper, loss_target)
        losses.append(loss)
        if loss < loss_target:
            return losses, i
    return losses, None

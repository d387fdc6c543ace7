"""Span recorder for the traced run.

``Tracer.install`` replaces public atconv functions and methods with
wrappers that open a span on entry and close it on exit. A function is
patched at every module that binds it (``atconv.micro.gelu_forward`` and
``atconv.op.gelu_forward`` are the same object under two names), so calls
from inside the package are seen too. ``Tracer.restore`` puts every
original binding back.

Spans live in memory: parallel lists of name, start and end (ns), parent
index, the enclosing benchmark unit and training step, the FLOP-counter
delta and an optional count (elements, bytes). A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because the benchmark runs one thread.

A training step has no function of its own inside ``train.train``, so the
tracer makes one: a ``train.step`` span opens when ``MicroModel.forward_cached``
is entered directly under ``train.train`` and closes at the next such
forward, at ``train.evaluate``, at ``atck.save_atck`` or when ``train.train``
returns. Everything ``train()`` does in between belongs to that step.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time

import numpy as np

WRAPPED_MARK = "__perfbench_wrapped__"

STEP = "train.step"
_STEP_PARENT = "train.train"
_STEP_OPENER = "micro.MicroModel.forward_cached"
_STEP_CLOSERS = ("train.evaluate", "atck.save_atck")

# (module, attribute path) of every wrapped callable. Dotted paths are
# methods, patched once on their class.
TARGETS = (
    ("tensor", "as_tensor4"), ("tensor", "ensure_finite"),
    ("primitives", "erf"),
    ("primitives", "gelu_forward"), ("primitives", "gelu_backward"),
    ("primitives", "conv1x1_forward"), ("primitives", "conv1x1_backward"),
    ("primitives", "layer_norm_forward"), ("primitives", "layer_norm_backward"),
    ("primitives", "linear_forward"), ("primitives", "linear_backward"),
    ("primitives", "adaptive_avg_pool_forward"),
    ("primitives", "adaptive_avg_pool_backward"),
    ("op", "generate_kernels_forward"), ("op", "generate_kernels_backward"),
    ("op", "dkm_forward"), ("op", "dkm_backward"),
    ("op", "dyn_depthwise_forward"), ("op", "dyn_depthwise_backward"),
    ("op", "atconv_forward_cached"), ("op", "atconv_backward"),
    ("op", "ATConvParams.validate"),
    ("baselines", "StaticDepthwise.forward_cached"),
    ("baselines", "StaticDepthwise.backward"),
    ("baselines", "StaticConv.forward_cached"),
    ("baselines", "StaticConv.backward"),
    ("micro", "glu_forward"), ("micro", "glu_backward"),
    ("micro", "block_forward"), ("micro", "block_backward"),
    ("micro", "patch_embed_forward"), ("micro", "patch_embed_backward"),
    ("micro", "cross_entropy"), ("micro", "adam_step"),
    ("micro", "MicroModel.forward_cached"), ("micro", "MicroModel.backward"),
    ("micro", "MicroModel.set_parameter"),
    ("train", "train"), ("train", "evaluate"),
    ("analysis", "analyze_operator"), ("analysis", "influence_map"),
    ("analysis", "inhibition_map"), ("analysis", "csc"), ("analysis", "cer"),
    ("analysis", "sym_eigenvalues"),
    ("data", "synth_dataset"),
    ("atck", "save_atck"),
)


def _erf_elements(args, kwargs, result):
    return int(np.size(args[0]))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# Counts recorded on a span next to its time.
COUNTERS = {"primitives.erf": _erf_elements, "atck.save_atck": _file_bytes}


def package_modules(package: str = "atconv") -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def find_wrapped(package: str = "atconv") -> list:
    """Names of every module or class attribute in the package that is
    still a tracer wrapper; empty when the package runs unwrapped."""
    found = []
    for mod in package_modules(package):
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, WRAPPED_MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


class Tracer:
    """Span store plus the patch/restore machinery."""

    def __init__(self, flop_counter):
        self._flops = flop_counter
        self.name, self.start, self.end = [], [], []
        self.parent, self.unit, self.step = [], [], []
        self.flops, self.count = [], []
        self._stack = []
        self._open_step = -1
        self._patched = []  # (owner, attribute, original)

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        top = self._stack[-1] if self._stack else -1
        if name in _STEP_CLOSERS or (name == _STEP_OPENER and self._top_name() == STEP):
            self._close_step()
            top = self._stack[-1] if self._stack else -1
        if name == _STEP_OPENER and self._top_name() == _STEP_PARENT:
            self._open_step = self.open(STEP)
            top = self._open_step
        i = len(self.name)
        self.name.append(name)
        self.parent.append(top)
        self.unit.append(self.unit[top] if top >= 0 else i)
        self.step.append(i if name == STEP else (self.step[top] if top >= 0 else -1))
        self.flops.append(self._flops.total)
        self.count.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int, count: int = 0) -> None:
        t = time.perf_counter_ns()
        if self.name[i] == _STEP_PARENT:
            self._close_step(t)
        self.end[i] = t
        self.flops[i] = self._flops.total - self.flops[i]
        self.count[i] = count
        self._stack.pop()

    def _top_name(self):
        return self.name[self._stack[-1]] if self._stack else None

    def _close_step(self, t=None) -> None:
        i = self._open_step
        if i >= 0 and self._stack and self._stack[-1] == i:
            self.end[i] = time.perf_counter_ns() if t is None else t
            self.flops[i] = self._flops.total - self.flops[i]
            self._stack.pop()
            self._open_step = -1

    def duration_ns(self) -> np.ndarray:
        return np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)

    def self_ns(self) -> np.ndarray:
        dur = self.duration_ns()
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    # ---------------------------------------------------------- patching

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    n = counter(args, kwargs, result)
                return result
            finally:
                tracer.close(i, n)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def install(self, package: str = "atconv") -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = package_modules(package)
        try:
            for mod_name, path in TARGETS:
                home = sys.modules[f"{package}.{mod_name}"]
                span_name = f"{mod_name}.{path}"
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, orig, self._wrap(span_name, orig))
                    continue
                orig = getattr(home, path)
                wrapper = self._wrap(span_name, orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, orig, wrapper)
        except BaseException:
            self.restore()
            raise

    def _set(self, owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # ------------------------------------------------------------ output

    def dump(self, path) -> None:
        """Write every span, gzip-compressed JSON with interned names."""
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start_ns", "end_ns", "parent", "unit", "step",
                       "flops", "count"],
            "spans": [[index[n], s, e, p, u, st, f, c] for n, s, e, p, u, st, f, c in zip(
                self.name, self.start, self.end, self.parent, self.unit, self.step,
                self.flops, self.count)],
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))

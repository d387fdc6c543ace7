"""Array contracts shared by every operator.

A feature map is a C-contiguous float array of shape (B, C, H, W): element
(b, c, h, w) lives at flat offset ((b*C + c)*H + h)*W + w. Weights are 2-D
(rows, cols). Only float32 and float64 are admitted, and every primitive
checks its output for non-finite values before returning, so a NaN or Inf
surfaces at the op that produced it instead of three layers later.

The module also hosts the multiply-add counter the complexity model is
validated against. Counting is off by default; the counter only sees the
dominant arithmetic (channel mixing, pooling sums, kernel application), not
activations or biases, mirroring what the analytic model includes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, ArgumentError, NumericError

FLOAT_DTYPES = (np.float32, np.float64)


def as_tensor4(x, name: str = "x") -> np.ndarray:
    """Validate and return a (B, C, H, W) float array, made contiguous."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"{name} must have 4 axes (B, C, H, W), got shape {x.shape}")
    if x.dtype not in FLOAT_DTYPES:
        raise ArgumentError(f"{name} must be float32 or float64, got {x.dtype}")
    if min(x.shape) < 1:
        raise DimensionError(f"{name} has an empty axis: shape {x.shape}")
    return np.ascontiguousarray(x)


def as_matrix(w, name: str = "w") -> np.ndarray:
    """Validate and return a 2-D float weight array."""
    w = np.asarray(w)
    if w.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {w.shape}")
    if w.dtype not in FLOAT_DTYPES:
        raise ArgumentError(f"{name} must be float32 or float64, got {w.dtype}")
    return np.ascontiguousarray(w)


def as_vector(v, n: int | None = None, name: str = "v") -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {v.shape}")
    if v.dtype not in FLOAT_DTYPES:
        raise ArgumentError(f"{name} must be float32 or float64, got {v.dtype}")
    if n is not None and v.shape[0] != n:
        raise DimensionError(f"{name} must have length {n}, got {v.shape[0]}")
    return np.ascontiguousarray(v)


def ensure_finite(x: np.ndarray, op: str) -> np.ndarray:
    """Raise NumericError if any element of ``x`` is NaN or infinite.

    x·x is NaN or infinite when any element is, and for a contiguous ``x``
    it is one BLAS pass with no whole-map temporary. It also overflows on
    large finite elements, so a non-finite x·x is confirmed by counting
    the bad elements.
    """
    v = np.asarray(x).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.dot(v, v)
    if not math.isfinite(sq):
        bad = int(v.size - np.count_nonzero(np.isfinite(v)))
        if bad:
            raise NumericError(f"{op} produced {bad} non-finite element(s)")
    return x


class FlopCounter:
    """Process-wide multiply-add counter, enabled via ``counting()``."""

    def __init__(self):
        self.enabled = False
        self.total = 0

    def add(self, n: int) -> None:
        if self.enabled:
            self.total += int(n)

    def reset(self) -> None:
        self.total = 0


flop_counter = FlopCounter()


@contextmanager
def counting():
    """Enable the FLOP counter for a block; yields the counter."""
    flop_counter.reset()
    flop_counter.enabled = True
    try:
        yield flop_counter
    finally:
        flop_counter.enabled = False

"""Array contracts shared by every operator.

``as_float(a, shape, name)`` is the one array contract: a C-contiguous
float32 or float64 array of a given rank, with some axis lengths fixed.
Every parameter container states its field -> shape table once and rebinds
each field through it; ``as_matrix`` and ``as_vector`` are its 2-D and 1-D
cases. A feature map is a C-contiguous float array of shape (B, C, H, W):
element (b, c, h, w) lives at flat offset ((b*C + c)*H + h)*W + w. Every
primitive checks its output for non-finite values before returning, so a
NaN or Inf surfaces at the op that produced it instead of three layers
later.

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


def as_float(a, shape: tuple, name: str) -> np.ndarray:
    """``a`` as a C-contiguous float array of ``shape``, copied only when
    it is not one already.

    Checks the rank, then the dtype (float32 or float64), then each fixed
    length; a None in ``shape`` matches any length. A bad rank or length
    raises DimensionError, a bad dtype ArgumentError, and every message
    names ``name`` and the shape expected.
    """
    a = np.asarray(a)
    ranked = a.ndim == len(shape)
    if (ranked and a.dtype in FLOAT_DTYPES
            and all(n is None or n == m for n, m in zip(shape, a.shape))):
        return np.ascontiguousarray(a)
    want = str(tuple(shape)).replace("None", "?")
    if ranked and a.dtype not in FLOAT_DTYPES:
        raise ArgumentError(f"{name} {want} must be float32 or float64, got {a.dtype}")
    raise DimensionError(f"{name} must be {want}, got shape {a.shape}")


def as_matrix(w, name: str = "w") -> np.ndarray:
    return as_float(w, (None, None), name)


def as_vector(v, n: int | None = None, name: str = "v") -> np.ndarray:
    return as_float(v, (n,), name)


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

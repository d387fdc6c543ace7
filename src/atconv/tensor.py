"""Array contracts shared by every operator.

``as_float(a, shape, name, dtype=None)`` is the one array contract: a
C-contiguous float32 or float64 array of a given rank, with some axis
lengths fixed, cast to a float ``dtype`` when one is given. Parameter
containers rebind their fields through it, stage forwards take their
weights through it and backwards their cotangents; ``as_shaped`` is its
shape check alone, for an array a stage reads in the caller's layout. A
feature map is ``as_tensor4``'s (B, C, H, W) case: element (b, c, h, w)
lives at flat offset ((b*C + c)*H + h)*W + w. Every primitive checks its
output for non-finite values before returning, so a NaN or Inf surfaces at
the op that produced it instead of three layers later.

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


def as_float(a, shape: tuple, name: str, dtype=None) -> np.ndarray:
    """``a`` as a C-contiguous float array of ``shape``, copied only when
    it is not one already.

    Checks the rank, then the dtype (float32 or float64), then each fixed
    length; a None in ``shape`` matches any length. A bad rank or length
    raises DimensionError, a bad dtype ArgumentError, and every message
    names ``name`` and the shape expected. A float ``dtype`` is the dtype
    returned, so a stage passing its input's dtype has its weights cast to
    a float input's precision; any other ``dtype`` keeps ``a``'s.
    """
    a = np.asarray(a)
    if a.ndim == len(shape) and a.dtype not in FLOAT_DTYPES:
        raise ArgumentError(f"{name} {_want(shape)} must be float32 or float64, got {a.dtype}")
    a = as_shaped(a, shape, name)
    return np.ascontiguousarray(a, dtype=dtype if dtype in FLOAT_DTYPES else None)


def as_shaped(a, shape: tuple, name: str) -> np.ndarray:
    """``a`` as an array of ``shape``, in its own dtype and layout.

    ``as_float``'s shape check alone, for an array a stage reads in the
    caller's layout: a batch-broadcast kernel's layout, kept by its
    gradient, fixes the order of the batch sum taken from that gradient.
    """
    a = np.asarray(a)
    if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
        raise DimensionError(f"{name} must be {_want(shape)}, got shape {a.shape}")
    return a


def _want(shape: tuple) -> str:
    return str(tuple(shape)).replace("None", "?")


def as_tensor4(x, name: str = "x", channels: int | None = None) -> np.ndarray:
    """``x`` as a C-contiguous (B, C, H, W) float array through
    ``as_float``, with no empty axis and, when ``channels`` is given, that
    many channels."""
    x = as_float(x, (None,) * 4, name)
    if channels is not None and x.shape[1] != channels:
        raise DimensionError(f"{name} has {x.shape[1]} channels, expected {channels}")
    if min(x.shape) < 1:
        raise DimensionError(f"{name} has an empty axis: shape {x.shape}")
    return x


def as_vector(v, n: int | None = None, name: str = "v") -> np.ndarray:
    return as_float(v, (n,), name)


# Elements per block of a cache-blocked loop: a block's products and sums
# stay in L2 instead of streaming whole-tensor temporaries through memory.
BLOCK = 1 << 16


def block_ranges(n: int, size: int, budget: int = BLOCK) -> list:
    """(lo, hi) ranges that split n items of ``size`` elements each into
    as few blocks as keep each within ``budget`` elements (one item at
    least), with lengths that differ by one at most, the last the longest.

    Every loop sized by it works per item or keeps a running sum in item
    order, so where the blocks fall moves no bit."""
    blocks = -(-n // max(1, budget // size))
    return [(i * n // blocks, (i + 1) * n // blocks) for i in range(blocks)]


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

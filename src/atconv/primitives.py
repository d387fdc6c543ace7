"""Differentiable building blocks: pointwise convolution, adaptive average
pooling, dense layers, and the usual nonlinearities.

Every primitive comes in two parts: a forward (``*_forward``) returning its
output and the cache its backward needs, and a hand-derived backward
(``*_backward``) consuming that cache. There is no tape; composite
operators chain these calls explicitly and keep their own cache objects.

Backward passes return gradients in the same order as the forward's
differentiable arguments and None for absent optional biases.

Every stage keeps the array contract of ``tensor``. A forward takes each
weight through ``as_float``, checked against its input's lengths and cast
to a float input's dtype. A backward raises StateError without its cache
and checks its cotangent against the output shape the cache records:
through ``as_float`` where it reads a contiguous cotangent, through
``as_shaped`` where it keeps the caller's layout. ``op`` and ``baselines``
build their stages the same way.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, ArgumentError, StateError
from .tensor import as_float, as_shaped, as_tensor4, block_ranges, ensure_finite, flop_counter

try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

INV_SQRT2 = float(1.0 / np.sqrt(2.0))
INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def _need_cache(cache, op: str, use: str = "backward"):
    if cache is None:
        raise StateError(f"{op}_{use} needs the cache from {op}_forward")
    return cache


# ======================================================================
# erf: Cody's (1969) rational minimax set in float64, and an odd-over-even
# rational in float32
# ======================================================================

_ERF_A = (3.16112374387056560e0, 1.13864154151050156e2, 3.77485237685302021e2,
          3.20937758913846947e3, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
          2.84423683343917062e3)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e0, 6.61191906371416295e1,
          2.98635138197400131e2, 8.81952221241769090e2, 1.71204761263407058e3,
          2.05107837782607147e3, 1.23033935479799725e3, 2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
          1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
          3.43936767414372164e3, 1.23033935480374942e3)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
          1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e0, 1.87295284992346047e0, 5.27905102951428412e-1,
          6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1

# float32 erf(c) = c * P(c^2) / Q(c^2) on c clamped to [-4, 4], where f32
# erf is 1 to within half an ulp: Eigen's generic_fast_erf_float set (XLA
# evaluates the same form). P holds the odd coefficients of x^1 .. x^13,
# Q the even ones of x^0 .. x^8, both in ascending order.
_ERF32_P = tuple(np.float32(v) for v in (
    -1.60960333262415e-02, -2.95459980854025e-03, -7.34990630326855e-04,
    -5.69250639462346e-05, -2.10102402082508e-06, 2.77068142495902e-08,
    -2.72614225801306e-10))
_ERF32_Q = tuple(np.float32(v) for v in (
    -1.42647390514189e-02, -7.37332916720468e-03, -1.68282697438203e-03,
    -2.13374055278905e-04, -1.45660718464996e-05))


# Bytes of one temporary of a pass. Whole-array temporaries at the GLU's
# size page-fault afresh on every call; block-sized ones stay in cache and
# are reused by the allocator, as long as each stays below glibc's 128 KiB
# mmap and trim thresholds, which a request of 128 KiB itself may cross.
# So erf keeps this fixed step, not ``block_ranges``; its edge tests place
# values at the block edge.
_ERF_BLOCK_BYTES = 96 << 10
# Elements per float32 pass. The float64 path computes in float64, so a
# pass takes half as many, and every float32 block edge is a float64 one.
_ERF_BLOCK = _ERF_BLOCK_BYTES // 4


def erf(x: np.ndarray, scale=None, out=None) -> np.ndarray:
    """Error function; with a ``scale``, erf(x * scale) without the whole
    map x * scale, and with the bits that map would give.

    The result has x's shape and the product's dtype, x's own without a
    scale (a 0-d input gives a 0-d array); an integer or bool result
    dtype becomes float64. It is written into ``out``, a C-contiguous
    array of that shape and dtype, when one is given, and returned. The
    result dtype picks one of two precisions:

    - float32: ``_erf32_block``, the rational c * (P(c^2) / Q(c^2)) on c =
      x clamped to [-4, 4], evaluated in float32 by Horner's rule and
      clipped to [-1, 1] (``_ERF32_P``/``_ERF32_Q``, Eigen's
      generic_fast_erf_float coefficients). It is within 8 ulp and 5e-7
      of the float64 path for every float32 input (the sweep in
      ``tools/erf32_sweep.py``), exactly odd, and keeps the sign of zero.
    - every other dtype: ``_erf_block``, Cody's three-region rational
      minimax fit in float64, absolute error below 1e-15. Each region's
      elements are gathered by index, evaluated and scattered back, so
      an element pays for its own region only.

    The flattened input is taken in blocks of ``_ERF_BLOCK_BYTES`` per
    temporary (``_ERF_BLOCK`` elements in float32, half as many on the
    float64 path), so no temporary reaches 128 KiB. A block is
    multiplied by ``scale`` in the product's dtype before anything else,
    so it sees the same bits the whole-map product would hold. Both paths map NaN to NaN and +-inf to +-1.
    """
    x = np.asarray(x)
    flat = x.ravel()
    dtype = x.dtype if scale is None else np.result_type(x, scale)
    if not np.issubdtype(dtype, np.floating):
        dtype = np.dtype(np.float64)
    if out is None:
        out = np.empty(x.shape, dtype=dtype)
    elif out.shape != x.shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ArgumentError(f"out must be a C-contiguous {x.shape} {dtype} array")
    flat_out = out.reshape(-1)
    erf_block, step = ((_erf32_block, _ERF_BLOCK) if dtype == np.float32
                       else (_erf_block, _ERF_BLOCK // 2))
    for lo in range(0, flat.size, step):
        block = flat[lo:lo + step]
        if scale is not None:
            block = block * scale
        erf_block(block, flat_out[lo:lo + step])
    return out


def _erf32_block(x, out):
    """float32 erf of the 1-D block ``x`` into ``out``.

    c * (P / Q), not (c * P) / Q: c * P would lose a subnormal c's low
    bits before the division. c is clamped into ``out``, which the final
    clip overwrites, so c costs no temporary of its own. The final clip
    holds results in [3.57, 4], where the rational reads 1.0000002, to 1.
    Both clips call numpy's clip ufunc, ``_clip``, itself: ``np.clip``
    and the ndarray method reach it through a Python wrapper, so their
    bits, NaN and -0 included, are its own. ``np.maximum`` then
    ``np.minimum`` would also keep them, but at two passes of more than
    twice the clip's time.
    """
    c = _clip(x, -4.0, 4.0, out=out)
    s = c * c
    p = s * _ERF32_P[-1]
    for a in _ERF32_P[-2:0:-1]:
        p += a
        p *= s
    p += _ERF32_P[0]
    q = s * _ERF32_Q[-1]
    for a in _ERF32_Q[-2:0:-1]:
        q += a
        q *= s
    q += _ERF32_Q[0]
    p /= q
    p *= c
    _clip(p, -1.0, 1.0, out=out)


def _erf_block(x, out):
    """Cody's float64 erf of the 1-D block ``x`` into ``out``; NaN falls in
    the outer region and comes out NaN, +-inf comes out +-1."""
    xd = x.astype(np.float64, copy=False)
    y = np.abs(xd)
    inner = y <= 0.46875
    not_outer = y <= 4.0

    idx = np.flatnonzero(inner)
    if idx.size:
        xs = xd.take(idx)
        num, den = _rational(xs * xs, _ERF_A, _ERF_B)
        xs *= num
        xs /= den
        out[idx] = xs

    idx = np.flatnonzero(inner != not_outer)
    if idx.size:
        ys = y.take(idx)
        num, den = _rational(ys, _ERF_C, _ERF_D)
        num /= den
        out[idx] = _erf_from_scaled_erfc(xd.take(idx), ys, num)

    idx = np.flatnonzero(~not_outer)
    if idx.size:
        # erf is exactly +-1 in float64 from |x| = 5.93 on; the clamp keeps
        # ys * 16 and the split exp finite for huge and infinite x
        ys = np.minimum(y.take(idx), 6.0)
        z = ys * ys
        np.divide(1.0, z, out=z)
        num, den = _rational(z, _ERF_P, _ERF_Q)
        num *= z
        num /= den
        np.subtract(_INV_SQRT_PI, num, out=num)
        num /= ys
        out[idx] = _erf_from_scaled_erfc(xd.take(idx), ys, num)


def _rational(t, a, b):
    """(num, den) of one Cody region as new arrays, by Horner's rule in t:
    num = (..((a[n] t + a[0]) t + a[1]) t ..) + a[n-1] and
    den = (..((t + b[0]) t + b[1]) t ..) + b[n-1], for n = len(b)."""
    n = len(b)
    num = a[n] * t
    den = t.copy()
    for i in range(n - 1):
        num += a[i]
        num *= t
        den += b[i]
        den *= t
    num += a[n - 1]
    den += b[n - 1]
    return num, den


def _erf_from_scaled_erfc(xs, ys, r):
    """sign(x) * (1 - exp(-y^2) * r) for y = |x|, as a new array.

    exp(-y^2) is split as exp(-ysq^2) * exp(-(y - ysq)(y + ysq)) with ysq
    = y rounded down to 1/16, which keeps the argument exact in the high
    bits.
    """
    ysq = ys * 16.0
    np.floor(ysq, out=ysq)
    ysq /= 16.0
    lo = ys - ysq
    np.negative(lo, out=lo)
    lo *= ys + ysq
    np.exp(lo, out=lo)
    hi = -ysq
    hi *= ysq
    np.exp(hi, out=hi)
    hi *= lo
    hi *= r
    np.subtract(1.0, hi, out=hi)
    hi *= np.sign(xs)
    return hi


# ======================================================================
# pointwise (1x1) convolution: per-pixel channel mixing
# ======================================================================

class Conv1x1Cache(NamedTuple):
    """The input, and the weight and bias (or None) as cast to its dtype."""
    x: np.ndarray
    w: np.ndarray
    bias: Optional[np.ndarray]


def conv1x1_forward(x, w, bias=None, out=None):
    """y[b, o, h, w] = sum_i w[o, i] * x[b, i, h, w] (+ bias[o]), written
    into ``out``, a C-contiguous array of y's shape and x's dtype, when
    one is given, with the bits of a fresh y."""
    x = as_tensor4(x)
    b_, c_in, h_, w_ = x.shape
    w = as_float(w, (None, c_in), "w", x.dtype)
    c_out = w.shape[0]
    if bias is not None:
        bias = as_float(bias, (c_out,), "bias", x.dtype)
    n = h_ * w_
    if out is not None:
        if out.shape != (b_, c_out, h_, w_) or out.dtype != x.dtype or not out.flags.c_contiguous:
            raise ArgumentError(
                f"out must be a C-contiguous {(b_, c_out, h_, w_)} {x.dtype} array")
        out = out.reshape(b_, c_out, n)
    y = np.matmul(w, x.reshape(b_, c_in, n), out=out)
    if bias is not None and b_ == 1:
        y += bias[:, None]  # y already has x's dtype
    elif bias is not None:
        # one add of a (C_out H W) row, bias[o] repeated per pixel, over y
        # as (B, C_out H W): one rounding per element, as the broadcast
        # add makes, in B long runs instead of B C_out runs of H W. For
        # one sample the row would be a second map, so the broadcast runs
        rows = y.reshape(b_, c_out * n)
        rows += np.repeat(bias, n)
    flop_counter.add(2 * b_ * n * c_out * c_in)
    ensure_finite(y, "conv1x1")
    return y.reshape(b_, c_out, h_, w_), Conv1x1Cache(x, w, bias)


def conv1x1_backward(gy, cache: Conv1x1Cache, gw=None, gb=None):
    """Gradients of ``conv1x1_forward`` w.r.t. x, w and the bias.

    gx = w^T gy is one batched matmul. gw = sum_b gy[b] x[b]^T is summed
    in sample order, in blocks of samples whose products fit in
    ``tensor.BLOCK`` elements (``block_ranges``), m samples in the longest.
    Each block is one batched matmul, which runs the per-sample BLAS GEMM,
    into slots 1..m of an (m+1, C_out, C_in) buffer whose slot 0 holds
    the running gw; ``np.add.reduce`` over the slots then adds them into
    gw one slot after the other, as a loop of ``gw += gy[b] x[b]^T``
    would. So gw keeps that loop's bits, with one
    GEMM call per block. The buffer holds at most max(BLOCK, C_out C_in) +
    C_out C_in elements and is freed before gx, so the peak stays that of
    gx and gw.

    gb is each sample's sum of gy over the pixels (``np.add.reduce`` over
    the contiguous pixel axis), added into the running gb in sample order
    the same way. That is the bits of ``gy.sum(axis=(0, 2, 3))``, which
    reduces in that order too.

    Both sums start from +0 (a running sum from +0 is never -0, so the
    reduction's own +0 start adds nothing), or continue the running sums
    ``gw`` and ``gb`` of earlier samples in place when they are given. So
    calls over consecutive chunks of a batch, each continuing the last
    one's gw and gb, give one whole-batch call's bits.
    """
    cache = _need_cache(cache, "conv1x1")
    x, w = cache.x, cache.w
    b_, c_in, h_, w_ = x.shape
    c_out = w.shape[0]
    gy = as_float(gy, (b_, c_out, h_, w_), "gy")
    n = h_ * w_
    gyr = gy.reshape(b_, c_out, n)
    xr = x.reshape(b_, c_in, n)
    if gw is None:
        gw = np.zeros((c_out, c_in), dtype=np.result_type(gyr, xr))
    ranges = block_ranges(b_, c_out * c_in)
    m = max(hi - lo for lo, hi in ranges)
    buf = np.empty((m + 1, c_out, c_in), dtype=gw.dtype)
    for lo, hi in ranges:
        j = hi - lo
        buf[0] = gw
        np.matmul(gyr[lo:hi], xr[lo:hi].transpose(0, 2, 1), out=buf[1:j + 1])
        np.add.reduce(buf[:j + 1], axis=0, out=gw)
    del buf
    if cache.bias is not None:
        if gb is None:
            gb = np.zeros(c_out, dtype=gy.dtype)
        sums = np.empty((b_ + 1, c_out), dtype=gb.dtype)
        sums[0] = gb
        np.add.reduce(gyr, axis=2, out=sums[1:])
        np.add.reduce(sums, axis=0, out=gb)
    gx = np.matmul(w.T, gyr).reshape(b_, c_in, h_, w_)
    return np.ascontiguousarray(gx), gw, gb


# ======================================================================
# adaptive average pooling to a k x k grid
# ======================================================================

class PoolCache(NamedTuple):
    in_shape: tuple
    h_bounds: tuple
    w_bounds: tuple
    dtype: np.dtype


def _pool_bounds(size: int, k: int) -> tuple:
    # output cell i averages input rows [floor(i*size/k), ceil((i+1)*size/k))
    return tuple((i * size // k, -((i + 1) * size // -k)) for i in range(k))


def _pool_windows(bounds, size: int, dtype) -> np.ndarray:
    """(size, k) matrix with 1 where a position lies in a pooling window
    and 0 elsewhere: one axis of the pooling sums."""
    m = np.zeros((size, len(bounds)), dtype=dtype)
    for i, (lo, hi) in enumerate(bounds):
        m[lo:hi, i] = 1.0
    return m


def _pool_cells(bounds, size: int) -> tuple:
    """(starts, cell): the cells the pooling windows ``bounds`` cut an axis
    of ``size`` into, as each cell's first position, and each position's
    cell. The positions of a cell lie in the same windows, so they share
    one row of ``_pool_windows``; there are at most 2k - 1 cells."""
    starts = np.array(sorted({b for window in bounds for b in window} - {size}))
    return starts, np.searchsorted(starts, np.arange(size), side="right") - 1


def _cell_windows(bounds, cell) -> np.ndarray:
    """(cells, 2): the windows each cell of ``_pool_cells`` lies in, in
    order, with k = len(bounds) for none. With k <= size, window i + 1
    starts where window i - 1 ends or later, so no position lies in three."""
    k = len(bounds)
    win = np.full((cell[-1] + 1, 2), k)
    for i, (lo, hi) in enumerate(bounds):
        for c in range(cell[lo], cell[hi - 1] + 1):
            win[c, int(win[c, 0] != k)] = i
    return win


def adaptive_avg_pool_forward(x, k: int):
    """Average the input over a k x k grid of (possibly overlapping) windows.

    Window bounds follow the floor/ceil rule above, which tiles the input
    exactly when k divides the side and degrades gracefully otherwise.
    The window sums are two GEMMs against ``_pool_windows``'s 0/1
    matrices, the W side over every row of the map at once, then the H
    side per plane; each sum is then divided by its window's area.
    """
    x = as_tensor4(x)
    b_, c_, h_, w_ = x.shape
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ArgumentError(f"pool grid size must be a positive int, got {k!r}")
    if k > min(h_, w_):
        raise DimensionError(f"pool grid {k} exceeds spatial extent {min(h_, w_)}")
    hb = _pool_bounds(h_, k)
    wb = _pool_bounds(w_, k)
    rows = x.reshape(-1, w_) @ _pool_windows(wb, w_, x.dtype)  # (B*C*H, k)
    y = np.matmul(_pool_windows(hb, h_, x.dtype).T, rows.reshape(b_, c_, h_, k))
    del rows
    hl = [h1 - h0 for h0, h1 in hb]
    wl = [w1 - w0 for w0, w1 in wb]
    y /= np.outer(hl, wl).astype(x.dtype)
    flop_counter.add(b_ * c_ * sum(hl) * sum(wl))
    ensure_finite(y, "adaptive_avg_pool")
    return y, PoolCache(x.shape, hb, wb, x.dtype)


def adaptive_avg_pool_backward(gy, cache: PoolCache, out=None):
    """gx, each window's gy / area spread over its window, added into
    ``out`` (C-contiguous, of the input's shape) in place, or into a zero
    map.

    The windows cut the map into at most (2k-1)^2 cells whose positions
    share their windows (``_pool_cells``), at most two per axis
    (``_cell_windows``). Each cell's value is summed once, from +0, over
    its windows in row-major order, a missing window adding +0: the sum a
    loop of window adds into a zero map gives each of the cell's
    positions, bit for bit. The cells are then spread a block of planes
    at a time (``block_ranges``): each cell row is gathered to its
    positions' rows and the block added into the map.
    """
    cache = _need_cache(cache, "adaptive_avg_pool")
    b_, c_, h_, w_ = cache.in_shape
    hb, wb = cache.h_bounds, cache.w_bounds
    k = len(hb)
    gy = as_float(gy, (b_, c_, k, k), "gy")
    gx = np.zeros(cache.in_shape, dtype=cache.dtype) if out is None else out
    if gx.shape != cache.in_shape or not gx.flags.c_contiguous:
        raise ArgumentError(f"out must be a C-contiguous {cache.in_shape} array")
    n = b_ * c_
    h_cut, h_cell = _pool_cells(hb, h_)
    w_cut, w_cell = _pool_cells(wb, w_)
    hw, ww = _cell_windows(hb, h_cell), _cell_windows(wb, w_cell)
    # each window's gy / area, with a zero last row and column for no window
    area = np.outer([h1 - h0 for h0, h1 in hb], [w1 - w0 for w0, w1 in wb])
    t = np.zeros((n, k + 1, k + 1), dtype=gy.dtype)
    np.divide(gy.reshape(n, k, k), area.astype(gy.dtype), out=t[:, :k, :k])
    t = t.reshape(n, -1)
    cells = np.zeros((n, len(h_cut) * len(w_cut)), dtype=cache.dtype)
    for i in (0, 1):
        for j in (0, 1):
            cells += t.take((hw[:, i, None] * (k + 1) + ww[:, j]).ravel(), axis=1)
    rows = cells.reshape(n, len(h_cut), len(w_cut)).take(w_cell, axis=2)  # (n, cells, W)
    planes = gx.reshape(n, h_, w_)
    for lo, hi in block_ranges(n, h_ * w_):
        planes[lo:hi] += rows[lo:hi].take(h_cell, axis=1)
    return gx


# ======================================================================
# dense layer over the last axis
# ======================================================================

class LinearCache(NamedTuple):
    """The input, and the weight and bias (or None) as cast to a float
    input's dtype."""
    x: np.ndarray
    w: np.ndarray
    bias: Optional[np.ndarray]


def linear_forward(x, w, bias=None):
    """y[..., m] = sum_n w[m, n] * x[..., n] (+ bias[m])."""
    x = np.asarray(x)
    if x.ndim < 1:
        raise DimensionError("linear input must have at least 1 axis")
    w = as_float(w, (None, x.shape[-1]), "w", x.dtype)
    m, n = w.shape
    if bias is not None:
        bias = as_float(bias, (m,), "bias", x.dtype)
    y = x @ w.T
    if bias is not None:
        y = y + bias
    flop_counter.add(2 * m * n * int(np.prod(x.shape[:-1], dtype=np.int64)))
    ensure_finite(y, "linear")
    return y, LinearCache(x, w, bias)


def linear_backward(gy, cache: LinearCache):
    """Gradients of ``linear_forward`` w.r.t. x, w and the bias."""
    cache = _need_cache(cache, "linear")
    x, w = cache.x, cache.w
    m, n = w.shape
    gy = as_shaped(gy, x.shape[:-1] + (m,), "gy")
    gx = gy @ w
    gyr = gy.reshape(-1, m)
    xr = x.reshape(-1, n)
    gw = gyr.T @ xr
    gb = gyr.sum(axis=0) if cache.bias is not None else None
    return gx, gw, gb


# ======================================================================
# nonlinearities
# ======================================================================

class GeluCache(NamedTuple):
    """The input and its Gaussian CDF, 0.5 * (1 + erf(x / sqrt(2))), which
    the forward computes anyway and the backward reuses."""
    x: np.ndarray
    cdf: np.ndarray


def gelu_forward(x, cdf_out=None):
    """y = 0.5 * x * (1 + erf(x / sqrt(2))), the Gaussian-CDF gate.

    x / sqrt(2) is formed one ``erf`` block at a time, never as a whole
    map, so the peak is the CDF and y plus erf's block temporaries. The
    CDF is built in ``cdf_out`` when one is given (erf's ``out``).
    """
    x = np.asarray(x)
    e1 = erf(x, INV_SQRT2, cdf_out)
    e1 += 1.0
    y = 0.5 * x
    y *= e1
    ensure_finite(y, "gelu")
    e1 *= 0.5
    return y, GeluCache(x, e1)


def gelu_backward(gy, cache: GeluCache):
    """gx = gy * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi).

    The chain runs in place on one buffer of x's dtype, in the order
    -0.5 * x, * x, exp, * INV_SQRT_2PI, * x, + cdf, * gy, so it allocates
    one map (two when gy's dtype is wider than x's, since gx has dtype
    ``result_type(gy, x)``).
    """
    cache = _need_cache(cache, "gelu")
    x = cache.x
    gy = as_shaped(gy, x.shape, "gy")
    g = np.multiply(-0.5, x)
    g *= x
    np.exp(g, out=g)
    g *= INV_SQRT_2PI
    g *= x
    g += cache.cdf
    if np.result_type(gy, g) != g.dtype:
        return gy * g
    g *= gy
    return g


class SigmoidCache(NamedTuple):
    y: np.ndarray


def sigmoid_forward(x):
    """Logistic gate, evaluated on the non-overflowing branch per sign."""
    x = np.asarray(x)
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))
    y = np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    ensure_finite(y, "sigmoid")
    return y, SigmoidCache(y)


def sigmoid_backward(gy, cache: SigmoidCache):
    y = _need_cache(cache, "sigmoid").y
    gy = as_shaped(gy, y.shape, "gy")
    return gy * y * (1.0 - y)


class SoftmaxCache(NamedTuple):
    y: np.ndarray
    axis: int | tuple


def softmax_forward(x, axis=-1):
    """Max-subtracted exponential normalization along ``axis`` (or axes)."""
    x = np.asarray(x)
    if x.ndim == 0:
        raise DimensionError("softmax input must have at least 1 axis")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    ensure_finite(y, "softmax")
    return y, SoftmaxCache(y, axis)


def softmax_backward(gy, cache: SoftmaxCache):
    cache = _need_cache(cache, "softmax")
    y, axis = cache.y, cache.axis
    gy = as_shaped(gy, y.shape, "gy")
    dot = (gy * y).sum(axis=axis, keepdims=True)
    return (gy - dot) * y


# ======================================================================
# layer norm over the channel axis
# ======================================================================

LAYER_NORM_EPS = 1e-6


class LayerNormCache(NamedTuple):
    """x-hat, the normalized input; 1 / std; and the gain and offset as
    cast to x's dtype. The backward reads the first three. The output is
    not kept: ``layer_norm_output`` rebuilds it from x-hat, gain and
    offset with the forward's bits."""
    xhat: np.ndarray
    inv_std: np.ndarray
    gain: np.ndarray
    offset: np.ndarray


def layer_norm_output(cache: LayerNormCache) -> np.ndarray:
    """gain * x-hat + offset, per channel, as a fresh map: the output
    ``layer_norm_forward`` returns, which it computes here too, so a
    caller that dropped it gets the same bits back from the cache."""
    y = cache.gain[:, None, None] * cache.xhat
    y += cache.offset[:, None, None]
    return y


def layer_norm_forward(x, gain, offset):
    """Normalize a (B, C, H, W) input to zero mean / unit variance over the
    channel axis at each spatial position, then rescale and shift. Variance
    is the population variance (divide by C), plus ``LAYER_NORM_EPS``.
    """
    x = as_shaped(x, (None,) * 4, "x")
    c = x.shape[1]
    gain = as_float(gain, (c,), "gain", x.dtype)
    offset = as_float(offset, (c,), "offset", x.dtype)
    xhat = x - x.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat * xhat).mean(axis=1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv_std
    cache = LayerNormCache(xhat, inv_std, gain, offset)
    y = layer_norm_output(cache)
    ensure_finite(y, "layer_norm")
    return y, cache


def layer_norm_backward(gy, cache: LayerNormCache):
    cache = _need_cache(cache, "layer_norm")
    xhat, inv_std, gain = cache.xhat, cache.inv_std, cache.gain
    gy = as_shaped(gy, xhat.shape, "gy")
    ggain = (gy * xhat).sum(axis=(0, 2, 3))
    goffset = gy.sum(axis=(0, 2, 3))
    gxhat = gy * gain[:, None, None]
    m1 = gxhat.mean(axis=1, keepdims=True)
    m2 = (gxhat * xhat).mean(axis=1, keepdims=True)
    gx = (gxhat - m1 - xhat * m2) * inv_std
    return gx, ggain, goffset

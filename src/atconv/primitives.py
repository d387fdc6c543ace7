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
from .tensor import as_float, as_shaped, as_tensor4, ensure_finite, flop_counter

INV_SQRT2 = float(1.0 / np.sqrt(2.0))
INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def _need_cache(cache, op: str):
    if cache is None:
        raise StateError(f"{op}_backward needs the cache from {op}_forward")
    return cache


# ======================================================================
# erf (rational minimax approximation, Cody 1969 coefficient set)
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


# Elements per pass. Whole-array float64 temporaries at the GLU's size
# page-fault afresh on every call; 256 KiB ones stay in cache and are
# reused by the allocator.
_ERF_BLOCK = 1 << 15


def erf(x: np.ndarray, scale=None) -> np.ndarray:
    """Error function via a three-region rational minimax fit; with a
    ``scale``, erf(x * scale) bit for bit, without the whole map x * scale.

    Absolute error is below 1e-15 everywhere, comfortably inside the
    1e-7 budget the gelu contract asks for. The flattened input is taken
    in blocks of ``_ERF_BLOCK`` elements; in each block every region's
    elements are gathered by index, evaluated in float64 and scattered
    back, so an element pays for its own region only. A block is
    multiplied by ``scale`` in the product's dtype (x's, for a float x)
    before it is widened to float64, so it sees the same bits the
    whole-map product would hold. The result has x's shape and the
    product's dtype, x's own without a scale (a 0-d input gives a 0-d
    array).
    """
    x = np.asarray(x)
    flat = x.ravel()
    dtype = x.dtype if scale is None else np.result_type(x, scale)
    out = np.empty(flat.shape, dtype=dtype)
    for lo in range(0, flat.size, _ERF_BLOCK):
        block = flat[lo:lo + _ERF_BLOCK]
        if scale is not None:
            block = block * scale
        _erf_block(block, out[lo:lo + _ERF_BLOCK])
    return out.reshape(x.shape)


def _erf_block(x, out):
    """erf of the 1-D block ``x`` into ``out``; NaN falls in the outer
    region and comes out NaN, +-inf comes out +-1."""
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


def conv1x1_forward(x, w, bias=None):
    """y[b, o, h, w] = sum_i w[o, i] * x[b, i, h, w] (+ bias[o])."""
    x = as_tensor4(x)
    b_, c_in, h_, w_ = x.shape
    w = as_float(w, (None, c_in), "w", x.dtype)
    c_out = w.shape[0]
    if bias is not None:
        bias = as_float(bias, (c_out,), "bias", x.dtype)
    n = h_ * w_
    y = np.matmul(w, x.reshape(b_, c_in, n)).reshape(b_, c_out, h_, w_)
    if bias is not None:
        y += bias[None, :, None, None]  # y is fresh and already has x's dtype
    flop_counter.add(2 * b_ * n * c_out * c_in)
    ensure_finite(y, "conv1x1")
    return np.ascontiguousarray(y), Conv1x1Cache(x, w, bias)


def conv1x1_backward(gy, cache: Conv1x1Cache):
    """Gradients of ``conv1x1_forward`` w.r.t. x, w and the bias.

    gx = w^T gy is one batched matmul. gw = sum_b gy[b] x[b]^T is one BLAS
    matmul per sample, each written into a C_out x C_in scratch and added
    into gw, so no B x C_out x C_in temporary is allocated. gb sums gy
    over batch and space.
    """
    cache = _need_cache(cache, "conv1x1")
    x, w = cache.x, cache.w
    b_, c_in, h_, w_ = x.shape
    c_out = w.shape[0]
    gy = as_float(gy, (b_, c_out, h_, w_), "gy")
    n = h_ * w_
    gyr = gy.reshape(b_, c_out, n)
    xr = x.reshape(b_, c_in, n)
    gw = np.zeros((c_out, c_in), dtype=np.result_type(gyr, xr))
    tmp = np.empty_like(gw)
    for gyj, xj in zip(gyr, xr):
        np.matmul(gyj, xj.T, out=tmp)
        gw += tmp
    del tmp  # freed before gx, so peak memory stays that of gx and gw
    gb = gy.sum(axis=(0, 2, 3)) if cache.bias is not None else None
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


def adaptive_avg_pool_forward(x, k: int):
    """Average the input over a k x k grid of (possibly overlapping) windows.

    Window bounds follow the floor/ceil rule above, which tiles the input
    exactly when k divides the side and degrades gracefully otherwise.
    """
    x = as_tensor4(x)
    b_, c_, h_, w_ = x.shape
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ArgumentError(f"pool grid size must be a positive int, got {k!r}")
    if k > min(h_, w_):
        raise DimensionError(f"pool grid {k} exceeds spatial extent {min(h_, w_)}")
    hb = _pool_bounds(h_, k)
    wb = _pool_bounds(w_, k)
    y = np.empty((b_, c_, k, k), dtype=x.dtype)
    adds = 0
    for i, (h0, h1) in enumerate(hb):
        for j, (w0, w1) in enumerate(wb):
            y[:, :, i, j] = x[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
            adds += (h1 - h0) * (w1 - w0)
    flop_counter.add(b_ * c_ * adds)
    ensure_finite(y, "adaptive_avg_pool")
    return y, PoolCache(x.shape, hb, wb, x.dtype)


def adaptive_avg_pool_backward(gy, cache: PoolCache):
    cache = _need_cache(cache, "adaptive_avg_pool")
    b_, c_, h_, w_ = cache.in_shape
    k = len(cache.h_bounds)
    gy = as_float(gy, (b_, c_, k, k), "gy")
    gx = np.zeros(cache.in_shape, dtype=cache.dtype)
    for i, (h0, h1) in enumerate(cache.h_bounds):
        for j, (w0, w1) in enumerate(cache.w_bounds):
            area = (h1 - h0) * (w1 - w0)
            gx[:, :, h0:h1, w0:w1] += gy[:, :, i, j][:, :, None, None] / area
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


def gelu_forward(x):
    """y = 0.5 * x * (1 + erf(x / sqrt(2))), the Gaussian-CDF gate.

    x / sqrt(2) is formed one ``erf`` block at a time, never as a whole
    map, so the peak is the CDF and y plus erf's block temporaries.
    """
    x = np.asarray(x)
    e1 = erf(x, INV_SQRT2)
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
    axis: int


def softmax_forward(x, axis: int = -1):
    """Max-subtracted exponential normalization along ``axis``."""
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

class LayerNormCache(NamedTuple):
    xhat: np.ndarray
    inv_std: np.ndarray
    gain: np.ndarray


def layer_norm_forward(x, gain, offset, eps: float = 1e-6):
    """Normalize a (B, C, H, W) input to zero mean / unit variance over the
    channel axis at each spatial position, then rescale and shift. Variance
    is the population variance (divide by C).
    """
    x = as_shaped(x, (None,) * 4, "x")
    if eps <= 0:
        raise ArgumentError(f"eps must be positive, got {eps}")
    c = x.shape[1]
    gain = as_float(gain, (c,), "gain", x.dtype)
    offset = as_float(offset, (c,), "offset", x.dtype)
    xhat = x - x.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat * xhat).mean(axis=1, keepdims=True) + eps)
    xhat *= inv_std
    y = gain[:, None, None] * xhat + offset[:, None, None]
    ensure_finite(y, "layer_norm")
    return y, LayerNormCache(xhat, inv_std, gain)


def layer_norm_backward(gy, cache: LayerNormCache):
    cache = _need_cache(cache, "layer_norm")
    xhat, inv_std, gain = cache
    gy = as_shaped(gy, xhat.shape, "gy")
    ggain = (gy * xhat).sum(axis=(0, 2, 3))
    goffset = gy.sum(axis=(0, 2, 3))
    gxhat = gy * gain[:, None, None]
    m1 = gxhat.mean(axis=1, keepdims=True)
    m2 = (gxhat * xhat).mean(axis=1, keepdims=True)
    gx = (gxhat - m1 - xhat * m2) * inv_std
    return gx, ggain, goffset

"""Slow reference implementations used as oracles by the test suite.

Everything here is written as plain scalar loops on purpose, so the
vectorized library code is checked through an independent route. Keep
the shapes tiny; these are O(everything).
"""

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from atconv.errors import ArgumentError, DimensionError, NumericError
from atconv.micro import (GluCache, _patchify, _unpatchify, glu_backward, glu_forward,
                          patch_embed_backward, patch_embed_forward)
from atconv.op import (ATConvConfig, _padded_blocks, _tap_runs, _tap_sum,
                       atconv_backward, atconv_forward_cached)
from atconv.primitives import (_ERF32_P, _ERF32_Q, Conv1x1Cache, GeluCache,
                               LinearCache, PoolCache, _need_cache, _pool_bounds,
                               conv1x1_backward, conv1x1_forward, erf, gelu_backward,
                               gelu_forward, layer_norm_backward, layer_norm_forward,
                               linear_backward, linear_forward)
from atconv.rng import _LANES
from atconv.tensor import (FLOAT_DTYPES, as_float, as_shaped, as_tensor4, as_vector,
                           ensure_finite, flop_counter)


def conv1x1_ref(x, w, bias=None):
    b, ci, h, wd = x.shape
    co = w.shape[0]
    y = np.zeros((b, co, h, wd), dtype=np.float64)
    for bi in range(b):
        for o in range(co):
            for r in range(h):
                for s in range(wd):
                    acc = 0.0
                    for i in range(ci):
                        acc += float(w[o, i]) * float(x[bi, i, r, s])
                    if bias is not None:
                        acc += float(bias[o])
                    y[bi, o, r, s] = acc
    return y


def pool_bounds_ref(size, k):
    return [(math.floor(i * size / k), math.ceil((i + 1) * size / k))
            for i in range(k)]


def adaptive_pool_ref(x, k):
    b, c, h, w = x.shape
    hb = pool_bounds_ref(h, k)
    wb = pool_bounds_ref(w, k)
    y = np.zeros((b, c, k, k), dtype=np.float64)
    for bi in range(b):
        for ci in range(c):
            for i, (h0, h1) in enumerate(hb):
                for j, (w0, w1) in enumerate(wb):
                    acc = 0.0
                    for r in range(h0, h1):
                        for s in range(w0, w1):
                            acc += float(x[bi, ci, r, s])
                    y[bi, ci, i, j] = acc / ((h1 - h0) * (w1 - w0))
    return y


def linear_ref(v, w, bias=None):
    m, n = w.shape
    out = np.zeros(m, dtype=np.float64)
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += float(w[i, j]) * float(v[j])
        if bias is not None:
            acc += float(bias[i])
        out[i] = acc
    return out


def gelu_ref(x):
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    out = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in flat])
    return out.reshape(np.shape(x))


def softmax_ref(s):
    s = [float(v) for v in s]
    m = max(s)
    e = [math.exp(v - m) for v in s]
    t = sum(e)
    return np.array([v / t for v in e])


def layer_norm_ref(v, gain, offset, eps=1e-6):
    v = [float(u) for u in v]
    n = len(v)
    mean = sum(v) / n
    var = sum((u - mean) ** 2 for u in v) / n
    return np.array([(u - mean) / math.sqrt(var + eps) * float(g) + float(o)
                     for u, g, o in zip(v, gain, offset)])


def depthwise_ref(x, kern):
    """Per-channel cross-correlation, zero padding, stride 1.

    kern is (C, K, K) shared over the batch, or (B, C, K, K).
    """
    b, c, h, w = x.shape
    if kern.ndim == 3:
        kern = np.broadcast_to(kern, (b,) + kern.shape)
    k = kern.shape[-1]
    p = k // 2
    y = np.zeros((b, c, h, w), dtype=np.float64)
    for bi in range(b):
        for ci in range(c):
            for r in range(h):
                for s in range(w):
                    acc = 0.0
                    for u in range(k):
                        for v in range(k):
                            rr, ss = r + u - p, s + v - p
                            if 0 <= rr < h and 0 <= ss < w:
                                acc += float(kern[bi, ci, u, v]) * float(x[bi, ci, rr, ss])
                    y[bi, ci, r, s] = acc
    return y


def conv2d_ref(x, w, bias=None):
    """Dense cross-correlation, zero padding, stride 1. w is (Co,Ci,K,K)."""
    b, ci, h, wd = x.shape
    co, _, k, _ = w.shape
    p = k // 2
    y = np.zeros((b, co, h, wd), dtype=np.float64)
    for bi in range(b):
        for o in range(co):
            for r in range(h):
                for s in range(wd):
                    acc = 0.0
                    for i in range(ci):
                        for u in range(k):
                            for v in range(k):
                                rr, ss = r + u - p, s + v - p
                                if 0 <= rr < h and 0 <= ss < wd:
                                    acc += float(w[o, i, u, v]) * float(x[bi, i, rr, ss])
                    if bias is not None:
                        acc += float(bias[o])
                    y[bi, o, r, s] = acc
    return y


def dkm_ref(raw_slice, lam):
    """One (K, K) kernel slice, scalar modulation strength."""
    k = raw_slice.shape[0]
    mean = sum(float(v) for v in raw_slice.reshape(-1)) / (k * k)
    return np.array([[float(raw_slice[u, v]) - lam * mean for v in range(k)]
                     for u in range(k)])


def c2k_ref(x, w_f, b_f, w_gen, k):
    """Scalar reimplementation of the kernel-generation pipeline."""
    f = conv1x1_ref(x, w_f, b_f)
    z = adaptive_pool_ref(f, k)
    a = gelu_ref(z)
    b, c = a.shape[:2]
    raw = np.zeros((b, c, k, k), dtype=np.float64)
    for bi in range(b):
        for ci in range(c):
            vec = a[bi, ci].reshape(-1)
            raw[bi, ci] = linear_ref(vec, w_gen).reshape(k, k)
    return raw


def attention_ref(x, w_q, w_k, w_v, w_o, tau):
    """Single-head attention over flattened tokens, loop form."""
    b, c, h, w = x.shape
    n = h * w
    d = w_q.shape[0]
    y = np.zeros((b, c, h, w), dtype=np.float64)
    for bi in range(b):
        tokens = [x[bi, :, r, s] for r in range(h) for s in range(w)]
        q = [linear_ref(t, w_q) for t in tokens]
        kk = [linear_ref(t, w_k) for t in tokens]
        v = [linear_ref(t, w_v) for t in tokens]
        for i in range(n):
            scores = [sum(float(q[i][a]) * float(kk[j][a]) for a in range(d)) / tau
                      for j in range(n)]
            alpha = softmax_ref(scores)
            agg = np.zeros(d)
            for j in range(n):
                agg += alpha[j] * v[j]
            out = linear_ref(agg, w_o)
            y[bi, :, i // w, i % w] = out
    return y


def gaussian_blur_ref(x, sigma=1.0):
    """Direct 2-D blur with replicate padding and a normalized kernel."""
    radius = math.ceil(3 * sigma)
    taps = range(-radius, radius + 1)
    kern = np.array([[math.exp(-(u * u + v * v) / (2 * sigma * sigma))
                      for v in taps] for u in taps])
    kern = kern / kern.sum()
    b, c, h, w = x.shape
    y = np.zeros_like(x, dtype=np.float64)
    for bi in range(b):
        for ci in range(c):
            for r in range(h):
                for s in range(w):
                    acc = 0.0
                    for iu, u in enumerate(taps):
                        for iv, v in enumerate(taps):
                            rr = min(max(r + u, 0), h - 1)
                            ss = min(max(s + v, 0), w - 1)
                            acc += kern[iu, iv] * float(x[bi, ci, rr, ss])
                    y[bi, ci, r, s] = acc
    return y


def adam_ref(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
    """One scalar AdamW step; returns (p, m, v)."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    mhat = m / (1 - beta1**t)
    vhat = v / (1 - beta2**t)
    p = p - lr * (mhat / (math.sqrt(vhat) + eps) + wd * p)
    return p, m, v


# ----------------------------------------------------------------------
# bitwise oracles for erf and the GELU backward
# ----------------------------------------------------------------------
# The vectorized erf and GELU backward as they were before the regions of
# erf were gathered and the CDF was cached in GeluCache. The rewrite keeps
# every elementwise operation in the same order, so outputs must match
# these bit for bit, not merely to a tolerance. float32 erf has its own
# formula, and ``erf32_ref`` is it over the whole array.

_REF_ERF_A = (3.16112374387056560e0, 1.13864154151050156e2, 3.77485237685302021e2,
              3.20937758913846947e3, 1.85777706184603153e-1)
_REF_ERF_B = (2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
              2.84423683343917062e3)
_REF_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e0, 6.61191906371416295e1,
              2.98635138197400131e2, 8.81952221241769090e2, 1.71204761263407058e3,
              2.05107837782607147e3, 1.23033935479799725e3, 2.15311535474403846e-8)
_REF_ERF_D = (1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
              1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
              3.43936767414372164e3, 1.23033935480374942e3)
_REF_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
              1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_REF_ERF_Q = (2.56852019228982242e0, 1.87295284992346047e0, 5.27905102951428412e-1,
              6.05183413124413191e-2, 2.33520497626869185e-3)
_REF_INV_SQRT_PI = 5.6418958354775628695e-1
_REF_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_REF_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def erf_where_ref(x):
    """erf as it was before the regions were gathered: every region runs
    over the whole float64 array and ``np.where`` merges the results."""
    x = np.asarray(x)
    xd = x.astype(np.float64, copy=False)
    y = np.abs(xd)
    out = np.empty_like(xd)

    m1 = y <= 0.46875
    if m1.any():
        z = xd * xd
        num = _REF_ERF_A[4] * z
        den = z.copy()
        for i in range(3):
                num = (num + _REF_ERF_A[i]) * z
                den = (den + _REF_ERF_B[i]) * z
        out = np.where(m1, xd * (num + _REF_ERF_A[3]) / (den + _REF_ERF_B[3]), out)

    m2 = (y > 0.46875) & (y <= 4.0)
    if m2.any():
        ys = np.where(m2, y, 1.0)
        num = _REF_ERF_C[8] * ys
        den = ys.copy()
        for i in range(7):
                num = (num + _REF_ERF_C[i]) * ys
                den = (den + _REF_ERF_D[i]) * ys
        r = (num + _REF_ERF_C[7]) / (den + _REF_ERF_D[7])
        # split exp(-y^2) to keep the argument exact in the high bits
        ysq = np.floor(ys * 16.0) / 16.0
        r = np.exp(-ysq * ysq) * np.exp(-(ys - ysq) * (ys + ysq)) * r
        out = np.where(m2, np.sign(xd) * (1.0 - r), out)

    m3 = y > 4.0
    if m3.any():
        ys = np.where(m3, y, 5.0)
        z = 1.0 / (ys * ys)
        num = _REF_ERF_P[5] * z
        den = z.copy()
        for i in range(4):
                num = (num + _REF_ERF_P[i]) * z
                den = (den + _REF_ERF_Q[i]) * z
        r = z * (num + _REF_ERF_P[4]) / (den + _REF_ERF_Q[4])
        r = (_REF_INV_SQRT_PI - r) / ys
        ysq = np.floor(ys * 16.0) / 16.0
        r = np.exp(-ysq * ysq) * np.exp(-(ys - ysq) * (ys + ysq)) * r
        out = np.where(m3, np.sign(xd) * (1.0 - r), out)

    return out.astype(x.dtype, copy=False)


# Eigen's generic_fast_erf_float coefficients: the odd numerator x^1 ..
# x^13 and the even denominator x^0 .. x^8, ascending.
_REF_ERF32_P = tuple(np.float32(v) for v in (
    -1.60960333262415e-02, -2.95459980854025e-03, -7.34990630326855e-04,
    -5.69250639462346e-05, -2.10102402082508e-06, 2.77068142495902e-08,
    -2.72614225801306e-10))
_REF_ERF32_Q = tuple(np.float32(v) for v in (
    -1.42647390514189e-02, -7.37332916720468e-03, -1.68282697438203e-03,
    -2.13374055278905e-04, -1.45660718464996e-05))


def erf32_ref(x):
    """float32 erf as one expression over the whole array, with no blocks:
    clip(c * (P(s) / Q(s)), -1, 1) for c = clip(x, -4, 4) and s = c * c,
    P and Q by Horner's rule in float32."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        raise TypeError(f"erf32_ref takes float32, not {x.dtype}")
    c = np.clip(x, np.float32(-4.0), np.float32(4.0))
    s = c * c
    p = _REF_ERF32_P[-1]
    for a in _REF_ERF32_P[-2::-1]:
        p = p * s + a
    q = _REF_ERF32_Q[-1]
    for a in _REF_ERF32_Q[-2::-1]:
        q = q * s + a
    return np.asarray(np.clip(c * (p / q), np.float32(-1.0), np.float32(1.0)))


def erf_ref(x):
    """The bitwise erf oracle for x's dtype: ``erf32_ref`` for float32,
    ``erf_where_ref`` (the float64 path) for every other float dtype."""
    x = np.asarray(x)
    return erf32_ref(x) if x.dtype == np.float32 else erf_where_ref(x)


def gelu_backward_recompute_ref(gy, x):
    """GELU backward that recomputes the CDF through ``erf_ref``."""
    x = np.asarray(x)
    gy = np.asarray(gy)
    cdf = 0.5 * (1.0 + erf_ref(x * _REF_INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _REF_INV_SQRT_2PI
    return gy * (cdf + x * pdf)


# ----------------------------------------------------------------------
# einsum and sum oracles for the BLAS backward reductions
# ----------------------------------------------------------------------
# conv1x1's weight gradient, StaticConv's input gradient and the dynamic
# depthwise galpha as they were before they moved to per-sample BLAS
# matmuls, per-tap matmuls and a product-free einsum. The summation order
# changed, so outputs match these within a tolerance, not bit for bit.
# conv1x1's forward is also kept with its old out-of-place bias add, which
# the in-place add must match bit for bit.

def conv1x1_forward_add_ref(x, w, bias):
    """conv1x1 forward with the bias added out of place."""
    b_, c_in, h_, w_ = x.shape
    c_out = w.shape[0]
    y = np.matmul(w, x.reshape(b_, c_in, h_ * w_)).reshape(b_, c_out, h_, w_)
    y = y + bias[None, :, None, None]
    return np.ascontiguousarray(y)


def conv1x1_backward_einsum_ref(gy, x, w, has_bias):
    """conv1x1 backward with gw from an unoptimized einsum."""
    b_, c_in, h_, w_ = x.shape
    c_out = w.shape[0]
    n = h_ * w_
    gyr = gy.reshape(b_, c_out, n)
    xr = x.reshape(b_, c_in, n)
    gx = np.matmul(w.T, gyr).reshape(b_, c_in, h_, w_)
    gw = np.einsum("bon,bin->oi", gyr, xr)
    gb = gy.sum(axis=(0, 2, 3)) if has_bias else None
    return np.ascontiguousarray(gx), np.ascontiguousarray(gw), gb


def static_conv_input_grad_einsum_ref(gy, x, w):
    """StaticConv's gx from one unoptimized einsum per tap."""
    b_, c_in, h_, w_ = x.shape
    k, p = w.shape[-1], w.shape[-1] // 2
    gxp = np.zeros((b_, c_in, h_ + 2 * p, w_ + 2 * p), dtype=x.dtype)
    for u in range(k):
        for t in range(k):
            gxp[:, :, u:u + h_, t:t + w_] += np.einsum(
                "oi,bohw->bihw", w[:, :, u, t], gy)
    return np.ascontiguousarray(gxp[:, :, p:p + h_, p:p + w_])


def dyn_depthwise_backward_sum_ref(gy, v, alpha):
    """dyn_depthwise backward with galpha from a full product and a sum."""
    b_, c_, h_, w_ = v.shape
    k = alpha.shape[2]
    p = k // 2
    vp = np.zeros((b_, c_, h_ + 2 * p, w_ + 2 * p), dtype=v.dtype)
    vp[:, :, p:p + h_, p:p + w_] = v
    gvp = np.zeros_like(vp)
    galpha = np.empty_like(alpha)
    for u in range(k):
        for t in range(k):
            galpha[:, :, u, t] = (gy * vp[:, :, u:u + h_, t:t + w_]).sum(axis=(2, 3))
            gvp[:, :, u:u + h_, t:t + w_] += alpha[:, :, u, t][:, :, None, None] * gy
    gv = gvp[:, :, p:p + h_, p:p + w_]
    return np.ascontiguousarray(gv), galpha


# ----------------------------------------------------------------------
# bitwise oracle for the blocked tap sum
# ----------------------------------------------------------------------
# The dynamic depthwise forward and backward as they were before the taps
# were summed in cache-sized blocks, copied verbatim (validation cut down
# to the contiguous copy ``as_tensor4`` makes, the padding helper inlined). Every output element sums the same products
# in the same tap order from +0, so the blocked kernel must match these
# bit for bit.

def dyn_depthwise_forward_unblocked_ref(v, alpha):
    """y from one full B x C x H x W product per tap."""
    v = np.ascontiguousarray(v)
    b_, c_, h_, w_ = v.shape
    k = alpha.shape[2]
    vp = _pad_hw_ref(v, k // 2)
    y = np.zeros_like(v)
    for u in range(k):
        for t in range(k):
            y += alpha[:, :, u, t][:, :, None, None] * vp[:, :, u:u + h_, t:t + w_]
    return y


def dyn_depthwise_backward_scatter_ref(gy, v, alpha):
    """(gv, galpha), gv scattered into a padded gradient and cropped."""
    v, gy = np.ascontiguousarray(v), np.ascontiguousarray(gy)
    b_, c_, h_, w_ = v.shape
    k = alpha.shape[2]
    p = k // 2
    vp = _pad_hw_ref(v, p)
    gvp = np.zeros_like(vp)
    galpha = np.empty_like(alpha)
    for u in range(k):
        for t in range(k):
            galpha[:, :, u, t] = np.einsum("bchw,bchw->bc", gy, vp[:, :, u:u + h_, t:t + w_])
            gvp[:, :, u:u + h_, t:t + w_] += alpha[:, :, u, t][:, :, None, None] * gy
    gv = gvp[:, :, p:p + h_, p:p + w_]
    return np.ascontiguousarray(gv), galpha


# ----------------------------------------------------------------------
# the window-einsum static depthwise conv
# ----------------------------------------------------------------------
# StaticDepthwise's forward and backward before it ran through the dynamic
# depthwise kernel with a broadcast weight, copied verbatim (as functions
# of the weight ``w``, with the padding helper inlined). The einsums sum in
# another order than the shift-and-add kernel, so outputs match these
# within a tolerance, not bit for bit.

def _pad_hw_ref(x, p):
    if p == 0:
        return x
    b_, c_, h_, w_ = x.shape
    xp = np.zeros((b_, c_, h_ + 2 * p, w_ + 2 * p), dtype=x.dtype)
    xp[:, :, p:p + h_, p:p + w_] = x
    return xp


def static_depthwise_window_forward_ref(x, w):
    """StaticDepthwise's y from one einsum over materialised windows."""
    k = w.shape[-1]
    xp = _pad_hw_ref(x, k // 2)
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))
    y = np.einsum("cuv,bchwuv->bchw", w, windows, optimize=True)
    return np.ascontiguousarray(y)


def static_depthwise_window_backward_ref(gy, x, w):
    """StaticDepthwise's (gx, gw): gw from a window einsum, gx from a
    hand-rolled loop over the taps."""
    b_, c_, h_, w_ = x.shape
    k = w.shape[-1]
    p = k // 2
    xp = _pad_hw_ref(x, p)
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))
    gw = np.einsum("bchw,bchwuv->cuv", gy, windows, optimize=True)
    gxp = np.zeros_like(xp)
    for u in range(k):
        for t in range(k):
            gxp[:, :, u:u + h_, t:t + w_] += w[:, u, t][None, :, None, None] * gy
    gx = np.ascontiguousarray(gxp[:, :, p:p + h_, p:p + w_])
    return gx, gw


# ----------------------------------------------------------------------
# the window-einsum dense static conv
# ----------------------------------------------------------------------
# StaticConv's forward and backward (k > 1) before they ran as per-sample
# GEMMs over padded rows (as functions of the weight ``w`` and ``bias``,
# with the padding helper inlined). y and gw come from window einsums, which
# sum in another order than the column GEMMs, so they match within a
# tolerance. gx was scattered from one BLAS matmul per tap on the unpadded
# gy (H*W columns). Some sgemm kernels (OpenBLAS's Haswell ones) give an
# element other bits at another column count or position, so gx here runs
# each tap's matmul on the mirrored run of the padded gy that StaticConv
# reads, H*(W+k-1) columns, and adds the taps in the scatter's order from
# +0: gx must match bit for bit under any BLAS kernel.

def static_conv_window_forward_ref(x, w, bias):
    """StaticConv's y from one einsum over materialised windows."""
    x = np.ascontiguousarray(x)
    k = w.shape[-1]
    # weights and bias take a float input's dtype, as in conv1x1_forward
    w = w.astype(x.dtype, copy=False)
    xp = _pad_hw_ref(x, k // 2)
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))
    y = np.einsum("oiuv,bihwuv->bohw", w, windows, optimize=True)
    if bias is not None:
        y = y + bias.astype(x.dtype, copy=False)[None, :, None, None]
    return np.ascontiguousarray(y)


def static_conv_window_backward_ref(gy, x, w, bias):
    """StaticConv's (gx, gw, gb): gw from a window einsum; gx per sample as
    one (C_in x C_out) @ (C_out x H*(W+k-1)) matmul per tap (u, t), on gy
    zero-padded by k // 2 (and one spare bottom row) and flattened from
    offset (k-1-u)*(W+k-1) + k-1-t, whose k-1 extra columns per row are
    dropped."""
    x, gy = np.ascontiguousarray(x), np.ascontiguousarray(gy)
    b_, c_in, h_, w_ = x.shape
    c_out = w.shape[0]
    k, p = w.shape[-1], w.shape[-1] // 2
    xp = _pad_hw_ref(x, p)
    gb = None
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))
    gw = np.einsum("bohw,bihwuv->oiuv", gy, windows, optimize=True)
    if bias is not None:
        gb = gy.sum(axis=(0, 2, 3))
    w = w.astype(x.dtype, copy=False)
    wp = w_ + 2 * p
    span = h_ * wp
    gyf = np.pad(gy, ((0, 0), (0, 0), (p, p + 1), (p, p))).reshape(b_, c_out, -1)
    gx = np.empty_like(x)
    for b in range(b_):
        sums = np.zeros((c_in, span), dtype=x.dtype)
        for u in range(k):
            for t in range(k):
                o = (k - 1 - u) * wp + k - 1 - t
                sums += np.matmul(w[:, :, u, t].T, gyf[b, :, o:o + span])
        gx[b] = sums.reshape(c_in, h_, wp)[:, :, :w_]
    return gx, gw, gb


# ----------------------------------------------------------------------
# bitwise oracle for the in-place Adam step
# ----------------------------------------------------------------------

def adam_step_out_of_place_ref(params: dict, grads: dict, state: dict, hyper) -> dict:
    """``micro.adam_step`` as it was before it updated in place: it returns
    fresh parameter arrays and rebinds the moment arrays in ``state``. The
    in-place step keeps every elementwise operation in the same order, so
    it must match this bit for bit."""
    state["t"] += 1
    t = state["t"]
    b1, b2 = hyper.beta1, hyper.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    out = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            out[name] = p
            continue
        m = state["m"][name] = b1 * state["m"][name] + (1.0 - b1) * g
        v = state["v"][name] = b2 * state["v"][name] + (1.0 - b2) * (g * g)
        mh = m / bc1
        vh = v / bc2
        step = mh / (np.sqrt(vh) + hyper.eps)
        if hyper.weight_decay:
            step = step + hyper.weight_decay * p
        out[name] = p - hyper.lr * step
    return out


# ----------------------------------------------------------------------
# the cyclic Jacobi eigensolver
# ----------------------------------------------------------------------
# The library's first eigensolver, copied verbatim: one Python-level
# rotation per off-diagonal pair, row-major. ``analysis.sym_eigenvalues``
# now calls LAPACK, which reaches the same spectrum by another route, so
# eigenvalues match within a tolerance, not bit for bit.

def sym_eigenvalues_cyclic_ref(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via cyclic Jacobi rotations.

    Sweeps rotate away each off-diagonal element in turn until the largest
    off-diagonal magnitude falls below tol * ||A||_F. Returns eigenvalues
    sorted descending.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, scale), rtol=0.0):
        raise ArgumentError("matrix must be symmetric")
    if tol <= 0:
        raise ArgumentError(f"tolerance must be positive, got {tol}")
    m = a.copy()
    if n == 1:
        return m.diagonal().copy()
    thresh = tol * max(scale, np.finfo(np.float64).tiny)
    for _ in range(max_sweeps):
        off = np.abs(m - np.diag(np.diagonal(m))).max()
        if off < thresh:
            diag = np.sort(np.diagonal(m).copy())[::-1]
            return np.ascontiguousarray(diag)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) < thresh / n:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * m[p, :] - s * m[q, :]
                rot_q = s * m[p, :] + c * m[q, :]
                m[p, :], m[q, :] = rot_p, rot_q
                rot_p = c * m[:, p] - s * m[:, q]
                rot_q = s * m[:, p] + c * m[:, q]
                m[:, p], m[:, q] = rot_p, rot_q
    off = np.abs(m - np.diag(np.diagonal(m))).max()
    if off >= thresh:
        raise NumericError(f"Jacobi sweep did not converge in {max_sweeps} sweeps "
                           f"(off-diagonal {off:.3e}, threshold {thresh:.3e})")
    return np.ascontiguousarray(np.sort(np.diagonal(m).copy())[::-1])


# ----------------------------------------------------------------------
# backward passes and blur before their dead maps were freed
# ----------------------------------------------------------------------
# ``dyn_depthwise_backward``, ``gelu_backward``, ``glu_backward`` and
# ``gaussian_blur`` as they were when galpha read a whole-tensor padded
# copy of v, the GELU backward and the GLU backward built each product as
# a fresh array, and the blur gathered 2r+1 clamped copies of the map
# (copied verbatim; the padding helper is ``_pad_hw_ref``, the same code).
# The library versions must match them bit for bit.

def dyn_depthwise_backward_padded_v_ref(gy, cache, *, need_param_grads=True):
    v, alpha = cache
    gy = as_tensor4(gy, "gy")
    b_, c_, h_, w_ = v.shape
    k = alpha.shape[2]
    p = k // 2
    gv = _tap_sum(gy, alpha, v.dtype, flip=True)
    if not need_param_grads:
        return gv, None
    vp = _pad_hw_ref(v, p)
    galpha = np.empty_like(alpha)
    for u in range(k):
        for t in range(k):
            galpha[:, :, u, t] = np.einsum("bchw,bchw->bc", gy, vp[:, :, u:u + h_, t:t + w_])
    return gv, galpha


def gelu_backward_fresh_ref(gy, cache):
    x = cache.x
    gy = np.asarray(gy)
    pdf = np.exp(-0.5 * x * x) * _REF_INV_SQRT_2PI
    return gy * (cache.cdf + x * pdf)


# glu_forward and glu_backward as they were when the cache kept five
# hidden-width maps (a, the GELU input and CDF, gate and h) in a 6-tuple
def glu_forward_six_tuple_ref(x, p):
    """y = W_c ((W_a x) * gelu(W_b x)); all maps pointwise over pixels."""
    a, ca = conv1x1_forward(x, p.w_a, p.b_a)
    braw, cb = conv1x1_forward(x, p.w_b, p.b_b)
    gate, cg = gelu_forward(braw)
    h = a * gate
    y, cc = conv1x1_forward(h, p.w_c, p.b_c)
    return y, (ca, cb, cg, cc, a, gate)


def glu_backward_six_tuple_ref(gy, cache):
    """Gradients of ``glu_forward`` w.r.t. x and the GLU's weights.

    The work is ordered so that at most two hidden-width maps are alive
    beyond the cache: gh with gh * gate while W_a's backward runs, then
    gh * a (written over gh) with the GELU gradient, then that gradient
    alone. The two input gradients are summed in place.
    """
    ca, cb, cg, cc, a, gate = cache
    gh, gw_c, gb_c = conv1x1_backward(gy, cc)
    gx, gw_a, gb_a = conv1x1_backward(gh * gate, ca)
    gh *= a  # gh is fresh and at least as wide as a
    gbraw = gelu_backward(gh, cg)
    del gh
    gx_b, gw_b, gb_b = conv1x1_backward(gbraw, cb)
    gx += gx_b
    grads = {"w_a": gw_a, "b_a": gb_a, "w_b": gw_b, "b_b": gb_b,
             "w_c": gw_c, "b_c": gb_c}
    return gx, grads


# takes glu_forward_six_tuple_ref's cache
def glu_backward_fresh_ref(gy, cache):
    ca, cb, cg, cc, a, gate = cache
    gh, gw_c, gb_c = conv1x1_backward(gy, cc)
    ga = gh * gate
    ggate = gh * a
    gbraw = gelu_backward_fresh_ref(ggate, cg)
    gx_a, gw_a, gb_a = conv1x1_backward(ga, ca)
    gx_b, gw_b, gb_b = conv1x1_backward(gbraw, cb)
    grads = {"w_a": gw_a, "b_a": gb_a, "w_b": gw_b, "b_b": gb_b,
             "w_c": gw_c, "b_c": gb_c}
    return gx_a + gx_b, grads


# ----------------------------------------------------------------------
# the GELU forward and the GLU pair before the cache kept one hidden map
# ----------------------------------------------------------------------
# ``gelu_forward`` as it was when erf's argument x / sqrt(2) was built as
# a whole map, and ``glu_forward``/``glu_backward`` as they were when the
# GLU cache kept three hidden-width maps (a and the GELU's input and CDF),
# copied verbatim; the pair calls the old GELU forward. The library
# versions must match them bit for bit.

def gelu_forward_scaled_map_ref(x):
    """y = 0.5 * x * (1 + erf(x / sqrt(2))), the Gaussian-CDF gate."""
    x = np.asarray(x)
    e1 = erf(x * _REF_INV_SQRT2)
    e1 += 1.0
    y = 0.5 * x
    y *= e1
    ensure_finite(y, "gelu")
    e1 *= 0.5
    return y, GeluCache(x, e1)


class GluThreeMapCacheRef(NamedTuple):
    """What ``glu_backward`` reads. Of the hidden-width maps it keeps only
    a and the GELU's input and CDF; W_c's cache comes without its input h,
    which the backward rebuilds from them."""
    ca: Conv1x1Cache
    cb: Conv1x1Cache
    cg: GeluCache
    cc: Conv1x1Cache
    a: np.ndarray


def glu_forward_three_map_ref(x, p):
    """y = W_c ((W_a x) * gelu(W_b x)); all maps pointwise over pixels."""
    a, ca = conv1x1_forward(x, p.w_a, p.b_a)
    braw, cb = conv1x1_forward(x, p.w_b, p.b_b)
    h, cg = gelu_forward_scaled_map_ref(braw)
    h *= a  # h = gate * a, written over the fresh gate
    y, cc = conv1x1_forward(h, p.w_c, p.b_c)
    return y, GluThreeMapCacheRef(ca, cb, cg, cc._replace(x=None), a)


def _gate_ref(cg):
    """The GELU output, rebuilt bit for bit: the forward's (0.5 x)(1 + erf)
    equals x * cdf, since cdf = (1 + erf) / 2 exactly and 0.5 x is exact
    wherever 1 + erf != 1 (where it is 1, both round 0.5 x once)."""
    return np.multiply(cg.x, cg.cdf)


def glu_backward_three_map_ref(gy, cache):
    """Gradients of ``glu_forward`` w.r.t. x and the GLU's weights.

    h = gate * a is rebuilt for W_c's backward and dropped after it. The
    gate is then rebuilt again and gh multiplied into it in place (a fresh
    product when gy is wider than the GLU, to keep ``result_type``), for
    W_a's backward. Then gh * a is written over gh for the GELU gradient,
    which runs alone. So at most two hidden-width maps are transient at
    any time, and the two input gradients are summed in place.
    """
    ca, cb, cg, cc, a = cache
    h = _gate_ref(cg)
    h *= a
    gh, gw_c, gb_c = conv1x1_backward(gy, cc._replace(x=h))
    del h
    ga = _gate_ref(cg)
    if np.result_type(gh, ga) == ga.dtype:
        ga *= gh
    else:
        ga = gh * ga
    gx, gw_a, gb_a = conv1x1_backward(ga, ca)
    del ga
    gh *= a  # gh is fresh and at least as wide as a
    gbraw = gelu_backward(gh, cg)
    del gh
    gx_b, gw_b, gb_b = conv1x1_backward(gbraw, cb)
    gx += gx_b
    grads = {"w_a": gw_a, "b_a": gb_a, "w_b": gw_b, "b_b": gb_b,
             "w_c": gw_c, "b_c": gb_c}
    return gx, grads


def gaussian_blur_gather_ref(x, sigma=1.0):
    x = np.ascontiguousarray(x)
    r = math.ceil(3.0 * sigma)
    t = np.arange(-r, r + 1, dtype=np.float64)
    kern = np.exp(-0.5 * (t / sigma) ** 2)
    kern /= kern.sum()
    h_, w_ = x.shape[2], x.shape[3]
    idx_h = np.clip(np.arange(h_)[:, None] + t[None, :].astype(np.int64), 0, h_ - 1)
    idx_w = np.clip(np.arange(w_)[:, None] + t[None, :].astype(np.int64), 0, w_ - 1)
    xd = x.astype(np.float64)
    # rows pass: out[h] = sum_j kern[j] * x[clamp(h + j - r)]
    rows = np.einsum("j,bchjw->bchw", kern, xd[:, :, idx_h, :])
    cols = np.einsum("j,bchwj->bchw", kern, rows[:, :, :, idx_w])
    return cols.astype(x.dtype, copy=False)


# layer_norm_forward as it was when x.var recomputed the mean
def layer_norm_forward_var_ref(x, gain, offset, eps: float = 1e-6):
    """Normalize to zero mean / unit variance, then rescale and shift.

    For a (B, C, H, W) input the statistics run over the channel axis at
    each spatial position; a bare 1-D input is normalized whole. Variance
    is the population variance (divide by C).
    """
    x = np.asarray(x)
    if x.ndim == 4:
        axis = 1
    elif x.ndim == 1:
        axis = 0
    else:
        raise DimensionError(f"layer_norm expects a 4-D or 1-D input, got shape {x.shape}")
    if eps <= 0:
        raise ArgumentError(f"eps must be positive, got {eps}")
    c = x.shape[axis]
    gain = as_vector(gain, c, "gain")
    offset = as_vector(offset, c, "offset")
    if x.dtype in FLOAT_DTYPES:  # float input keeps its precision
        gain = gain.astype(x.dtype, copy=False)
        offset = offset.astype(x.dtype, copy=False)
    mu = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    shape = [1] * x.ndim
    shape[axis] = c
    y = gain.reshape(shape) * xhat + offset.reshape(shape)
    ensure_finite(y, "layer_norm")
    return y, (xhat, inv_std, gain)


# cross_entropy as it was with three exps and two row sums
def cross_entropy_three_exp_ref(logits, labels):
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Stabilized with log-sum-exp; gradient is (softmax - onehot) / B.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be (B, classes), got {logits.shape}")
    b_, nc = logits.shape
    if labels.shape != (b_,):
        raise DimensionError(f"labels must be ({b_},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= nc:
        raise ArgumentError("labels out of range for the class count")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(b_), labels]
    loss = float((lse - picked).mean())
    soft = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    soft[np.arange(b_), labels] -= 1.0
    return loss, soft / b_


# Operator.jacobian_rows as it was: one dense backward per output channel.
# The input gradient the full backward returns is the one the input-only
# backward it used to call returned, bit for bit.
def jacobian_rows_generic_ref(op, x, position: tuple):
    """Yield d y[0, c_out, ph, pw] / d x[0], shape (C_in, H, W), for each
    output channel in turn: one backward per row, so a caller that
    reduces the rows as they come never holds the whole slice.

    ``x`` is a 4-D tensor and ``position`` a checked (ph, pw).
    """
    y, cache = op.forward_cached(x)
    for co in range(y.shape[1]):
        gy = np.zeros_like(y)
        gy[0, co, position[0], position[1]] = 1.0
        yield op.backward(gy, cache)[0][0]


# ----------------------------------------------------------------------
# the context generator in its former order
# ----------------------------------------------------------------------
# The pointwise context conv at full resolution, then pooling by one
# per-window mean each, and the pooling backward as one strided add per
# (overlapping) window into a zero map. The generator now pools x first
# and runs the conv on the k x k grid, which moves its bits at rounding
# level; its pooling backward spreads each cell once, which must match the
# window loop below bit for bit.

def adaptive_avg_pool_forward_means_ref(x, k: int):
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


def adaptive_avg_pool_backward_windows_ref(gy, cache: PoolCache):
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


class ConvFirstC2KCacheRef(NamedTuple):
    conv: Conv1x1Cache
    pool: PoolCache
    act: GeluCache
    mix: LinearCache


def generate_kernels_forward_conv_first_ref(x, params):
    """Raw per-(batch, channel) kernels from the input's pooled context."""
    k = params.kernel_size
    f, c_conv = conv1x1_forward(x, params.w_f, params.w_f_bias)
    z, c_pool = adaptive_avg_pool_forward_means_ref(f, k)
    a, c_act = gelu_forward(z)
    b_, c_, _, _ = a.shape
    # vec() flattens each k x k context row-major before the tap mixing
    vec, c_mix = linear_forward(a.reshape(b_, c_, k * k), params.w_gen)
    raw = np.ascontiguousarray(vec.reshape(b_, c_, k, k))
    return raw, ConvFirstC2KCacheRef(c_conv, c_pool, c_act, c_mix)


def generate_kernels_backward_conv_first_ref(graw, cache: ConvFirstC2KCacheRef):
    """(gx, generator weight gradients)."""
    cache = _need_cache(cache, "generate_kernels")
    b_, c_ = cache.pool.in_shape[:2]
    k = len(cache.pool.h_bounds)
    graw = as_shaped(graw, (b_, c_, k, k), "graw")
    gvec, gw_gen, _ = linear_backward(graw.reshape(b_, c_, k * k), cache.mix)
    gz = gelu_backward(gvec.reshape(b_, c_, k, k), cache.act)
    gf = adaptive_avg_pool_backward_windows_ref(gz, cache.pool)
    gx, gw_f, gb_f = conv1x1_backward(gf, cache.conv)
    return gx, {"w_f": gw_f, "w_f_bias": gb_f, "w_gen": gw_gen}


# ----------------------------------------------------------------------
# the tap sum and the pointwise weight gradient before einsum and blocks
# ----------------------------------------------------------------------
# ``_tap_sum`` as it was when each tap's product was an ``np.multiply`` of
# a column of alpha with the run, and ``conv1x1_backward`` as it was when
# gw added one GEMM per sample into a scratch, copied verbatim. The
# library versions must match them bit for bit, save the signed-zero case
# ``_tap_sum``'s docstring names. The references keep the block sizing
# of their time, before ``tensor.block_ranges``: fixed steps of
# ``_block_rows_ref`` planes, and of 2^16 // (C_out C_in) samples in
# ``conv1x1_backward_whole_batch_ref`` below.

_OLD_BLOCK = 1 << 16


def _block_rows_ref(n, span):
    """Planes per block when n planes of ``span`` elements go into as few
    near-equal blocks as keep each within about ``_OLD_BLOCK`` elements."""
    blocks = -(-n // max(1, _OLD_BLOCK // span))
    return -(-n // blocks)


def tap_sum_multiply_ref(x, alpha, dtype, flip):
    b_, c_, h, w = x.shape
    k = alpha.shape[2]
    n = b_ * c_
    span = h * (w + k - 1)
    a2 = alpha.reshape(n, k * k)
    out = np.empty((n, h, w), dtype=dtype)
    rows = _block_rows_ref(n, span)
    acc = np.empty((rows, span), dtype=dtype)
    prod = np.empty((rows, span), dtype=np.result_type(x, alpha))
    steps = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    for lo, xpad in _padded_blocks(x.reshape(n, h, w), k // 2, steps):
        m = len(xpad)
        sums, pb = acc[:m], prod[:m]
        sums.fill(0)
        for i, run in enumerate(_tap_runs(xpad, k, flip)):
            np.multiply(a2[lo:lo + m, i, None], run, out=pb)
            sums += pb
        out[lo:lo + m] = sums.reshape(m, h, -1)[:, :, :w]
    return out.reshape(b_, c_, h, w)


def conv1x1_backward_sample_loop_ref(gy, cache: Conv1x1Cache):
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


# ----------------------------------------------------------------------
# the GLU and its pointwise convs before the GLU ran over sample chunks
# ----------------------------------------------------------------------
# ``conv1x1_forward`` as it was when the bias was added as a broadcast
# (1, C_out, 1, 1) array, ``conv1x1_backward`` as it was when gw started
# from +0 alone and gb was ``gy.sum(axis=(0, 2, 3))``, and ``glu_forward``
# and ``glu_backward`` as they were when each ran once over the whole
# batch, copied verbatim; the GLU pair calls these two. The library
# versions must match them bit for bit.

def conv1x1_forward_broadcast_bias_ref(x, w, bias=None):
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


def conv1x1_backward_whole_batch_ref(gy, cache: Conv1x1Cache):
    cache = _need_cache(cache, "conv1x1")
    x, w = cache.x, cache.w
    b_, c_in, h_, w_ = x.shape
    c_out = w.shape[0]
    gy = as_float(gy, (b_, c_out, h_, w_), "gy")
    n = h_ * w_
    gyr = gy.reshape(b_, c_out, n)
    xr = x.reshape(b_, c_in, n)
    gw = np.zeros((c_out, c_in), dtype=np.result_type(gyr, xr))
    m = min(b_, max(1, _OLD_BLOCK // (c_out * c_in)))
    buf = np.empty((m + 1, c_out, c_in), dtype=gw.dtype)
    for lo in range(0, b_, m):
        j = min(m, b_ - lo)
        buf[0] = gw
        np.matmul(gyr[lo:lo + j], xr[lo:lo + j].transpose(0, 2, 1), out=buf[1:j + 1])
        np.add.reduce(buf[:j + 1], axis=0, out=gw)
    del buf
    gb = gy.sum(axis=(0, 2, 3)) if cache.bias is not None else None
    gx = np.matmul(w.T, gyr).reshape(b_, c_in, h_, w_)
    return np.ascontiguousarray(gx), gw, gb


def glu_forward_whole_batch_ref(x, p):
    """y = W_c ((W_a x) * gelu(W_b x)); all maps pointwise over pixels.

    b = W_b x, its GELU, then a = W_a x: b is dropped before a is built,
    and a once h = gelu(b) * a is written over the fresh GELU output, so
    at most two hidden-width maps besides the CDF are alive at once and
    the cache keeps one, the CDF.
    """
    braw, cb = conv1x1_forward_broadcast_bias_ref(x, p.w_b, p.b_b)
    h, cg = gelu_forward(braw)
    cdf = cg.cdf
    del braw, cg
    a, ca = conv1x1_forward_broadcast_bias_ref(x, p.w_a, p.b_a)
    h *= a  # h = gate * a, written over the fresh gate
    del a
    y, cc = conv1x1_forward_broadcast_bias_ref(h, p.w_c, p.b_c)
    return y, GluCache(ca, cb, cdf, cc._replace(x=None))


def glu_backward_whole_batch_ref(gy, cache: GluCache):
    ca, cb, cdf, cc = _need_cache(cache, "glu")
    a = conv1x1_forward_broadcast_bias_ref(*ca)[0]
    cg = GeluCache(conv1x1_forward_broadcast_bias_ref(*cb)[0], cdf)
    h = _gate_ref(cg)
    h *= a
    del a
    gh, gw_c, gb_c = conv1x1_backward_whole_batch_ref(gy, cc._replace(x=h))
    del h
    ga = _gate_ref(cg)
    if np.result_type(gh, ga) == ga.dtype:
        ga *= gh
    else:
        ga = gh * ga
    gx, gw_a, gb_a = conv1x1_backward_whole_batch_ref(ga, ca)
    del ga
    gh *= conv1x1_forward_broadcast_bias_ref(*ca)[0]  # gh is fresh and at least as wide as a
    gbraw = gelu_backward(gh, cg)
    del gh, cg
    gx_b, gw_b, gb_b = conv1x1_backward_whole_batch_ref(gbraw, cb)
    gx += gx_b
    grads = {"w_a": gw_a, "b_a": gb_a, "w_b": gw_b, "b_b": gb_b,
             "w_c": gw_c, "b_c": gb_c}
    return gx, grads


# ----------------------------------------------------------------------
# the residual block and the classifier's backward before caches were spent
# ----------------------------------------------------------------------
# ``block_forward``, ``block_backward``, and ``MicroModel.forward_cached``
# and ``MicroModel.backward`` (as functions of the model) as they were when
# the block cache held both norms' outputs through the mixer's value
# projection and the GLU's input projections, every block's cache lived
# until the step ended, and the residuals were added into fresh maps,
# copied verbatim. The library versions must match them bit for bit.

def block_forward_kept_caches_ref(x, p, config=None):
    config = config if config is not None else ATConvConfig()
    n1, c_n1 = layer_norm_forward(x, p.norm1_gain, p.norm1_offset)
    mix, c_mix = atconv_forward_cached(n1, p.mixer, config)
    x1 = x + mix
    n2, c_n2 = layer_norm_forward(x1, p.norm2_gain, p.norm2_offset)
    g, c_glu = glu_forward(n2, p.glu)
    return x1 + g, (c_n1, c_mix, c_n2, c_glu)


def block_backward_kept_caches_ref(gy, cache):
    c_n1, c_mix, c_n2, c_glu = _need_cache(cache, "block")
    gn2, glu_grads = glu_backward(gy, c_glu)
    gx1_from_norm, g2_gain, g2_offset = layer_norm_backward(gn2, c_n2)
    gx1 = gy + gx1_from_norm
    gn1, mix_grads = atconv_backward(gx1, c_mix)
    gx_from_norm, g1_gain, g1_offset = layer_norm_backward(gn1, c_n1)
    gx = gx1 + gx_from_norm
    grads = {"norm1_gain": g1_gain, "norm1_offset": g1_offset,
             "norm2_gain": g2_gain, "norm2_offset": g2_offset}
    grads.update({f"mixer.{k}": v for k, v in mix_grads.items()})
    grads.update({f"glu.{k}": v for k, v in glu_grads.items()})
    return gx, grads


def micro_forward_cached_kept_caches_ref(self, x):
    x = as_tensor4(x)
    h, c_embed = patch_embed_forward(x, self.embed_w, self.embed_b, self.config.patch)
    block_caches = []
    for bp in self.blocks:
        h, bc = block_forward_kept_caches_ref(h, bp, self.op_config)
        block_caches.append(bc)
    feats = h.mean(axis=(2, 3))
    logits, c_head = linear_forward(feats, self.head_w, self.head_b)
    return logits, (c_embed, block_caches, h.shape, c_head)


def micro_backward_kept_caches_ref(self, dlogits, cache):
    c_embed, block_caches, h_shape, c_head = _need_cache(cache, "micro_model")
    gfeats, gw_head, gb_head = linear_backward(dlogits, c_head)
    area = h_shape[2] * h_shape[3]
    gh = np.broadcast_to(
        (gfeats / area)[:, :, None, None], h_shape).astype(gfeats.dtype)
    grads = {"head_w": gw_head, "head_b": gb_head}
    for i in reversed(range(len(self.blocks))):
        gh, bgrads = block_backward_kept_caches_ref(gh, block_caches[i])
        grads.update({f"blocks.{i}.{k}": v for k, v in bgrads.items()})
    gx, gw_embed, gb_embed = patch_embed_backward(gh, c_embed)
    grads["embed_w"] = gw_embed
    grads["embed_b"] = gb_embed
    return gx, grads


# ``primitives._erf32_block`` as it was when both clips were the ndarray
# ``clip`` method, copied verbatim with its coefficients; the ufunc clips
# must match it bit for bit, NaN and -0 included.

def erf32_block_clip_method_ref(x, out):
    c = x.clip(-4.0, 4.0)
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
    p.clip(-1.0, 1.0, out=out)


# ----------------------------------------------------------------------
# the patch embedding that cached its folded columns
# ----------------------------------------------------------------------
# ``micro.patch_embed_forward`` and ``patch_embed_backward`` as they were
# when the cache held the ``_patchify`` columns rather than the input,
# copied verbatim. The library versions must match them bit for bit.

def patch_embed_forward_cols_ref(x, w, bias, patch: int):
    x = as_tensor4(x)
    if x.shape[2] % patch or x.shape[3] % patch:
        raise DimensionError(
            f"spatial size {x.shape[2:]} not divisible by patch {patch}")
    cols = _patchify(x, patch)
    y, sub = conv1x1_forward(cols, w, bias)
    return y, (sub, x.shape, patch)


def patch_embed_backward_cols_ref(gy, cache):
    sub, in_shape, patch = _need_cache(cache, "patch_embed")
    gcols, gw, gb = conv1x1_backward(gy, sub)
    return _unpatchify(gcols, in_shape, patch), gw, gb


# ----------------------------------------------------------------------
# the random stream's rounds, one fresh array each
# ----------------------------------------------------------------------
# ``rng._rotl``, ``Rng._round`` and ``Rng.u64`` as they were when each
# xoshiro round entered its own errstate, built its constants and returned
# a fresh array, copied verbatim as functions of the generator. The
# library's draws must match them byte for byte.

def _rotl_ref(x: np.ndarray, k: int) -> np.ndarray:
    kk = np.uint64(k)
    return (x << kk) | (x >> (np.uint64(64) - kk))


def rng_round_ref(self) -> np.ndarray:
    """Advance every lane once, returning one u64 per lane."""
    s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
    with np.errstate(over="ignore"):
        out = _rotl_ref(s1 * np.uint64(5), 7) * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s3 = _rotl_ref(s3, 45)
    self._s0, self._s1, self._s2 = s0, s1, s2
    return out


def rng_u64_ref(self, n: int) -> np.ndarray:
    """Next ``n`` raw 64-bit draws."""
    if n < 0:
        raise ArgumentError(f"draw count must be >= 0, got {n}")
    while self._buf.size < n:
        rounds = max(1, -(-(n - self._buf.size) // _LANES))
        fresh = [rng_round_ref(self) for _ in range(rounds)]
        self._buf = np.concatenate([self._buf] + fresh)
    out, self._buf = self._buf[:n].copy(), self._buf[n:]
    return out

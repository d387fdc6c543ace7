"""The attentive convolution operator.

The operator replaces a static depthwise kernel with one generated from the
input itself, in four stages:

1. context-to-kernel: a pointwise conv mixes channels, adaptive average
   pooling condenses the map to the kernel grid, a GELU gates it, and a
   shared (k*k x k*k) matrix mixes the pooled taps into one raw k x k
   kernel per (batch, channel);
2. kernel modulation: the raw kernel is reshaped toward a difference
   operator. The default subtracts a learned, sigmoid-bounded fraction of
   the kernel mean from every tap ("differential" modulation), which keeps
   per-tap sensitivity local while pushing the kernel toward zero mean;
3. aggregation: a pointwise value projection, then the generated kernel is
   applied as a depthwise cross-correlation with zero padding floor(k/2)
   and stride 1, so spatial size is preserved;
4. a pointwise output projection.

Everything differentiable has a hand-derived backward. Each stage has one
forward, ``*_forward`` -> (output, cache), and one ``*_backward`` that
consumes the cache; the whole operator's are ``atconv_forward_cached`` and
``atconv_backward``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ArgumentError, DimensionError, UnsupportedConfigError
from .primitives import (
    Conv1x1Cache, GeluCache, LinearCache, PoolCache, SigmoidCache, _need_cache,
    adaptive_avg_pool_backward, adaptive_avg_pool_forward,
    conv1x1_backward, conv1x1_forward,
    gelu_backward, gelu_forward,
    linear_backward, linear_forward,
    sigmoid_backward, sigmoid_forward, softmax_backward, softmax_forward,
)
from .rng import Rng
from .tensor import as_float, as_shaped, as_tensor4, ensure_finite, flop_counter

KERNEL_MODS = ("none", "softmax", "central_diff", "dkm")

# Canonical checkpoint entry names, in serialization order.
PARAM_NAMES = ("w_f", "w_f_bias", "w_gen", "gamma",
               "w_value", "w_value_bias", "w_out", "w_out_bias")


# ======================================================================
# parameters and configuration
# ======================================================================

@dataclass
class ATConvParams:
    """Learnable state for one operator instance at width ``channels``."""

    w_f: np.ndarray
    w_f_bias: np.ndarray
    w_gen: np.ndarray
    gamma: np.ndarray
    w_value: np.ndarray
    w_value_bias: np.ndarray
    w_out: np.ndarray
    w_out_bias: np.ndarray
    kernel_size: int

    def __post_init__(self) -> None:
        self.validate()

    @property
    def channels(self) -> int:
        return self.w_f.shape[0]

    def validate(self) -> None:
        """Rebind each array through ``as_float`` against its shape; C is
        w_f's row count.

        Runs once, at construction; a forward does not repeat it, so the
        arrays ``named()`` returns are the ones every forward reads and an
        in-place optimizer step is seen by the next forward.
        """
        k = self.kernel_size
        if not isinstance(k, (int, np.integer)) or k < 1 or k % 2 == 0:
            raise ArgumentError(f"kernel_size must be a positive odd int, got {k!r}")
        c = np.shape(self.w_f)[0] if np.ndim(self.w_f) else None
        shapes = {"w_f": (c, c), "w_f_bias": (c,), "w_gen": (k * k, k * k), "gamma": (c,),
                  "w_value": (c, c), "w_value_bias": (c,), "w_out": (c, c), "w_out_bias": (c,)}
        for name, shape in shapes.items():
            setattr(self, name, as_float(getattr(self, name), shape, name))

    @classmethod
    def init(cls, rng: Rng, channels: int, kernel_size: int = 3,
             dtype=np.float64) -> "ATConvParams":
        """Fresh parameters.

        Channel-mixing matrices draw uniform +/- sqrt(1/channels); the
        kernel-mixing matrix starts at identity plus uniform +/- 0.01 so
        the generator begins near a pass-through; gamma starts at 0, i.e.
        a modulation strength of one half.
        """
        if channels < 1:
            raise ArgumentError(f"channels must be positive, got {channels}")
        bound = math.sqrt(1.0 / channels)
        kk = kernel_size * kernel_size
        return cls(
            w_f=rng.uniform(-bound, bound, (channels, channels), dtype),
            w_f_bias=np.zeros(channels, dtype=dtype),
            w_gen=(np.eye(kk, dtype=dtype)
                   + rng.uniform(-0.01, 0.01, (kk, kk), dtype)),
            gamma=np.zeros(channels, dtype=dtype),
            w_value=rng.uniform(-bound, bound, (channels, channels), dtype),
            w_value_bias=np.zeros(channels, dtype=dtype),
            w_out=rng.uniform(-bound, bound, (channels, channels), dtype),
            w_out_bias=np.zeros(channels, dtype=dtype),
            kernel_size=int(kernel_size),
        )

    def named(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_named(cls, arrays: dict) -> "ATConvParams":
        missing = [n for n in PARAM_NAMES if n not in arrays]
        if missing:
            raise DimensionError(f"checkpoint is missing entries: {missing}")
        kk = arrays["w_gen"].shape[0]
        k = math.isqrt(kk)
        if k * k != kk:
            raise DimensionError(f"w_gen side {kk} is not a square number")
        return cls(**{n: arrays[n] for n in PARAM_NAMES}, kernel_size=k)


@dataclass
class ATConvConfig:
    """Structural switches.

    Each stage of the operator can be turned off to fall back to plainer
    behavior, which is how the ablation grid walks from a static depthwise
    conv up to the full operator. ``lambda_override`` pins the modulation
    strength directly (bypassing sigmoid(gamma)); it exists for tests and
    diagnostics, not training.
    """

    use_kernel_generator: bool = True
    use_value_proj: bool = True
    use_out_proj: bool = True
    kernel_mod: str = "dkm"
    static_kernel: Optional[np.ndarray] = None
    lambda_override: Optional[float] = None

    def validate(self, channels: int, kernel_size: int) -> None:
        if self.kernel_mod not in KERNEL_MODS:
            raise ArgumentError(
                f"kernel_mod must be one of {KERNEL_MODS}, got {self.kernel_mod!r}")
        if self.kernel_mod == "central_diff" and kernel_size == 1:
            raise UnsupportedConfigError(
                "central_diff needs off-center taps; a 1x1 kernel has none")
        if self.use_kernel_generator:
            if self.static_kernel is not None:
                raise ArgumentError(
                    "static_kernel is only used when the kernel generator is off")
        else:
            if self.static_kernel is None:
                raise ArgumentError(
                    "a static_kernel (channels x k*k) is required when the "
                    "kernel generator is off")
            self.static_kernel = as_float(
                self.static_kernel, (channels, kernel_size * kernel_size), "static_kernel")
        if self.lambda_override is not None:
            if self.kernel_mod != "dkm":
                raise ArgumentError("lambda_override only applies to kernel_mod='dkm'")
            lo = float(self.lambda_override)
            if not (0.0 <= lo <= 1.0):
                raise ArgumentError(f"lambda_override must lie in [0, 1], got {lo}")


# ======================================================================
# dynamic depthwise aggregation
# ======================================================================

# Elements per block of the tap sum: 256 KiB of float32 sums plus one
# product buffer and one padded input block of about the same size stay in
# L2 across all k*k taps, where whole-tensor products would stream through
# memory once per tap.
_TAP_BLOCK = 1 << 16


def _block_rows(n, span):
    """Planes per block when n planes of ``span`` elements go into as few
    near-equal blocks as keep each within about ``_TAP_BLOCK`` elements."""
    blocks = -(-n // max(1, _TAP_BLOCK // span))
    return -(-n // blocks)


def _padded_blocks(x3, p, rows):
    """Yield (lo, xpad) for the (N, H, W) planes of ``x3``, ``rows`` at a
    time: xpad holds planes lo.. zero-padded by ``p``, shape
    (m, H+2p+1, W+2p), in one reused buffer.

    The zero border is never written. The spare bottom row keeps a run of
    H*(W+2p) elements from the last tap's offset inside its own plane.
    """
    n, h, w = x3.shape
    xpad = np.zeros((rows, h + 2 * p + 1, w + 2 * p), dtype=x3.dtype)
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        xpad[:m, p:p + h, p:p + w] = x3[lo:lo + m]
        yield lo, xpad[:m]


def _tap_runs(xpad, k, flip=False):
    """The k*k taps of one ``_padded_blocks`` block as flat (m, H*(W+k-1))
    runs, in row-major tap order.

    Tap (u, t) is the run at offset u*(W+k-1)+t of each padded plane, or
    at the mirrored (k-1-u, k-1-t) when ``flip`` is set, which gathers the
    transposed correlation. A run holds each output row at the padded row
    width; its k-1 extra entries per row read the neighbouring row.
    """
    m, hp, wp = xpad.shape
    flat = xpad.reshape(m, -1)
    span = (hp - k) * wp
    offs = [u * wp + t for u in range(k) for t in range(k)]
    if flip:
        offs.reverse()
    return [flat[:, o:o + span] for o in offs]


def _tap_sum(x, alpha, dtype, flip):
    """sum_{u,t} alpha[b,c,u,t] * xpad[b,c,h+u',w+t'] as a (B, C, H, W)
    array of ``dtype``, where xpad is ``x`` zero-padded by k // 2 and tap
    (u, t) is the ``_tap_runs`` run, mirrored when ``flip`` is set.

    The flattened B*C axis is taken in the blocks of ``_padded_blocks``,
    sized by ``_block_rows``. A plane's sums are kept at the padded row
    width, in the layout ``StaticConv`` shares, and the k-1 extra sums per
    row are dropped. For each tap, the product is written into a reused
    buffer, computed in ``result_type(x, alpha)``, and added into the sums,
    which start from +0 and visit the taps in row-major order.
    """
    b_, c_, h, w = x.shape
    k = alpha.shape[2]
    n = b_ * c_
    span = h * (w + k - 1)
    a2 = alpha.reshape(n, k * k)
    out = np.empty((n, h, w), dtype=dtype)
    rows = _block_rows(n, span)
    acc = np.empty((rows, span), dtype=dtype)
    prod = np.empty((rows, span), dtype=np.result_type(x, alpha))
    for lo, xpad in _padded_blocks(x.reshape(n, h, w), k // 2, rows):
        m = len(xpad)
        sums, pb = acc[:m], prod[:m]
        sums.fill(0)
        for i, run in enumerate(_tap_runs(xpad, k, flip)):
            np.multiply(a2[lo:lo + m, i, None], run, out=pb)
            sums += pb
        out[lo:lo + m] = sums.reshape(m, h, -1)[:, :, :w]
    return out.reshape(b_, c_, h, w)


class DynDepthwiseCache(NamedTuple):
    v: np.ndarray
    alpha: np.ndarray


def dyn_depthwise_forward(v, alpha):
    """Apply a per-(batch, channel) k x k kernel as depthwise
    cross-correlation, zero padding floor(k/2), stride 1.

    y[b,c,h,w] = sum_{u,v} alpha[b,c,u,v] * vpad[b,c,h+u,w+v]
    """
    v = as_tensor4(v, "v")
    b_, c_, h_, w_ = v.shape
    # alpha keeps its layout, which fixes the order of galpha's batch sum
    alpha = as_shaped(alpha, (b_, c_) + np.shape(alpha)[-1:] * 2, "alpha")
    k = alpha.shape[2]
    if k % 2 == 0:
        raise ArgumentError(f"kernel side must be odd, got {k}")
    y = _tap_sum(v, alpha, v.dtype, flip=False)
    flop_counter.add(2 * b_ * c_ * k * k * h_ * w_)
    ensure_finite(y, "dyn_depthwise")
    return y, DynDepthwiseCache(v, alpha)


def dyn_depthwise_backward(gy, cache: DynDepthwiseCache):
    """Gradients of ``dyn_depthwise_forward`` w.r.t. v and alpha.

    gv is the transposed correlation, a gather on the zero-padded gy:
    gv[b,c,h,w] = sum_{u,t} alpha[b,c,u,t] * gypad[b,c,h+k-1-u,w+k-1-t],
    summed by ``_tap_sum`` in gy's product dtype into an array of v's
    dtype. Tap (u, t) of galpha is the dot product of gy with the H x W
    window of v's ``_tap_runs`` run, the view vpad[u:u+H, t:t+W], reduced
    by ``np.einsum`` without a product temporary. v is padded block by
    block, in the tap sum's blocks, so no whole-tensor padded copy of v is
    made. galpha has alpha's dtype and ``np.empty_like``'s layout: for a
    batch-broadcast alpha its batch axis is innermost, which fixes the
    summation order of a batch sum.

    The gather also adds the +-0 products of gy's padding. They leave every
    sum as the scatter into a padded gradient gave it, save one case: an
    f32 gv whose f64 products underflow to -0 may read +0 instead.
    """
    v, alpha = _need_cache(cache, "dyn_depthwise")
    gy = as_float(gy, v.shape, "gy")
    b_, c_, h_, w_ = v.shape
    k = alpha.shape[2]
    p = k // 2
    gv = _tap_sum(gy, alpha, v.dtype, flip=True)
    n = b_ * c_
    gy3 = gy.reshape(n, h_, w_)
    ga = np.empty((n, k * k), dtype=alpha.dtype)
    rows = _block_rows(n, h_ * (w_ + 2 * p))
    for lo, vpad in _padded_blocks(v.reshape(n, h_, w_), p, rows):
        m = len(vpad)
        for i, run in enumerate(_tap_runs(vpad, k)):
            ga[lo:lo + m, i] = np.einsum("nhw,nhw->n", gy3[lo:lo + m],
                                         run.reshape(m, h_, -1)[:, :, :w_])
    galpha = np.empty_like(alpha)
    galpha[...] = ga.reshape(alpha.shape)
    return gv, galpha


# ======================================================================
# kernel generation (context-to-kernel) and modulation
# ======================================================================

class C2KCache(NamedTuple):
    conv: Conv1x1Cache
    pool: PoolCache
    act: GeluCache
    mix: LinearCache


def generate_kernels_forward(x, params: ATConvParams):
    """Raw per-(batch, channel) kernels from the input's pooled context."""
    k = params.kernel_size
    f, c_conv = conv1x1_forward(x, params.w_f, params.w_f_bias)
    z, c_pool = adaptive_avg_pool_forward(f, k)
    a, c_act = gelu_forward(z)
    b_, c_, _, _ = a.shape
    # vec() flattens each k x k context row-major before the tap mixing
    vec, c_mix = linear_forward(a.reshape(b_, c_, k * k), params.w_gen)
    raw = np.ascontiguousarray(vec.reshape(b_, c_, k, k))
    return raw, C2KCache(c_conv, c_pool, c_act, c_mix)


def generate_kernels_backward(graw, cache: C2KCache):
    """(gx, generator weight gradients)."""
    cache = _need_cache(cache, "generate_kernels")
    b_, c_ = cache.pool.in_shape[:2]
    k = len(cache.pool.h_bounds)
    graw = as_shaped(graw, (b_, c_, k, k), "graw")
    gvec, gw_gen, _ = linear_backward(graw.reshape(b_, c_, k * k), cache.mix)
    gz = gelu_backward(gvec.reshape(b_, c_, k, k), cache.act)
    gf = adaptive_avg_pool_backward(gz, cache.pool)
    gx, gw_f, gb_f = conv1x1_backward(gf, cache.conv)
    return gx, {"w_f": gw_f, "w_f_bias": gb_f, "w_gen": gw_gen}


class DkmCache(NamedTuple):
    mean: np.ndarray  # (B, C, 1, 1)
    lam: np.ndarray   # (C,)
    gamma_active: bool
    k: int


def dkm_forward(raw, gamma, lambda_override=None):
    """alpha[b,c] = raw[b,c] - lam[c] * mean(raw[b,c]), lam = sigmoid(gamma).

    Per-tap sensitivity to the raw kernel is (1 - lam/k^2) on the diagonal
    and a flat -lam/k^2 off it, so each tap inhibits all others a little.
    At lam = 1 the kernel is exactly zero-mean.
    """
    raw = as_shaped(raw, (None, None) + np.shape(raw)[-1:] * 2, "raw")
    c_ = raw.shape[1]
    if lambda_override is None:
        lam, _ = sigmoid_forward(as_float(gamma, (c_,), "gamma", raw.dtype))
        gamma_active = True
    else:
        lam = np.full(c_, float(lambda_override), dtype=raw.dtype)
        gamma_active = False
    mean = raw.mean(axis=(2, 3), keepdims=True)
    alpha = raw - lam[None, :, None, None] * mean
    flop_counter.add(2 * raw.size)
    ensure_finite(alpha, "dkm")
    return alpha, DkmCache(mean, lam, gamma_active, raw.shape[2])


def dkm_backward(galpha, cache: DkmCache):
    """(graw, ggamma). graw takes galpha's layout, which fixes the order
    of the batch sum a static kernel's gradient takes from it."""
    mean, lam, gamma_active, k = _need_cache(cache, "dkm")
    galpha = as_shaped(galpha, mean.shape[:2] + (k, k), "galpha")
    s = galpha.sum(axis=(2, 3), keepdims=True)
    graw = galpha - (lam[None, :, None, None] / (k * k)) * s
    if not gamma_active:
        return graw, np.zeros_like(lam)
    glam = -(s[:, :, 0, 0] * mean[:, :, 0, 0]).sum(axis=0)
    return graw, sigmoid_backward(glam, SigmoidCache(lam))


def central_diff_mod(raw):
    """Rewrite the center tap to raw_center - sum(raw), a discrete
    difference stencil: the off-center taps keep their values and the
    whole kernel sums to zero exactly."""
    raw = np.asarray(raw)
    k = raw.shape[2]
    if k == 1:
        raise UnsupportedConfigError(
            "central_diff needs off-center taps; a 1x1 kernel has none")
    kc = k // 2
    alpha = np.array(raw)
    alpha[:, :, kc, kc] = raw[:, :, kc, kc] - raw.sum(axis=(2, 3))
    return alpha


def central_diff_backward(galpha):
    galpha = np.asarray(galpha)
    k = galpha.shape[2]
    kc = k // 2
    gc = galpha[:, :, kc, kc]
    graw = galpha - gc[:, :, None, None]
    graw[:, :, kc, kc] = 0.0
    return graw


# ======================================================================
# the full operator
# ======================================================================

def _kernel_mod_backward(g_alpha, kind: str, mod_cache):
    """(g_raw, ggamma) through the kernel modulation ``kind``; ggamma is
    None unless the modulation is dkm."""
    if kind == "dkm":
        return dkm_backward(g_alpha, mod_cache)
    if kind == "softmax":
        b_, c_, k, _ = g_alpha.shape
        g_raw = softmax_backward(g_alpha.reshape(b_, c_, k * k), mod_cache)
        return g_raw.reshape(b_, c_, k, k), None
    if kind == "central_diff":
        return central_diff_backward(g_alpha), None
    return g_alpha, None


@dataclass
class ATConvCache:
    gen: Optional[C2KCache]
    mod_kind: str
    mod_cache: object
    value: Optional[Conv1x1Cache]
    dd: DynDepthwiseCache
    out: Optional[Conv1x1Cache]


def atconv_forward(x, params: ATConvParams, config: Optional[ATConvConfig] = None):
    y, _ = atconv_forward_cached(x, params, config)
    return y


def atconv_forward_cached(x, params: ATConvParams, config: Optional[ATConvConfig] = None):
    config = config if config is not None else ATConvConfig()
    x = as_tensor4(x, channels=params.channels)
    config.validate(params.channels, params.kernel_size)
    b_, c_, h_, w_ = x.shape
    k = params.kernel_size

    if config.use_kernel_generator:
        raw, gen_cache = generate_kernels_forward(x, params)
    else:
        raw = np.broadcast_to(
            config.static_kernel.reshape(c_, k, k), (b_, c_, k, k))
        gen_cache = None

    mod = config.kernel_mod
    if mod == "dkm":
        alpha, mod_cache = dkm_forward(raw, params.gamma, config.lambda_override)
    elif mod == "softmax":
        sm, mod_cache = softmax_forward(raw.reshape(b_, c_, k * k), axis=-1)
        alpha = sm.reshape(b_, c_, k, k)
    elif mod == "central_diff":
        alpha, mod_cache = central_diff_mod(raw), None
    else:
        alpha, mod_cache = raw, None

    if config.use_value_proj:
        v, value_cache = conv1x1_forward(x, params.w_value, params.w_value_bias)
    else:
        v, value_cache = x, None

    y, dd_cache = dyn_depthwise_forward(v, alpha)

    if config.use_out_proj:
        out, out_cache = conv1x1_forward(y, params.w_out, params.w_out_bias)
    else:
        out, out_cache = y, None

    return out, ATConvCache(gen_cache, mod, mod_cache, value_cache, dd_cache, out_cache)


def atconv_backward(gy, cache: ATConvCache):
    """Gradients of the full operator.

    Returns (gx, grads) where grads maps canonical parameter names to
    arrays; a "static_kernel" entry appears instead of the generator
    parameters when the generator is off. The first stage's backward
    checks gy.

    Each full-size gradient map is dropped at its last use: g_y once the
    depthwise backward returns, g_v once the value projection's backward
    returns. So while the generator's backward runs, the maps alive are the
    forward's cached v and y, its output, gx_value and the generator's own
    two (the pooled gradient spread back to full size, then gx_kernel),
    which is then added into gx_value in place.
    """
    cache = _need_cache(cache, "atconv")
    grads = {}

    if cache.out is not None:
        g_y, gw_out, gb_out = conv1x1_backward(gy, cache.out)
        grads["w_out"] = gw_out
        grads["w_out_bias"] = gb_out
    else:
        g_y = gy

    g_v, g_alpha = dyn_depthwise_backward(g_y, cache.dd)
    del g_y

    if cache.value is not None:
        gx_value, gw_val, gb_val = conv1x1_backward(g_v, cache.value)
        grads["w_value"] = gw_val
        grads["w_value_bias"] = gb_val
    else:
        gx_value = g_v
    del g_v

    g_raw, ggamma = _kernel_mod_backward(g_alpha, cache.mod_kind, cache.mod_cache)
    if ggamma is not None:
        grads["gamma"] = ggamma

    gx = gx_value
    if cache.gen is not None:
        gx_kernel, gen_grads = generate_kernels_backward(g_raw, cache.gen)
        grads.update(gen_grads)
        gx += gx_kernel  # both are fresh arrays of x's dtype
    else:
        b_, c_, k, _ = g_raw.shape
        grads["static_kernel"] = g_raw.sum(axis=0).reshape(c_, k * k)

    return np.ascontiguousarray(gx), grads


class Operator:
    """The protocol the analysis probes rely on.

    A subclass defines ``forward_cached(x) -> (y, cache)``,
    ``backward(gy, cache)``, which returns gx followed by the weight
    gradients, and ``jacobian_rows(cache, position)``, which yields
    d y[0, c_out, ph, pw] / d x[0], shape (C_in, H, W), for each output
    channel in turn, read from the operator's structure and the cache of
    the caller's forward. ``position`` is a checked (ph, pw). A caller
    that reduces the rows as they come and drops its cache first never
    holds the slice or the forward's maps. ``forward`` follows from
    ``forward_cached``.
    """

    def forward(self, x):
        return self.forward_cached(x)[0]


def _anchor_window(position: tuple, k: int, h: int, w: int) -> tuple:
    """(hs, ws, us, ts): the k x k window on ``position`` clipped to an
    H x W map, where map rows hs and columns ws meet kernel taps us and
    ts. d y[ph, pw] / d x[hs, ws] of a k x k correlation is kernel[us, ts].
    """
    ph, pw = position
    p = k // 2
    h0, h1 = max(ph - p, 0), min(ph + p + 1, h)
    w0, w1 = max(pw - p, 0), min(pw + p + 1, w)
    return (slice(h0, h1), slice(w0, w1),
            slice(h0 - ph + p, h1 - ph + p), slice(w0 - pw + p, w1 - pw + p))


def _rows_view(a, rows: int):
    """Batch element 0 of a cached array, broadcast over ``rows`` rows."""
    return np.broadcast_to(a[:1], (rows,) + a.shape[1:])


def _pool_spread(bounds, size: int, dtype):
    """(size, k) matrix with 1/len where a position lies in a pooling
    window and 0 elsewhere: one axis of the pooling backward."""
    m = np.zeros((size, len(bounds)), dtype=dtype)
    for i, (lo, hi) in enumerate(bounds):
        m[lo:hi, i] = 1.0 / (hi - lo)
    return m


class ATConv(Operator):
    """Stateful wrapper pairing parameters with a configuration."""

    def __init__(self, params: ATConvParams, config: Optional[ATConvConfig] = None):
        self.params = params
        self.config = config if config is not None else ATConvConfig()
        self.config.validate(params.channels, params.kernel_size)

    def forward_cached(self, x):
        return atconv_forward_cached(x, self.params, self.config)

    def backward(self, gy, cache):
        return atconv_backward(gy, cache)

    def jacobian_rows(self, cache: ATConvCache, position: tuple):
        """The protocol's rows, read from the operator's structure and the
        forward's cache instead of from one dense backward per row.

        For gy one-hot at (c*, ph, pw) of batch element 0, the output
        projection's backward is w_out[c*, :] at the anchor. The depthwise
        backward puts g_v = g_y * alpha only in the anchor's k x k window,
        which the value projection's backward maps alone, and g_alpha is g_y
        times v's k x k window. On the generator path, the stage backwards
        run on (C, C, k, k) arrays, one (C, k, k) slab per row, over
        broadcast views of their batch-0 caches. The pointwise context conv
        commutes with the pooling spread, so each row's gx_kernel is
        Mh (w_f^T gz) Mw, where Mh (H x k) and Mw (k x W) are
        ``_pool_spread``'s matrices for the two axes.
        """
        v, alpha = cache.dd
        _, c_, h_, w_ = v.shape
        k = alpha.shape[2]
        dtype = v.dtype
        hs, ws, us, ts = _anchor_window(position, k, h_, w_)
        g_y = cache.out.w if cache.out is not None else np.eye(c_, dtype=dtype)
        g_win = g_y[:, :, None, None] * alpha[0, :, us, ts]
        if cache.value is not None:
            g_win = np.matmul(cache.value.w.T, g_win.reshape(c_, c_, -1)).reshape(g_win.shape)
        gen, q = cache.gen, None
        if gen is not None:
            v_win = np.zeros((c_, k, k), dtype=dtype)
            v_win[:, us, ts] = v[0, :, hs, ws]
            mod_cache = cache.mod_cache
            if cache.mod_kind == "dkm":
                mod_cache = mod_cache._replace(mean=_rows_view(mod_cache.mean, c_))
            elif cache.mod_kind == "softmax":
                mod_cache = mod_cache._replace(y=_rows_view(mod_cache.y, c_))
            g_raw, _ = _kernel_mod_backward(g_y[:, :, None, None] * v_win,
                                            cache.mod_kind, mod_cache)
            g_vec = g_raw.reshape(c_, c_, k * k) @ gen.mix.w
            gz = gelu_backward(g_vec.reshape(c_, c_, k, k),
                               GeluCache(_rows_view(gen.act.x, c_), _rows_view(gen.act.cdf, c_)))
            q = np.matmul(gen.conv.w.T, gz.reshape(c_, c_, k * k)).reshape(gz.shape)
            mh = _pool_spread(gen.pool.h_bounds, h_, q.dtype)
            mw = _pool_spread(gen.pool.w_bounds, w_, q.dtype).T
        # the rows need none of the forward's maps
        del v, cache, gen
        for r in range(c_):
            if q is None:
                row = np.zeros((c_, h_, w_), dtype=dtype)
            else:
                row = mh @ q[r] @ mw
            row[:, hs, ws] += g_win[r]
            yield row

    def named_parameters(self) -> dict:
        return self.params.named()

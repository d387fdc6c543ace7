"""The attentive convolution operator.

The operator replaces a static depthwise kernel with one generated from the
input itself, in four stages:

1. context-to-kernel: adaptive average pooling condenses the input to the
   kernel grid, a pointwise conv mixes its channels, a GELU gates it, and
   a shared (k*k x k*k) matrix mixes the pooled taps into one raw k x k
   kernel per (batch, channel). Each pooling window's weights sum to 1,
   so pooling commutes with the pointwise conv and its bias: the conv
   runs on the k x k grid, not at full resolution;
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
    _pool_cells, _pool_windows, adaptive_avg_pool_backward, adaptive_avg_pool_forward,
    conv1x1_backward, conv1x1_forward,
    gelu_backward, gelu_forward,
    linear_backward, linear_forward,
    sigmoid_backward, sigmoid_forward, softmax_backward, softmax_forward,
)
from .rng import Rng
from .tensor import as_float, as_shaped, as_tensor4, block_ranges, ensure_finite, flop_counter

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

def _padded_blocks(x3, p, ranges, dtype=None):
    """Yield (lo, xpad) for each (lo, hi) range of the (N, H, W) planes of
    ``x3``: xpad holds planes lo..hi zero-padded by ``p``, shape
    (hi-lo, H+2p+1, W+2p), in one reused buffer of ``dtype`` (x3's when
    None) sized by the longest range, into which each block is cast.

    The zero border is never written. The spare bottom row keeps a run of
    H*(W+2p) elements from the last tap's offset inside its own plane.
    """
    _, h, w = x3.shape
    dtype = x3.dtype if dtype is None else dtype
    rows = max(hi - lo for lo, hi in ranges)
    xpad = np.zeros((rows, h + 2 * p + 1, w + 2 * p), dtype=dtype)
    for lo, hi in ranges:
        xpad[:hi - lo, p:p + h, p:p + w] = x3[lo:hi]
        yield lo, xpad[:hi - lo]


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
    each within ``tensor.BLOCK`` elements (``block_ranges``), so a block's
    sums, product buffer and padded input stay in L2 across all k*k taps.
    A plane's sums are kept at the padded row width, in the layout
    ``StaticConv`` shares, and the k-1 extra sums per row are dropped.
    For each tap, the product is written into a reused buffer, computed
    in ``result_type(x, alpha)``, and added into the sums, which start
    from +0 and visit the taps in row-major order.

    The product is ``np.einsum("m,ms->ms")`` of the tap's row scales, a
    contiguous (k*k, B*C) copy of alpha, with the run. x is padded and
    alpha copied in the product dtype, an exact cast that leaves einsum
    no operand to cast per tap. einsum's per-row scale loop runs at about
    0.5 ns per float32 element, where ``np.multiply`` broadcasting a
    column of alpha ran at about 0.85. einsum zeroes its output and adds
    each a*b into it, so every product is the rounded a*b of
    ``np.multiply``, save that a -0 product reads +0. Added into the sums
    that moves no bit, since x + +-0 is x for every x but -0, and sums
    that start from +0 hold -0 only where a sum narrower than its
    products (float32 sums of float64 products) rounds a tiny negative to
    -0. Such a -0 turns +0 on meeting a zero product, which
    ``np.multiply`` gave as -0 for a negative factor.
    """
    b_, c_, h, w = x.shape
    k = alpha.shape[2]
    n = b_ * c_
    span = h * (w + k - 1)
    out = np.empty((n, h, w), dtype=dtype)
    ranges = block_ranges(n, span)
    rows = max(hi - lo for lo, hi in ranges)
    acc = np.empty((rows, span), dtype=dtype)
    prod = np.empty((rows, span), dtype=np.result_type(x, alpha))
    scales = np.ascontiguousarray(alpha.reshape(n, k * k).T, dtype=prod.dtype)
    for lo, xpad in _padded_blocks(x.reshape(n, h, w), k // 2, ranges, prod.dtype):
        m = len(xpad)
        sums, pb = acc[:m], prod[:m]
        sums.fill(0)
        for i, run in enumerate(_tap_runs(xpad, k, flip)):
            np.einsum("m,ms->ms", scales[i, lo:lo + m], run, out=pb)
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
    f32 gv whose f64 products underflow to -0 may read +0 instead. The
    tap sum's einsum products widen that case (see ``_tap_sum``): an f32
    sum that underflowed to -0 reads +0 once it meets an exact-zero
    product, which ``np.multiply`` gave as -0 for a negative factor. The
    forward's f32 y of f64 products has the same case.
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
    ranges = block_ranges(n, h_ * (w_ + 2 * p))
    for lo, vpad in _padded_blocks(v.reshape(n, h_, w_), p, ranges):
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
    """The stages' caches in forward order; every map past the pool is
    (B, C, k, k). The GELU keeps its CDF alone: its input, the context
    conv's output, is rebuilt from ``conv`` when a backward needs it."""
    pool: PoolCache
    conv: Conv1x1Cache
    cdf: np.ndarray
    mix: LinearCache


def _gelu_cache(cache: C2KCache) -> GeluCache:
    """The generator's GELU cache, its input rebuilt by ``conv1x1_forward``
    on the conv's cache: the arguments the forward used, so the forward's
    bits."""
    return GeluCache(conv1x1_forward(*cache.conv)[0], cache.cdf)


def generate_kernels_forward(x, params: ATConvParams):
    """Raw per-(batch, channel) kernels from the input's pooled context:
    pool x to the k x k grid, then the context conv, the GELU and the tap
    mixing, all on that grid."""
    k = params.kernel_size
    z, c_pool = adaptive_avg_pool_forward(x, k)
    f, c_conv = conv1x1_forward(z, params.w_f, params.w_f_bias)
    a, c_act = gelu_forward(f)
    b_, c_, _, _ = a.shape
    # vec() flattens each k x k context row-major before the tap mixing
    vec, c_mix = linear_forward(a.reshape(b_, c_, k * k), params.w_gen)
    raw = np.ascontiguousarray(vec.reshape(b_, c_, k, k))
    return raw, C2KCache(c_pool, c_conv, c_act.cdf, c_mix)


def generate_kernels_backward(graw, cache: C2KCache, out=None):
    """(gx, generator weight gradients). Every stage but the pool runs on
    the k x k grid; the pool's backward spreads the grid's gradient to x's
    shape, into ``out`` in place when one is given."""
    cache = _need_cache(cache, "generate_kernels")
    b_, c_ = cache.pool.in_shape[:2]
    k = len(cache.pool.h_bounds)
    graw = as_shaped(graw, (b_, c_, k, k), "graw")
    gvec, gw_gen, _ = linear_backward(graw.reshape(b_, c_, k * k), cache.mix)
    gf = gelu_backward(gvec.reshape(b_, c_, k, k), _gelu_cache(cache))
    gz, gw_f, gb_f = conv1x1_backward(gf, cache.conv)
    gx = adaptive_avg_pool_backward(gz, cache.pool, out)
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


class CentralDiffCache(NamedTuple):
    shape: tuple  # (B, C, k, k) of raw and alpha


def central_diff_forward(raw):
    """(alpha, cache): the center tap rewritten to raw_center - sum(raw), a
    discrete difference stencil. The off-center taps keep their values and
    the whole kernel sums to zero exactly."""
    raw = as_shaped(raw, (None, None) + np.shape(raw)[-1:] * 2, "raw")
    k = raw.shape[2]
    if k == 1:
        raise UnsupportedConfigError(
            "central_diff needs off-center taps; a 1x1 kernel has none")
    kc = k // 2
    alpha = np.array(raw)
    alpha[:, :, kc, kc] = raw[:, :, kc, kc] - raw.sum(axis=(2, 3))
    return alpha, CentralDiffCache(raw.shape)


def central_diff_backward(galpha, cache: CentralDiffCache):
    """graw = galpha - galpha's center tap, with the center tap's own
    gradient 0."""
    shape = _need_cache(cache, "central_diff").shape
    galpha = as_shaped(galpha, shape, "galpha")
    kc = shape[2] // 2
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
        return softmax_backward(g_alpha, mod_cache), None
    if kind == "central_diff":
        return central_diff_backward(g_alpha, mod_cache), None
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
        alpha, mod_cache = softmax_forward(raw, axis=(2, 3))
    elif mod == "central_diff":
        alpha, mod_cache = central_diff_forward(raw)
    else:
        alpha, mod_cache = raw, None
    del raw  # no backward reads the raw kernels, so only alpha lives on

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
    returns. The generator's backward runs on the k x k grid and spreads
    its pooled gradient into gx_value in place, so while it runs the maps
    alive are the forward's cached v and y, its output and gx_value; it
    adds no full-size map of its own.
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
        # gx_value is a fresh array of x's dtype
        gx, gen_grads = generate_kernels_backward(g_raw, cache.gen, gx_value)
        grads.update(gen_grads)
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
    holds the slice or the forward's maps. Without a cache the rows raise
    ``StateError``. ``forward`` follows from ``forward_cached``.

    ``influence(cache, position)`` is the (H, W) float64 gradient-mass map
    sum_{c_out, c_in} |row| the routing probes read. By default it reduces
    the rows as they come; an operator whose rows repeat over a region may
    sum each region once, if its map keeps the default's bits. ``ATConv``
    takes the generator path per pooling cell.
    """

    def forward(self, x):
        return self.forward_cached(x)[0]

    def influence(self, cache, position: tuple) -> np.ndarray:
        """sum_{c_out, c_in} |d y[0, c_out, ph, pw] / d x[0, c_in]|: each
        row's |.| summed over input channels in its own dtype, then added
        in row order into a float64 map that starts from +0."""
        g = None
        for row in self.jacobian_rows(cache, position):
            s = np.abs(row).sum(axis=0)
            if g is None:
                g = np.zeros(s.shape)
            g += s
        return g


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
    return _pool_windows(bounds, size, dtype) / np.array([hi - lo for lo, hi in bounds], dtype)


class _RowFactors(NamedTuple):
    """What every ATConv Jacobian row is built from, batch element 0."""
    shape: tuple                # (C, H, W)
    dtype: np.dtype             # v's, which a static kernel's rows take
    window: tuple               # (hs, ws): the anchor's clipped k x k window
    g_win: np.ndarray           # (C, C, |hs|, |ws|): the value path in the window
    q: Optional[np.ndarray]     # (C, C, k, k): w_f^T gf, before the pooling spread
    pool: Optional[PoolCache]


def _row_factors(cache: "ATConvCache", position: tuple) -> _RowFactors:
    """The rows' shared prologue, read from the forward's cache.

    For gy one-hot at (c*, ph, pw) of batch element 0, the output
    projection's backward is w_out[c*, :] at the anchor. The depthwise
    backward puts g_v = g_y * alpha only in the anchor's k x k window,
    which the value projection's backward maps alone: that is g_win[c*].
    g_alpha is g_y times v's k x k window. On the generator path, the
    stage backwards run on (C, C, k, k) arrays, one (C, k, k) slab per row,
    over broadcast views of their batch-0 caches, down to the context
    conv's on the pooled grid: q[c*] = w_f^T gf is the pooled input's
    gradient. Row c* is its pooling spread Mh q[c*] Mw plus g_win[c*] in
    the window, where Mh (H x k) and Mw (k x W) are ``_pool_spread``'s
    matrices for the two axes. q is None for a static kernel, whose rows
    are g_win alone.
    """
    v, alpha = _need_cache(cache, "atconv", "jacobian_rows").dd
    _, c_, h_, w_ = v.shape
    k = alpha.shape[2]
    hs, ws, us, ts = _anchor_window(position, k, h_, w_)
    g_y = cache.out.w if cache.out is not None else np.eye(c_, dtype=v.dtype)
    g_win = g_y[:, :, None, None] * alpha[0, :, us, ts]
    if cache.value is not None:
        g_win = np.matmul(cache.value.w.T, g_win.reshape(c_, c_, -1)).reshape(g_win.shape)
    gen = cache.gen
    if gen is None:
        return _RowFactors((c_, h_, w_), v.dtype, (hs, ws), g_win, None, None)
    v_win = np.zeros((c_, k, k), dtype=v.dtype)
    v_win[:, us, ts] = v[0, :, hs, ws]
    mod_cache = cache.mod_cache
    if cache.mod_kind == "dkm":
        mod_cache = mod_cache._replace(mean=_rows_view(mod_cache.mean, c_))
    elif cache.mod_kind == "softmax":
        mod_cache = mod_cache._replace(y=_rows_view(mod_cache.y, c_))
    elif cache.mod_kind == "central_diff":
        mod_cache = mod_cache._replace(shape=(c_,) + mod_cache.shape[1:])
    g_raw, _ = _kernel_mod_backward(g_y[:, :, None, None] * v_win, cache.mod_kind, mod_cache)
    g_vec = g_raw.reshape(c_, c_, k * k) @ gen.mix.w
    act = _gelu_cache(gen)
    gf = gelu_backward(g_vec.reshape(c_, c_, k, k),
                       GeluCache(_rows_view(act.x, c_), _rows_view(act.cdf, c_)))
    q = np.matmul(gen.conv.w.T, gf.reshape(c_, c_, k * k)).reshape(gf.shape)
    return _RowFactors((c_, h_, w_), v.dtype, (hs, ws), g_win, q, gen.pool)


# Elements of pooling-cell values per block of rows in ``ATConv.influence``:
# a block's cells and their row-spread products stay small next to the
# forward's maps, which the caller may still hold.
_CELL_BLOCK = 1 << 15


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
        forward's cache (``_row_factors``) instead of from one dense
        backward per row: row c* is Mh q[c*] Mw, plus g_win[c*] in the
        anchor's window."""
        f = _row_factors(cache, position)
        del cache  # the rows need none of the forward's maps
        c_, h_, w_ = f.shape
        hs, ws = f.window
        if f.q is not None:
            mh = _pool_spread(f.pool.h_bounds, h_, f.q.dtype)
            mw = _pool_spread(f.pool.w_bounds, w_, f.q.dtype).T
        for r in range(c_):
            if f.q is None:
                row = np.zeros((c_, h_, w_), dtype=f.dtype)
            else:
                row = mh @ f.q[r] @ mw
            row[:, hs, ws] += f.g_win[r]
            yield row

    def influence(self, cache: ATConvCache, position: tuple) -> np.ndarray:
        """The protocol's map, bit for bit, with the generator path taken
        once per pooling cell instead of once per pixel.

        Off the anchor's window, row c*'s value at (h, w) is
        (Mh q[c*] Mw)[c, h, w], which depends on (h, w) only through the
        rows of Mh and Mw, so it is constant on the cells that the pooling
        windows cut the map into (``_pool_cells``). A block of rows is
        evaluated on one representative row and column per cell, as two
        GEMMs over every (c, c*) pair with the default's contraction
        order, Mh first. The window adds g_win to its cells' values, as the
        rows do. Each cell's and window pixel's |.| is summed over c in the
        rows' dtype, then the sums over c* in float64 from +0: the order
        of the default's reduction. The sums keep an axis of more than one
        element inside the summed one, so numpy adds in order instead of
        pairwise. A static kernel, or a map one pixel high or wide, takes
        the default.
        """
        if _need_cache(cache, "atconv", "influence").gen is None or min(cache.dd.v.shape[2:]) == 1:
            return super().influence(cache, position)
        f = _row_factors(cache, position)
        del cache
        c_, h_, w_ = f.shape
        hs, ws = f.window
        k = f.q.shape[2]
        h_cut, h_cell = _pool_cells(f.pool.h_bounds, h_)
        w_cut, w_cell = _pool_cells(f.pool.w_bounds, w_)
        mh = _pool_spread(f.pool.h_bounds, h_, f.q.dtype)[h_cut]
        mw = _pool_spread(f.pool.w_bounds, w_, f.q.dtype).T[:, w_cut]
        nh, nw = len(h_cut), len(w_cut)
        h_win, w_win = h_cell[hs], w_cell[ws]
        n_cells = nh * nw
        # row c*'s |.| sums: its cells, then its window pixels
        sums = np.empty((c_, n_cells + h_win.size * w_win.size))
        # near-equal blocks of at least two rows, a floor no budget for
        # ``block_ranges`` can set, so the sums below add in order
        blocks = min(-(-c_ * c_ * n_cells // _CELL_BLOCK), max(1, c_ // 2))
        for b in range(blocks):
            lo, hi = c_ * b // blocks, c_ * (b + 1) // blocks
            m = hi - lo
            qb = np.ascontiguousarray(f.q[lo:hi].transpose(2, 1, 0, 3))  # [u, c, c*, t]
            t = mh @ qb.reshape(k, -1)
            cells = (t.reshape(-1, k) @ mw).reshape(nh, c_, m, nw)  # [i, c, c*, j]
            del qb, t
            win = cells[h_win][..., w_win]
            win += f.g_win[lo:hi].transpose(2, 1, 0, 3)
            for part, a in ((slice(0, n_cells), cells), (slice(n_cells, None), win)):
                sums[lo:hi, part] = np.abs(a, out=a).sum(axis=1).transpose(1, 0, 2).reshape(m, -1)
            del cells, win
        total = sums.sum(axis=0)
        # a gathered map is not C-contiguous, and its sum would take other bits
        g = np.ascontiguousarray(total[:n_cells].reshape(nh, nw)[h_cell][:, w_cell])
        g[hs, ws] = total[n_cells:].reshape(h_win.size, w_win.size)
        return g

    def named_parameters(self) -> dict:
        return self.params.named()

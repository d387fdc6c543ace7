"""Reference operators the adaptive one is measured against.

All three, and the identity, are ``op.Operator`` subclasses: each defines
``forward_cached``, ``backward`` and the ``jacobian_rows`` that the
analysis probes read, each row taken from the operator's structure and
its forward's cache, and takes ``forward`` and ``influence`` from the
protocol.

- StaticConv: dense k x k convolution, zero padding floor(k/2), stride 1.
  Its Jacobian w.r.t. the input is the weights themselves, scattered over
  the k-neighborhood, independent of the input.
- Both convolutions read their taps, at every k, as the flat runs of the
  operator's zero-padded row layout (``op._padded_blocks`` and
  ``op._tap_runs``): StaticConv as per-sample column GEMMs, StaticDepthwise
  through the dynamic depthwise tap sum.
- StaticDepthwise: one static k x k kernel per channel, applied by the
  operator's own dynamic depthwise kernel with the weights broadcast over
  the batch.
- ToySelfAttention: single-head dot-product attention over the flattened
  token grid with a temperature, small enough to differentiate through.
  A cotangent at one token makes its backward rank one, so its Jacobian
  rows come from a few (C, N) products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import op as atconv_op
from .analysis import _check_anchor
from .errors import ArgumentError, DimensionError
from .primitives import (
    LinearCache, SoftmaxCache, _need_cache,
    linear_backward, linear_forward,
    softmax_backward, softmax_forward,
)
from .rng import Rng
from .tensor import as_float, as_tensor4, as_vector, ensure_finite, flop_counter


def _check_kernel(w: np.ndarray, name: str) -> int:
    k = w.shape[-1]
    if w.shape[-2] != k:
        raise DimensionError(f"{name} taps must be square, got {w.shape}")
    if k % 2 == 0:
        raise ArgumentError(f"{name} side must be odd, got {k}")
    return k


def _window_rows(x, w, position: tuple):
    """The Jacobian rows of a k x k correlation with (C_out, C_in, k, k)
    weights ``w`` on the checked input ``x``: row c* is w[c*] in the
    anchor's clipped window, whatever the input."""
    _, c_in, h_, w_ = x.shape
    hs, ws, us, ts = atconv_op._anchor_window(position, w.shape[-1], h_, w_)
    for wo in w.astype(x.dtype, copy=False):
        row = np.zeros((c_in, h_, w_), dtype=x.dtype)
        row[:, hs, ws] = wo[:, us, ts]
        yield row


# ======================================================================
# dense static convolution
# ======================================================================

class StaticConv(atconv_op.Operator):
    """y[b,o,h,w] = sum_{i,u,v} w[o,i,u,v] * xpad[b,i,h+u,w+v] + bias[o]

    One padded block per sample, in op's tap-run layout at every k: y is
    one (C_out x C_in*k*k) @ column-matrix GEMM per sample, gx gathers the
    mirrored runs of the padded gy, and gw meets the columns with its
    centre run.
    """

    def __init__(self, w: np.ndarray, bias: Optional[np.ndarray] = None):
        self.w = as_float(w, (None,) * 4, "w")  # (C_out, C_in, k, k)
        self.k = _check_kernel(self.w, "static conv kernel")
        self.bias = None if bias is None else as_vector(bias, self.w.shape[0], "bias")

    @classmethod
    def init(cls, rng: Rng, c_out: int, c_in: int, k: int = 3, dtype=np.float64):
        bound = math.sqrt(1.0 / (c_in * k * k))
        return cls(rng.uniform(-bound, bound, (c_out, c_in, k, k), dtype),
                   np.zeros(c_out, dtype=dtype))

    def forward_cached(self, x):
        x = as_tensor4(x, channels=self.w.shape[1])
        # weights and bias take a float input's dtype, as in conv1x1_forward
        w = self.w.astype(x.dtype, copy=False)
        b_, _, h_, w_ = x.shape
        c_out = w.shape[0]
        wm = w.reshape(c_out, -1)
        y = np.empty((b_, c_out, h_, w_), dtype=x.dtype)
        rows = None
        for yb, cols in zip(y, self._columns(x)):
            rows = np.matmul(wm, cols, out=rows)
            yb[...] = rows.reshape(c_out, h_, -1)[:, :, :w_]
        if self.bias is not None:
            y += self.bias.astype(x.dtype, copy=False)[None, :, None, None]
        flop_counter.add(2 * b_ * h_ * w_ * self.w.size)
        ensure_finite(y, "static_conv")
        return y, x

    def _columns(self, x):
        """Yield each sample's (C_in*k*k, H*(W+k-1)) column matrix, in one
        reused buffer: row i*k*k + u*k + t is channel i's ``_tap_runs`` run
        for tap (u, t), whose k-1 extra columns per output row the caller
        drops."""
        b_, c_in, h_, w_ = x.shape
        k = self.k
        cols = np.empty((c_in, k * k, h_ * (w_ + k - 1)), dtype=x.dtype)
        samples = [(b * c_in, (b + 1) * c_in) for b in range(b_)]
        for _, xpad in atconv_op._padded_blocks(x.reshape(b_ * c_in, h_, w_), k // 2, samples):
            for i, run in enumerate(atconv_op._tap_runs(xpad, k)):
                cols[:, i] = run
            yield cols.reshape(c_in * k * k, -1)

    def backward(self, gy, cache):
        """(gx, gw, gb); gb is None without a bias. The cache is the
        forward's input."""
        x = _need_cache(cache, "static_conv")
        b_, c_in, h_, w_ = x.shape
        c_out = self.w.shape[0]
        gy = as_float(gy, (b_, c_out, h_, w_), "gy")
        k = self.k
        wt = self.w.astype(x.dtype, copy=False).reshape(c_out, c_in, k * k)
        # gx is a gather on the padded gy: tap (u, t) is one (C_in x C_out)
        # @ (C_out x span) BLAS matmul on its mirrored run, added into sums
        # that start from +0 in tap order
        span = h_ * (w_ + k - 1)
        sums = np.empty((c_in, span), dtype=x.dtype)
        prod = np.empty((c_in, span), dtype=np.result_type(wt, gy))
        gx = np.empty_like(x)
        gw = np.zeros((c_out, c_in * k * k), dtype=np.result_type(gy, x))
        cols = self._columns(x)
        gb = gy.sum(axis=(0, 2, 3)) if self.bias is not None else None
        samples = [(b * c_out, (b + 1) * c_out) for b in range(b_)]
        gyblocks = atconv_op._padded_blocks(gy.reshape(b_ * c_out, h_, w_), k // 2, samples)
        for gxb, (_, gypad) in zip(gx, gyblocks):
            runs = atconv_op._tap_runs(gypad, k, flip=True)
            sums.fill(0)
            for i, run in enumerate(runs):
                np.matmul(wt[:, :, i].T, run, out=prod)
                sums += prod
            gxb[...] = sums.reshape(c_in, h_, -1)[:, :, :w_]
            # the centre run is gy at the padded row width with zeros in
            # the extra columns, which the columns' extra entries meet
            gw += runs[k * k // 2] @ next(cols).T
        return gx, gw.reshape(self.w.shape), gb

    def jacobian_rows(self, cache, position: tuple):
        return _window_rows(_need_cache(cache, "static_conv", "jacobian_rows"), self.w, position)


# ======================================================================
# static depthwise convolution
# ======================================================================

class StaticDepthwise(atconv_op.Operator):
    """y[b,c,h,w] = sum_{u,v} w[c,u,v] * xpad[b,c,h+u,w+v]

    The dynamic depthwise kernel with ``w`` broadcast over the batch; the
    weight gradient is its per-sample kernel gradient summed over the batch.
    """

    def __init__(self, w: np.ndarray):
        self.w = as_float(w, (None,) * 3, "w")  # (C, k, k)
        self.k = _check_kernel(self.w, "depthwise kernel")

    @classmethod
    def init(cls, rng: Rng, channels: int, k: int = 3, dtype=np.float64):
        bound = math.sqrt(1.0 / (k * k))
        return cls(rng.uniform(-bound, bound, (channels, k, k), dtype))

    def forward_cached(self, x):
        x = as_tensor4(x, channels=self.w.shape[0])
        b_, c_, _, _ = x.shape
        alpha = np.broadcast_to(self.w.astype(x.dtype, copy=False), (b_, c_, self.k, self.k))
        return atconv_op.dyn_depthwise_forward(x, alpha)

    def backward(self, gy, cache: atconv_op.DynDepthwiseCache):
        """(gx, gw)."""
        gx, galpha = atconv_op.dyn_depthwise_backward(gy, cache)
        return gx, galpha.sum(axis=0)

    def jacobian_rows(self, cache: atconv_op.DynDepthwiseCache, position: tuple):
        """The rows of the dense conv with w on its channel diagonal."""
        v = _need_cache(cache, "static_depthwise", "jacobian_rows").v
        dense = np.eye(len(self.w), dtype=self.w.dtype)[:, :, None, None] * self.w[:, None]
        return _window_rows(v, dense, position)


# ======================================================================
# toy single-head self-attention
# ======================================================================

@dataclass
class ToySAParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def init(cls, rng: Rng, channels: int, d: Optional[int] = None,
             tau: Optional[float] = None, dtype=np.float64) -> "ToySAParams":
        d = channels if d is None else int(d)
        bound = math.sqrt(1.0 / channels)
        return cls(
            w_q=rng.uniform(-bound, bound, (d, channels), dtype),
            w_k=rng.uniform(-bound, bound, (d, channels), dtype),
            w_v=rng.uniform(-bound, bound, (d, channels), dtype),
            w_o=rng.uniform(-math.sqrt(1.0 / d), math.sqrt(1.0 / d), (channels, d), dtype),
            tau=float(tau) if tau is not None else math.sqrt(d),
        )

    def validate(self) -> None:
        """Rebind each weight through ``as_float`` against its shape, d
        being w_q's row count and C w_o's, and check the temperature; runs
        once, at construction."""
        d = np.shape(self.w_q)[0] if np.ndim(self.w_q) else None
        c = np.shape(self.w_o)[0] if np.ndim(self.w_o) else None
        for name, shape in {"w_q": (d, c), "w_k": (d, c), "w_v": (d, c), "w_o": (c, d)}.items():
            setattr(self, name, as_float(getattr(self, name), shape, name))
        if not (self.tau > 0):
            raise ArgumentError(f"temperature must be positive, got {self.tau}")


class ToySACache(NamedTuple):
    q_cache: LinearCache
    k_cache: LinearCache
    v_cache: LinearCache
    o_cache: LinearCache
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    alpha: np.ndarray       # (B, N, N)
    sm_cache: SoftmaxCache
    shape: tuple


class ToySelfAttention(atconv_op.Operator):
    """out = W_o (alpha V), alpha = softmax(Q K^T / tau) row-wise.

    Tokens are the H*W spatial positions in row-major order; there is no
    positional term, so the operator is permutation-equivariant over
    tokens. Desk-scale only: the attention map is N x N.
    """

    def __init__(self, params: ToySAParams):
        self.params = params

    def forward_cached(self, x):
        p = self.params
        x = as_tensor4(x, channels=p.w_q.shape[1])
        b_, c_, h_, w_ = x.shape
        n = h_ * w_
        xt = np.ascontiguousarray(x.reshape(b_, c_, n).transpose(0, 2, 1))
        q, qc = linear_forward(xt, p.w_q)
        k, kc = linear_forward(xt, p.w_k)
        v, vc = linear_forward(xt, p.w_v)
        scores = np.matmul(q, k.transpose(0, 2, 1)) / p.tau
        d = q.shape[-1]
        flop_counter.add(2 * b_ * n * n * d)
        alpha, smc = softmax_forward(scores, axis=-1)
        ytok = np.matmul(alpha, v)
        flop_counter.add(2 * b_ * n * n * d)
        out_t, oc = linear_forward(ytok, p.w_o)
        y = np.ascontiguousarray(out_t.transpose(0, 2, 1).reshape(b_, c_, h_, w_))
        ensure_finite(y, "toy_self_attention")
        return y, ToySACache(qc, kc, vc, oc, q, k, v, alpha, smc, x.shape)

    def attention(self, x) -> np.ndarray:
        """The (B, N, N) attention map for ``x``."""
        return self.forward_cached(x)[1].alpha

    def backward(self, gy, cache: ToySACache):
        """(gx, grads)."""
        cache = _need_cache(cache, "toy_self_attention")
        b_, c_, h_, w_ = cache.shape
        gy = as_float(gy, cache.shape, "gy")
        p = self.params
        n = h_ * w_
        g_out_t = np.ascontiguousarray(gy.reshape(b_, c_, n).transpose(0, 2, 1))
        g_ytok, gw_o, _ = linear_backward(g_out_t, cache.o_cache)
        g_alpha = np.matmul(g_ytok, cache.v.transpose(0, 2, 1))
        g_v = np.matmul(cache.alpha.transpose(0, 2, 1), g_ytok)
        g_scores = softmax_backward(g_alpha, cache.sm_cache) / p.tau
        g_q = np.matmul(g_scores, cache.k)
        g_k = np.matmul(g_scores.transpose(0, 2, 1), cache.q)
        gxt, gw_q, _ = linear_backward(g_q, cache.q_cache)
        gxt2, gw_k, _ = linear_backward(g_k, cache.k_cache)
        gxt3, gw_v, _ = linear_backward(g_v, cache.v_cache)
        gxt = gxt + gxt2 + gxt3
        gx = np.ascontiguousarray(gxt.transpose(0, 2, 1).reshape(b_, c_, h_, w_))
        return gx, {"w_q": gw_q, "w_k": gw_k, "w_v": gw_v, "w_o": gw_o}

    def jacobian_rows(self, cache: ToySACache, position: tuple):
        """The protocol's rows, read from the forward's attention.

        A cotangent at token p of output channel c* makes every backward
        factor rank one. g_ytok is w_o[c*] at p alone, so g_v[j] is
        alpha[p, j] w_o[c*]; the score gradient s lives on row p, so g_q is
        s k at p alone and g_k[j] is s[j] q[p]. Through the three
        projections, row c* is (w_k^T q[p]) s + (w_v^T w_o[c*]) alpha[p]
        over the tokens, plus w_q^T k^T s at p.
        """
        _, c_, h_, w_ = _need_cache(cache, "toy_self_attention", "jacobian_rows").shape
        p = position[0] * w_ + position[1]
        w_q, w_k, w_v, w_o = (c.w for c in cache[:4])
        a = cache.alpha[0, p].copy()  # a view would keep the N x N map alive
        g_alpha = w_o @ cache.v[0].T  # (C, N): g_alpha[p] for each c*
        s = (g_alpha - (g_alpha @ a)[:, None]) * a / self.params.tau
        g_at_p = s @ cache.k[0] @ w_q
        qk = cache.q[0, p] @ w_k
        ov = w_o @ w_v
        del cache
        for r in range(c_):
            row = np.multiply.outer(qk, s[r]) + np.multiply.outer(ov[r], a)
            row[:, p] += g_at_p[r]
            yield row.reshape(c_, h_, w_)


class IdentityOp(atconv_op.Operator):
    """Pass-through operator; handy as a ground truth in map tests."""

    def forward_cached(self, x):
        x = as_tensor4(x)
        return x, x

    def backward(self, gy, cache):
        """(gy, None): the identity has no weights."""
        return as_float(gy, _need_cache(cache, "identity").shape, "gy"), None

    def jacobian_rows(self, cache, position: tuple):
        """The rows of the 1 x 1 conv with identity weights."""
        cache = _need_cache(cache, "identity", "jacobian_rows")
        eye = np.eye(cache.shape[1], dtype=cache.dtype)[:, :, None, None]
        return _window_rows(cache, eye, position)


# ======================================================================
# Jacobian probe
# ======================================================================

def conv_jacobian_probe(op, x, position: tuple) -> np.ndarray:
    """Input Jacobian slice of ``op`` at one output position.

    Returns J with J[c_out, c_in, h, w] = d y[0, c_out, ph, pw] /
    d x[0, c_in, h, w], one ``op.jacobian_rows`` row per output channel,
    each read from the operator's structure after one forward on ``x``.
    For a static convolution this slice is the kernel weights scattered
    over the neighborhood of ``position`` and zero elsewhere, whatever the
    input; input-dependent kernels give input-dependent slices.
    """
    x = as_tensor4(x)
    position = _check_anchor(position, *x.shape[2:])
    return np.stack(list(op.jacobian_rows(op.forward_cached(x)[1], position)), axis=0)

"""The BLAS backward reductions against the einsum forms they replaced.

conv1x1's weight gradient is one batched matmul per block of samples
(bit for bit the one-matmul-per-sample loop, checked in
``test_tap_products_gw_blocks``), StaticConv's input
gradient one matmul per sample and tap on a run of the padded gy, and the
dynamic depthwise galpha one product-free einsum per tap. They sum in
another order than the einsum forms in ``oracles`` they replaced, so f64
results are compared to those within 1e-12 relative, and each input
gradient also passes a dot-product adjoint test against the scalar-loop
convolution oracles: <conv(x), gy> = <x, gx>. StaticConv's input gradient
is also bit for bit the per-tap scatter that came before the gather; that
and its column-GEMM forward and weight gradient are checked in
``test_static_conv_gemm``.
"""

import numpy as np
import pytest

from atconv.baselines import StaticConv
from atconv.op import dyn_depthwise_backward, dyn_depthwise_forward
from atconv.primitives import conv1x1_backward, conv1x1_forward
from atconv.rng import Rng
from oracles import (
    conv1x1_backward_einsum_ref,
    conv1x1_forward_add_ref,
    conv1x1_ref,
    conv2d_ref,
    depthwise_ref,
    dyn_depthwise_backward_sum_ref,
    static_conv_input_grad_einsum_ref,
)

RTOL = 1e-12


def rel_err(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300))


def adjoint_gap(fwd_dot, grad_dot, scale):
    """|<conv(x), gy> - <x, gx>| relative to the sum of |terms|."""
    return abs(fwd_dot - grad_dot) / scale


# (B, C_in, C_out, H, W): B=1 and a batch, C_in != C_out
CONV1X1_SHAPES = ((1, 5, 7, 4, 6), (3, 16, 12, 8, 8))
# (B, C_in, C_out, H, W, k)
STATIC_SHAPES = ((1, 3, 4, 6, 5, 3), (2, 5, 3, 7, 7, 5))
# (B, C, H, W, k)
DEPTHWISE_SHAPES = ((1, 3, 5, 6, 3), (2, 4, 7, 7, 5))


@pytest.mark.parametrize("shape", CONV1X1_SHAPES)
def test_conv1x1_backward_matches_einsum_form(shape):
    b_, ci, co, h_, w_ = shape
    rng = Rng(sum(shape))
    x = rng.normal(0, 1, (b_, ci, h_, w_))
    w = rng.normal(0, 1, (co, ci))
    _, cache = conv1x1_forward(x, w, rng.normal(0, 1, (co,)))
    gy = rng.normal(0, 1, (b_, co, h_, w_))
    got = conv1x1_backward(gy, cache)
    ref = conv1x1_backward_einsum_ref(gy, x, w, True)
    for g, r in zip(got, ref):
        assert g.dtype == np.float64
        assert rel_err(g, r) < RTOL


@pytest.mark.parametrize("shape", STATIC_SHAPES)
def test_static_conv_input_grad_matches_einsum_form_and_adjoint(shape):
    b_, ci, co, h_, w_, k = shape
    rng = Rng(sum(shape))
    op = StaticConv.init(rng, co, ci, k)
    x = rng.normal(0, 1, (b_, ci, h_, w_))
    gy = rng.normal(0, 1, (b_, co, h_, w_))
    _, cache = op.forward_cached(x)
    gx, _, _ = op.backward(gy, cache)
    assert rel_err(gx, static_conv_input_grad_einsum_ref(gy, x, op.w)) < RTOL
    y = conv2d_ref(x, op.w)
    scale = np.abs(y * gy).sum() + np.abs(x * gx).sum()
    assert adjoint_gap(np.vdot(y, gy), np.vdot(x, gx), scale) < RTOL


@pytest.mark.parametrize("shape", DEPTHWISE_SHAPES)
def test_dyn_depthwise_backward_matches_sum_form_and_adjoint(shape):
    b_, c_, h_, w_, k = shape
    rng = Rng(sum(shape))
    v = rng.normal(0, 1, (b_, c_, h_, w_))
    alpha = rng.normal(0, 1, (b_, c_, k, k))
    gy = rng.normal(0, 1, (b_, c_, h_, w_))
    _, cache = dyn_depthwise_forward(v, alpha)
    gv, galpha = dyn_depthwise_backward(gy, cache)
    ref_gv, ref_galpha = dyn_depthwise_backward_sum_ref(gy, v, alpha)
    assert rel_err(galpha, ref_galpha) < RTOL
    assert rel_err(gv, ref_gv) < RTOL
    # y is linear in v and in alpha, so both gradients are adjoints of it
    y = depthwise_ref(v, alpha)
    fwd = np.vdot(y, gy)
    for inp, grad in ((v, gv), (alpha, galpha)):
        scale = np.abs(y * gy).sum() + np.abs(inp * grad).sum()
        assert adjoint_gap(fwd, np.vdot(inp, grad), scale) < RTOL


def test_rewritten_backwards_keep_f32():
    rng = Rng(3)
    x = rng.normal(0, 1, (2, 4, 5, 5), np.float32)
    gy = rng.normal(0, 1, (2, 6, 5, 5), np.float32)
    _, cache = conv1x1_forward(x, rng.normal(0, 1, (6, 4), np.float32),
                               np.zeros(6, np.float32))
    assert all(g.dtype == np.float32 for g in conv1x1_backward(gy, cache))
    op = StaticConv.init(rng, 6, 4, 3, np.float32)
    _, cache = op.forward_cached(x)
    assert all(g.dtype == np.float32 for g in op.backward(gy, cache))
    _, cache = dyn_depthwise_forward(x, rng.normal(0, 1, (2, 4, 3, 3), np.float32))
    assert all(g.dtype == np.float32 for g in dyn_depthwise_backward(gy[:, :4], cache))


def test_backwards_call_no_unoptimized_einsum(monkeypatch):
    # an einsum without optimize= runs numpy's own loop, not BLAS
    real = np.einsum

    def strict(*operands, **kwargs):
        if "optimize" not in kwargs:
            raise AssertionError(f"np.einsum({operands[0]!r}) without optimize=")
        return real(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", strict)
    rng = Rng(4)
    x = rng.normal(0, 1, (2, 4, 5, 5))
    gy = rng.normal(0, 1, (2, 6, 5, 5))
    _, cache = conv1x1_forward(x, rng.normal(0, 1, (6, 4)))
    conv1x1_backward(gy, cache)
    op = StaticConv.init(rng, 6, 4, 3)
    _, cache = op.forward_cached(x)
    op.backward(gy, cache)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_in_place_bias_add_is_bitwise_the_old_add(dtype):
    rng = Rng(5)
    x = rng.normal(0, 1, (3, 5, 4, 6), dtype)
    w = rng.normal(0, 1, (7, 5), dtype)
    bias = rng.normal(0, 1, (7,), dtype)
    y, _ = conv1x1_forward(x, w, bias)
    ref = conv1x1_forward_add_ref(x, w, bias)
    assert y.dtype == ref.dtype and y.tobytes() == ref.tobytes()
    assert np.abs(y - conv1x1_ref(x, w, bias)).max() < 1e-5

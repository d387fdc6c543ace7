"""Static convolutions and the toy attention reference operator."""

import numpy as np
import pytest

from atconv import op as atconv_op
from atconv.baselines import (
    IdentityOp,
    StaticConv,
    StaticDepthwise,
    ToySAParams,
    ToySelfAttention,
    conv_jacobian_probe,
)
from atconv.errors import ArgumentError, DimensionError
from atconv.op import ATConv, ATConvParams, dyn_depthwise_forward
from atconv.primitives import conv1x1_forward, softmax_forward
from atconv.rng import Rng
from oracles import (
    attention_ref,
    conv2d_ref,
    depthwise_ref,
    static_depthwise_window_backward_ref,
    static_depthwise_window_forward_ref,
)


# ----------------------------------------------------------------------
# dense static convolution
# ----------------------------------------------------------------------

def test_static_conv_matches_loop_reference():
    rng = Rng(80)
    w = rng.normal(0, 1, (4, 3, 3, 3))
    bias = rng.normal(0, 1, (4,))
    op = StaticConv(w, bias)
    x = rng.normal(0, 1, (2, 3, 5, 5))
    assert np.abs(op.forward(x) - conv2d_ref(x, w, bias)).max() < 1e-12


def test_static_conv_1x1_is_pointwise_conv():
    rng = Rng(81)
    w = rng.normal(0, 1, (4, 3, 1, 1))
    x = rng.normal(0, 1, (2, 3, 6, 6))
    y = StaticConv(w).forward(x)
    assert np.array_equal(y, conv1x1_forward(x, w[:, :, 0, 0])[0])


def test_static_conv_delta_kernel_is_identity():
    k = 3
    w = np.zeros((3, 3, k, k))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    x = Rng(82).normal(0, 1, (2, 3, 5, 5))
    assert np.allclose(StaticConv(w).forward(x), x, atol=1e-15)


def test_static_conv_rejects_even_kernel():
    with pytest.raises(ArgumentError):
        StaticConv(np.ones((2, 2, 2, 2)))


def test_static_conv_rejects_channel_mismatch():
    op = StaticConv.init(Rng(83), 2, 3, 3)
    with pytest.raises(DimensionError):
        op.forward(np.ones((1, 4, 5, 5)))


# ----------------------------------------------------------------------
# static depthwise convolution
# ----------------------------------------------------------------------

def test_static_depthwise_matches_loop_reference():
    rng = Rng(84)
    w = rng.normal(0, 1, (3, 3, 3))
    x = rng.normal(0, 1, (2, 3, 5, 5))
    assert np.abs(StaticDepthwise(w).forward(x) - depthwise_ref(x, w)).max() < 1e-12


def test_static_depthwise_equals_broadcast_dynamic_kernel():
    rng = Rng(85)
    w = rng.normal(0, 1, (3, 3, 3))
    x = rng.normal(0, 1, (2, 3, 6, 6))
    alpha = np.broadcast_to(w[None], (2, 3, 3, 3)).copy()
    assert np.abs(StaticDepthwise(w).forward(x) - dyn_depthwise_forward(x, alpha)[0]).max() < 1e-12


def test_static_depthwise_box_kernel():
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    y = StaticDepthwise(np.ones((1, 3, 3))).forward(x)
    assert y[0, 0, 1, 1] == 45.0
    assert y[0, 0, 0, 0] == 12.0


def test_static_depthwise_zero_kernel():
    x = Rng(86).normal(0, 1, (1, 2, 4, 4))
    assert np.abs(StaticDepthwise(np.zeros((2, 3, 3))).forward(x)).max() == 0.0


# StaticDepthwise runs through the dynamic depthwise kernel with its weight
# broadcast over the batch. (B, C, H, W, k): B=1, and a batch with k=5.
FOLD_SHAPES = ((1, 3, 5, 6, 3), (3, 4, 7, 6, 5))


def rel_err(got, ref):
    assert got.shape == ref.shape
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("shape", FOLD_SHAPES)
def test_static_depthwise_matches_window_einsum_form(shape):
    b_, c_, h_, w_, k = shape
    rng = Rng(sum(shape))
    op = StaticDepthwise.init(rng, c_, k)
    x = rng.normal(0, 1, (b_, c_, h_, w_))
    gy = rng.normal(0, 1, (b_, c_, h_, w_))
    y, cache = op.forward_cached(x)
    gx, gw = op.backward(gy, cache)
    ref_gx, ref_gw = static_depthwise_window_backward_ref(gy, x, op.w)
    for got, ref in ((y, static_depthwise_window_forward_ref(x, op.w)),
                     (gx, ref_gx), (gw, ref_gw)):
        assert got.dtype == np.float64
        assert rel_err(got, ref) < 1e-12


@pytest.mark.parametrize("shape", FOLD_SHAPES)
def test_static_depthwise_weight_grad_is_adjoint(shape):
    # y is linear in w, so <depthwise(x, w), gy> = <w, gw>
    b_, c_, h_, w_, k = shape
    rng = Rng(sum(shape) + 1)
    op = StaticDepthwise.init(rng, c_, k)
    x = rng.normal(0, 1, (b_, c_, h_, w_))
    gy = rng.normal(0, 1, (b_, c_, h_, w_))
    _, gw = op.backward(gy, op.forward_cached(x)[1])
    y = depthwise_ref(x, op.w)
    scale = np.abs(y * gy).sum() + np.abs(op.w * gw).sum()
    assert abs(np.vdot(y, gy) - np.vdot(op.w, gw)) / scale < 1e-12


def test_static_depthwise_runs_through_the_dynamic_kernel(monkeypatch):
    calls = []
    for name in ("dyn_depthwise_forward", "dyn_depthwise_backward"):
        real = getattr(atconv_op, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(atconv_op, name, counted)
    op = StaticDepthwise.init(Rng(87), 2)
    x = Rng(88).normal(0, 1, (2, 2, 4, 4))
    y, cache = op.forward_cached(x)
    op.backward(np.ones_like(y), cache)
    assert calls == ["dyn_depthwise_forward", "dyn_depthwise_backward"]


# ----------------------------------------------------------------------
# toy self-attention
# ----------------------------------------------------------------------

def test_attention_single_token_has_no_mixing():
    rng = Rng(87)
    p = ToySAParams.init(rng, 4)
    op = ToySelfAttention(p)
    x = rng.normal(0, 1, (2, 4, 1, 1))
    y = op.forward(x)
    # one token attends only to itself, so out = W_o W_v x
    for b in range(2):
        ref = p.w_o @ (p.w_v @ x[b, :, 0, 0])
        assert np.abs(y[b, :, 0, 0] - ref).max() < 1e-12


def test_attention_zero_query_mean_pools():
    rng = Rng(88)
    p = ToySAParams.init(rng, 3)
    p.w_q = np.zeros_like(p.w_q)
    op = ToySelfAttention(p)
    x = rng.normal(0, 1, (1, 3, 2, 3))
    alpha = op.attention(x)
    n = 6
    assert np.abs(alpha - 1.0 / n).max() < 1e-14
    y = op.forward(x)
    # uniform attention averages the value tokens, identically at every site
    tokens = x[0].reshape(3, n).T
    pooled = p.w_o @ (p.w_v @ tokens.mean(axis=0))
    for i in range(n):
        assert np.abs(y[0, :, i // 3, i % 3] - pooled).max() < 1e-12


def test_attention_rows_are_distributions():
    rng = Rng(89)
    op = ToySelfAttention(ToySAParams.init(rng, 3))
    alpha = op.attention(rng.normal(0, 1, (2, 3, 3, 3)))
    assert alpha.min() > 0.0
    assert np.abs(alpha.sum(axis=-1) - 1.0).max() < 1e-12


def test_attention_matches_loop_reference():
    rng = Rng(90)
    p = ToySAParams.init(rng, 3, tau=1.7)
    op = ToySelfAttention(p)
    x = rng.normal(0, 1, (2, 3, 2, 2))
    ref = attention_ref(x, p.w_q, p.w_k, p.w_v, p.w_o, p.tau)
    assert np.abs(op.forward(x) - ref).max() < 1e-12


def test_attention_permutation_equivariance():
    rng = Rng(91)
    op = ToySelfAttention(ToySAParams.init(rng, 4))
    x = rng.normal(0, 1, (1, 4, 3, 4))
    n = 12
    perm = Rng(92).permutation(n)
    xt = x.reshape(1, 4, n)
    x_perm = xt[:, :, perm].reshape(1, 4, 3, 4)
    y = op.forward(x).reshape(1, 4, n)
    y_perm = op.forward(x_perm).reshape(1, 4, n)
    assert np.abs(y_perm - y[:, :, perm]).max() < 1e-10


def test_attention_softmax_jacobian_forms_agree():
    # d alpha_i / d logit_j in two algebraic forms:
    # matrix form (diag(alpha) - alpha alpha^T) / tau, elementwise form
    # alpha_i (delta_ij - alpha_j) / tau
    rng = Rng(93)
    for tau in (1.0, 2.0):
        z = rng.normal(0, 1, (5,))
        alpha = softmax_forward(z / tau)[0]
        j_matrix = (np.diag(alpha) - np.outer(alpha, alpha)) / tau
        j_elt = np.array([[alpha[i] * ((1.0 if i == j else 0.0) - alpha[j]) / tau
                           for j in range(5)] for i in range(5)])
        assert np.abs(j_matrix - j_elt).max() < 1e-15

        # and both match finite differences of the actual softmax
        h = 1e-6
        for j in range(5):
            zp = z.copy()
            zp[j] += h
            zm = z.copy()
            zm[j] -= h
            fd = (softmax_forward(zp / tau)[0] - softmax_forward(zm / tau)[0]) / (2 * h)
            assert np.abs(fd - j_matrix[:, j]).max() < 1e-8


def test_attention_rejects_channel_mismatch():
    op = ToySelfAttention(ToySAParams.init(Rng(94), 3))
    with pytest.raises(DimensionError):
        op.forward(np.ones((1, 5, 2, 2)))


def test_sa_params_reject_bad_temperature():
    rng = Rng(95)
    with pytest.raises(ArgumentError):
        ToySAParams.init(rng, 3, tau=0.0)


# ----------------------------------------------------------------------
# Jacobian probe
# ----------------------------------------------------------------------

def test_probe_identity_operator_is_one_hot():
    x = Rng(96).normal(0, 1, (1, 2, 4, 4))
    j = conv_jacobian_probe(IdentityOp(), x, (1, 2))
    expect = np.zeros((2, 2, 4, 4))
    expect[0, 0, 1, 2] = 1.0
    expect[1, 1, 1, 2] = 1.0
    assert np.array_equal(j, expect)


def test_probe_static_conv_slice_is_kernel_and_input_invariant():
    rng = Rng(97)
    op = StaticConv.init(rng, 3, 3, 3)
    pos = (2, 2)
    x1 = rng.normal(0, 1, (1, 3, 5, 5))
    x2 = rng.normal(0, 1, (1, 3, 5, 5)) * 10.0
    j1 = conv_jacobian_probe(op, x1, pos)
    j2 = conv_jacobian_probe(op, x2, pos)
    assert np.array_equal(j1, j2)

    # inside the 3x3 neighborhood the slice is the kernel, outside it zero
    expect = np.zeros_like(j1)
    expect[:, :, 1:4, 1:4] = op.w
    assert np.abs(j1 - expect).max() < 1e-12


def test_probe_static_conv_at_corner():
    rng = Rng(98)
    op = StaticConv.init(rng, 2, 2, 3)
    x = rng.normal(0, 1, (1, 2, 7, 7))
    j = conv_jacobian_probe(op, x, (0, 0))
    # corner anchor: only the in-bounds quadrant of the kernel appears
    expect = np.zeros_like(j)
    expect[:, :, 0:2, 0:2] = op.w[:, :, 1:, 1:]
    assert np.abs(j - expect).max() < 1e-12


def test_probe_kernel_entry_locality():
    # perturbing one kernel tap moves exactly one Jacobian entry per
    # channel pair, at the matching spatial offset
    rng = Rng(99)
    w = rng.normal(0, 1, (2, 2, 3, 3))
    x = rng.normal(0, 1, (1, 2, 7, 7))
    pos = (3, 3)
    j_base = conv_jacobian_probe(StaticConv(w), x, pos)
    w2 = w.copy()
    w2[1, 0, 0, 2] += 0.25
    j_pert = conv_jacobian_probe(StaticConv(w2), x, pos)
    diff = j_pert - j_base
    expect = np.zeros_like(diff)
    # tap (u, v) = (0, 2) reads input at (pos + (0, 2) - center)
    expect[1, 0, 3 + 0 - 1, 3 + 2 - 1] = 0.25
    assert np.abs(diff - expect).max() < 1e-12


def test_probe_adaptive_operator_depends_on_input():
    rng = Rng(100)
    op = ATConv(ATConvParams.init(rng, 3, 3))
    x1 = rng.normal(0, 1, (1, 3, 5, 5))
    x2 = rng.normal(0, 1, (1, 3, 5, 5))
    j1 = conv_jacobian_probe(op, x1, (2, 2))
    j2 = conv_jacobian_probe(op, x2, (2, 2))
    assert np.abs(j1 - j2).max() > 1e-3


def test_probe_rejects_bad_anchor():
    op = IdentityOp()
    with pytest.raises(ArgumentError):
        conv_jacobian_probe(op, np.ones((1, 1, 3, 3)), (3, 0))

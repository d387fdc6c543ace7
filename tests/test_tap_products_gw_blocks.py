"""The einsum tap products and the blocked pointwise weight gradient
against the kernels they replaced.

``oracles.tap_sum_multiply_ref`` is ``_tap_sum`` as it was when each tap's
product was an ``np.multiply`` of a column of alpha with the run, and
``oracles.conv1x1_backward_sample_loop_ref`` is ``conv1x1_backward`` as it
was when gw added one GEMM per sample into a scratch. The new kernels
compute the same products and add them in the same order, so their
outputs are compared on raw bytes and dtype. The one known difference, a
-0 sum of float32 over float64 products that an einsum zero product turns
+0, is pinned as such. Two guards fail if either kernel goes back to its
old form: ``_tap_sum`` calls no ``np.multiply``, and ``conv1x1_backward``
calls ``np.matmul`` once per block of samples, not once per sample.
"""

import numpy as np
import pytest

from atconv.op import _tap_sum
from atconv.primitives import conv1x1_backward, conv1x1_forward
from atconv.rng import Rng
from atconv.tensor import BLOCK, block_ranges
from oracles import conv1x1_backward_sample_loop_ref, tap_sum_multiply_ref
from test_tap_sum_bitwise import DTYPES, assert_bitwise, draw

F32, F64 = np.float32, np.float64


def check_tap_sum(v, alpha, gy):
    """The forward's sum over v and the backward's flipped sum over gy,
    both into v's dtype, as ``dyn_depthwise_*`` call them."""
    for x, flip in ((v, False), (gy, True)):
        assert_bitwise(_tap_sum(x, alpha, v.dtype, flip),
                       tap_sum_multiply_ref(x, alpha, v.dtype, flip))


# ----------------------------------------------------------------------
# tap sum: einsum products
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("k", (1, 3, 5))
def test_tap_sum_is_bitwise_the_multiply_one(k, dtypes):
    check_tap_sum(*draw(80 + k, (2, 5, 7, 6), k, dtypes))


@pytest.mark.parametrize("dtypes", DTYPES)
def test_tap_sum_with_a_batch_broadcast_kernel(dtypes):
    v, alpha, gy = draw(81, (3, 4, 7, 6), 3, dtypes)
    shared = np.broadcast_to(alpha[:1], alpha.shape)
    assert shared.strides[0] == 0
    check_tap_sum(v, shared, gy)


@pytest.mark.parametrize("dtypes", DTYPES)
def test_tap_sum_with_a_partial_last_block(dtypes):
    # 123 planes: the reference's fixed step runs blocks of 62 and 61, the
    # library's near-equal ranges 61 and 62
    shape = (3, 41, 24, 24)
    n = shape[0] * shape[1]
    assert block_ranges(n, 24 * (24 + 2)) == [(0, 61), (61, 123)]  # k=3
    check_tap_sum(*draw(82, shape, 3, dtypes))


@pytest.mark.parametrize("dtypes", DTYPES)
def test_tap_sum_with_signed_zero_products(dtypes):
    # negative kernels over zero patches: every product there is -0, which
    # einsum writes as +0; added into sums that are not -0 it moves no bit
    v, alpha, gy = draw(83, (2, 3, 8, 8), 3, dtypes)
    v[:, :, 2:6, 2:6] = 0.0
    gy[:, :, :4] = 0.0
    alpha = -np.abs(alpha)
    alpha[0, 0] = -0.0
    check_tap_sum(v, alpha, gy)


@pytest.mark.parametrize("flip", (False, True))
def test_float32_sum_underflowed_to_minus_zero_reads_plus_zero(flip):
    # the known difference: a 1x1 plane whose only in-plane tap gives a
    # tiny negative float64 product, which the float32 sum rounds to -0;
    # the padding taps after it add -0 products under np.multiply but +0
    # ones under einsum, so the sum ends -0 there and +0 here
    x = np.ones((1, 1, 1, 1), F32)
    alpha = np.full((1, 1, 3, 3), -1e-50)
    ref = tap_sum_multiply_ref(x, alpha, F32, flip)
    got = _tap_sum(x, alpha, F32, flip)
    assert ref.dtype == got.dtype == F32
    assert ref[0, 0, 0, 0] == got[0, 0, 0, 0] == 0.0
    assert np.signbit(ref[0, 0, 0, 0]) and not np.signbit(got[0, 0, 0, 0])


def test_tap_sum_makes_no_multiply_call(monkeypatch):
    calls = []
    multiply = np.multiply

    def counted(*args, **kwargs):
        calls.append(1)
        return multiply(*args, **kwargs)

    v, alpha, gy = draw(84, (2, 3, 6, 5), 3, (F32, F32, F32))
    monkeypatch.setattr(np, "multiply", counted)
    _tap_sum(v, alpha, F32, False)
    _tap_sum(gy, alpha, F32, True)
    assert calls == []


# ----------------------------------------------------------------------
# conv1x1 backward: gw in blocks of batched GEMMs
# ----------------------------------------------------------------------

C_OUT, C_IN = 40, 24
M = BLOCK // (C_OUT * C_IN)  # 68 samples per gw block
# (x dtype, gy dtype)
GW_DTYPES = ((F32, F32), (F64, F64), (F32, F64))


def conv1x1_case(seed, b_, c_out, c_in, dtypes, hw=(5, 6)):
    dx, dg = dtypes
    rng = Rng(seed)
    x = rng.normal(0, 1, (b_, c_in) + hw, dx)
    w = rng.normal(0, 1, (c_out, c_in), dx)
    _, cache = conv1x1_forward(x, w, rng.normal(0, 1, (c_out,), dx))
    return rng.normal(0, 1, (b_, c_out) + hw, dg), cache


def check_conv1x1(gy, cache):
    got = conv1x1_backward(gy, cache)
    ref = conv1x1_backward_sample_loop_ref(gy, cache)
    for g, r in zip(got, ref):
        assert_bitwise(g, r)


@pytest.mark.parametrize("dtypes", GW_DTYPES)
@pytest.mark.parametrize("b_", (1, M - 1, M, M + 1, 3 * M + 2))
def test_blocked_gw_is_bitwise_the_sample_loop(b_, dtypes):
    # M samples are the most one gw block holds
    assert M > 1 and block_ranges(M, C_OUT * C_IN) == [(0, M)]
    assert len(block_ranges(M + 1, C_OUT * C_IN)) == 2
    check_conv1x1(*conv1x1_case(90 + b_, b_, C_OUT, C_IN, dtypes))


@pytest.mark.parametrize("dtypes", GW_DTYPES)
def test_blocked_gw_with_one_sample_per_block(dtypes):
    c_out, c_in = 330, 200
    assert block_ranges(3, c_out * c_in) == [(0, 1), (1, 2), (2, 3)]  # m = 1
    check_conv1x1(*conv1x1_case(91, 3, c_out, c_in, dtypes, hw=(2, 3)))


@pytest.mark.parametrize("b_", (M, M + 1, 3 * M + 2))
def test_conv1x1_backward_calls_matmul_once_per_block(b_, monkeypatch):
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    gy, cache = conv1x1_case(92, b_, C_OUT, C_IN, (F32, F32))
    monkeypatch.setattr(np, "matmul", counted)
    conv1x1_backward(gy, cache)
    assert len(calls) <= len(block_ranges(b_, C_OUT * C_IN)) + 1  # the gw blocks and gx

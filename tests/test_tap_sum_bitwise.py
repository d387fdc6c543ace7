"""The blocked dynamic depthwise kernel against the unblocked one it replaced.

``oracles.dyn_depthwise_forward_unblocked_ref`` and
``oracles.dyn_depthwise_backward_scatter_ref`` are the kernel as it was
when every tap made a whole B x C x H x W product and gv was scattered into
a padded gradient. The blocked tap sum adds the same products in the same
tap order from +0, so y, gv and galpha are compared on raw bytes and
dtype, not within a tolerance.
"""

import numpy as np
import pytest

from atconv.op import dyn_depthwise_backward, dyn_depthwise_forward
from atconv.rng import Rng
from atconv.tensor import BLOCK, block_ranges
from oracles import dyn_depthwise_backward_scatter_ref, dyn_depthwise_forward_unblocked_ref

F32, F64 = np.float32, np.float64
# (v, alpha, gy) dtypes: plain, and every mix the product promotion allows
DTYPES = ((F32, F32, F32), (F64, F64, F64), (F32, F64, F32), (F64, F32, F64),
          (F32, F32, F64), (F64, F64, F32))
# (B, C, H, W): B=1, odd sizes, and a non-square plane
SHAPES = ((1, 3, 5, 6), (2, 4, 7, 7), (3, 5, 9, 4))


def assert_bitwise(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def check(v, alpha, gy):
    y, cache = dyn_depthwise_forward(v, alpha)
    assert_bitwise(y, dyn_depthwise_forward_unblocked_ref(v, alpha))
    gv, galpha = dyn_depthwise_backward(gy, cache)
    ref_gv, ref_galpha = dyn_depthwise_backward_scatter_ref(gy, v, alpha)
    assert_bitwise(gv, ref_gv)
    assert_bitwise(galpha, ref_galpha)


def draw(seed, shape, k, dtypes):
    dv, da, dg = dtypes
    rng = Rng(seed)
    return (rng.normal(0, 1, shape, dv), rng.normal(0, 1, shape[:2] + (k, k), da),
            rng.normal(0, 1, shape, dg))


@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("k", (1, 3, 5))
@pytest.mark.parametrize("shape", SHAPES)
def test_blocked_kernel_is_bitwise_the_unblocked_one(shape, k, dtypes):
    check(*draw(sum(shape) + k, shape, k, dtypes))


@pytest.mark.parametrize("k", (1, 3))
def test_non_contiguous_input_and_gradient(k):
    v, alpha, gy = draw(71, (4, 3, 6, 5), k, (F64, F64, F64))
    v = v.transpose(1, 0, 3, 2)[..., ::-1][:, :, :5]
    gy = gy.transpose(1, 0, 3, 2)[:, :, ::-1][:, :, :5]
    assert not v.flags.c_contiguous and not gy.flags.c_contiguous
    check(v, alpha.transpose(1, 0, 2, 3), gy)


@pytest.mark.parametrize("dtypes", ((F32, F32, F32), (F64, F32, F64)))
def test_batch_broadcast_kernel(dtypes):
    v, alpha, gy = draw(72, (3, 4, 7, 6), 3, dtypes)
    shared = np.broadcast_to(alpha[:1], alpha.shape)
    assert shared.strides[0] == 0
    check(v, shared, gy)


def test_last_block_is_a_partial_one():
    # 303 planes in blocks of 151 and 152: the first is one plane short
    shape = (3, 101, 16, 16)
    n = shape[0] * shape[1]
    assert block_ranges(n, 16 * (16 + 2)) == [(0, 151), (151, 303)]  # k=3
    check(*draw(73, shape, 3, (F32, F32, F32)))


def test_analyze_shape_in_two_equal_blocks():
    # one f64 sample of 64 channels at 32 x 32 once split into 60 + 4 planes
    shape = (1, 64, 32, 32)
    assert block_ranges(64, 32 * (32 + 2)) == [(0, 32), (32, 64)]
    check(*draw(76, shape, 3, (F64, F64, F64)))


def test_plane_larger_than_a_block():
    shape = (1, 2, 260, 260)
    assert shape[2] * shape[3] > BLOCK
    check(*draw(74, shape, 3, (F32, F64, F32)))


@pytest.mark.parametrize("k", (1, 3))
def test_sums_of_signed_zeros_start_from_plus_zero(k):
    # negative kernels over zero patches give all -0 products; the sum of
    # those must still be +0, as it was when y started from np.zeros
    v, alpha, gy = draw(75, (2, 3, 8, 8), k, (F64, F32, F64))
    v[:, :, 2:6, 2:6] = 0.0
    gy[:, :, :4] = 0.0
    alpha = -np.abs(alpha)
    alpha[0, 0] = -0.0
    check(v, alpha, gy)

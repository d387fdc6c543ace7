"""Forward behavior of the differentiable building blocks.

Each op is checked three ways where it makes sense: a hand-computable
special case, a frozen numeric example, and a loop-form reference
implementation on random input.
"""

import math
import warnings

import numpy as np
import pytest

from atconv.baselines import StaticConv, StaticDepthwise
from atconv.errors import ArgumentError, DimensionError, NumericError, StateError
from atconv.primitives import (
    _pool_bounds,
    adaptive_avg_pool_backward,
    adaptive_avg_pool_forward,
    conv1x1_backward,
    conv1x1_forward,
    erf,
    gelu_backward,
    gelu_forward,
    layer_norm_forward,
    linear_backward,
    linear_forward,
    sigmoid_forward,
    softmax_backward,
    softmax_forward,
)
from atconv.rng import Rng
from atconv.tensor import ensure_finite
from oracles import (
    adaptive_pool_ref,
    conv1x1_ref,
    gelu_ref,
    layer_norm_ref,
    linear_ref,
    pool_bounds_ref,
    softmax_ref,
)


# ----------------------------------------------------------------------
# erf
# ----------------------------------------------------------------------

def test_erf_matches_math_erf():
    xs = np.concatenate([
        np.linspace(-6.0, 6.0, 4001),
        np.array([0.0, 0.46875, -0.46875, 4.0, -4.0, 1e-12, 27.0, -27.0]),
    ])
    ref = np.array([math.erf(float(v)) for v in xs])
    assert np.abs(erf(xs) - ref).max() < 1e-14


def test_erf_odd_and_saturating():
    x = np.linspace(0.01, 5.0, 100)
    assert np.allclose(erf(-x), -erf(x), atol=1e-16)
    assert erf(np.array([10.0]))[0] == 1.0


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_erf_of_infinity_is_plus_minus_one_without_warning(dtype):
    x = np.array([np.inf, -np.inf, 5.0, -np.inf], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erf(x)
        assert got.dtype == dtype
        assert got[[0, 1, 3]].tolist() == [1.0, -1.0, -1.0]
        assert got[2] == erf(x[2:3])[0]  # finite outer-region neighbours unchanged
        assert erf(dtype(-np.inf)) == -1.0


def test_erf_and_gelu_of_huge_finite_input():
    # above float64 max / 16 the split exp in erf's outer region overflowed
    x = np.array([1.7e308, -1.7e308, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert erf(x).tolist() == [1.0, -1.0, 1.0, -1.0]
        y, cache = gelu_forward(x[:1])
    assert y[0] == 1.7e308 and cache.cdf[0] == 1.0


# ----------------------------------------------------------------------
# conv1x1
# ----------------------------------------------------------------------

def test_conv1x1_identity_weight():
    x = Rng(0).normal(0, 1, (2, 3, 4, 5))
    assert np.array_equal(conv1x1_forward(x, np.eye(3))[0], x)


def test_conv1x1_zero_weight_bias_broadcast():
    x = Rng(1).normal(0, 1, (2, 3, 4, 4))
    bias = np.array([1.5, -2.0])
    y = conv1x1_forward(x, np.zeros((2, 3)), bias)[0]
    assert np.array_equal(y, np.broadcast_to(bias[None, :, None, None], y.shape))


def test_conv1x1_matches_loop_reference():
    rng = Rng(2)
    x = rng.normal(0, 1, (1, 2, 2, 2))
    w = rng.normal(0, 1, (3, 2))
    b = rng.normal(0, 1, (3,))
    assert np.abs(conv1x1_forward(x, w, b)[0] - conv1x1_ref(x, w, b)).max() < 1e-12
    x2 = rng.normal(0, 1, (3, 5, 4, 6))
    w2 = rng.normal(0, 1, (7, 5))
    assert np.abs(conv1x1_forward(x2, w2)[0] - conv1x1_ref(x2, w2)).max() < 1e-12


def test_conv1x1_shape_and_dtype():
    x = Rng(0).normal(0, 1, (2, 3, 4, 5), np.float32)
    y = conv1x1_forward(x, np.eye(3, dtype=np.float32))[0]
    assert y.dtype == np.float32 and y.shape == x.shape


def test_conv1x1_rejects_mismatched_channels():
    with pytest.raises(DimensionError):
        conv1x1_forward(np.ones((1, 3, 2, 2)), np.ones((2, 4)))


def test_conv1x1_rejects_integer_input():
    with pytest.raises(ArgumentError):
        conv1x1_forward(np.ones((1, 2, 2, 2), dtype=np.int64), np.eye(2))


def test_conv1x1_flags_nonfinite_output():
    x = np.ones((1, 2, 2, 2))
    x[0, 0, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        conv1x1_forward(x, np.eye(2))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_ensure_finite_names_the_op_and_counts_the_bad_elements(bad):
    x = np.zeros((2, 3, 4, 5), dtype=np.float32)
    x[1, 2, 3, 4] = bad
    x[0, 0, 0, 0] = bad
    with pytest.raises(NumericError, match=r"^probe produced 2 non-finite element\(s\)$"):
        ensure_finite(x, "probe")
    with pytest.raises(NumericError, match="produced 1 non"):
        ensure_finite(np.array(bad), "probe")  # 0-d


def test_ensure_finite_passes_finite_empty_0d_and_strided_input():
    x = np.full((3, 4, 5), np.finfo(np.float64).max)
    x[1] = -x[1]
    assert ensure_finite(x, "probe") is x
    assert ensure_finite(x[:, ::2, ::-1].transpose(2, 0, 1), "probe") is not None
    empty = np.empty((0, 3))
    assert ensure_finite(empty, "probe") is empty
    assert ensure_finite(np.array(1.5, dtype=np.float32), "probe") is not None


def test_ensure_finite_sees_a_bad_element_in_a_non_contiguous_view():
    x = np.ones((4, 6, 8))
    x[2, 3, 5] = np.nan
    view = x[:, ::3, 1::2].transpose(2, 1, 0)
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    with pytest.raises(NumericError, match="produced 1 non"):
        ensure_finite(view, "probe")
    ensure_finite(x[:, ::2], "probe")  # skips the bad element's row


def test_conv1x1_backward_needs_cache():
    with pytest.raises(StateError):
        conv1x1_backward(np.ones((1, 2, 2, 2)), None)


# ----------------------------------------------------------------------
# adaptive average pooling
# ----------------------------------------------------------------------

def test_pool_bounds_floor_ceil_rule():
    for size, k in [(5, 3), (6, 3), (7, 2), (4, 4), (9, 5), (12, 3)]:
        assert list(_pool_bounds(size, k)) == pool_bounds_ref(size, k)
    assert _pool_bounds(5, 3) == ((0, 2), (1, 4), (3, 5))


def test_pool_identity_when_grid_matches_input():
    x = Rng(3).normal(0, 1, (2, 3, 4, 4))
    assert np.array_equal(adaptive_avg_pool_forward(x, 4)[0], x)


def test_pool_constant_input():
    x = np.full((1, 2, 7, 9), 3.25)
    assert np.allclose(adaptive_avg_pool_forward(x, 3)[0], 3.25, atol=1e-15)


def test_pool_five_to_three_frozen():
    hw = np.arange(25, dtype=np.float64).reshape(5, 5)  # x[h, w] = 5h + w
    x = hw[None, None]
    expected = np.array([[3.0, 4.5, 6.0],
                         [10.5, 12.0, 13.5],
                         [18.0, 19.5, 21.0]])
    assert np.array_equal(adaptive_avg_pool_forward(x, 3)[0][0, 0], expected)


def test_pool_matches_loop_reference():
    x = Rng(4).normal(0, 1, (2, 3, 11, 7))
    for k in (1, 2, 3, 5, 7):
        assert np.abs(adaptive_avg_pool_forward(x, k)[0] - adaptive_pool_ref(x, k)).max() < 1e-12


def test_pool_rejects_oversized_grid():
    with pytest.raises(DimensionError):
        adaptive_avg_pool_forward(np.ones((1, 1, 3, 3)), 4)


def test_pool_rejects_bad_grid_arg():
    with pytest.raises(ArgumentError):
        adaptive_avg_pool_forward(np.ones((1, 1, 3, 3)), 0)


def test_pool_backward_needs_cache():
    with pytest.raises(StateError):
        adaptive_avg_pool_backward(np.ones((1, 1, 2, 2)), None)


def test_pool_dtype_preserved():
    x = Rng(0).uniform(0, 1, (1, 2, 6, 6), np.float32)
    assert adaptive_avg_pool_forward(x, 3)[0].dtype == np.float32


# ----------------------------------------------------------------------
# linear
# ----------------------------------------------------------------------

def test_linear_identity():
    x = Rng(5).normal(0, 1, (3, 4))
    assert np.array_equal(linear_forward(x, np.eye(4))[0], x)


def test_linear_ones_weight_gives_row_sums():
    x = Rng(5).normal(0, 1, (3, 4))
    y = linear_forward(x, np.ones((1, 4)))[0]
    assert np.allclose(y[:, 0], x.sum(axis=1), atol=1e-12)


def test_linear_matches_loop_reference():
    rng = Rng(6)
    x = rng.normal(0, 1, (4,))
    w = rng.normal(0, 1, (4, 4))
    b = rng.normal(0, 1, (4,))
    assert np.abs(linear_forward(x, w, b)[0] - linear_ref(x, w, b)).max() < 1e-12


def test_linear_batched_shapes():
    rng = Rng(7)
    x = rng.normal(0, 1, (2, 3, 5))
    w = rng.normal(0, 1, (7, 5))
    y = linear_forward(x, w)[0]
    assert y.shape == (2, 3, 7)
    for i in range(2):
        for j in range(3):
            assert np.allclose(y[i, j], linear_ref(x[i, j], w), atol=1e-12)


def test_f32_input_keeps_f32_with_f64_weights():
    rng = Rng(8)
    x = rng.normal(0, 1, (2, 3, 4, 4), np.float32)
    w = rng.normal(0, 1, (5, 3))
    b = rng.normal(0, 1, (5,))
    y, cache = linear_forward(x.transpose(0, 2, 3, 1), w, b)
    assert y.dtype == np.float32
    assert all(g.dtype == np.float32 for g in linear_backward(np.ones_like(y), cache))
    y, cache = conv1x1_forward(x, w, b)
    assert y.dtype == np.float32
    assert all(g.dtype == np.float32 for g in conv1x1_backward(np.ones_like(y), cache))
    y, cache = gelu_forward(x)
    assert y.dtype == np.float32 and cache.cdf.dtype == np.float32
    assert gelu_backward(np.ones_like(y), cache).dtype == np.float32
    # the static baselines, initialised with their default f64 weights
    for op in (StaticConv.init(rng, 5, 3, 3), StaticDepthwise.init(rng, 3, 3)):
        y, cache = op.forward_cached(x)
        assert y.dtype == np.float32
        assert all(g.dtype == np.float32 for g in op.backward(np.ones_like(y), cache))


def test_linear_rejects_mismatched_axis():
    with pytest.raises(DimensionError):
        linear_forward(np.ones((3,)), np.ones((2, 4)))


# ----------------------------------------------------------------------
# gelu
# ----------------------------------------------------------------------

def test_gelu_fixed_points():
    assert gelu_forward(np.array([0.0]))[0][0] == 0.0
    assert abs(gelu_forward(np.array([10.0]))[0][0] - 10.0) < 1e-6
    assert abs(gelu_forward(np.array([1.0]))[0][0] - 0.8413447460685429) < 1e-6


def test_gelu_matches_reference():
    x = np.linspace(-6, 6, 501)
    assert np.abs(gelu_forward(x)[0] - gelu_ref(x)).max() < 1e-12


def test_gelu_negative_saturation():
    assert abs(gelu_forward(np.array([-10.0]))[0][0]) < 1e-6


# ----------------------------------------------------------------------
# sigmoid
# ----------------------------------------------------------------------

def test_sigmoid_fixed_points():
    assert sigmoid_forward(np.array([0.0]))[0][0] == 0.5
    assert abs(sigmoid_forward(np.array([math.log(3.0)]))[0][0] - 0.75) < 1e-15


def test_sigmoid_symmetry():
    for v in (0.5, 2.0, 7.0):
        s_pos = sigmoid_forward(np.array([v]))[0][0]
        s_neg = sigmoid_forward(np.array([-v]))[0][0]
        assert abs(s_pos + s_neg - 1.0) < 1e-15


def test_sigmoid_extreme_inputs_stay_finite():
    y = sigmoid_forward(np.array([-1e4, 1e4]))[0]
    assert y[0] == 0.0 and y[1] == 1.0


# ----------------------------------------------------------------------
# softmax
# ----------------------------------------------------------------------

def test_softmax_uniform_logits():
    for n in (2, 5, 9):
        y = softmax_forward(np.full((n,), 1.7))[0]
        assert np.allclose(y, 1.0 / n, atol=1e-15)


def test_softmax_two_logit_example():
    y = softmax_forward(np.array([0.0, math.log(3.0)]))[0]
    assert np.allclose(y, [0.25, 0.75], atol=1e-15)


def test_softmax_shift_invariance():
    x = Rng(8).normal(0, 2, (4, 6))
    assert np.abs(softmax_forward(x)[0] - softmax_forward(x + 123.456)[0]).max() < 1e-12


def test_softmax_matches_reference_and_sums_to_one():
    x = Rng(9).normal(0, 3, (5, 7))
    y = softmax_forward(x)[0]
    for i in range(5):
        assert np.abs(y[i] - softmax_ref(x[i])).max() < 1e-12
    assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_axis_argument():
    x = Rng(9).normal(0, 1, (3, 4))
    y = softmax_forward(x, axis=0)[0]
    assert np.abs(y.sum(axis=0) - 1.0).max() < 1e-12


def test_softmax_backward_needs_cache():
    with pytest.raises(StateError):
        softmax_backward(np.ones((3,)), None)


# ----------------------------------------------------------------------
# layer norm
# ----------------------------------------------------------------------

def test_layer_norm_constant_input_gives_offset():
    x = np.full((1, 4, 2, 2), 9.0)
    y = layer_norm_forward(x, np.ones(4), np.zeros(4))[0]
    assert np.abs(y).max() < 1e-12
    y2 = layer_norm_forward(x, np.ones(4), np.full(4, 0.5))[0]
    assert np.allclose(y2, 0.5, atol=1e-12)


def test_layer_norm_two_channel_example():
    x = np.zeros((1, 2, 1, 1))
    x[0, 0], x[0, 1] = -1.0, 1.0
    y = layer_norm_forward(x, np.ones(2), np.zeros(2))[0]
    assert abs(y[0, 0, 0, 0] + 1.0) < 1e-3
    assert abs(y[0, 1, 0, 0] - 1.0) < 1e-3


def test_layer_norm_matches_loop_reference():
    rng = Rng(10)
    x = rng.normal(0, 2, (2, 8, 3, 3))
    gain = rng.uniform(0.5, 1.5, (8,))
    offset = rng.normal(0, 1, (8,))
    y = layer_norm_forward(x, gain, offset)[0]
    # statistics run over channels independently at each position
    for b in range(2):
        for h in range(3):
            for w in range(3):
                ref = layer_norm_ref(x[b, :, h, w], gain, offset)
                assert np.abs(y[b, :, h, w] - ref).max() < 1e-12


def test_layer_norm_rejects_bad_rank():
    for shape in ((2, 3), (3,)):
        with pytest.raises(DimensionError):
            layer_norm_forward(np.ones(shape), np.ones(3), np.zeros(3))


# ----------------------------------------------------------------------
# cached forwards return usable caches
# ----------------------------------------------------------------------

def test_cached_forwards_return_usable_caches():
    x = Rng(11).normal(0, 1, (1, 3, 5, 5))
    w = Rng(12).normal(0, 1, (4, 3))
    y, cache = conv1x1_forward(x, w)
    assert cache.x is not None
    assert conv1x1_backward(np.ones_like(y), cache)[0].shape == x.shape

    p, pcache = adaptive_avg_pool_forward(x, 3)
    assert len(pcache.h_bounds) == 3
    assert adaptive_avg_pool_backward(np.ones_like(p), pcache).shape == x.shape

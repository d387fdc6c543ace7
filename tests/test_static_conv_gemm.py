"""StaticConv's column GEMMs against the window einsums they replaced.

``oracles.static_conv_window_forward_ref`` and
``oracles.static_conv_window_backward_ref`` are StaticConv (k > 1) as it
was when y and gw came from einsums over ``sliding_window_view`` windows.
The oracle's gx runs the same per-tap matmuls on the same padded runs of
gy, in the same tap order, so it is compared on raw bytes under any BLAS
kernel. y and gw sum in another order and are compared within a
tolerance: 1e-12 relative in f64.
"""

import numpy as np
import pytest

from atconv.baselines import StaticConv
from atconv.bench import model_peak_bytes
from atconv.rng import Rng
from oracles import static_conv_window_backward_ref, static_conv_window_forward_ref

F32, F64 = np.float32, np.float64
RTOL = {F32: 1e-5, F64: 1e-12}
# (B, C_in, C_out, H, W): B=1, C_in != C_out both ways, H != W
SHAPES = ((1, 3, 5, 6, 6), (2, 5, 3, 9, 11), (3, 4, 4, 7, 5), (2, 24, 16, 12, 10))


def rel_err(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300))


def check(op, x, gy, dtype):
    y, cache = op.forward_cached(x)
    gx, gw, gb = op.backward(gy, cache)
    ref_y = static_conv_window_forward_ref(x, op.w, op.bias)
    ref_gx, ref_gw, ref_gb = static_conv_window_backward_ref(gy, x, op.w, op.bias)
    assert y.flags.c_contiguous and gx.flags.c_contiguous
    assert rel_err(y, ref_y) < RTOL[dtype]
    assert gx.dtype == ref_gx.dtype and gx.tobytes() == ref_gx.tobytes()
    assert rel_err(gw, ref_gw) < RTOL[dtype]
    assert gb.dtype == ref_gb.dtype and gb.tobytes() == ref_gb.tobytes()


def draw(seed, shape, k, dtype):
    b_, ci, co, h_, w_ = shape
    rng = Rng(seed)
    op = StaticConv(rng.normal(0, 1, (co, ci, k, k), dtype), rng.normal(0, 1, (co,), dtype))
    return op, rng.normal(0, 1, (b_, ci, h_, w_), dtype), rng.normal(0, 1, (b_, co, h_, w_), dtype)


@pytest.mark.parametrize("dtype", (F32, F64))
@pytest.mark.parametrize("k", (3, 5))
@pytest.mark.parametrize("shape", SHAPES)
def test_column_gemms_match_the_window_einsums(shape, k, dtype):
    check(*draw(sum(shape) + k, shape, k, dtype), dtype)


@pytest.mark.parametrize("dtype", (F32, F64))
def test_non_contiguous_input_and_gradient(dtype):
    op, x, gy = draw(81, (4, 3, 5, 6, 7), 3, dtype)
    x = x.transpose(0, 1, 3, 2)[:, :, ::-1][:3]
    gy = gy.transpose(0, 1, 3, 2)[:3, :, :, ::-1]
    assert not x.flags.c_contiguous and not gy.flags.c_contiguous
    check(op, x, gy, dtype)


def test_no_bias_and_f64_weights_on_f32_input():
    op, x, gy = draw(82, (2, 4, 6, 8, 9), 5, F64)
    op = StaticConv(op.w)
    x, gy = x.astype(F32), gy.astype(F32)
    y, cache = op.forward_cached(x)
    gx, gw, gb = op.backward(gy, cache)
    assert gb is None and y.dtype == gx.dtype == gw.dtype == F32
    assert rel_err(y, static_conv_window_forward_ref(x, op.w, None)) < RTOL[F32]
    ref_gx, ref_gw, _ = static_conv_window_backward_ref(gy, x, op.w, None)
    assert gx.tobytes() == ref_gx.tobytes()
    assert rel_err(gw, ref_gw) < RTOL[F32]


def test_peak_stays_within_six_activation_maps(traced_peak):
    # the window einsums peaked at about 11 maps (22.3 and 22.4 MiB)
    rng = Rng(83)
    shape = (8, 64, 32, 32)
    op = StaticConv.init(rng, 64, 64, 3, F32)
    x = rng.normal(0, 1, shape, F32)
    gy = rng.normal(0, 1, shape, F32)
    bound = 6 * x.nbytes
    _, cache = op.forward_cached(x)
    assert traced_peak(op.forward_cached, x) < bound
    assert traced_peak(op.backward, gy, cache) < bound


def test_pointwise_forward_peak_matches_the_model(traced_peak):
    # 8.2% over the model while the finiteness check built a bool map of y
    rng = Rng(84)
    op = StaticConv.init(rng, 64, 64, 1, F32)
    x = rng.normal(0, 1, (8, 64, 32, 32), F32)
    model = model_peak_bytes("static_conv", 8, 64, 32, 32, 1, 4)
    assert abs(traced_peak(op.forward_cached, x) / model - 1) <= 0.03

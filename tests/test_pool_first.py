"""The context generator pools x first, then runs its conv on the k x k grid.

Each pooling window's weights sum to 1, so pool(W x + b) = W pool(x) + b,
and the generator's former order, the pointwise conv at full resolution
and then the pool (``oracles.generate_kernels_*_conv_first_ref``), gives
the same kernels and gradients up to rounding: within 1e-12 of the
largest entry in float64 and 1e-5 in float32, for the generator alone and
for the whole operator under every kernel modulation. The pooling
backward spreads each pooling cell once; that must match the former loop
of one strided add per window bit for bit.
"""

import numpy as np
import pytest

import atconv.op as op_mod
from atconv.errors import ArgumentError
from atconv.op import (KERNEL_MODS, ATConvConfig, ATConvParams, atconv_backward,
                       atconv_forward_cached, generate_kernels_backward,
                       generate_kernels_forward)
from atconv.primitives import adaptive_avg_pool_backward, adaptive_avg_pool_forward
from atconv.rng import Rng
from oracles import (adaptive_avg_pool_backward_windows_ref,
                     generate_kernels_backward_conv_first_ref,
                     generate_kernels_forward_conv_first_ref)

MAPS = ((7, 7), (16, 16), (30, 17), (32, 32))
DTYPES = (np.float32, np.float64)
TOL = {np.float32: 1e-5, np.float64: 1e-12}
B, C = 2, 6


def _params(rng, k, dtype):
    """Fresh parameters with every bias and gamma drawn away from 0, so the
    bias's commutation with the pool is exercised."""
    p = ATConvParams.init(rng, C, k, dtype)
    for name in ("w_f_bias", "w_value_bias", "w_out_bias", "gamma"):
        getattr(p, name)[...] = rng.normal(0, 0.5, (C,), dtype)
    return p


def _close(got, want, dtype):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= TOL[dtype] * np.abs(want).max()


def _close_grads(got, want, dtype):
    assert got.keys() == want.keys()
    for name in want:
        if want[name] is None:
            assert got[name] is None, name
        else:
            _close(got[name], want[name], dtype)


@pytest.mark.parametrize("hw", MAPS, ids=lambda hw: "x".join(map(str, hw)))
@pytest.mark.parametrize("k", (1, 3, 5))
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_generator_matches_conv_then_pool(dtype, k, hw):
    rng = Rng(2200 + k)
    p = _params(rng, k, dtype)
    x = rng.normal(0, 1, (B, C) + hw, dtype)
    raw, cache = generate_kernels_forward(x, p)
    raw_ref, cache_ref = generate_kernels_forward_conv_first_ref(x, p)
    _close(raw, raw_ref, dtype)
    graw = rng.normal(0, 1, raw.shape, dtype)
    gx, grads = generate_kernels_backward(graw, cache)
    gx_ref, grads_ref = generate_kernels_backward_conv_first_ref(graw, cache_ref)
    _close(gx, gx_ref, dtype)
    _close_grads(grads, grads_ref, dtype)


def _conv_first_backward(graw, cache, out):
    """The former generator backward as ``atconv_backward`` calls the new
    one: its full-size gx added into the value path's, as the operator
    used to add them."""
    gx_kernel, grads = generate_kernels_backward_conv_first_ref(graw, cache)
    out += gx_kernel
    return out, grads


# every modulation at every kernel size, save central_diff's rejected 1x1
MOD_KS = [(mod, k) for mod in KERNEL_MODS for k in (1, 3, 5)
          if not (mod == "central_diff" and k == 1)]


@pytest.mark.parametrize("hw", MAPS, ids=lambda hw: "x".join(map(str, hw)))
@pytest.mark.parametrize("mod,k", MOD_KS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_operator_matches_conv_then_pool(dtype, mod, k, hw, monkeypatch):
    rng = Rng(2210 + k)
    p = _params(rng, k, dtype)
    config = ATConvConfig(kernel_mod=mod)
    x = rng.normal(0, 1, (B, C) + hw, dtype)
    gy = rng.normal(0, 1, x.shape, dtype)
    y, cache = atconv_forward_cached(x, p, config)
    gx, grads = atconv_backward(gy, cache)
    monkeypatch.setattr(op_mod, "generate_kernels_forward",
                        generate_kernels_forward_conv_first_ref)
    monkeypatch.setattr(op_mod, "generate_kernels_backward", _conv_first_backward)
    y_ref, cache_ref = atconv_forward_cached(x, p, config)
    gx_ref, grads_ref = atconv_backward(gy, cache_ref)
    _close(y, y_ref, dtype)
    _close(gx, gx_ref, dtype)
    _close_grads(grads, grads_ref, dtype)


def test_generator_backward_adds_into_out():
    rng = Rng(2220)
    p = _params(rng, 3, np.float32)
    x = rng.normal(0, 1, (B, C, 30, 17), np.float32)
    raw, cache = generate_kernels_forward(x, p)
    graw = rng.normal(0, 1, raw.shape, np.float32)
    base = rng.normal(0, 1, x.shape, np.float32)
    out = base.copy()
    gx, grads = generate_kernels_backward(graw, cache, out)
    alone, grads_alone = generate_kernels_backward(graw, cache)
    assert gx is out
    assert gx.tobytes() == (base + alone).tobytes()
    for name in grads:
        assert grads[name].tobytes() == grads_alone[name].tobytes()


# (H, W) of the spread checks: the oracle maps, uneven and one-cell axes
SPREAD_MAPS = MAPS + ((5, 5), (9, 5), (11, 7), (12, 12), (1, 6))


@pytest.mark.parametrize("hw", SPREAD_MAPS, ids=lambda hw: "x".join(map(str, hw)))
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_cell_spread_is_the_window_loop_bit_for_bit(dtype, hw):
    rng = Rng(2230 + sum(hw))
    x = rng.normal(0, 1, (B, C) + hw, dtype)
    for k in range(1, min(hw) + 1):
        _, cache = adaptive_avg_pool_forward(x, k)
        gy = rng.normal(0, 1, (B, C, k, k), dtype)
        want = adaptive_avg_pool_backward_windows_ref(gy, cache)
        got = adaptive_avg_pool_backward(gy, cache)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), k
        base = rng.normal(0, 1, x.shape, dtype)
        into = adaptive_avg_pool_backward(gy, cache, base.copy())
        assert into.tobytes() == (base + want).tobytes(), k


def test_cell_spread_of_a_wider_cotangent_is_the_window_loop_bit_for_bit():
    # an f64 cotangent on an f32 map: each cell's sum is formed in f64 and
    # rounded to f32 at every add, as the window loop's adds are
    rng = Rng(2240)
    _, cache = adaptive_avg_pool_forward(rng.normal(0, 1, (B, C, 30, 17), np.float32), 5)
    gy = rng.normal(0, 1, (B, C, 5, 5), np.float64)
    got = adaptive_avg_pool_backward(gy, cache)
    assert got.dtype == np.float32
    assert got.tobytes() == adaptive_avg_pool_backward_windows_ref(gy, cache).tobytes()


def test_cell_spread_keeps_signed_zeros_as_the_loop_does():
    _, cache = adaptive_avg_pool_forward(np.ones((1, 1, 5, 5)), 3)
    gy = np.full((1, 1, 3, 3), -0.0)
    got = adaptive_avg_pool_backward(gy, cache)
    assert got.tobytes() == adaptive_avg_pool_backward_windows_ref(gy, cache).tobytes()


def test_cell_spread_refuses_an_out_it_cannot_add_into_in_place():
    _, cache = adaptive_avg_pool_forward(np.ones((2, 3, 6, 5)), 3)
    gy = np.ones((2, 3, 3, 3))
    for out in (np.zeros((2, 3, 5, 6)).transpose(0, 1, 3, 2), np.zeros((2, 3, 5, 6))):
        with pytest.raises(ArgumentError, match="C-contiguous"):
            adaptive_avg_pool_backward(gy, cache, out)

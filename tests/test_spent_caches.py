"""Block caches spent by one backward, LayerNorm outputs rebuilt from
x-hat, residuals added in place, and the GLU's chunks and erf's clips
written in place, against the code they replaced.

``oracles.block_forward_kept_caches_ref``, ``block_backward_kept_caches_ref``,
``micro_forward_cached_kept_caches_ref`` and ``micro_backward_kept_caches_ref``
are the block and the classifier's cached forward and backward as they
were when the block cached both norms' outputs through its projections,
every block's cache lived until the step ended and the residuals were
fresh sums. The arithmetic is unchanged, so every output is compared on
raw bytes and dtype, under each ablation of the mixer: with the value
projection off, the depthwise stage keeps norm1's output itself and
nothing is rebuilt for the mixer.
"""

import weakref

import numpy as np
import pytest

from atconv import micro
from atconv.errors import ArgumentError
from atconv.micro import BlockParams, MicroConfig, MicroModel, block_backward, block_forward
from atconv.op import ATConvConfig
from atconv.primitives import (_erf32_block, conv1x1_forward, erf, gelu_forward,
                               layer_norm_forward, layer_norm_output)
from atconv.rng import Rng
from oracles import (block_backward_kept_caches_ref, block_forward_kept_caches_ref,
                     erf32_block_clip_method_ref, micro_backward_kept_caches_ref,
                     micro_forward_cached_kept_caches_ref)

F32, F64 = np.float32, np.float64
# (input dtype, weight and cotangent dtype)
DTYPES = ((F32, F32), (F64, F64), (F32, F64))
C, K = 32, 3
OP_CONFIGS = {
    "default": lambda dt: ATConvConfig(),
    "no_value_proj": lambda dt: ATConvConfig(use_value_proj=False),
    "no_out_proj": lambda dt: ATConvConfig(use_out_proj=False),
    "static_kernel": lambda dt: ATConvConfig(
        use_kernel_generator=False,
        static_kernel=Rng(3).normal(0, 0.3, (C, K * K), dt)),
    "softmax": lambda dt: ATConvConfig(kernel_mod="softmax"),
}


def same(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def same_grads(grads, ref_grads):
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        same(grads[name], ref_grads[name])


def _model(blocks, op_config, dtype, seed=2801):
    rng = Rng(seed)
    config = MicroConfig(channels=C, blocks=blocks, patch=4, kernel=K, expansion=4)
    model = MicroModel.init(rng, config, op_config, dtype)
    # the initial head is zero and would pass no gradient into the blocks
    model.set_parameter("head_w", rng.normal(0, 1, model.head_w.shape, dtype))
    return model, rng


# ----------------------------------------------------------------------
# bits: the classifier's step and the block against the kept caches
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("op", OP_CONFIGS)
@pytest.mark.parametrize("blocks", (1, 2, 3))  # 2 is the acceptance config
def test_model_step_matches_the_kept_caches(blocks, op, dtypes):
    xdt, wdt = dtypes
    model, rng = _model(blocks, OP_CONFIGS[op](wdt), wdt)
    x = rng.normal(0, 1, (64, 1, 28, 28), xdt)
    ref_logits, ref_cache = micro_forward_cached_kept_caches_ref(model, x)
    dlogits = rng.normal(0, 1, ref_logits.shape, wdt)
    ref_gx, ref_grads = micro_backward_kept_caches_ref(model, dlogits, ref_cache)
    del ref_cache
    logits, cache = model.forward_cached(x)
    same(logits, ref_logits)
    same(model.forward(x), ref_logits)
    gx, grads = model.backward(dlogits, cache)
    same(gx, ref_gx)
    same_grads(grads, ref_grads)


@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("op", OP_CONFIGS)
def test_block_matches_the_kept_caches(op, dtypes):
    xdt, wdt = dtypes
    rng = Rng(2802)
    p = BlockParams.init(rng, C, K, 4, wdt)
    config = OP_CONFIGS[op](wdt)
    x = rng.normal(0, 1, (13, C, 7, 7), xdt)
    ref_y, ref_cache = block_forward_kept_caches_ref(x, p, config)
    gy = rng.normal(0, 1, ref_y.shape, wdt)
    ref_gx, ref_grads = block_backward_kept_caches_ref(gy, ref_cache)
    y, cache = block_forward(x, p, config)
    same(y, ref_y)
    gx, grads = block_backward(gy, cache)
    same(gx, ref_gx)
    same_grads(grads, ref_grads)


@pytest.mark.parametrize("dtype", (F32, F64))
def test_layer_norm_output_rebuilds_the_forward_bits(dtype):
    rng = Rng(2803)
    x = rng.normal(0.5, 3.0, (4, 7, 5, 6), dtype)
    gain, offset = rng.normal(1, 0.5, (7,), F64), rng.normal(0, 0.5, (7,), F64)
    y, cache = layer_norm_forward(x, gain, offset)
    same(layer_norm_output(cache), y)
    assert cache.offset.dtype == dtype


# ----------------------------------------------------------------------
# what the caches hold, and when they are freed
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value_proj", (True, False))
def test_the_block_cache_keeps_no_norm_output_but_the_depthwise_v(value_proj):
    rng = Rng(2804)
    p = BlockParams.init(rng, 4, 3, 2, F32)
    x = rng.normal(0, 1, (2, 4, 5, 5), F32)
    cache = block_forward(x, p, ATConvConfig(use_value_proj=value_proj))[1]
    c_n1, c_mix, c_n2, c_glu = cache.caches
    assert c_glu.ca.x is None and c_glu.cb.x is None
    if value_proj:  # v is rebuilt from n1 by the backward
        assert c_mix.value.x is None and c_mix.dd.v is None
    else:  # v is norm1's output, which the depthwise stage needs anyway
        assert c_mix.value is None
        same(c_mix.dd.v, layer_norm_output(c_n1))


def test_model_backward_keeps_no_block_cache():
    model, rng = _model(2, ATConvConfig(), F32)
    x = rng.normal(0, 1, (4, 1, 28, 28), F32)
    logits, cache = model.forward_cached(x)
    cdfs = [weakref.ref(bc.caches[3].cdf) for bc in cache.caches[1]]
    model.backward(np.ones_like(logits), cache)
    assert cache.caches is None
    assert all(ref() is None for ref in cdfs)


def test_block_backward_frees_the_glu_cache_before_the_mixer_runs(monkeypatch):
    rng = Rng(2805)
    p = BlockParams.init(rng, 4, 3, 2, F32)
    x = rng.normal(0, 1, (2, 4, 5, 5), F32)
    y, cache = block_forward(x, p)
    cdf = weakref.ref(cache.caches[3].cdf)
    alive_at_mixer = []
    mixer_backward = micro.atconv_backward

    def spy(gy, c):
        alive_at_mixer.append(cdf() is not None)
        return mixer_backward(gy, c)

    monkeypatch.setattr(micro, "atconv_backward", spy)
    block_backward(np.ones_like(y), cache)
    assert alive_at_mixer == [False]


# ----------------------------------------------------------------------
# the GLU's chunks written in place, and erf's ufunc clips
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtype", (F32, F64))
def test_out_arguments_give_the_fresh_bits(dtype):
    rng = Rng(2807)
    x = rng.normal(0, 2, (3, 6, 5, 4), dtype)
    w, bias = rng.normal(0, 1, (8, 6), dtype), rng.normal(0, 1, (8,), dtype)
    for b_ in (1, 3):  # one sample adds its bias by broadcast
        # a slice of samples, as the GLU's chunks write
        out = np.empty((b_ + 2, 8, 5, 4), dtype)[1:b_ + 1]
        y, cache = conv1x1_forward(x[:b_], w, bias, out)
        assert np.shares_memory(y, out)
        same(out, conv1x1_forward(x[:b_], w, bias)[0])
    out = np.empty(x.shape, dtype)
    assert erf(x, 0.7, out) is out
    same(out, erf(x, 0.7))
    cdf = np.empty(x.shape, dtype)
    y, cache = gelu_forward(x, cdf)
    assert cache.cdf is cdf
    ref_y, ref_cache = gelu_forward(x)
    same(y, ref_y)
    same(cdf, ref_cache.cdf)


@pytest.mark.parametrize("out", (np.empty((3, 6, 5, 5), F32), np.empty((3, 6, 5, 4), F64),
                                 np.empty((3, 6, 4, 5), F32).transpose(0, 1, 3, 2)),
                         ids=("shape", "dtype", "layout"))
def test_a_wrong_out_raises(out):
    x = Rng(2808).normal(0, 1, (3, 6, 5, 4), F32)
    with pytest.raises(ArgumentError):
        erf(x, None, out)
    with pytest.raises(ArgumentError):
        conv1x1_forward(x, np.ones((6, 6), F32), None, out)


def _erf32_inputs():
    """NaN, +-0, +-inf, the clamp and clip edges with their neighbours,
    subnormals, and a seeded sweep, with both signs."""
    f = np.float32
    edges = [f(0.0), f(np.nan), f(np.inf), np.finfo(f).max, np.finfo(f).smallest_subnormal,
             np.finfo(f).tiny, f(1e-30), f(1.0), f(3.57), f(4.0)]
    vals = []
    with np.errstate(over="ignore"):  # max's upper neighbour is inf
        for v in edges:
            vals += [v, np.nextafter(v, f(0)), np.nextafter(v, f(np.inf))]
    vals = np.concatenate([np.array(vals, f), Rng(2810).normal(0, 3, (5000,), f)])
    return np.concatenate([vals, -vals])


def test_erf32_ufunc_clips_match_the_clip_method():
    x = _erf32_inputs()
    got, ref = np.empty_like(x), np.empty_like(x)
    with np.errstate(invalid="ignore"):
        _erf32_block(x, got)
        erf32_block_clip_method_ref(x, ref)
    assert got.view(np.uint32).tobytes() == ref.view(np.uint32).tobytes()
    assert np.signbit(got[x == 0]).tolist() == np.signbit(x[x == 0]).tolist()
    assert np.isnan(got[np.isnan(x)]).all()

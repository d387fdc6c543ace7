"""The stage contract: every backward checks its cotangent and its cache.

Each stage backward, primitive, operator stage, whole operator or
classifier layer, checks its cotangent against the output shape its
cache records, so a cotangent of another batch or rank raises
DimensionError instead of broadcasting into a wrong gradient, and a
missing cache raises StateError. The block's and the classifier's caches
serve one backward: a second one raises StateError naming the stage, and
a wrong cotangent still raises DimensionError first.
"""

import numpy as np
import pytest

from atconv.baselines import IdentityOp, StaticConv, StaticDepthwise, ToySAParams, ToySelfAttention
from atconv.errors import DimensionError, StateError
from atconv.micro import (BlockParams, GluParams, MicroConfig, MicroModel, block_backward,
                          block_forward, glu_backward, glu_forward, patch_embed_backward,
                          patch_embed_forward)
from atconv.op import (ATConvParams, atconv_backward, atconv_forward_cached,
                       central_diff_backward, central_diff_forward, dkm_backward, dkm_forward,
                       dyn_depthwise_backward, dyn_depthwise_forward,
                       generate_kernels_backward, generate_kernels_forward)
from atconv.primitives import (adaptive_avg_pool_backward, adaptive_avg_pool_forward,
                               conv1x1_backward, conv1x1_forward, gelu_backward, gelu_forward,
                               layer_norm_backward, layer_norm_forward, linear_backward,
                               linear_forward, sigmoid_backward, sigmoid_forward,
                               softmax_backward, softmax_forward)
from atconv.rng import Rng

SHAPE = (2, 3, 5, 5)  # a batch of two, so a batch-1 cotangent is wrong


def _method(op, x):
    return (op.backward, *op.forward_cached(x))


# name -> build(rng, x) -> (backward, output, cache)
STAGES = {
    "conv1x1": lambda rng, x: (conv1x1_backward,
                               *conv1x1_forward(x, rng.normal(0, 1, (4, 3)), np.zeros(4))),
    "pool": lambda rng, x: (adaptive_avg_pool_backward, *adaptive_avg_pool_forward(x, 3)),
    "linear": lambda rng, x: (linear_backward,
                              *linear_forward(x, rng.normal(0, 1, (2, 5)), np.zeros(2))),
    "gelu": lambda rng, x: (gelu_backward, *gelu_forward(x)),
    "sigmoid": lambda rng, x: (sigmoid_backward, *sigmoid_forward(x)),
    "softmax": lambda rng, x: (softmax_backward, *softmax_forward(x, axis=1)),
    "layer_norm": lambda rng, x: (layer_norm_backward,
                                  *layer_norm_forward(x, np.ones(3), np.zeros(3))),
    "dyn_depthwise": lambda rng, x: (dyn_depthwise_backward,
                                     *dyn_depthwise_forward(x, rng.normal(0, 1, (2, 3, 3, 3)))),
    "dkm": lambda rng, x: (dkm_backward,
                           *dkm_forward(rng.normal(0, 1, (2, 3, 3, 3)), rng.normal(0, 1, (3,)))),
    "central_diff": lambda rng, x: (central_diff_backward,
                                    *central_diff_forward(rng.normal(0, 1, (2, 3, 3, 3)))),
    "generate_kernels": lambda rng, x: (generate_kernels_backward,
                                        *generate_kernels_forward(x, ATConvParams.init(rng, 3))),
    "atconv": lambda rng, x: (atconv_backward,
                              *atconv_forward_cached(x, ATConvParams.init(rng, 3))),
    "StaticConv": lambda rng, x: _method(StaticConv.init(rng, 4, 3), x),
    "StaticDepthwise": lambda rng, x: _method(StaticDepthwise.init(rng, 3), x),
    "ToySelfAttention": lambda rng, x: _method(ToySelfAttention(ToySAParams.init(rng, 3)), x),
    "Identity": lambda rng, x: _method(IdentityOp(), x),
    "glu": lambda rng, x: (glu_backward, *glu_forward(x, GluParams.init(rng, 3, 2))),
    "block": lambda rng, x: (block_backward, *block_forward(x, BlockParams.init(rng, 3, 3, 2))),
    "patch_embed": lambda rng, x: (patch_embed_backward,
                                   *patch_embed_forward(x, rng.normal(0, 1, (4, 75)),
                                                        np.zeros(4), 5)),
    "MicroModel": lambda rng, x: _method(
        MicroModel.init(rng, MicroConfig(in_channels=3, channels=4, blocks=1, patch=1,
                                         expansion=2)), x),
}


def _build(name):
    rng = Rng(2001)
    return STAGES[name](rng, rng.normal(0, 1, SHAPE))


@pytest.mark.parametrize("spoil", [lambda y: y[:1], lambda y: y[..., None]],
                         ids=["other_batch", "extra_axis"])
@pytest.mark.parametrize("name", STAGES)
def test_a_wrong_shaped_cotangent_raises(name, spoil):
    backward, y, cache = _build(name)
    backward(np.ones_like(y), cache)  # the right shape passes
    with pytest.raises(DimensionError):
        backward(spoil(np.ones_like(y)), cache)


@pytest.mark.parametrize("name", STAGES)
def test_a_missing_cache_raises(name):
    backward, y, _ = _build(name)
    with pytest.raises(StateError):
        backward(np.ones_like(y), None)


# the stages whose cache serves one backward -> the name their error gives
SPENT_ONCE = {"block": "block", "MicroModel": "micro_model"}


@pytest.mark.parametrize("name", SPENT_ONCE)
def test_a_spent_cache_raises(name):
    backward, y, cache = _build(name)
    backward(np.ones_like(y), cache)
    with pytest.raises(StateError, match=f"^{SPENT_ONCE[name]}_backward got a spent cache"):
        backward(np.ones_like(y), cache)


def test_dkm_backward_rejects_a_galpha_of_another_batch():
    # a batch-1 galpha once broadcast against the batch-2 cached mean into
    # a (1, C, k, k) graw and a wrong gamma gradient
    rng = Rng(2002)
    _, cache = dkm_forward(rng.normal(0, 1, (2, 3, 3, 3)), np.zeros(3))
    with pytest.raises(DimensionError, match=r"galpha must be \(2, 3, 3, 3\)"):
        dkm_backward(np.ones((1, 3, 3, 3)), cache)

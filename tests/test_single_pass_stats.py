"""Layer norm and cross-entropy against the multi-pass forms they replaced.

``oracles.layer_norm_forward_var_ref`` took the variance with ``x.var``,
which recomputed the mean, and ``oracles.cross_entropy_three_exp_ref``
took three exps and two row sums. The live forms compute each once and
must give the same bytes.
"""

import numpy as np
import pytest

from atconv.micro import cross_entropy
from atconv.primitives import layer_norm_forward
from atconv.rng import Rng
from oracles import cross_entropy_three_exp_ref, layer_norm_forward_var_ref

F32, F64 = np.float32, np.float64


def assert_bitwise(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", (F32, F64))
@pytest.mark.parametrize("shape", ((1, 3, 5, 6), (2, 4, 7, 7), (3, 32, 8, 8),
                                   (4, 64, 4, 5), (2, 7, 1, 9)))
def test_layer_norm_is_bitwise_the_var_form(shape, dtype):
    rng = Rng(sum(shape))
    c = shape[1]
    x = rng.normal(0.5, 3.0, shape, dtype)
    gain, offset = rng.normal(1, 0.5, (c,), dtype), rng.normal(0, 0.5, (c,), dtype)
    y, cache = layer_norm_forward(x, gain, offset)
    ref_y, ref_cache = layer_norm_forward_var_ref(x, gain, offset)
    assert_bitwise(y, ref_y)
    for got, ref in zip(cache, ref_cache):
        assert_bitwise(got, ref)


@pytest.mark.parametrize("dtype", (F32, F64))
@pytest.mark.parametrize("shape", ((1, 2), (8, 10), (64, 10), (5, 37)))
def test_cross_entropy_is_bitwise_the_three_exp_form(shape, dtype):
    rng = Rng(sum(shape) + 1)
    logits = rng.normal(0, 4.0, shape, dtype)
    logits[0, -1] += 80.0  # one dominant logit: some exps underflow
    labels = (np.arange(shape[0]) * 7) % shape[1]
    loss, grad = cross_entropy(logits, labels)
    ref_loss, ref_grad = cross_entropy_three_exp_ref(logits, labels)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert_bitwise(grad, ref_grad)

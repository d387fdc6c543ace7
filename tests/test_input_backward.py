"""The input-only backward behind the influence probes.

``need_param_grads=False`` must skip every weight gradient and leave the
input gradient bit for bit what the full backward gives, so the routing
maps built from it do not move. ATConv reads its Jacobian rows from its
structure instead, within a tolerance of the dense backward's.
"""

import numpy as np
import pytest

from atconv import op as atconv_op
from atconv.analysis import influence_map, inhibition_map
from atconv.baselines import (IdentityOp, StaticConv, StaticDepthwise, ToySAParams,
                              ToySelfAttention)
from atconv.op import ATConv, ATConvConfig, ATConvParams, Operator, atconv_backward
from atconv.primitives import (conv1x1_backward, conv1x1_forward, linear_backward,
                               linear_forward)
from atconv.rng import Rng
from oracles import jacobian_rows_generic_ref


class FullBackward:
    """``op`` with an input_backward that computes every weight gradient
    and drops them, as input_backward did before it skipped them."""

    def __init__(self, op):
        self.op = op

    def forward(self, x):
        return self.op.forward(x)

    def forward_cached(self, x):
        return self.op.forward_cached(x)

    def input_backward(self, gy, cache):
        return self.op.backward(gy, cache)[0]

    def jacobian_rows(self, x, position):
        return jacobian_rows_generic_ref(self, x, position)


def _operators(rng, c, dtype):
    return {
        "atconv": ATConv(ATConvParams.init(rng, c, 3, dtype)),
        "atconv_static": ATConv(
            ATConvParams.init(rng, c, 3, dtype),
            ATConvConfig(use_kernel_generator=False, kernel_mod="none",
                         static_kernel=rng.normal(0, 1, (c, 9)))),
        "static_conv": StaticConv.init(rng, c, c, 3, dtype),
        "static_conv_1x1": StaticConv.init(rng, c, c, 1, dtype),
        "static_dwconv": StaticDepthwise.init(rng, c, 3, dtype),
        "toy_sa": ToySelfAttention(ToySAParams.init(rng, c, dtype=dtype)),
    }


# ATConv's structured rows against the dense backward's, relative to the
# largest reference entry
STRUCTURED_RTOL = {np.float32: 1e-5, np.float64: 1e-12}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 4, 7, 7), (1, 6, 9, 8)])
def test_influence_map_is_bitwise_that_of_the_full_backward(dtype, shape):
    rng = Rng(601)
    x = rng.normal(0, 1, shape, dtype)
    anchor = (shape[2] // 2, shape[3] // 3)
    for name, op in _operators(rng, shape[1], dtype).items():
        for probe in (influence_map, inhibition_map):
            g = probe(op, x, anchor)
            ref = probe(FullBackward(op), x, anchor)
            if probe is influence_map and isinstance(op, ATConv):
                err = np.abs(g - ref).max()
                assert err <= STRUCTURED_RTOL[dtype] * np.abs(ref).max(), (name, err)
            else:
                assert g.tobytes() == ref.tobytes(), (name, probe.__name__)


def test_static_depthwise_probes_compute_no_kernel_gradient(monkeypatch):
    calls = []
    real = atconv_op.dyn_depthwise_backward

    def recording(*args, **kwargs):
        calls.append(kwargs.get("need_param_grads", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(atconv_op, "dyn_depthwise_backward", recording)
    rng = Rng(605)
    influence_map(StaticDepthwise.init(rng, 3), rng.normal(0, 1, (1, 3, 6, 6)), (2, 2))
    assert calls == [False] * 3


def test_influence_map_on_atconv_computes_no_weight_gradient(monkeypatch):
    # the rows come from the operator's structure: no dense backward at all
    calls = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(atconv_op, "atconv_backward", recording(atconv_backward))
    monkeypatch.setattr(atconv_op, "conv1x1_backward", recording(conv1x1_backward))
    rng = Rng(602)
    static = ATConvConfig(use_kernel_generator=False, static_kernel=rng.normal(0, 1, (3, 9)))
    for config in (ATConvConfig(), static):
        op = ATConv(ATConvParams.init(rng, 3, 3), config)
        influence_map(op, rng.normal(0, 1, (1, 3, 6, 6)), (2, 2))
    assert calls == []


def test_influence_map_on_atconv_peak_bytes(traced_peak):
    # B1 C64 H32 f64, the analyze_c64 shape: the dense-backward rows peaked
    # at 4.47 MiB here
    rng = Rng(609)
    op = ATConv(ATConvParams.init(rng, 64, 3))
    x = rng.normal(0, 1, (1, 64, 32, 32))
    assert traced_peak(influence_map, op, x, (16, 16)) < 4.0 * 2**20


def test_input_only_primitives_return_none_for_weights():
    rng = Rng(603)
    x = rng.normal(0, 1, (2, 3, 4, 5))
    w = rng.normal(0, 1, (4, 3))
    y, cache = conv1x1_forward(x, w, np.zeros(4))
    gy = rng.normal(0, 1, y.shape)
    gx, gw, gb = conv1x1_backward(gy, cache, need_param_grads=False)
    assert gw is None and gb is None
    assert gx.tobytes() == conv1x1_backward(gy, cache)[0].tobytes()
    v = rng.normal(0, 1, (2, 5, 3))
    y, cache = linear_forward(v, w, np.zeros(4))
    gy = rng.normal(0, 1, y.shape)
    gx, gw, gb = linear_backward(gy, cache, need_param_grads=False)
    assert gw is None and gb is None
    assert gx.tobytes() == linear_backward(gy, cache)[0].tobytes()


def test_input_only_operator_backwards_return_no_gradients():
    rng = Rng(604)
    x = rng.normal(0, 1, (1, 3, 5, 5))
    op = ATConv(ATConvParams.init(rng, 3, 3))
    y, cache = op.forward_cached(x)
    gy = rng.normal(0, 1, y.shape)
    gx, grads = atconv_backward(gy, cache, need_param_grads=False)
    assert grads is None
    assert gx.tobytes() == atconv_backward(gy, cache)[0].tobytes()
    for k in (1, 3):
        sc = StaticConv.init(rng, 3, 3, k)
        y, cache = sc.forward_cached(x)
        assert sc.backward(gy, cache, need_param_grads=False)[1:] == (None, None)
    sa = ToySelfAttention(ToySAParams.init(rng, 3))
    y, cache = sa.forward_cached(x)
    assert sa.backward(gy, cache, need_param_grads=False)[1] is None
    _, cache = atconv_op.dyn_depthwise_forward(x, rng.normal(0, 1, (1, 3, 3, 3)))
    gv, galpha = atconv_op.dyn_depthwise_backward(gy, cache, need_param_grads=False)
    assert galpha is None
    assert gv.tobytes() == atconv_op.dyn_depthwise_backward(gy, cache)[0].tobytes()


@pytest.mark.parametrize("cls", (ATConv, StaticConv, StaticDepthwise, ToySelfAttention,
                                 IdentityOp), ids=lambda cls: cls.__name__)
def test_operators_take_forward_and_input_backward_from_the_protocol(cls):
    assert issubclass(cls, Operator)
    assert "forward" not in vars(cls) and "input_backward" not in vars(cls)


@pytest.mark.parametrize("k", (1, 3, 5))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_static_depthwise_input_only_backward_returns_no_kernel_gradient(dtype, k):
    rng = Rng(607 + k)
    op = StaticDepthwise.init(rng, 4, k, dtype)
    x = rng.normal(0, 1, (2, 4, 7, 6), dtype)
    gy = rng.normal(0, 1, x.shape, dtype)
    _, cache = op.forward_cached(x)
    gx, gw = op.backward(gy, cache)
    assert gw.shape == op.w.shape
    gx_only, gw_none = op.backward(gy, cache, need_param_grads=False)
    assert gw_none is None
    assert gx_only.dtype == gx.dtype and gx_only.tobytes() == gx.tobytes()


@pytest.mark.parametrize("mod", ("none", "dkm", "softmax", "central_diff"))
def test_static_kernel_input_backward_computes_no_kernel_gradient(monkeypatch, mod):
    # with the generator off, galpha only feeds the static_kernel gradient
    calls = []
    real = np.einsum

    def counting(*operands, **kwargs):
        calls.append(operands[0])
        return real(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    rng = Rng(606)
    x = rng.normal(0, 1, (2, 3, 6, 5))
    gy = rng.normal(0, 1, x.shape)
    static = ATConv(ATConvParams.init(rng, 3, 3),
                    ATConvConfig(use_kernel_generator=False, kernel_mod=mod,
                                 static_kernel=rng.normal(0, 1, (3, 9))))
    generated = ATConv(ATConvParams.init(rng, 3, 3), ATConvConfig(kernel_mod=mod))
    for op, galphas in ((static, 0), (generated, 9)):
        _, cache = op.forward_cached(x)
        calls.clear()
        gx = op.input_backward(gy, cache)
        assert calls.count("nhw,nhw->n") == galphas
        full_gx, grads = op.backward(gy, cache)
        assert calls.count("nhw,nhw->n") == galphas + 9
        assert gx.tobytes() == full_gx.tobytes()
        assert ("static_kernel" in grads) == (op is static)

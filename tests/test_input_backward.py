"""The Jacobian rows behind the influence probes against the backward's.

Every operator reads its rows from its own structure, and no probe runs a
backward. The maps built on the rows must be those that one full backward
per row gives: bit for bit for the identity and the static convolutions,
whose rows are exact, and for every inhibition map, which reads no rows;
within a tolerance for ATConv and the attention.
"""

import numpy as np
import pytest

from atconv import op as atconv_op
from atconv.analysis import influence_map, inhibition_map
from atconv.baselines import (IdentityOp, StaticConv, StaticDepthwise, ToySAParams,
                              ToySelfAttention)
from atconv.errors import StateError
from atconv.op import ATConv, ATConvConfig, ATConvParams, Operator, atconv_backward
from atconv.primitives import conv1x1_backward, linear_backward
from atconv.rng import Rng
from oracles import jacobian_rows_generic_ref


class FullBackward(Operator):
    """``op`` with rows from one full backward per output channel, reduced
    by the protocol's default ``influence``. Its cache is the input, from
    which the dense rows run their own forward."""

    def __init__(self, op):
        self.op = op

    def forward(self, x):
        return self.op.forward(x)

    def forward_cached(self, x):
        return self.op.forward(x), x

    def jacobian_rows(self, cache, position):
        return jacobian_rows_generic_ref(self.op, cache, position)


def _operators(rng, c, dtype=np.float64):
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
        "identity": IdentityOp(),
    }


# ATConv's and the attention's rows against the dense backward's, relative
# to the largest reference entry
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
            if probe is influence_map and isinstance(op, (ATConv, ToySelfAttention)):
                err = np.abs(g - ref).max()
                assert err <= STRUCTURED_RTOL[dtype] * np.abs(ref).max(), (name, err)
            else:
                assert g.tobytes() == ref.tobytes(), (name, probe.__name__)


def test_static_depthwise_probes_compute_no_kernel_gradient(monkeypatch):
    # the rows are the weights in the anchor's window: no backward at all
    calls = []
    real = atconv_op.dyn_depthwise_backward

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(atconv_op, "dyn_depthwise_backward", recording)
    rng = Rng(605)
    influence_map(StaticDepthwise.init(rng, 3), rng.normal(0, 1, (1, 3, 6, 6)), (2, 2))
    assert calls == []


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
    monkeypatch.setattr(atconv_op, "linear_backward", recording(linear_backward))
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


@pytest.mark.parametrize("name", list(_operators(Rng(0), 3)))
def test_the_probes_need_a_cache(name):
    op = _operators(Rng(606), 3)[name]
    with pytest.raises(StateError, match="needs the cache"):
        list(op.jacobian_rows(None, (2, 2)))
    with pytest.raises(StateError, match="needs the cache"):
        op.influence(None, (2, 2))


@pytest.mark.parametrize("cls", (ATConv, StaticConv, StaticDepthwise, ToySelfAttention,
                                 IdentityOp), ids=lambda cls: cls.__name__)
def test_operators_define_their_own_rows(cls):
    assert issubclass(cls, Operator)
    assert "forward" not in vars(cls) and "jacobian_rows" in vars(cls)
    assert "jacobian_rows" not in vars(Operator)

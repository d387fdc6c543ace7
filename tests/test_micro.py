"""The miniature residual classifier and its training math."""

import math

import numpy as np
import pytest

from atconv.errors import ArgumentError, DimensionError
from atconv.micro import (
    AdamHyper,
    GluParams,
    MicroConfig,
    MicroModel,
    _patchify,
    _unpatchify,
    adam_init,
    adam_step,
    block_forward,
    BlockParams,
    cross_entropy,
    glu_forward,
    patch_embed_forward,
)
from atconv.op import PARAM_NAMES, ATConvConfig
from atconv.rng import Rng
from oracles import adam_ref, adam_step_out_of_place_ref


# ----------------------------------------------------------------------
# gated channel MLP
# ----------------------------------------------------------------------

def _identity_glu(c):
    eye = np.eye(c)
    zero = np.zeros(c)
    return GluParams(w_a=eye.copy(), b_a=zero.copy(), w_b=eye.copy(),
                     b_b=zero.copy(), w_c=eye.copy(), b_c=zero.copy())


def test_glu_identity_weights_give_gated_input():
    p = _identity_glu(1)
    x = np.ones((1, 1, 1, 1))
    y, _ = glu_forward(x, p)
    assert abs(y[0, 0, 0, 0] - 0.8413447460685429) < 1e-12


def test_glu_zero_input_is_zero():
    p = GluParams.init(Rng(140), 3, expansion=4)
    y, _ = glu_forward(np.zeros((2, 3, 4, 4)), p)
    assert np.abs(y).max() == 0.0


def test_glu_rejects_narrow_expansion():
    with pytest.raises(ArgumentError):
        GluParams.init(Rng(141), 4, expansion=0)


def test_glu_rejects_mis_shaped_weights_at_construction():
    p = _identity_glu(3)
    with pytest.raises(DimensionError):
        GluParams(w_a=p.w_a, b_a=p.b_a, w_b=p.w_b, b_b=p.b_b,
                  w_c=np.eye(3, 4), b_c=p.b_c)


@pytest.mark.parametrize("name, value, error", [
    ("w_a", np.ones(3), DimensionError),
    ("w_b", np.eye(3, dtype=np.int64), ArgumentError),
    ("b_a", np.zeros(4), DimensionError),
    ("b_c", np.zeros((3, 1)), DimensionError),
    ("b_b", np.zeros(3, dtype=np.int64), ArgumentError),
])
def test_glu_validates_with_the_tensor_helpers(name, value, error):
    kw = dict(vars(_identity_glu(3)))
    kw[name] = value
    with pytest.raises(error, match=name):
        GluParams(**kw)


def test_glu_keeps_valid_arrays_as_given():
    # named_parameters() aliases these arrays for the in-place Adam step
    kw = dict(vars(GluParams.init(Rng(143), 3, expansion=2, dtype=np.float32)))
    p = GluParams(**kw)
    assert all(getattr(p, name) is arr for name, arr in kw.items())


# ----------------------------------------------------------------------
# patch embedding
# ----------------------------------------------------------------------

def test_patchify_roundtrip():
    x = Rng(142).normal(0, 1, (2, 3, 8, 12))
    cols = _patchify(x, 4)
    assert cols.shape == (2, 3 * 16, 2, 3)
    assert np.array_equal(_unpatchify(cols, x.shape, 4), x)


def test_patchify_layout():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    cols = _patchify(x, 2)
    # first output pixel stacks the top-left 2x2 patch row-major
    assert cols[0, :, 0, 0].tolist() == [0.0, 1.0, 4.0, 5.0]


def test_patch_embed_rejects_indivisible_input():
    w = np.zeros((4, 9))
    with pytest.raises(DimensionError):
        patch_embed_forward(np.ones((1, 1, 7, 7)), w, np.zeros(4), 3)


# ----------------------------------------------------------------------
# model structure
# ----------------------------------------------------------------------

def test_block_preserves_shape():
    rng = Rng(143)
    p = BlockParams.init(rng, 4, kernel=3, expansion=2)
    x = rng.normal(0, 1, (2, 4, 6, 6))
    y, _ = block_forward(x, p)
    assert y.shape == x.shape


@pytest.mark.parametrize("name, value, error", [
    ("norm1_gain", np.ones(4, dtype=np.int64), ArgumentError),
    ("norm1_offset", np.zeros(5), DimensionError),
    ("norm2_gain", np.ones((4, 1)), DimensionError),
    ("norm2_offset", np.zeros(4, dtype=np.int64), ArgumentError),
])
def test_block_params_validate_with_the_tensor_helpers(name, value, error):
    kw = dict(vars(BlockParams.init(Rng(150), 4, kernel=3, expansion=2)))
    kw[name] = value
    with pytest.raises(error, match=name):
        BlockParams(**kw)


def test_block_params_reject_a_glu_of_another_width():
    kw = dict(vars(BlockParams.init(Rng(151), 4, kernel=3, expansion=2)))
    kw["glu"] = GluParams.init(Rng(152), 3, expansion=2)
    with pytest.raises(DimensionError, match="glu width 3"):
        BlockParams(**kw)


def test_block_params_keep_valid_arrays_as_given():
    kw = dict(vars(BlockParams.init(Rng(153), 4, kernel=3, expansion=2, dtype=np.float32)))
    p = BlockParams(**kw)
    assert all(getattr(p, name) is arr for name, arr in kw.items())


def _model_fields(seed, **config):
    model = MicroModel.init(Rng(seed), MicroConfig(channels=4, blocks=2, patch=2, **config))
    return {f: getattr(model, f) for f in ("config", "embed_w", "embed_b", "blocks",
                                           "head_w", "head_b", "op_config")}


@pytest.mark.parametrize("name, value, error", [
    ("embed_w", np.zeros((4, 4), dtype=np.int64), ArgumentError),
    ("embed_w", np.zeros((4, 5)), DimensionError),
    ("embed_b", np.zeros(3), DimensionError),
    ("head_w", np.zeros((4, 10)), DimensionError),
    ("head_b", np.zeros(10, dtype=np.int32), ArgumentError),
])
def test_model_validates_with_the_tensor_helpers(name, value, error):
    kw = _model_fields(154)
    kw[name] = value
    with pytest.raises(error, match=name):
        MicroModel(**kw)


def test_model_rejects_a_block_of_another_width():
    kw = _model_fields(161)
    kw["blocks"] = [kw["blocks"][0], BlockParams.init(Rng(162), 3, kernel=3, expansion=2)]
    with pytest.raises(DimensionError, match="blocks.1 has width 3"):
        MicroModel(**kw)


def test_model_keeps_valid_arrays_as_given():
    # named_parameters() aliases these arrays for the in-place Adam step
    kw = _model_fields(163)
    before = MicroModel(**kw).named_parameters()
    model = MicroModel(**kw)
    assert all(model.named_parameters()[n] is arr for n, arr in before.items())
    assert all(getattr(model, f) is v for f, v in kw.items())


def test_initial_loss_is_log_num_classes():
    rng = Rng(144)
    model = MicroModel.init(rng, MicroConfig(channels=16, blocks=2, patch=4))
    x = rng.uniform(0, 1, (8, 1, 28, 28))
    logits = model.forward(x)
    assert np.abs(logits).max() == 0.0  # zero head
    labels = Rng(145).integers(10, (8,))
    loss, _ = cross_entropy(logits, labels)
    assert loss == math.log(10.0)


def _block_names(i):
    return ([f"blocks.{i}.norm1_gain", f"blocks.{i}.norm1_offset"]
            + [f"blocks.{i}.mixer.{n}" for n in PARAM_NAMES]
            + [f"blocks.{i}.norm2_gain", f"blocks.{i}.norm2_offset"]
            + [f"blocks.{i}.glu.{n}" for n in ("w_a", "b_a", "w_b", "b_b", "w_c", "b_c")])


def test_named_parameters_flat_keys():
    # checkpoints and Adam state are keyed by these names, in this order;
    # a static kernel in op_config is an array but not a parameter
    static = ATConvConfig(use_kernel_generator=False, kernel_mod="none",
                          static_kernel=np.zeros((8, 9)))
    for op_config in (None, static):
        model = MicroModel.init(Rng(146), MicroConfig(channels=8, blocks=2, patch=2),
                                op_config)
        names = model.named_parameters()
        assert list(names) == (["embed_w", "embed_b"] + _block_names(0) + _block_names(1)
                               + ["head_w", "head_b"])
        assert all(isinstance(v, np.ndarray) for v in names.values())
        for name, value in model.blocks[1].mixer.named().items():
            assert names[f"blocks.1.mixer.{name}"] is value, name


def test_param_count_formula():
    c, k, e, nc = 32, 3, 4, 10
    cfg = MicroConfig(in_channels=1, channels=c, blocks=2, patch=4,
                      kernel=k, expansion=e, num_classes=nc)
    model = MicroModel.init(Rng(147), cfg)
    ee = e * c
    mixer = 3 * c * c + 4 * c + k**4
    glu = 3 * ee * c + 2 * ee + c
    block = 2 * c + mixer + 2 * c + glu
    embed = c * (1 * 4 * 4) + c
    head = nc * c + nc
    assert model.param_count() == embed + 2 * block + head


def test_set_parameter_reaches_nested_fields():
    model = MicroModel.init(Rng(148), MicroConfig(channels=4, blocks=1, patch=2))
    new = np.full((4, 4), 0.5)
    model.set_parameter("blocks.0.mixer.w_value", new)
    assert model.blocks[0].mixer.w_value is new
    model.set_parameter("head_b", np.ones(10))
    assert np.array_equal(model.head_b, np.ones(10))


def test_backward_returns_a_gradient_for_exactly_the_parameters():
    model = MicroModel.init(Rng(155), MicroConfig(channels=4, blocks=2, patch=2))
    x = Rng(156).normal(0, 1, (2, 1, 8, 8))
    logits, cache = model.forward_cached(x)
    _, grads = model.backward(np.ones_like(logits), cache)
    assert set(grads) == set(model.named_parameters())


@pytest.mark.parametrize("name", ("blocks.0.mixer.w_valu", "blocks.3.glu.w_a", "blocks",
                                  "blocks.0", "blocks.0.mixer", "config", "op_config",
                                  "op_config.static_kernel", "blocks.0.mixer.kernel_size"))
def test_set_parameter_rejects_an_unknown_name(name):
    model = MicroModel.init(Rng(157), MicroConfig(channels=4, blocks=1, patch=2))
    before = model.named_parameters()
    with pytest.raises(ArgumentError, match="no parameter named"):
        model.set_parameter(name, np.zeros((4, 4)))
    after = model.named_parameters()
    assert list(after) == list(before)
    assert all(after[n] is before[n] for n in before)
    assert not hasattr(model.blocks[0].mixer, "w_valu")


@pytest.mark.parametrize("value, error", (
    (np.zeros((10, 4), dtype=np.int64), ArgumentError),
    (np.zeros((4, 10)), DimensionError),
    (np.zeros(40), DimensionError),
))
def test_set_parameter_rejects_a_wrong_array(value, error):
    model = MicroModel.init(Rng(158), MicroConfig(channels=4, blocks=1, patch=2))
    head = model.head_w
    with pytest.raises(error, match="head_w"):
        model.set_parameter("head_w", value)
    assert model.head_w is head


def test_set_parameter_keeps_the_model_dtype():
    model = MicroModel.init(Rng(159), MicroConfig(channels=4, blocks=1, patch=2),
                            dtype=np.float32)
    value = Rng(160).normal(0, 1, (10,), np.float64)
    model.set_parameter("head_b", value)
    assert model.head_b.dtype == np.float32
    assert model.head_b.tobytes() == value.astype(np.float32).tobytes()
    assert model.named_parameters()["head_b"] is model.head_b
    same = np.ones((4, 4), dtype=np.float32)
    model.set_parameter("blocks.0.mixer.w_out", same)
    assert model.blocks[0].mixer.w_out is same


def test_op_config_changes_forward_not_parameters():
    cfg = MicroConfig(channels=8, blocks=1, patch=2)
    m_dkm = MicroModel.init(Rng(149), cfg)
    m_soft = MicroModel.init(Rng(149), cfg, op_config=ATConvConfig(kernel_mod="softmax"))
    p1, p2 = m_dkm.named_parameters(), m_soft.named_parameters()
    assert list(p1.keys()) == list(p2.keys())
    for k in p1:
        assert np.array_equal(p1[k], p2[k]), k
    # the head starts at zero, so give both models the same nonzero one
    head = Rng(152).normal(0, 1, (10, 8))
    m_dkm.set_parameter("head_w", head.copy())
    m_soft.set_parameter("head_w", head.copy())
    x = Rng(150).normal(0, 1, (2, 1, 8, 8))
    assert np.abs(m_dkm.forward(x) - m_soft.forward(x)).max() > 1e-8


def test_config_validation():
    with pytest.raises(ArgumentError):
        MicroConfig(blocks=0).validate()
    with pytest.raises(ArgumentError):
        MicroConfig(expansion=0).validate()


# ----------------------------------------------------------------------
# loss
# ----------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    loss, grad = cross_entropy(np.zeros((4, 7)), np.array([0, 1, 2, 3]))
    assert abs(loss - math.log(7.0)) < 1e-15
    assert np.abs(grad.sum(axis=1)).max() < 1e-15


def test_cross_entropy_confident_correct_prediction():
    logits = np.zeros((1, 3))
    logits[0, 1] = 50.0
    loss, _ = cross_entropy(logits, np.array([1]))
    assert loss < 1e-12


def test_cross_entropy_gradient_matches_softmax_minus_onehot():
    rng = Rng(151)
    logits = rng.normal(0, 2, (3, 5))
    labels = np.array([4, 0, 2])
    _, grad = cross_entropy(logits, labels)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    onehot = np.zeros((3, 5))
    onehot[np.arange(3), labels] = 1.0
    assert np.abs(grad - (soft - onehot) / 3.0).max() < 1e-14


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ArgumentError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(DimensionError):
        cross_entropy(np.zeros((2, 3)), np.array([0]))


def test_cross_entropy_rejects_an_empty_batch():
    # raised numpy's zero-size reduction ValueError
    with pytest.raises(DimensionError, match="empty batch"):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params_unchanged():
    params = {"a": np.array([1.0, -2.0])}
    before = params["a"].copy()
    state = adam_init(params)
    out = adam_step(params, {"a": np.zeros(2)}, state, AdamHyper(lr=0.1))
    assert np.array_equal(out["a"], before)


def test_adam_first_step_is_lr_sized():
    params = {"a": np.array([3.0])}
    state = adam_init(params)
    out = adam_step(params, {"a": np.ones(1)}, state, AdamHyper(lr=0.1))
    assert abs(out["a"][0] - (3.0 - 0.1)) < 1e-8


def test_adam_missing_gradient_skips_parameter():
    params = {"a": np.array([1.0]), "b": np.array([2.0])}
    state = adam_init(params)
    out = adam_step(params, {"a": np.ones(1)}, state, AdamHyper(lr=0.1))
    assert out["b"] is params["b"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_adam_step_updates_in_place_bit_for_bit(dtype, weight_decay):
    rng = Rng(21)
    shapes = {"w": (3, 4), "b": (4,), "frozen": (2,)}
    params = {k: rng.normal(0.0, 1.0, s, dtype) for k, s in shapes.items()}
    ref_params = {k: v.copy() for k, v in params.items()}
    state, ref_state = adam_init(params), adam_init(ref_params)

    def arrays():
        return [d[k] for d in (params, state["m"], state["v"]) for k in shapes]

    held = arrays()
    hyper = AdamHyper(lr=0.05, weight_decay=weight_decay)
    for _ in range(5):
        grads = {k: rng.normal(0.0, 1.0, shapes[k], dtype) for k in ("w", "b")}
        out = adam_step(params, grads, state, hyper)
        ref_params = adam_step_out_of_place_ref(ref_params, grads, ref_state, hyper)
        # the step returns params itself and keeps every array's identity
        assert out is params
        assert all(a is b for a, b in zip(arrays(), held))
        assert state["t"] == ref_state["t"]
        for k in shapes:
            for got, ref in ((params[k], ref_params[k]), (state["m"][k], ref_state["m"][k]),
                             (state["v"][k], ref_state["v"][k])):
                assert got.dtype == ref.dtype == dtype, k
                assert got.tobytes() == ref.tobytes(), k


def test_adam_two_step_trace_matches_reference():
    hyper = AdamHyper(lr=0.05, weight_decay=0.1)
    params = {"w": np.array([0.7])}
    state = adam_init(params)
    grads = [np.array([0.3]), np.array([-1.2])]

    p_ref, m_ref, v_ref = 0.7, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        params = adam_step(params, {"w": g}, state, hyper)
        p_ref, m_ref, v_ref = adam_ref(p_ref, float(g[0]), m_ref, v_ref, t,
                                       lr=hyper.lr, wd=hyper.weight_decay)
        assert abs(params["w"][0] - p_ref) < 1e-12

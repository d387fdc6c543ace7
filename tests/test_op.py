"""Behavior of the adaptive operator and its stages.

The heavy lifting lives in algebraic identities: configurations that
collapse the operator to something hand-computable (identity maps, static
kernels, pinned modulation strengths) plus loop-form references for the
general case.
"""

import numpy as np
import pytest

from atconv.atck import load_atck, save_atck
from atconv.errors import (
    ArgumentError,
    DimensionError,
    StateError,
    UnsupportedConfigError,
)
from atconv.op import (
    ATConv,
    ATConvConfig,
    ATConvParams,
    PARAM_NAMES,
    atconv_backward,
    atconv_forward,
    atconv_forward_cached,
    central_diff_forward,
    dkm_forward,
    dyn_depthwise_forward,
    generate_kernels_forward,
)
from atconv import op as atconv_op
from atconv.micro import AdamHyper, adam_init, adam_step
from atconv.primitives import conv1x1_forward, gelu_forward, sigmoid_forward
from atconv.rng import Rng
from atconv.tensor import counting
from oracles import c2k_ref, depthwise_ref, dkm_ref


def _identity_params(channels, k=3, dtype=np.float64):
    """Parameters that make every learned map a pass-through."""
    kk = k * k
    return ATConvParams(
        w_f=np.eye(channels, dtype=dtype),
        w_f_bias=np.zeros(channels, dtype=dtype),
        w_gen=np.eye(kk, dtype=dtype),
        gamma=np.zeros(channels, dtype=dtype),
        w_value=np.eye(channels, dtype=dtype),
        w_value_bias=np.zeros(channels, dtype=dtype),
        w_out=np.eye(channels, dtype=dtype),
        w_out_bias=np.zeros(channels, dtype=dtype),
        kernel_size=k,
    )


def _center_delta_kernel(channels, k=3):
    sk = np.zeros((channels, k * k))
    sk[:, (k * k) // 2] = 1.0
    return sk


# ----------------------------------------------------------------------
# context-to-kernel
# ----------------------------------------------------------------------

def test_c2k_constant_input_gives_flat_kernels():
    p = _identity_params(2)
    x = np.full((1, 2, 6, 6), 0.4)
    raw = generate_kernels_forward(x, p)[0]
    # every pooled tap sees the same context, so all taps agree
    assert np.abs(raw - raw[:, :, :1, :1]).max() < 1e-14
    assert abs(raw[0, 0, 0, 0] - float(gelu_forward(np.array([0.4]))[0][0])) < 1e-14


def test_c2k_input_already_kernel_sized():
    p = _identity_params(2)
    x = Rng(50).normal(0, 1, (1, 2, 3, 3))
    raw = generate_kernels_forward(x, p)[0]
    # pooling over 1x1 windows is the identity, so the kernel is the gate
    assert np.abs(raw - gelu_forward(x)[0]).max() < 1e-14


def test_c2k_matches_loop_reference():
    rng = Rng(51)
    p = ATConvParams.init(rng, 2, 3)
    x = rng.normal(0, 1, (1, 2, 5, 5))
    raw = generate_kernels_forward(x, p)[0]
    ref = c2k_ref(x, p.w_f, p.w_f_bias, p.w_gen, 3)
    assert np.abs(raw - ref).max() < 1e-12


def test_c2k_kernel_shape():
    rng = Rng(52)
    p = ATConvParams.init(rng, 3, 5)
    raw = generate_kernels_forward(rng.normal(0, 1, (2, 3, 8, 8)), p)[0]
    assert raw.shape == (2, 3, 5, 5)


# ----------------------------------------------------------------------
# differential kernel modulation
# ----------------------------------------------------------------------

def test_dkm_override_zero_is_identity():
    raw = Rng(53).normal(0, 1, (2, 3, 3, 3))
    alpha = dkm_forward(raw, np.zeros(3), lambda_override=0.0)[0]
    assert np.array_equal(alpha, raw)


def test_dkm_override_one_kills_constant_kernels():
    raw = np.ones((1, 2, 3, 3))
    alpha = dkm_forward(raw, np.zeros(2), lambda_override=1.0)[0]
    assert np.abs(alpha).max() < 1e-15


def test_dkm_override_one_gives_zero_mean():
    raw = Rng(54).normal(0, 1, (2, 4, 5, 5))
    alpha = dkm_forward(raw, np.zeros(4), lambda_override=1.0)[0]
    assert np.abs(alpha.mean(axis=(2, 3))).max() < 1e-14


def test_dkm_learned_strength_via_gamma():
    raw = Rng(55).normal(0, 1, (1, 2, 3, 3))
    gamma = np.array([0.3, -1.1])
    alpha = dkm_forward(raw, gamma)[0]
    lam = sigmoid_forward(gamma)[0]
    for c in range(2):
        ref = dkm_ref(raw[0, c], float(lam[c]))
        assert np.abs(alpha[0, c] - ref).max() < 1e-14


def test_dkm_jacobian_structure():
    # one output tap reacts to its own raw tap with 1 - lam/k^2 and to
    # every other raw tap with -lam/k^2
    k = 3
    lam = 0.5
    raw = Rng(56).normal(0, 1, (1, 1, k, k))
    base = dkm_forward(raw, np.zeros(1), lambda_override=lam)[0]
    h = 1e-6
    jac = np.zeros((k * k, k * k))
    for j in range(k * k):
        pert = raw.copy()
        pert[0, 0, j // k, j % k] += h
        jac[:, j] = ((dkm_forward(pert, np.zeros(1), lambda_override=lam)[0] - base)
                     .reshape(-1) / h)
    expect = np.eye(k * k) - lam / (k * k)
    assert np.abs(jac - expect).max() < 1e-9
    assert abs(expect[0, 0] - 0.9444444444444444) < 1e-15
    assert abs(expect[0, 1] + 0.05555555555555555) < 1e-15


def test_dkm_rejects_bad_rank():
    with pytest.raises(DimensionError):
        dkm_forward(np.ones((3, 3)), np.zeros(1))


# ----------------------------------------------------------------------
# softmax modulation
# ----------------------------------------------------------------------

def test_softmax_mod_flat_kernel():
    p = _identity_params(2)
    cfg = ATConvConfig(kernel_mod="softmax", use_value_proj=False, use_out_proj=False)
    x = np.full((1, 2, 6, 6), 0.9)
    # constant input -> flat raw kernel -> uniform softmax weights 1/k^2
    y, cache = atconv_forward_cached(x, p, cfg)
    sm = cache.mod_cache.y
    assert np.abs(sm - 1.0 / 9.0).max() < 1e-14


def test_softmax_mod_normalizes_and_stays_positive():
    rng = Rng(57)
    p = ATConvParams.init(rng, 3, 3)
    cfg = ATConvConfig(kernel_mod="softmax")
    x = -np.abs(rng.normal(0, 1, (2, 3, 6, 6))) - 0.5  # strictly negative
    _, cache = atconv_forward_cached(x, p, cfg)
    sm = cache.mod_cache.y
    assert sm.min() > 0.0
    assert sm.shape == (2, 3, 3, 3)
    assert np.abs(sm.sum(axis=(2, 3)) - 1.0).max() < 1e-10


# ----------------------------------------------------------------------
# central-difference modulation
# ----------------------------------------------------------------------

def test_central_diff_zero_sum():
    raw = Rng(58).normal(0, 1, (2, 3, 3, 3))
    alpha, _ = central_diff_forward(raw)
    assert np.abs(alpha.sum(axis=(2, 3))).max() < 1e-13
    # off-center taps are untouched
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    assert np.array_equal(alpha[:, :, mask], raw[:, :, mask])


def test_central_diff_hand_formula():
    raw = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    alpha, _ = central_diff_forward(raw)
    assert abs(alpha[0, 0, 1, 1] - (4.0 - 36.0)) < 1e-12
    assert alpha[0, 0, 0, 0] == 0.0 and alpha[0, 0, 2, 2] == 8.0


def test_central_diff_on_center_delta_produces_zero_kernel():
    # raw == center delta: center becomes 1 - 1 = 0, rest is already 0
    raw = np.zeros((1, 2, 3, 3))
    raw[:, :, 1, 1] = 1.0
    assert np.abs(central_diff_forward(raw)[0]).max() == 0.0


def test_central_diff_rejects_1x1():
    with pytest.raises(UnsupportedConfigError):
        central_diff_forward(np.ones((1, 1, 1, 1)))
    p = _identity_params(2, k=1)
    cfg = ATConvConfig(kernel_mod="central_diff")
    with pytest.raises(UnsupportedConfigError):
        atconv_forward(np.ones((1, 2, 4, 4)), p, cfg)


# ----------------------------------------------------------------------
# value projection and dynamic depthwise application
# ----------------------------------------------------------------------

def test_value_projection_is_pointwise_conv():
    rng = Rng(59)
    p = ATConvParams.init(rng, 3, 3)
    x = rng.normal(0, 1, (2, 3, 5, 5))
    cfg = ATConvConfig(use_kernel_generator=False, kernel_mod="none",
                       use_out_proj=False,
                       static_kernel=_center_delta_kernel(3))
    # center-delta kernel turns aggregation into identity, so the output
    # is exactly the value projection
    y = atconv_forward(x, p, cfg)
    assert np.array_equal(y, conv1x1_forward(x, p.w_value, p.w_value_bias)[0])


def test_dyn_depthwise_center_delta_identity():
    v = Rng(60).normal(0, 1, (2, 3, 5, 5))
    alpha = np.zeros((2, 3, 3, 3))
    alpha[:, :, 1, 1] = 1.0
    assert np.array_equal(dyn_depthwise_forward(v, alpha)[0], v)


def test_dyn_depthwise_zero_kernel():
    v = Rng(61).normal(0, 1, (1, 2, 4, 4))
    assert np.abs(dyn_depthwise_forward(v, np.zeros((1, 2, 3, 3)))[0]).max() == 0.0


def test_dyn_depthwise_box_kernel_hand_values():
    v = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)  # 1..9
    alpha = np.ones((1, 1, 3, 3))
    y = dyn_depthwise_forward(v, alpha)[0]
    assert y[0, 0, 1, 1] == 45.0  # full box sum
    assert y[0, 0, 0, 0] == 1 + 2 + 4 + 5  # corner sees a 2x2 slice


def test_dyn_depthwise_matches_loop_reference():
    rng = Rng(62)
    v = rng.normal(0, 1, (2, 3, 5, 5))
    alpha = rng.normal(0, 1, (2, 3, 3, 3))
    assert np.abs(dyn_depthwise_forward(v, alpha)[0] - depthwise_ref(v, alpha)).max() < 1e-12


def test_dyn_depthwise_rejects_even_kernel():
    with pytest.raises(ArgumentError):
        dyn_depthwise_forward(np.ones((1, 1, 4, 4)), np.ones((1, 1, 2, 2)))


def test_dyn_depthwise_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        dyn_depthwise_forward(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)))


# ----------------------------------------------------------------------
# the composed operator
# ----------------------------------------------------------------------

def test_identity_composition_reproduces_input():
    p = _identity_params(3)
    cfg = ATConvConfig(use_kernel_generator=False, kernel_mod="none",
                       static_kernel=_center_delta_kernel(3))
    x = Rng(63).normal(0, 1, (2, 3, 6, 6))
    assert np.array_equal(atconv_forward(x, p, cfg), x)


def test_static_kernel_matches_depthwise_reference():
    rng = Rng(64)
    p = _identity_params(3)
    sk = rng.normal(0, 1, (3, 9))
    cfg = ATConvConfig(use_kernel_generator=False, kernel_mod="none",
                       use_value_proj=False, use_out_proj=False,
                       static_kernel=sk)
    x = rng.normal(0, 1, (2, 3, 5, 5))
    y = atconv_forward(x, p, cfg)
    assert np.abs(y - depthwise_ref(x, sk.reshape(3, 3, 3))).max() < 1e-12


def test_full_operator_decomposes_against_frozen_kernels():
    rng = Rng(65)
    p = ATConvParams.init(rng, 4, 3)
    x = rng.normal(0, 1, (2, 4, 8, 8))
    y, cache = atconv_forward_cached(x, p)

    # recompute by hand from the stage outputs
    raw = generate_kernels_forward(x, p)[0]
    alpha, _ = dkm_forward(raw, p.gamma)
    v = conv1x1_forward(x, p.w_value, p.w_value_bias)[0]
    agg = depthwise_ref(v, alpha)
    ref = conv1x1_forward(agg, p.w_out, p.w_out_bias)[0]
    assert np.abs(y - ref).max() < 1e-12


def test_kernels_differ_across_batch_elements():
    rng = Rng(66)
    p = ATConvParams.init(rng, 3, 3)
    x = rng.normal(0, 1, (2, 3, 6, 6))
    raw = generate_kernels_forward(x, p)[0]
    assert np.abs(raw[0] - raw[1]).max() > 1e-3


def test_lambda_override_semantics_match_pinned_sigmoid():
    rng = Rng(67)
    p = ATConvParams.init(rng, 3, 3)
    x = rng.normal(0, 1, (1, 3, 5, 5))
    y_override = atconv_forward(x, p, ATConvConfig(lambda_override=0.5))
    # sigmoid(0) = 0.5 and init sets gamma = 0, so the learned path agrees
    y_learned = atconv_forward(x, p, ATConvConfig())
    assert np.abs(y_override - y_learned).max() < 1e-14


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------

def test_config_rejects_unknown_mod():
    with pytest.raises(ArgumentError):
        ATConvConfig(kernel_mod="mystery").validate(3, 3)


def test_config_names_the_kernel_modulations_in_its_message():
    with pytest.raises(ArgumentError) as info:
        ATConvConfig(kernel_mod="x").validate(3, 3)
    assert str(info.value) == ("kernel_mod must be one of "
                               "('none', 'softmax', 'central_diff', 'dkm'), got 'x'")


def test_config_rejects_static_kernel_with_generator_on():
    cfg = ATConvConfig(static_kernel=np.ones((3, 9)))
    with pytest.raises(ArgumentError):
        cfg.validate(3, 3)


def test_config_requires_static_kernel_with_generator_off():
    cfg = ATConvConfig(use_kernel_generator=False)
    with pytest.raises(ArgumentError):
        cfg.validate(3, 3)


def test_config_rejects_wrong_static_kernel_shape():
    cfg = ATConvConfig(use_kernel_generator=False, static_kernel=np.ones((3, 4)))
    with pytest.raises(DimensionError):
        cfg.validate(3, 3)


def test_config_rejects_override_outside_unit_interval():
    with pytest.raises(ArgumentError):
        ATConvConfig(lambda_override=1.5).validate(3, 3)
    with pytest.raises(ArgumentError):
        ATConvConfig(kernel_mod="none", lambda_override=0.5).validate(3, 3)
    # the closed endpoints are legal
    ATConvConfig(lambda_override=0.0).validate(3, 3)
    ATConvConfig(lambda_override=1.0).validate(3, 3)


def test_params_reject_even_kernel():
    rng = Rng(68)
    with pytest.raises(ArgumentError):
        ATConvParams.init(rng, 3, 2).validate()


def test_params_validate_at_construction():
    named = ATConvParams.init(Rng(69), 3, 3).named()
    with pytest.raises(DimensionError):
        ATConvParams(**{**named, "w_gen": np.eye(4)}, kernel_size=3)
    with pytest.raises(DimensionError):
        ATConvParams(**{**named, "gamma": np.zeros(4)}, kernel_size=3)
    with pytest.raises(DimensionError):
        ATConvParams.from_named({**named, "gamma": np.zeros(2)})


def test_forward_reads_the_named_parameter_arrays(monkeypatch):
    """The arrays ``named_parameters()`` returns are, by identity, the ones
    every forward reads, also after an in-place Adam step; a forward that
    re-validated and rebound them would train copies."""
    read = []

    def recording(fn, *positions):
        def wrapper(*args, **kwargs):
            read.extend(id(args[i]) for i in positions if args[i] is not None)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(atconv_op, "conv1x1_forward",
                        recording(atconv_op.conv1x1_forward, 1, 2))
    monkeypatch.setattr(atconv_op, "linear_forward", recording(atconv_op.linear_forward, 1))
    monkeypatch.setattr(atconv_op, "dkm_forward", recording(atconv_op.dkm_forward, 1))
    rng = Rng(70)
    op = ATConv(ATConvParams.init(rng, 3, 3, np.float32))
    named = op.named_parameters()
    ids = sorted(id(a) for a in named.values())
    x = rng.normal(0, 1, (2, 3, 6, 6), np.float32)
    state = adam_init(named)
    outputs = []
    for step in range(3):
        read.clear()
        y, cache = op.forward_cached(x)
        assert sorted(read) == ids, step
        outputs.append(y)
        if step == 1:
            _, grads = op.backward(np.ones_like(y), cache)
            assert adam_step(named, grads, state, AdamHyper()) is named
    assert sorted(id(a) for a in op.named_parameters().values()) == ids
    assert np.array_equal(outputs[0], outputs[1])
    assert not np.array_equal(outputs[1], outputs[2])


@pytest.mark.parametrize("mod", ["dkm", "softmax", "central_diff"])
def test_modulation_stages_run_by_module_name(monkeypatch, mod):
    """The forward, the backward and ``ATConv.influence`` reach each
    modulation's stages through this module's names at call time, so a
    patched name (as the tracer patches them) is the one that runs."""
    calls = []

    def counted(name):
        real = getattr(atconv_op, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    fwd, bwd = f"{mod}_forward", f"{mod}_backward"
    for name in (fwd, bwd):
        monkeypatch.setattr(atconv_op, name, counted(name))
    rng = Rng(71)
    op = ATConv(ATConvParams.init(rng, 3, 3), ATConvConfig(kernel_mod=mod))
    y, cache = op.forward_cached(rng.normal(0, 1, (2, 3, 6, 5)))
    assert calls == [fwd]
    atconv_backward(np.ones_like(y), cache)
    assert calls == [fwd, bwd]
    op.influence(cache, (0, 4))
    assert calls == [fwd, bwd, bwd]


def test_forward_rejects_channel_mismatch():
    p = _identity_params(3)
    with pytest.raises(DimensionError):
        atconv_forward(np.ones((1, 2, 4, 4)), p)


def test_backward_requires_cache():
    with pytest.raises(StateError):
        atconv_backward(np.ones((1, 2, 4, 4)), None)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def test_params_save_load_roundtrip(tmp_path):
    rng = Rng(69)
    p = ATConvParams.init(rng, 4, 3)
    p.gamma = rng.normal(0, 1, (4,))
    path = tmp_path / "op.atck"
    save_atck(path, p.named())
    q = ATConvParams.from_named(load_atck(path))
    assert q.kernel_size == 3
    for name in PARAM_NAMES:
        assert np.array_equal(getattr(q, name), getattr(p, name)), name
    x = rng.normal(0, 1, (1, 4, 6, 6))
    assert np.array_equal(atconv_forward(x, p), atconv_forward(x, q))


def test_load_rejects_missing_entries(tmp_path):
    rng = Rng(70)
    p = ATConvParams.init(rng, 3, 3)
    partial = {k: v for k, v in p.named().items() if k != "gamma"}
    path = tmp_path / "bad.atck"
    save_atck(path, partial)
    with pytest.raises(DimensionError):
        ATConvParams.from_named(load_atck(path))


def test_stateful_wrapper_matches_function_form():
    rng = Rng(71)
    p = ATConvParams.init(rng, 3, 3)
    op = ATConv(p)
    x = rng.normal(0, 1, (1, 3, 5, 5))
    assert np.array_equal(op.forward(x), atconv_forward(x, p))
    assert set(op.named_parameters().keys()) == set(PARAM_NAMES)


# ----------------------------------------------------------------------
# instrumented arithmetic counting
# ----------------------------------------------------------------------

def test_conv1x1_flop_count_is_exact():
    x = Rng(72).normal(0, 1, (2, 3, 4, 4))
    w = Rng(73).normal(0, 1, (5, 3))
    with counting() as ctr:
        conv1x1_forward(x, w)
    assert ctr.total == 2 * 2 * 16 * 5 * 3

"""Acceptance gate: twelve pinned criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside pytest's own pass/fail report. Tolerances and runtime
budgets are part of the contract and are asserted, not just printed.
"""

import math
import re
import time
from pathlib import Path

import numpy as np

import atconv
from atconv.analysis import (cer, csc, influence_map, sym_eigenvalues)
from atconv.baselines import (StaticConv, StaticDepthwise, ToySAParams,
                              ToySelfAttention, conv_jacobian_probe)
from atconv.bench import BenchSettings, latency_slopes, run_bench, CSV_HEADER
from atconv.cli import build_parser, gradcheck_report
from atconv.complexity import ShapeSpec, atconv_flops, memory, report, sa_flops
from atconv.data import synth_dataset
from atconv.micro import AdamHyper, MicroConfig, MicroModel
from atconv.op import (ATConv, ATConvConfig, ATConvParams, atconv_forward,
                       dkm_backward, dkm_forward, dyn_depthwise_forward,
                       generate_kernels_forward)
from atconv.primitives import conv1x1_forward, softmax_backward, softmax_forward
from atconv.rng import Rng
from atconv.train import TrainSettings, overfit_single_sample, train
from oracles import depthwise_ref


def _verdict(number, description, body):
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    print(f"PASS criterion {number:2d}: {description}")


def _dkm_jacobian(k, lam):
    """Rows of the modulation Jacobian extracted through the backward."""
    raw = Rng(1000 + k).normal(0.0, 1.0, (1, 1, k, k))
    gamma = np.zeros(1)
    _, cache = dkm_forward(raw, gamma, lambda_override=lam)
    jac = np.zeros((k * k, k * k))
    for j in range(k * k):
        gy = np.zeros((1, 1, k, k))
        gy.reshape(-1)[j] = 1.0
        graw, _ = dkm_backward(gy, cache)
        jac[j] = graw.reshape(-1)
    return jac


def test_criterion_01_dkm_jacobian():
    def body():
        t0 = time.perf_counter()
        draws = Rng(77).uniform(0.0, 1.0, (20,))
        for k in (1, 3, 5):
            expected_rows = lambda lam: np.eye(k * k) - lam / (k * k)
            for lam in draws:
                jac = _dkm_jacobian(k, float(lam))
                assert np.abs(jac - expected_rows(float(lam))).max() <= 1e-12
        assert time.perf_counter() - t0 < 1.0

    _verdict(1, "DKM Jacobian equals I - lambda/K^2 to 1e-12 "
                "(K in {1,3,5}, 20 lambda draws, < 1 s)", body)


def test_criterion_02_softmax_jacobian():
    def body():
        t0 = time.perf_counter()
        d = 4
        for n, (h, w) in ((2, (1, 2)), (5, (1, 5)), (16, (4, 4))):
            for tau in (1.0, math.sqrt(d)):
                params = ToySAParams.init(Rng(88 + n), 6, d=d, tau=tau)
                op = ToySelfAttention(params)
                x = Rng(99 + n).normal(0.0, 1.0, (1, 6, h, w))
                attn = op.attention(x)
                for row in range(n):
                    alpha = attn[0, row]
                    # implementation route: backward of softmax at these weights
                    _, cache = softmax_forward(np.log(alpha), axis=-1)
                    impl = np.zeros((n, n))
                    for i in range(n):
                        basis = np.zeros(n)
                        basis[i] = 1.0
                        impl[i] = softmax_backward(basis, cache)
                    # closed forms: matrix identity and the piecewise cases
                    matrix_form = np.diag(alpha) - np.outer(alpha, alpha)
                    piecewise = np.empty((n, n))
                    for i in range(n):
                        for j in range(n):
                            piecewise[i, j] = (alpha[i] * (1.0 - alpha[i]) if i == j
                                               else -alpha[i] * alpha[j])
                    assert np.abs(impl - matrix_form).max() <= 1e-10
                    assert np.abs(impl - piecewise).max() <= 1e-10
        assert time.perf_counter() - t0 < 1.0

    _verdict(2, "attention softmax Jacobian matches both closed forms to "
                "1e-10 (N in {2,5,16}, tau in {1, sqrt(d)}, < 1 s)", body)


def test_criterion_03_conv_sensitivity():
    def body():
        c, k, size, anchor = 3, 3, 9, (4, 4)
        conv = StaticConv.init(Rng(7), c, c, k)
        x1 = Rng(8).normal(0.0, 1.0, (1, c, size, size))
        x2 = Rng(9).normal(0.0, 1.0, (1, c, size, size))
        j1 = conv_jacobian_probe(conv, x1, anchor)
        j2 = conv_jacobian_probe(conv, x2, anchor)
        expected = np.zeros_like(j1)
        pad = k // 2
        for dr in range(k):
            for dc in range(k):
                expected[:, :, anchor[0] + dr - pad, anchor[1] + dc - pad] = \
                    conv.w[:, :, dr, dc]
        assert np.abs(j1 - expected).max() <= 1e-12
        assert np.array_equal(j1, j2)  # bit-invariant across inputs
        at = ATConv(ATConvParams.init(Rng(10), c, k))
        a1 = conv_jacobian_probe(at, x1, anchor)
        a2 = conv_jacobian_probe(at, x2, anchor)
        assert np.abs(a1 - a2).max() > 1e-3

    _verdict(3, "static conv Jacobian slice = kernel inside / 0 outside "
                "(1e-12, bit-invariant); adaptive slice input-dependent "
                "(> 1e-3)", body)


def test_criterion_04_full_gradient_suite():
    def body():
        t0 = time.perf_counter()
        rep = gradcheck_report(seed=0)
        assert rep["pass"] is True
        assert rep["max_rel_err"] < 1e-4

        # the same finite-difference audit through a 2-block model
        cfg = MicroConfig(in_channels=1, channels=4, blocks=2, patch=2,
                          kernel=3, expansion=2, num_classes=3)
        model = MicroModel.init(Rng(31), cfg, dtype=np.float64)
        x = Rng(32).normal(0.0, 1.0, (2, 1, 8, 8))
        logits, cache = model.forward_cached(x)
        probe = Rng(33).normal(0.0, 1.0, logits.shape)
        gx, grads = model.backward(probe, cache)

        def loss_now(inp):
            return float((model.forward(inp) * probe).sum())

        h = 1e-3
        worst = 0.0
        picker = Rng(34)
        for name, value in model.named_parameters().items():
            assert name in grads and grads[name].shape == value.shape, name
            flat = value.reshape(-1)
            for idx in {int(i) for i in picker.integers(flat.size, (3,))}:
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_now(x)
                flat[idx] = orig - h
                down = loss_now(x)
                flat[idx] = orig
                fd = (up - down) / (2.0 * h)
                got = float(grads[name].reshape(-1)[idx])
                worst = max(worst, abs(got - fd) / max(1.0, abs(fd)))
        for idx in {int(i) for i in picker.integers(x.size, (6,))}:
            orig = x.reshape(-1)[idx]
            x.reshape(-1)[idx] = orig + h
            up = loss_now(x)
            x.reshape(-1)[idx] = orig - h
            down = loss_now(x)
            x.reshape(-1)[idx] = orig
            fd = (up - down) / (2.0 * h)
            got = float(gx.reshape(-1)[idx])
            worst = max(worst, abs(got - fd) / max(1.0, abs(fd)))
        assert worst < 1e-4
        assert time.perf_counter() - t0 < 60.0

    _verdict(4, "all primitives, the full operator, the GLU, and a 2-block "
                "model pass finite-difference checks (rel err < 1e-4, "
                "h=1e-3, < 60 s)", body)


def test_criterion_05_memory_model():
    def body():
        t0 = time.perf_counter()
        worked = memory(ShapeSpec(32, 384, 28, 28, 3, 2))
        assert abs(worked["sa_mib"] - 92.6) < 0.1
        assert abs(worked["atconv_mib"] - 18.6) < 0.1
        assert abs(worked["reduction"] - 0.799) <= 0.002
        larger = memory(ShapeSpec(32, 384, 56, 56, 3, 2))
        assert 0.90 < larger["reduction"] < 0.92
        note = report(ShapeSpec(32, 384, 56, 56, 3, 2))["metadata"]["memory_note"]
        assert "differ from externally quoted" in note
        assert time.perf_counter() - t0 < 1.0
        print(f"  (56x56 computed reduction: {larger['reduction']:.4f}, "
              "reported with its accounting note)")

    _verdict(5, "worked memory example reproduces 92.6 / 18.6 MiB and "
                "79.9% reduction; 56x56 case computed with its note (< 1 s)",
             body)


def test_criterion_06_scaling_shape():
    def body():
        t0 = time.perf_counter()
        base = ShapeSpec(8, 64, 16, 16, 3, 4)
        dbl = ShapeSpec(8, 64, 32, 32, 3, 4)
        sa_a, sa_b = sa_flops(base), sa_flops(dbl)
        assert sa_b["attention_map"] == 16 * sa_a["attention_map"]
        assert sa_b["attention_apply"] == 16 * sa_a["attention_apply"]
        assert sa_b["projections"] == 4 * sa_a["projections"]
        at_a, at_b = atconv_flops(base), atconv_flops(dbl)
        assert at_b["conv"] == 4 * at_a["conv"]
        assert at_b["projections"] == 4 * at_a["projections"]
        b, c, k = base.batch, base.channels, base.kernel
        ctk_const = b * (2 * k * k * c * c + 2 * c * k**4 + c * k * k)
        assert (at_b["context_to_kernel"] - ctk_const
                == 4 * (at_a["context_to_kernel"] - ctk_const))
        mem_a, mem_b = memory(base), memory(dbl)
        e, n = base.elt_bytes, base.tokens
        assert (mem_b["sa_bytes"] - e * 3 * b * (4 * n) * c
                == 16 * (mem_a["sa_bytes"] - e * 3 * b * n * c))
        assert (mem_b["atconv_bytes"] - e * b * c * k * k
                == 4 * (mem_a["atconv_bytes"] - e * b * c * k * k))

        settings = BenchSettings(operators=("atconv", "toy_sa"),
                                 batch=8, channels=64, kernel=3,
                                 resolutions=(16, 24, 32, 48),
                                 warmup=2, reps=20, dtype="f32", seed=0)
        slopes = latency_slopes(run_bench(settings))
        assert 0.8 <= slopes["atconv"] <= 1.3, slopes
        assert 1.6 <= slopes["toy_sa"] <= 2.4, slopes
        assert time.perf_counter() - t0 < 120.0
        print(f"  (measured log-log slopes: atconv {slopes['atconv']:.2f}, "
              f"toy_sa {slopes['toy_sa']:.2f})")

    _verdict(6, "analytic counts scale exactly x4 / x16 on doubling; "
                "measured slopes land in [0.8,1.3] and [1.6,2.4] (< 2 min)",
             body)


def test_criterion_07_operator_equivalences():
    def body():
        c, k = 4, 3
        rng = Rng(55)
        sk = rng.uniform(-0.4, 0.4, (c, k * k))
        x = rng.normal(0.0, 1.0, (2, c, 7, 6))
        params = ATConvParams.init(Rng(56), c, k)
        static_cfg = ATConvConfig(use_kernel_generator=False,
                                  use_value_proj=False, use_out_proj=False,
                                  kernel_mod="none", static_kernel=sk)
        y_static = atconv_forward(x, params, static_cfg)
        assert np.abs(y_static - depthwise_ref(x, sk.reshape(c, k, k))).max() <= 1e-12

        # stage-by-stage recomputation against the fused forward
        y_fused = atconv_forward(x, params)
        raw, _ = generate_kernels_forward(x, params)
        lam = 1.0 / (1.0 + np.exp(-params.gamma))
        alpha = raw - lam[None, :, None, None] * raw.mean(axis=(2, 3), keepdims=True)
        v, _ = conv1x1_forward(x, params.w_value, params.w_value_bias)
        mixed, _ = dyn_depthwise_forward(v, alpha)
        y_stages, _ = conv1x1_forward(mixed, params.w_out, params.w_out_bias)
        assert np.abs(y_fused - y_stages).max() <= 1e-12

        delta = np.zeros((c, k * k))
        delta[:, (k * k) // 2] = 1.0
        ident_cfg = ATConvConfig(use_kernel_generator=False,
                                 use_value_proj=False, use_out_proj=False,
                                 kernel_mod="none", static_kernel=delta)
        assert np.array_equal(atconv_forward(x, params, ident_cfg), x)

    _verdict(7, "static-kernel config matches the depthwise oracle (1e-12); "
                "staged recomputation matches the fused forward (1e-12); "
                "center-delta kernel is the exact identity", body)


def test_criterion_08_lateral_inhibition():
    def body():
        c, k = 5, 3
        params = ATConvParams.init(Rng(66), c, k)
        config = ATConvConfig(lambda_override=1.0)
        x = np.full((2, c, 8, 8), 0.7)
        y = atconv_forward(x, params, config)
        pad = k // 2
        interior = y[:, :, pad:-pad, pad:-pad]
        bias = params.w_out_bias[None, :, None, None]
        assert np.abs(interior - bias).max() < 1e-8

        for lam in (0.25, 0.5, 0.9, 1.0):
            for kk in (3, 5):
                jac = _dkm_jacobian(kk, lam)
                off = jac[~np.eye(kk * kk, dtype=bool)]
                assert off.max() < 0.0

    _verdict(8, "lambda=1 kills the interior response to constant input "
                "(< 1e-8 pre-bias); off-diagonal kernel sensitivity is "
                "strictly negative for lambda > 0", body)


def test_criterion_09_global_routing_witness():
    def body():
        c, k, size = 4, 3, 13
        anchor = (6, 6)
        pad = k // 2
        x = Rng(110).normal(0.0, 1.0, (1, c, size, size))
        near = np.zeros((size, size), dtype=bool)
        near[anchor[0] - pad:anchor[0] + pad + 1,
             anchor[1] - pad:anchor[1] + pad + 1] = True

        g_at = influence_map(ATConv(ATConvParams.init(Rng(111), c, k)), x, anchor)
        assert g_at[~near].sum() > 1e-8

        g_dw = influence_map(StaticDepthwise.init(Rng(112), c, k), x, anchor)
        assert g_dw[~near].sum() == 0.0

    _verdict(9, "adaptive operator has influence mass outside the KxK "
                "window (> 1e-8); static depthwise has exactly none", body)


def test_criterion_10_metric_correctness():
    def body():
        const = np.full((1, 6, 9, 9), 1.3)
        assert abs(csc(const)) < 1e-12

        act = Rng(120).normal(0.0, 1.0, (1, 5, 10, 10)) + 0.3
        assert abs(csc(act) - csc(act * 8.0)) <= 1e-10

        rank1 = np.tile(Rng(121).normal(0.0, 1.0, (1, 1, 7, 7)), (1, 5, 1, 1))
        assert abs(cer(rank1) - 1.0 / 5.0) <= 1e-12

        hadamard = np.array([[1.0, 1, 1, 1], [1, -1, 1, -1],
                             [1, 1, -1, -1], [1, -1, -1, 1]])
        iso = hadamard[:, 1:].T.reshape(1, 3, 2, 2)  # mean-zero orthogonal rows
        assert abs(cer(iso) - 1.0) <= 1e-12

        a = Rng(122).normal(0.0, 1.0, (8, 8))
        sym = (a + a.T) / 2.0
        eigs = sym_eigenvalues(sym)
        trace = float(np.trace(sym))
        assert abs(eigs.sum() - trace) <= 1e-10 * max(1.0, abs(trace))

    _verdict(10, "CSC zero on constants and scale-invariant (1e-10); CER "
                 "1/C on rank-1 and 1 on isotropic channels; eigenvalue "
                 "sum equals trace (1e-10 rel)", body)


def test_criterion_11_micro_training():
    def body():
        t0 = time.perf_counter()
        train_set, test_set = synth_dataset(0, 2000, 1000)
        config = MicroConfig(in_channels=1, channels=32, blocks=2, patch=4,
                             kernel=3, expansion=4, num_classes=10)
        reached = 0
        best = {}
        for seed in (42, 43, 44):
            settings = TrainSettings(epochs=10, batch_size=64, seed=seed,
                                     hyper=AdamHyper(lr=3e-3), dtype="f32",
                                     target_test_acc=0.90)
            _, records = train(config, train_set, test_set, settings)
            top = max(r["test_acc"] for r in records)
            best[seed] = top
            if top >= 0.90:
                reached += 1
        assert reached >= 2, best

        losses, hit = overfit_single_sample(
            MicroConfig(in_channels=1, channels=32, blocks=2, patch=4),
            train_set.images[0], int(train_set.labels[0]),
            steps=200, lr=1e-2, seed=0)
        assert hit is not None and hit <= 200
        assert losses[hit] < 0.01
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        print(f"  (test accuracy by seed: {best}; overfit loss "
              f"{losses[hit]:.2e} at step {hit}; {elapsed:.0f} s)")

    _verdict(11, "2000/1000 digit subset reaches >= 90% test accuracy in "
                 "10 epochs for >= 2 of 3 seeds; single-sample overfit "
                 "< 0.01 within 200 steps (< 10 min)", body)


def test_criterion_12_large_scale_out_of_scope():
    def body():
        # the shipped surface is the property-based gate above, nothing
        # bigger: no large-scale dataset paths and no GPU columns exist
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        assert set(sub.choices) == {"gradcheck", "bench", "analyze",
                                    "complexity", "train", "ablate", "version"}
        assert "gpu" not in CSV_HEADER.lower()
        src = Path(atconv.__file__).parent
        banned = (r"\bimagenet\b", r"\bcoco\b", r"\bade20k\b", r"\bmiou\b",
                  r"\bfid\b")
        for path in sorted(src.glob("*.py")):
            text = path.read_text().lower()
            for pattern in banned:
                assert re.search(pattern, text) is None, (path.name, pattern)

    _verdict(12, "large-scale benchmark results are explicitly out of "
                 "scope; criteria 1-11 stand in as the acceptance gate",
             body)

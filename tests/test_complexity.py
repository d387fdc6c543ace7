"""The analytic cost model, checked against hand arithmetic and against
instrumented execution of the real operators."""

import numpy as np
import pytest

from atconv.complexity import MIB, ShapeSpec, atconv_flops, memory, report, sa_flops
from atconv.baselines import ToySAParams, ToySelfAttention
from atconv.errors import ArgumentError
from atconv.op import ATConvParams, atconv_forward, generate_kernels_forward
from atconv.rng import Rng
from atconv.tensor import counting


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_spec_rejects_bad_fields():
    with pytest.raises(ArgumentError):
        ShapeSpec(batch=0, channels=1, height=1, width=1).validate()
    with pytest.raises(ArgumentError):
        ShapeSpec(batch=1, channels=1, height=1, width=1, kernel=2).validate()
    with pytest.raises(ArgumentError):
        ShapeSpec(batch=1, channels=1, height=1, width=1, elt_bytes=3).validate()
    with pytest.raises(ArgumentError):
        sa_flops(ShapeSpec(batch=1, channels=-4, height=1, width=1))


def test_tokens_property():
    assert ShapeSpec(batch=1, channels=1, height=7, width=5).tokens == 35


# ----------------------------------------------------------------------
# attention FLOPs
# ----------------------------------------------------------------------

def test_sa_unit_shape_hand_count():
    out = sa_flops(ShapeSpec(batch=1, channels=1, height=1, width=1))
    assert out["projections"] == 8
    assert out["attention_map"] == 2
    assert out["attention_apply"] == 2
    assert out["total"] == 12


def test_sa_doubling_resolution_scales_terms_exactly():
    a = sa_flops(ShapeSpec(batch=2, channels=16, height=8, width=8))
    b = sa_flops(ShapeSpec(batch=2, channels=16, height=16, width=16))
    assert b["attention_map"] == 16 * a["attention_map"]
    assert b["attention_apply"] == 16 * a["attention_apply"]
    assert b["projections"] == 4 * a["projections"]


def test_sa_dominant_term_ratio_at_reference_shape():
    out = sa_flops(ShapeSpec(batch=32, channels=384, height=28, width=28))
    # attention_map / (one projection) = N / C = 784 / 384
    assert out["attention_map"] * 384 * 4 == out["projections"] * 784


def test_sa_counts_are_python_ints():
    out = sa_flops(ShapeSpec(batch=64, channels=512, height=64, width=64))
    assert all(isinstance(v, int) for v in out.values())
    assert out["total"] == sum(out[k] for k in
                               ("projections", "attention_map", "attention_apply"))


# ----------------------------------------------------------------------
# adaptive-operator FLOPs
# ----------------------------------------------------------------------

def test_atconv_unit_shape_hand_count():
    out = atconv_flops(ShapeSpec(batch=1, channels=1, height=1, width=1, kernel=1))
    assert out["context_to_kernel"] == 2 + 1 + 2 + 1
    assert out["conv"] == 2
    assert out["projections"] == 4
    assert out["total"] == 12


def test_atconv_total_is_affine_in_tokens():
    b, c, k = 3, 24, 3
    small = atconv_flops(ShapeSpec(batch=b, channels=c, height=4, width=8, kernel=k))
    large = atconv_flops(ShapeSpec(batch=b, channels=c, height=8, width=8, kernel=k))
    constant = b * (2 * k * k * c * c + 2 * c * k**4 + c * k * k)
    assert 2 * small["total"] - large["total"] == constant


def test_atconv_conv_term_is_small_at_reference_width():
    out = atconv_flops(ShapeSpec(batch=32, channels=384, height=28, width=28, kernel=3))
    assert out["conv"] / out["total"] < 0.03


def test_atconv_linear_scaling_against_quadratic_attention():
    shapes = [ShapeSpec(batch=1, channels=8, height=h, width=h) for h in (8, 16, 32)]
    at = [atconv_flops(s)["total"] for s in shapes]
    sa = [sa_flops(s)["total"] for s in shapes]
    # quadrupling N: the adaptive total grows by < 4.01x, attention by > 4x
    assert at[2] / at[0] < 16.01
    assert sa[2] / sa[0] > at[2] / at[0]


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------

def test_memory_worked_example_frozen():
    spec = ShapeSpec(batch=32, channels=384, height=28, width=28, kernel=3, elt_bytes=2)
    m = memory(spec)
    assert m["sa_bytes"] == 97140736
    assert m["atconv_bytes"] == 19488768
    assert m["sa_mib"] == 92.640625
    assert m["atconv_mib"] == 18.5859375
    assert abs(m["reduction"] - 0.7993759487265981) < 1e-15
    # the headline claims hold at coarse precision too
    assert abs(m["sa_mib"] - 92.6) < 0.1
    assert abs(m["atconv_mib"] - 18.6) < 0.1
    assert abs(m["reduction"] - 0.799) < 0.002


def test_memory_grows_with_resolution():
    base = dict(batch=32, channels=384, kernel=3, elt_bytes=2)
    m56 = memory(ShapeSpec(height=56, width=56, **base))
    assert 0.90 < m56["reduction"] < 0.92


def test_memory_scaling_exponents_exact():
    base = dict(batch=2, channels=16, kernel=3, elt_bytes=4)
    m1 = memory(ShapeSpec(height=8, width=8, **base))
    m2 = memory(ShapeSpec(height=16, width=16, **base))
    n, c, bsz = 64, 16, 2
    # attention: 3BNC linear part plus BN^2 quadratic part
    assert m2["sa_bytes"] - 4 * m1["sa_bytes"] == 4 * (16 - 4) * bsz * n * n
    # adaptive: kernel bytes are resolution-independent
    kern_bytes = 4 * bsz * c * 9
    assert m2["atconv_bytes"] - kern_bytes == 4 * (m1["atconv_bytes"] - kern_bytes)


def test_memory_degenerate_shapes_collapse_to_zero():
    m = memory(ShapeSpec(batch=32, channels=384, height=0, width=0, kernel=0,
                         elt_bytes=2))
    assert m["sa_bytes"] == 0 and m["atconv_bytes"] == 0
    assert m["reduction"] == 0.0


def test_memory_rejects_negative_shape():
    with pytest.raises(ArgumentError):
        memory(ShapeSpec(batch=-1, channels=1, height=1, width=1))


def test_mib_constant():
    assert MIB == 1048576.0


# ----------------------------------------------------------------------
# the combined report
# ----------------------------------------------------------------------

def test_report_is_complete_and_consistent():
    spec = ShapeSpec(batch=4, channels=32, height=12, width=12, kernel=3, elt_bytes=4)
    r = report(spec)
    assert r["shape"]["tokens"] == 144
    assert r["sa_flops"] == sa_flops(spec)
    assert r["atconv_flops"] == atconv_flops(spec)
    assert r["memory"] == memory(spec)
    assert "memory_note" in r["metadata"]


# ----------------------------------------------------------------------
# instrumented execution agrees with the model
# ----------------------------------------------------------------------

def test_atconv_instrumented_flops_within_five_percent():
    rng = Rng(130)
    b, c, h, k = 2, 8, 12, 3  # h divisible by k so pooling tiles exactly
    p = ATConvParams.init(rng, c, k)
    x = rng.normal(0, 1, (b, c, h, h))
    with counting() as ctr:
        atconv_forward(x, p)
    model = atconv_flops(ShapeSpec(batch=b, channels=c, height=h, width=h,
                                   kernel=k))["total"]
    assert abs(ctr.total - model) / model < 0.05


def test_generator_flops_match_the_context_term_exactly():
    # k divides h, so the pooling windows tile the map and add N*C; the
    # context conv runs on the k x k grid. The model's C*k^2 is the kernel
    # modulation's, which the generator does not run.
    rng = Rng(132)
    b, c, h, k = 2, 8, 12, 3
    p = ATConvParams.init(rng, c, k)
    x = rng.normal(0, 1, (b, c, h, h))
    with counting() as ctr:
        generate_kernels_forward(x, p)
    model = atconv_flops(ShapeSpec(batch=b, channels=c, height=h, width=h, kernel=k))
    assert ctr.total == model["context_to_kernel"] - b * c * k * k
    assert ctr.total == b * (h * h * c + 2 * k * k * c * c + 2 * c * k**4)


def test_sa_instrumented_flops_match_exactly():
    rng = Rng(131)
    b, c, h = 2, 8, 6
    op = ToySelfAttention(ToySAParams.init(rng, c))
    x = rng.normal(0, 1, (b, c, h, h))
    with counting() as ctr:
        op.forward(x)
    model = sa_flops(ShapeSpec(batch=b, channels=c, height=h, width=h))["total"]
    assert ctr.total == model

"""Routing and spectral diagnostics.

Influence/inhibition maps are checked against operators whose Jacobians
are known in closed form; the spectral metrics against constructions
with hand-computable eigenvalue spectra.
"""

import json
import math

import numpy as np
import pytest

from atconv.analysis import (
    analyze_operator,
    cer,
    csc,
    far,
    gaussian_blur,
    influence_map,
    inhibition_map,
    routing_centroid,
    sym_eigenvalues,
)
from atconv.baselines import IdentityOp, StaticDepthwise, ToySAParams, ToySelfAttention
from atconv.cli import _build_analyze_operator, build_parser
from atconv.errors import (
    ArgumentError,
    DegenerateMapError,
    DimensionError,
    NumericError,
    UndefinedMetricError,
)
from atconv.op import ATConv, ATConvConfig, ATConvParams, atconv_forward
from atconv.rng import Rng
from oracles import gaussian_blur_ref, sym_eigenvalues_cyclic_ref


# ----------------------------------------------------------------------
# influence maps
# ----------------------------------------------------------------------

def test_influence_identity_is_a_spike():
    x = Rng(110).normal(0, 1, (1, 3, 5, 5))
    g = influence_map(IdentityOp(), x, (2, 3))
    expect = np.zeros((5, 5))
    expect[2, 3] = 3.0  # one unit per identity channel
    assert np.array_equal(g, expect)


def test_influence_static_depthwise_support_and_values():
    rng = Rng(111)
    w = rng.normal(0, 1, (3, 3, 3))
    op = StaticDepthwise(w)
    x = rng.normal(0, 1, (1, 3, 7, 7))
    anchor = (3, 3)
    g = influence_map(op, x, anchor)
    expect = np.zeros((7, 7))
    expect[2:5, 2:5] = np.abs(w).sum(axis=0)
    assert np.abs(g - expect).max() < 1e-12
    # no mass beyond the kernel radius, exactly
    assert far(g, math.sqrt(2.0), anchor) == 0.0


def test_influence_adaptive_operator_reaches_past_kernel():
    rng = Rng(112)
    op = ATConv(ATConvParams.init(rng, 3, 3))
    x = rng.normal(0, 1, (1, 3, 9, 9))
    g = influence_map(op, x, (4, 4))
    # the kernel generator pools the whole input, so gradient mass leaks
    # beyond the 3x3 neighborhood a static conv would be confined to
    assert far(g, math.sqrt(2.0), (4, 4)) > 1e-8


# ----------------------------------------------------------------------
# far
# ----------------------------------------------------------------------

def test_far_concentrated_map():
    g = np.zeros((5, 5))
    g[2, 2] = 4.0
    assert far(g, 1.0, (2, 2)) == 0.0


def test_far_uniform_map_counts_pixels():
    g = np.ones((8, 8))
    anchor = (4, 4)
    hh, ww = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    outside = ((hh - 4) ** 2 + (ww - 4) ** 2 > 4.0).sum()
    assert abs(far(g, 2.0, anchor) - outside / 64.0) < 1e-15


def test_far_zero_radius_complements_anchor_share():
    g = np.abs(Rng(113).normal(0, 1, (6, 6)))
    anchor = (2, 4)
    expect = 1.0 - g[anchor] / g.sum()
    assert abs(far(g, 0.0, anchor) - expect) < 1e-12


def test_far_scale_invariance():
    g = np.abs(Rng(114).normal(0, 1, (6, 6)))
    # a power-of-two scale leaves every ratio bit-identical
    assert far(g, 1.5, (3, 3)) == far(8.0 * g, 1.5, (3, 3))
    assert abs(far(g, 1.5, (3, 3)) - far(7.0 * g, 1.5, (3, 3))) < 1e-12


def test_far_rejects_degenerate_and_bad_args():
    with pytest.raises(DegenerateMapError):
        far(np.zeros((4, 4)), 1.0, (2, 2))
    with pytest.raises(ArgumentError):
        far(np.ones((4, 4)), -1.0, (2, 2))
    with pytest.raises(ArgumentError):
        far(-np.ones((4, 4)), 1.0, (2, 2))
    with pytest.raises(DimensionError):
        far(np.ones((4, 4, 4)), 1.0, (2, 2))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_far_and_centroid_reject_a_non_finite_map(bad):
    # far read nan (with a RuntimeWarning), and the centroid of a map
    # holding NaN reported no mass at or above its threshold
    g = np.ones((4, 4))
    g[1, 2] = bad
    with pytest.raises(ArgumentError, match="map must be finite"):
        far(g, 1.0, (2, 2))
    with pytest.raises(ArgumentError, match="map must be finite"):
        routing_centroid(g)


@pytest.mark.parametrize("r0", (np.nan, np.inf, -np.inf))
def test_far_rejects_a_non_finite_radius(r0):
    # r0 = nan read 0.0: no distance compares greater than NaN
    with pytest.raises(ArgumentError, match="radius must be finite"):
        far(np.ones((4, 4)), r0, (2, 2))


# ----------------------------------------------------------------------
# routing centroid
# ----------------------------------------------------------------------

def test_centroid_point_mass():
    g = np.zeros((5, 6))
    g[2, 3] = 1.0
    assert routing_centroid(g, 0.0) == (2.0, 3.0)


def test_centroid_symmetric_map_lands_center():
    hh, ww = np.meshgrid(np.arange(7) - 3.0, np.arange(7) - 3.0, indexing="ij")
    g = np.exp(-(hh ** 2 + ww ** 2))
    ch, cw = routing_centroid(g, 0.0)
    assert abs(ch - 3.0) < 1e-12 and abs(cw - 3.0) < 1e-12


def test_centroid_two_equal_peaks():
    g = np.zeros((5, 5))
    g[0, 0] = 2.0
    g[0, 4] = 2.0
    ch, cw = routing_centroid(g, 0.99)
    assert (ch, cw) == (0.0, 2.0)


def test_centroid_rejects_bad_quantile_and_empty_map():
    with pytest.raises(ArgumentError):
        routing_centroid(np.ones((3, 3)), 1.0)
    with pytest.raises(DegenerateMapError):
        routing_centroid(np.zeros((3, 3)))


# ----------------------------------------------------------------------
# inhibition maps
# ----------------------------------------------------------------------

def test_inhibition_identity_is_zero():
    x = Rng(115).normal(0, 1, (1, 2, 5, 5))
    d = inhibition_map(IdentityOp(), x, (2, 2))
    assert np.abs(d).max() == 0.0


def test_inhibition_nonnegative_conv_cannot_suppress():
    rng = Rng(116)
    w = rng.uniform(0.1, 1.0, (2, 3, 3))
    op = StaticDepthwise(w)
    x = rng.uniform(0.0, 1.0, (1, 2, 6, 6))
    d = inhibition_map(op, x, (3, 3))
    # positive kernel, positive input, positive bump: responses only grow
    assert np.abs(d).max() == 0.0


def test_inhibition_attention_renormalization_suppresses():
    rng = Rng(117)
    op = ToySelfAttention(ToySAParams.init(rng, 3, tau=1.0))
    x = rng.normal(0, 1, (1, 3, 4, 4))
    d = inhibition_map(op, x, (1, 1), eps=0.5)
    assert d.sum() > 0.0


def test_inhibition_rejects_zero_input_without_eps():
    with pytest.raises(UndefinedMetricError):
        inhibition_map(IdentityOp(), np.zeros((1, 1, 4, 4)), (1, 1))


# ----------------------------------------------------------------------
# gaussian blur and csc
# ----------------------------------------------------------------------

def test_blur_matches_dense_reference():
    rng = Rng(118)
    x = rng.normal(0, 1, (1, 2, 7, 6))
    for sigma in (0.6, 1.0):
        assert np.abs(gaussian_blur(x, sigma) - gaussian_blur_ref(x, sigma)).max() < 1e-10


def test_blur_preserves_constants():
    x = np.full((1, 1, 6, 6), 2.5)
    assert np.abs(gaussian_blur(x) - 2.5).max() < 1e-12


def test_blur_impulse_peak_value():
    x = np.zeros((1, 1, 9, 9))
    x[0, 0, 4, 4] = 1.0
    y = gaussian_blur(x, 1.0)
    ref = gaussian_blur_ref(x, 1.0)
    assert abs(y[0, 0, 4, 4] - ref[0, 0, 4, 4]) < 1e-12
    assert y.argmax() == 4 * 9 + 4


def test_csc_constant_input_is_zero():
    assert csc(np.full((1, 2, 8, 8), 3.0)) < 1e-12


def test_csc_blur_reduces_the_metric():
    x = Rng(119).normal(0, 1, (1, 2, 12, 12))
    assert csc(gaussian_blur(x)) < csc(x)


def test_csc_impulse_matches_hand_computation():
    x = np.zeros((1, 1, 9, 9))
    x[0, 0, 4, 4] = 1.0
    smooth = gaussian_blur_ref(x, 1.0)
    expect = np.abs(x - smooth).mean() / np.abs(x).mean()
    assert abs(csc(x, 1.0) - expect) < 1e-10


def test_csc_scale_invariance():
    x = Rng(120).normal(0, 1, (1, 2, 8, 8))
    assert abs(csc(x) - csc(4.0 * x)) < 1e-10


def test_csc_rejects_zero_input():
    with pytest.raises(UndefinedMetricError):
        csc(np.zeros((1, 1, 5, 5)))


# ----------------------------------------------------------------------
# eigenvalues
# ----------------------------------------------------------------------

def test_eigs_two_by_two():
    lams = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.abs(lams - np.array([3.0, 1.0])).max() < 1e-12


def test_eigs_diagonal_comes_back_sorted():
    lams = sym_eigenvalues(np.diag([1.0, 5.0, -2.0, 3.0]))
    assert np.array_equal(lams, np.array([5.0, 3.0, 1.0, -2.0]))


def test_eigs_trace_and_determinant():
    rng = Rng(121)
    a = rng.normal(0, 1, (8, 8))
    a = a + a.T
    lams = sym_eigenvalues(a)
    assert abs(lams.sum() - np.trace(a)) / max(1.0, abs(np.trace(a))) < 1e-10
    det = float(np.linalg.det(a))
    assert abs(np.prod(lams) - det) / max(1.0, abs(det)) < 1e-8


def test_eigs_reject_asymmetric_and_nonsquare():
    with pytest.raises(ArgumentError):
        sym_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        sym_eigenvalues(np.ones((2, 3)))


def _random_symmetric(rng, n):
    a = rng.normal(0, 1, (n, n))
    return a + a.T


def _with_spectrum(rng, lams):
    q, _ = np.linalg.qr(rng.normal(0, 1, (len(lams), len(lams))))
    a = (q * np.asarray(lams, dtype=np.float64)) @ q.T
    return (a + a.T) / 2.0


def _degenerate_spectra(rng):
    yield "repeated", _with_spectrum(rng, [3.0] * 5 + [-1.0] * 4 + [0.5] * 3)
    yield "rank-1", _with_spectrum(rng, [7.0] + [0.0] * 10)
    v = rng.normal(0, 1, (9, 1))
    yield "outer product", v @ v.T
    yield "diagonal", np.diag(rng.normal(0, 1, (8,)))
    yield "zero off-diagonal, repeated diagonal", np.diag([2.0, 2.0, -1.0, 2.0, 0.0])
    yield "all zero", np.zeros((6, 6))


def test_eigs_match_the_cyclic_solver():
    rng = Rng(122)
    cases = [(f"n={n} #{i}", _random_symmetric(rng, n))
             for n in (1, 2, 7, 8, 63, 64) for i in range(2)]
    cases += list(_degenerate_spectra(rng))
    for name, a in cases:
        lams = sym_eigenvalues(a)
        ref = sym_eigenvalues_cyclic_ref(a)
        assert lams.shape == ref.shape == (a.shape[0],), name
        assert np.all(np.diff(lams) <= 0.0), name
        err = np.abs(lams - ref).max()
        assert err <= 1e-12 * max(np.abs(ref).max(), np.finfo(np.float64).tiny), (name, err)


def test_eigs_single_element_returns_the_diagonal():
    assert np.array_equal(sym_eigenvalues(np.array([[-2.5]])), np.array([-2.5]))


@pytest.mark.parametrize("n", [7, 63])
def test_eigs_odd_sizes_drop_the_padding(n):
    # a positive definite matrix: a stray eigenvalue of the zero pad row
    # would show as an extra (or a replaced) 0
    rng = Rng(123)
    b = rng.normal(0, 1, (n, n))
    a = b @ b.T + n * np.eye(n)
    lams = sym_eigenvalues(a)
    assert lams.shape == (n,)
    assert lams.min() > 0.0
    assert abs(lams.sum() - np.trace(a)) <= 1e-12 * np.trace(a)


def test_eigs_non_convergence_is_a_numeric_error(monkeypatch):
    failure = np.linalg.LinAlgError("Eigenvalues did not converge")

    def fail(a):
        raise failure

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError) as info:
        sym_eigenvalues(_random_symmetric(Rng(124), 16))
    assert info.value.__cause__ is failure


# ----------------------------------------------------------------------
# cer
# ----------------------------------------------------------------------

def _hadamard4_columns():
    h = np.array([[1, 1, 1, 1],
                  [1, -1, 1, -1],
                  [1, 1, -1, -1],
                  [1, -1, -1, 1]], dtype=np.float64)
    return h[:, 1:]  # three mean-zero, mutually orthogonal columns


def test_cer_identical_channels():
    base = Rng(122).normal(0, 1, (1, 1, 4, 4))
    x = np.broadcast_to(base, (1, 5, 4, 4)).copy()
    assert abs(cer(x) - 1.0 / 5.0) < 1e-12


def test_cer_isotropic_channels():
    cols = _hadamard4_columns()  # (4 samples, 3 channels), cov = (4/3) I
    x = cols.T.reshape(1, 3, 2, 2)
    assert abs(cer(x) - 1.0) < 1e-12


def test_cer_known_spectrum():
    cols = _hadamard4_columns()
    scale = np.sqrt(np.array([2.0, 1.0, 1.0]) * 3.0) / 2.0
    x = (cols * scale).T.reshape(1, 3, 2, 2)  # sample cov = diag(2, 1, 1)
    assert abs(cer(x) - 0.9428090415820634) < 1e-10


def test_cer_permutation_and_scale_invariance():
    rng = Rng(123)
    x = rng.normal(0, 1, (2, 4, 3, 3))
    base = cer(x)
    perm = Rng(124).permutation(4)
    assert abs(cer(x[:, perm]) - base) < 1e-10
    assert abs(cer(2.5 * x) - base) < 1e-10


def test_cer_rejects_degenerate_inputs():
    with pytest.raises(UndefinedMetricError):
        cer(np.zeros((1, 3, 4, 4)))
    with pytest.raises(UndefinedMetricError):
        cer(np.ones((1, 3, 1, 1)))  # single sample


# ----------------------------------------------------------------------
# modulation sharpens the output spectrum
# ----------------------------------------------------------------------

def test_full_modulation_raises_csc_on_smooth_inputs():
    """With modulation pinned fully on, the operator's kernels are
    zero-mean difference stencils, which push output energy away from the
    smooth component. Compare against the same weights with modulation
    off over a batch of band-limited inputs."""
    wins = 0
    trials = 20
    for seed in range(trials):
        rng = Rng(200 + seed)
        p = ATConvParams.init(rng, 4, 3)
        x = gaussian_blur(rng.normal(0, 1, (1, 4, 12, 12)), 1.5)
        y_on = atconv_forward(x, p, ATConvConfig(lambda_override=1.0))
        y_off = atconv_forward(x, p, ATConvConfig(lambda_override=0.0))
        if csc(y_on) > csc(y_off):
            wins += 1
    assert wins >= 18, f"modulation raised csc in only {wins}/{trials} trials"


# ----------------------------------------------------------------------
# combined report
# ----------------------------------------------------------------------

def test_analyze_operator_report_shape():
    rng = Rng(125)
    op = ATConv(ATConvParams.init(rng, 3, 3))
    x = rng.normal(0, 1, (1, 3, 8, 8))
    report = analyze_operator(op, x, r0=2.0)
    assert report["anchor"] == [4, 4]
    assert 0.0 <= report["far"] <= 1.0
    assert 0.0 < report["cer"] <= 1.0
    assert report["metadata"]["r0"] == 2.0
    maps = report.pop("maps")
    assert maps["influence"].shape == (8, 8)
    json.dumps(report)  # everything left is plain JSON


def test_analyze_operator_identity_ground_truth():
    x = Rng(126).normal(0, 1, (1, 2, 6, 6))
    report = analyze_operator(IdentityOp(), x, anchor=(2, 2), r0=1.0)
    assert report["far"] == 0.0
    assert report["routing_centroid"] == [2.0, 2.0]
    assert report["inhibition_total"] == 0.0


@pytest.mark.parametrize("name", ("identity", "static_dwconv", "static_conv", "toy_sa",
                                  "atconv"))
def test_analyze_operator_runs_two_forwards(name):
    # one on x, whose cache feeds the rows and whose output csc, cer and the
    # inhibition base, and one on the bumped input
    op = _build_analyze_operator(build_parser().parse_args(["analyze", "--operator", name]))
    inputs = []
    forward_cached = op.forward_cached

    def recording(x):
        inputs.append(x.copy())
        return forward_cached(x)

    op.forward_cached = recording
    x = Rng(1501).normal(0, 1, (1, 8, 9, 10))
    analyze_operator(op, x, anchor=(4, 6))
    assert len(inputs) == 2
    assert np.array_equal(inputs[0], x)
    moved = inputs[1] != x
    assert moved.sum() == 8 and moved[0, :, 4, 6].all()

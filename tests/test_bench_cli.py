"""Benchmark harness, ablation grid, and the command-line surface."""

import json
import math

import numpy as np
import pytest

from atconv import __version__
from atconv import bench as atconv_bench
from atconv.bench import (
    ABLATION_CSV_HEADER,
    ABLATION_STAGES,
    BenchSettings,
    CSV_HEADER,
    OPERATORS,
    ablation_to_csv,
    fit_loglog_slope,
    latency_slopes,
    model_peak_bytes,
    rows_to_csv,
    run_ablation,
    run_bench,
)
from atconv.cli import block_param_count, gradcheck_report, main, preset_param_count
from atconv.errors import ArgumentError
from atconv.rng import Rng


# ----------------------------------------------------------------------
# bench settings and rows
# ----------------------------------------------------------------------

def test_csv_headers_are_pinned():
    assert CSV_HEADER == ("operator,H,lat_med_ms,lat_p10_ms,lat_p90_ms,"
                          "peak_bytes_measured,peak_bytes_model")
    assert ABLATION_CSV_HEADER == ("config,param_count,forward_ms,"
                                   "gradcheck_pass,probe_diverged")
    assert OPERATORS == ("atconv", "toy_sa", "static_dwconv", "static_conv")
    assert ABLATION_STAGES == ("static_depthwise", "+generator", "+out_proj",
                               "+value_proj", "mod=softmax",
                               "mod=central_diff", "mod=dkm")


def test_settings_validation():
    with pytest.raises(ArgumentError):
        BenchSettings(operators=("atconv", "conv3x3")).validate()
    with pytest.raises(ArgumentError):
        BenchSettings(dtype="f16").validate()
    with pytest.raises(ArgumentError):
        BenchSettings(reps=2).validate()
    with pytest.raises(ArgumentError):
        BenchSettings(warmup=-1).validate()
    with pytest.raises(ArgumentError):
        BenchSettings(resolutions=(32, 16)).validate()
    with pytest.raises(ArgumentError):
        BenchSettings(resolutions=(2, 16), kernel=3).validate()
    BenchSettings().validate()


def test_dry_run_csv_is_reproducible():
    settings = BenchSettings(resolutions=(8, 16), batch=2, channels=8,
                             reps=3, warmup=0, dry_run=True)
    a = rows_to_csv(run_bench(settings))
    b = rows_to_csv(run_bench(settings))
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(OPERATORS) * 2
    first = lines[1].split(",")
    assert first[0] == "atconv"
    assert first[2] == "0.000000"


def test_bench_interleaves_resolutions_within_each_rep(monkeypatch):
    seen = []
    make = atconv_bench.make_operator

    class Recording:
        def __init__(self, op):
            self.op = op

        def forward(self, x):
            seen.append(x.copy())
            return self.op.forward(x)

    monkeypatch.setattr(atconv_bench, "make_operator",
                        lambda *args: Recording(make(*args)))
    settings = BenchSettings(operators=("static_dwconv",), resolutions=(4, 6),
                             batch=1, channels=2, reps=3, warmup=1)
    rows = run_bench(settings)
    # one warm-up per resolution, three interleaved reps, one peak pass each
    assert [x.shape[2] for x in seen] == [4, 6] * 5
    assert [r["H"] for r in rows] == [4, 6]
    assert not any(r["failed"] for r in rows)
    # the rng still draws the weights, then one input per resolution in order
    rng = Rng(0)
    make("static_dwconv", 2, 3, rng, np.float32)
    expect = {h: rng.normal(0.0, 1.0, (1, 2, h, h), np.float32) for h in (4, 6)}
    assert all(np.array_equal(x, expect[x.shape[2]]) for x in seen)


def test_live_rows_have_ordered_percentiles():
    settings = BenchSettings(operators=("static_dwconv",), resolutions=(8,),
                             batch=2, channels=8, reps=5, warmup=1)
    rows = run_bench(settings)
    assert len(rows) == 1
    r = rows[0]
    assert 0.0 < r["lat_p10_ms"] <= r["lat_med_ms"] <= r["lat_p90_ms"]
    assert r["peak_bytes_measured"] > 0
    assert not r["failed"]


def test_model_peak_bytes_formulas():
    # f32, B=8, C=64, H=W=32 -> N=1024
    b, c, n, k, e = 8, 64, 1024, 3, 4
    assert model_peak_bytes("toy_sa", 8, 64, 32, 32, k, e) == e * (3 * b * n * c + b * n * n)
    assert model_peak_bytes("atconv", 8, 64, 32, 32, k, e) == e * (b * n * c + b * c * k * k)
    assert model_peak_bytes("static_dwconv", 8, 64, 32, 32, k, e) == e * (b * n * c + c * k * k)
    # plus the column buffer, the padded planes and the GEMM output at row width W+2p
    wp = 32 + 2
    assert model_peak_bytes("static_conv", 8, 64, 32, 32, k, e) == e * (
        b * n * c + c * c * k * k + c * k * k * 32 * wp + c * (32 + 3) * wp + c * 32 * wp)
    # k = 1 allocates the same buffers, at row width W
    assert model_peak_bytes("static_conv", 8, 64, 32, 32, 1, e) == e * (
        b * n * c + c * c + c * 32 * 32 + c * (32 + 1) * 32 + c * 32 * 32)
    with pytest.raises(ArgumentError):
        model_peak_bytes("conv3x3", 8, 64, 32, 32, k, e)


def test_fit_loglog_slope_recovers_exponents():
    res = [8, 16, 32, 64]
    lin = [3.0 * r * r for r in res]          # latency ~ N
    quad = [0.5 * (r * r) ** 2 for r in res]  # latency ~ N^2
    assert abs(fit_loglog_slope(res, lin) - 1.0) < 1e-12
    assert abs(fit_loglog_slope(res, quad) - 2.0) < 1e-12
    with pytest.raises(ArgumentError):
        fit_loglog_slope([8, 16], [1.0])
    with pytest.raises(ArgumentError):
        fit_loglog_slope([8, 16], [1.0, 0.0])


def test_latency_slopes_groups_by_operator():
    rows = [
        {"operator": "a", "H": 8, "lat_med_ms": 64.0},
        {"operator": "a", "H": 16, "lat_med_ms": 256.0},
        {"operator": "b", "H": 16, "lat_med_ms": 65536.0},
        {"operator": "b", "H": 8, "lat_med_ms": 4096.0},
    ]
    slopes = latency_slopes(rows)
    assert abs(slopes["a"] - 1.0) < 1e-12
    assert abs(slopes["b"] - 2.0) < 1e-12


# ----------------------------------------------------------------------
# ablation grid
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def ablation_rows():
    return run_ablation(channels=64, kernel=3, seed=0, batch=2,
                        resolution=8, reps=3, dry_run=True)


def test_ablation_stage_order_and_param_counts(ablation_rows):
    assert [r["config"] for r in ablation_rows] == list(ABLATION_STAGES)
    counts = [r["param_count"] for r in ablation_rows]
    assert counts == [576, 4241, 8401, 12561, 12561, 12561, 12625]
    # the static baseline is the smallest; capacity then grows switch by
    # switch; the modulation axis only adds the dkm gate
    assert counts[0] == min(counts)
    assert counts[0] < counts[1] < counts[2] < counts[3]
    assert counts[3] == counts[4] == counts[5]
    assert counts[6] == counts[3] + 64


def test_ablation_gradchecks_pass(ablation_rows):
    for r in ablation_rows:
        assert r["gradcheck_pass"] is True, r["config"]


def test_ablation_csv_shape(ablation_rows):
    csv = ablation_to_csv(ablation_rows)
    lines = csv.strip().split("\n")
    assert lines[0] == ABLATION_CSV_HEADER
    assert len(lines) == 1 + len(ABLATION_STAGES)
    assert lines[1].startswith("static_depthwise,576,")


def test_ablation_softmax_probe_records_verdict():
    rows = run_ablation(channels=8, kernel=3, seed=0, batch=1,
                        resolution=8, reps=3, dry_run=False)
    by_name = {r["config"]: r for r in rows}
    assert by_name["mod=softmax"]["probe_diverged"] in ("true", "false")
    for name, r in by_name.items():
        if name != "mod=softmax":
            assert r["probe_diverged"] == ""
        assert r["forward_ms"] > 0.0


# ----------------------------------------------------------------------
# gradcheck report
# ----------------------------------------------------------------------

def test_gradcheck_report_coverage():
    rep = gradcheck_report(seed=7)
    assert rep["pass"] is True
    assert rep["max_rel_err"] < 1e-4
    expected = {"conv1x1", "adaptive_avg_pool", "linear", "gelu", "sigmoid",
                "softmax", "layer_norm", "dkm", "central_diff",
                "dyn_depthwise", "context_to_kernel", "atconv[none]",
                "atconv[softmax]", "atconv[central_diff]", "atconv[dkm]",
                "toy_self_attention", "glu"}
    assert set(rep["checks"]) == expected
    assert all(math.isfinite(v) for v in rep["checks"].values())


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_cli_complexity_default_shape(capsys):
    assert main(["complexity"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["shape"] == {"batch": 32, "channels": 384, "height": 28,
                            "width": 28, "kernel": 3, "elt_bytes": 2,
                            "tokens": 784}
    assert rep["memory"]["sa_bytes"] == 97140736
    assert rep["memory"]["atconv_bytes"] == 19488768
    assert rep["memory"]["sa_mib"] == 92.640625
    assert rep["memory"]["atconv_mib"] == 18.5859375
    assert "memory_note" in rep["metadata"]


def test_cli_complexity_dtype_scales_bytes(capsys):
    main(["complexity", "--dtype", "fp32"])
    rep32 = json.loads(capsys.readouterr().out)
    assert rep32["memory"]["sa_bytes"] == 2 * 97140736
    assert rep32["shape"]["elt_bytes"] == 4


def test_cli_gradcheck_exit_code(tmp_path):
    out = tmp_path / "report.json"
    assert main(["gradcheck", "--seed", "7", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert rep["seed"] == 7


def test_cli_bench_dry_run(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--dry-run", "--resolutions", "8,16",
                 "--batch", "2", "--channels", "8", "--reps", "3",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4 * 2


def test_cli_bench_rejects_bad_settings(capsys):
    assert main(["bench", "--reps", "2", "--dry-run"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_ablate_dry_run(tmp_path):
    out = tmp_path / "ablation.csv"
    assert main(["ablate", "--dry-run", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ABLATION_CSV_HEADER
    assert len(lines) == 8
    assert lines[1].split(",")[:2] == ["static_depthwise", "576"]


def test_cli_analyze_identity_with_dumps(tmp_path, capsys):
    inf_csv = tmp_path / "influence.csv"
    inh_csv = tmp_path / "inhibition.csv"
    code = main(["analyze", "--operator", "identity", "--channels", "4",
                 "--height", "8", "--width", "8",
                 "--dump-influence", str(inf_csv),
                 "--dump-inhibition", str(inh_csv)])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["operator"] == "identity"
    assert rep["anchor"] == [4, 4]
    assert rep["far"] == 0.0
    assert rep["inhibition_total"] == 0.0
    assert "maps" not in rep
    lines = inf_csv.read_text().strip().split("\n")
    assert lines[0] == "h,w,value"
    assert len(lines) == 1 + 8 * 8
    h, w, value = lines[1].split(",")
    assert (h, w) == ("0", "0")
    float(value)
    assert inh_csv.read_text().startswith("h,w,value\n")


def test_cli_analyze_atconv_json(capsys):
    code = main(["analyze", "--operator", "atconv", "--channels", "4",
                 "--height", "12", "--width", "12", "--maps"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["far"] > 0.0
    assert len(rep["maps"]["influence"]) == 12
    assert rep["csc"] >= 0.0
    assert 0.0 < rep["cer"] <= 1.0


def test_cli_train_preset_echo(capsys):
    assert main(["train", "--preset", "t1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["param_count"] == 16224468
    assert rep["blocks"] == [2, 3, 12, 3]
    assert rep["channels"] == [48, 96, 224, 384]


def test_preset_param_count_matches_block_formula():
    total = 0
    for d, c in zip((2, 3, 12, 3), (48, 96, 224, 384)):
        total += d * block_param_count(c, 3)
    assert preset_param_count("t1") == total == 16224468


def test_cli_train_synthetic_smoke(tmp_path, capsys):
    metrics = tmp_path / "metrics.jsonl"
    code = main(["train", "--synthetic", "--n-train", "40", "--n-test", "20",
                 "--epochs", "1", "--channels", "8", "--blocks", "1",
                 "--batch-size", "16", "--seed", "3",
                 "--metrics", str(metrics)])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["epochs_run"] == 1
    assert rep["param_count"] > 0
    assert rep["final"]["epoch"] == 0
    assert len(metrics.read_text().strip().split("\n")) == 1


def test_cli_train_requires_a_data_source(capsys):
    assert main(["train", "--epochs", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_analyze_loads_either_checkpoint_layout(tmp_path, capsys):
    from atconv.atck import save_atck
    from atconv.op import ATConv, ATConvParams
    from atconv.rng import Rng

    op = ATConv(ATConvParams.init(Rng(60), 6, 3))
    bare = tmp_path / "op.atck"
    save_atck(str(bare), op.params.named())
    assert main(["analyze", "--operator", "atconv", "--load", str(bare),
                 "--height", "10", "--width", "10"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["shape"] == [1, 6, 10, 10]  # width read from the file

    nested = tmp_path / "model.atck"
    save_atck(str(nested), {f"blocks.1.mixer.{k}": v
                            for k, v in op.named_parameters().items()})
    assert main(["analyze", "--operator", "atconv", "--load", str(nested),
                 "--block", "1", "--height", "10", "--width", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["shape"] == [1, 6, 10, 10]

    assert main(["analyze", "--operator", "atconv", "--load", str(nested),
                 "--block", "0"]) == 1
    assert "blocks.0.mixer" in capsys.readouterr().err

"""Self-tests of the benchmark itself (not of atconv).

    python3 -m pytest -q perfbench

They run every workload for a few units each, so they take about two minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import envinfo
import run  # pins the BLAS threads before numpy loads
import spans
import units

sys.path.insert(0, str(run.ROOT / "src"))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ONE_EACH = dict.fromkeys(run.MINIMUMS, 1)


@pytest.fixture(autouse=True)
def short_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MINIMUMS", ONE_EACH)
    monkeypatch.setattr(run, "OVERHEAD_PAIRS", {"train": 1, "op": 2})
    monkeypatch.setattr(run, "OUT", tmp_path)


def _printed_result(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(run.SHARES) == set(run.WORKLOADS) == set(run.PEAK_UNIT)


def test_environment_runs_blas_on_one_thread():
    env = envinfo.stamp(run.ROOT)
    assert env["valid"] and env["blas_threads"] in (1, None)
    assert set(env["threads"]) == {"ATCONV_THREADS", *envinfo.THREAD_VARS}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(capsys, trace, key):
    result = _printed_result(capsys, "operator_h32", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_tracer_patches_every_binding_and_restores_them():
    mods = units.import_package()
    originals = {(m.__name__, a): v for m in spans.package_modules()
                 for a, v in vars(m).items() if callable(v)}
    tracer = spans.Tracer(mods.tensor.flop_counter)
    tracer.install()
    try:
        wrapped = set(spans.find_wrapped())
        # one function, wrapped under each module that imported it
        for name in ("atconv.micro.gelu_forward", "atconv.op.gelu_forward",
                     "atconv.primitives.gelu_forward", "atconv.primitives.erf",
                     "atconv.primitives.as_tensor4", "atconv.analysis.as_tensor4",
                     "atconv.micro.MicroModel.set_parameter"):
            assert name in wrapped
    finally:
        tracer.restore()
    assert spans.find_wrapped() == []
    assert {(m.__name__, a): v for m in spans.package_modules()
            for a, v in vars(m).items() if callable(v)} == originals


@pytest.mark.parametrize("trace", [False, True])
def test_units_see_wrappers_only_in_the_traced_run(monkeypatch, trace):
    seen = []
    op_unit = units.UNITS["op"]

    def probe(ctx):
        seen.append(spans.find_wrapped())
        return op_unit(ctx)

    monkeypatch.setitem(units.UNITS, "op", probe)
    report = run.run_benchmark("operator_h32", 3, 0.0, trace)
    assert report["correct"], report["failures"]
    if trace:
        # warm-up, then untraced/traced overhead pairs, then traced units
        pairs = seen[1:1 + 2 * run.OVERHEAD_PAIRS["op"]]
        assert [bool(w) for w in pairs] == [False, True] * run.OVERHEAD_PAIRS["op"]
        timed = seen[1 + 2 * run.OVERHEAD_PAIRS["op"]:]
    else:
        timed = seen[1:]
    assert timed and all(bool(w) == trace for w in timed)
    assert spans.find_wrapped() == []


def test_a_leftover_wrapper_fails_the_untraced_run(monkeypatch):
    setup = units.setup

    def setup_then_wrap(seed):
        ctx = setup(seed)
        spans.Tracer(ctx.mods.tensor.flop_counter).install()
        return ctx

    monkeypatch.setattr(units, "setup", setup_then_wrap)
    report = run.run_benchmark("analyze_c64", 3, 0.0, False)
    assert not report["correct"]
    assert any("untraced run sees wrapper" in f for f in report["failures"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_its_output_checks(workload):
    report = run.run_benchmark(workload, 7, 0.0, False)
    assert report["correct"], report["failures"]
    assert report["failed"] == 0
    # environment, warm-up, four one-off checks, the wrapper scan, one unit
    # of each kind and the peak pass
    assert report["attempted"] == 1 + 1 + 4 + 1 + len(units.UNITS) + 1


def test_traced_run_accounts_for_every_step_and_shows_the_dkm_mismatch():
    report = run.run_benchmark("train_micro", 7, 0.0, True)
    assert report["correct"], report["failures"]
    m = {k: v[0] for k, v in report["metrics"].items()}
    assert m["train.step.self_sum_ms"] == pytest.approx(m["train.step_ms.p50"], abs=1e-3)
    assert m["flops.dkm.ratio"] == 2.0
    assert m["flops.conv.ratio"] == 1.0 and m["flops.projections.ratio"] == 1.0
    assert list(Path(run.OUT).glob("spans-train_micro-seed7.json.gz"))

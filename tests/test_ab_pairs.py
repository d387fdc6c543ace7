"""``tools/ab_pairs.py``: its summary reproduces a committed BENCH file's,
and its pairs alternate which side runs first."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_summary_reproduces_bench_30_exactly():
    bench = json.loads((ROOT / "BENCH_30.json").read_text())
    got = ab_pairs.summarize_all(bench, END_TO_END)
    assert sum(len(s) - 1 for s in got.values()) == 33  # metrics, not "correct"
    assert got == bench["summary"]
    assert json.dumps(got) == json.dumps(bench["summary"])  # key order too


def test_summary_counts_whole_pairs_only():
    """A stopped run leaves a pair with one side: the summary skips it, and
    a workload with under two whole pairs gets none."""
    bench = json.loads((ROOT / "BENCH_30.json").read_text())
    first, second, *_ = bench["workloads"]
    runs = bench["workloads"][first]
    runs.append({"seed": -1, "first": "parent", "parent": runs[0]["parent"]})
    bench["workloads"][second] = bench["workloads"][second][:1] + [{"seed": -1, "first": "change"}]
    got = ab_pairs.summarize_all(bench, END_TO_END)
    assert second not in got
    assert got[first] == bench["summary"][first]


def test_pairs_alternate_the_first_side_with_consecutive_seeds():
    calls, after = [], []

    def runner(directory, workload, seed):
        calls.append((directory, seed))
        return {"correct": True, "metrics": {}}

    out = ab_pairs.run_pairs({"parent": "P", "change": "C"}, "train_micro", 3, 500, [],
                             done=lambda: after.append(len(calls)), runner=runner)
    assert calls == [("P", 500), ("C", 500), ("C", 501), ("P", 501), ("P", 502), ("C", 502)]
    assert [p["first"] for p in out] == ["parent", "change", "parent"]
    assert after == [1, 2, 3, 4, 5, 6]

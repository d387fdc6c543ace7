"""Run perfbench on a parent and a change in alternating pairs and write a
BENCH summary.

Run from the repository root:

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs 10 --out BENCH_n.json

PARENT and CHANGE are each a commit or a directory holding a checkout. A
commit is exported with ``git archive`` into a fresh directory, so neither
side runs from this working tree. Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

once in each side's directory, the parent first in even pairs and the
change first in odd ones, with seed S = first seed + pair index. A run's
entry is the JSON object on the last line of its standard output. The file
is rewritten after every run, so a stopped session keeps the pairs it has.
``--workload`` may be given more than once; each workload gets its own
pairs and its own seeds.

The summary gives, for every end-to-end metric in ``BENCHMARK.json``,
each side's median and inclusive quartiles
(``statistics.quantiles(n=4, method='inclusive')``), the pairs the change
wins (ties count for neither side), the ratio of the medians (change over
parent), whether that ratio is within the metric's bound in its worse
direction, and the spread of the parent's runs (q3 - q1); and whether
every run of each side passed its output checks. It counts whole pairs
only, those with both sides run, and leaves out a workload with fewer
than two.

The script only reads perfbench's output; it changes nothing under
``perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SECONDS = 30  # every run's length, the same on both sides and in every BENCH file


def side_summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metric_summary(pairs: list, metric: dict) -> dict:
    """One end-to-end metric (a ``BENCHMARK.json`` entry) over the pairs."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(values["parent"], values["change"]))
    out = {side: side_summary(values[side]) for side in SIDES}
    ratio = out["change"]["median"] / out["parent"]["median"]
    out["change_wins"] = f"{wins}/{len(pairs)}"
    out["ratio_of_medians"] = ratio
    out["within_bound"] = ratio <= 1.0 + bound if lower else ratio >= 1.0 - bound
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    return out


def summarize(pairs: list, end_to_end: list) -> dict:
    """The summary of one workload's whole pairs, in ``BENCHMARK.json``
    order; empty under two whole pairs."""
    pairs = [p for p in pairs if all(side in p for side in SIDES)]
    if len(pairs) < 2:
        return {}
    out = {m["name"]: metric_summary(pairs, m) for m in end_to_end}
    out["correct"] = {side: all(p[side]["correct"] for p in pairs) for side in SIDES}
    return out


def summarize_all(bench: dict, end_to_end: list) -> dict:
    """The summary of every workload that has two whole pairs."""
    out = {w: summarize(pairs, end_to_end) for w, pairs in bench["workloads"].items()}
    return {w: s for w, s in out.items() if s}


def export(side: str, workdir: Path, label: str) -> tuple:
    """(directory, commit or None) for a side given as a directory or a commit."""
    if Path(side).is_dir():
        return Path(side).resolve(), None
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{side}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    target = workdir / f"{label}-{commit[:12]}"
    target.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target, commit


def run_once(directory: Path, workload: str, seed: int) -> dict:
    """One perfbench run; returns the JSON object on its last output line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=directory, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(dirs: dict, workload: str, pairs: int, first_seed: int, out: list, done,
              runner=run_once) -> list:
    """Append ``pairs`` alternating pairs to ``out``, calling ``done`` after
    every run; returns ``out``."""
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": first_seed + i, "first": order[0]}
        out.append(pair)
        for side in order:
            print(f"ab_pairs: {workload} pair {i + 1}/{pairs} seed {pair['seed']} {side}",
                  file=sys.stderr, flush=True)
            pair[side] = runner(dirs[side], workload, pair["seed"])
            done()
    return out


def write(path: Path, bench: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(bench, indent=1) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].replace("\n", " "))
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int,
                   help="seed of the first pair (default: drawn from the clock)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    first_seed = args.first_seed if args.first_seed is not None else int(time.time()) % 100000

    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        dirs, commits = {}, {}
        for side, given in zip(SIDES, (args.parent, args.change)):
            dirs[side], commits[side] = export(given, Path(tmp), side)
        bench = {
            "description": (
                "perfbench reports, parent and change, run alternately with the first "
                "side swapped each pair: python3 perfbench/run.py --workload W --seed N "
                f"--seconds {SECONDS} --trace 0, by tools/ab_pairs.py. Each side's "
                "entry is the JSON object on the last line of its run's output. Quartiles: "
                "statistics.quantiles(n=4, method='inclusive'); within_bound compares the "
                "ratio of medians with the metric's BENCHMARK.json bound in its worse "
                "direction."),
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "workloads": {},
            "summary": {},
        }

        def done():
            bench["summary"] = summarize_all(bench, end_to_end)
            write(args.out, bench)

        for n, workload in enumerate(args.workload):
            runs = bench["workloads"][workload] = []
            run_pairs(dirs, workload, args.pairs, first_seed + n * args.pairs, runs, done)
    return 0


if __name__ == "__main__":
    sys.exit(main())

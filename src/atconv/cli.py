"""Command-line entry point.

Subcommands: gradcheck, bench, analyze, complexity, train, ablate, version.
JSON results go to stdout unless --out is given; bench and ablate emit CSV.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bench import (BenchSettings, ablation_to_csv, make_operator, run_ablation,
                    run_bench, rows_to_csv, stage_param_count)
from .complexity import ShapeSpec, report
from .data import IdxDataset, synth_dataset
from .errors import ArgumentError
from .gradcheck import DEFAULT_TOL, gradcheck_report
from .micro import AdamHyper, MicroConfig
from .op import ATConv, ATConvConfig, ATConvParams, KERNEL_MODS
from .rng import Rng
from .train import TrainSettings, train
from . import analysis

# Tab-echo presets: four stage-pyramid budgets, counted with this
# library's block parameterization (the trainer itself runs single-stage).
_PRESETS = {
    "t1": ((2, 3, 12, 3), (48, 96, 224, 384)),
    "t2": ((3, 3, 16, 3), (64, 128, 288, 512)),
    "t3": ((4, 4, 26, 4), (72, 144, 320, 576)),
    "t4": ((5, 5, 28, 5), (96, 192, 384, 768)),
}


def block_param_count(channels: int, kernel: int = 3, expansion: int = 4) -> int:
    """Parameters of one residual block: two norms, the mixer, the GLU."""
    c, e = channels, expansion * channels
    mixer = stage_param_count(ATConvConfig(), c, kernel)
    glu = 3 * e * c + 2 * e + c
    return 2 * c + mixer + 2 * c + glu


def preset_param_count(name: str, kernel: int = 3) -> int:
    depths, widths = _PRESETS[name]
    return sum(d * block_param_count(c, kernel) for d, c in zip(depths, widths))


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out_path, "w") as f:
            f.write(text)


def _numpy_default(obj):
    """Arrays and numpy scalars as plain Python values; np.float64 is a
    float and never gets here."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _print_json(obj, out_path) -> None:
    _emit(json.dumps(obj, indent=2, default=_numpy_default), out_path)


# ======================================================================
# gradcheck
# ======================================================================

def _cmd_gradcheck(args) -> int:
    rep = gradcheck_report(args.seed, args.tol)
    _print_json(rep, args.out)
    return 0 if rep["pass"] else 1


# ======================================================================
# bench / ablate
# ======================================================================

def _cmd_bench(args) -> int:
    settings = BenchSettings(
        operators=tuple(s.strip() for s in args.operators.split(",") if s.strip()),
        batch=args.batch, channels=args.channels, kernel=args.kernel,
        resolutions=tuple(int(s) for s in args.resolutions.split(",") if s.strip()),
        warmup=args.warmup, reps=args.reps, dtype=args.dtype,
        seed=args.seed, dry_run=args.dry_run)
    _emit(rows_to_csv(run_bench(settings)), args.out)
    return 0


def _cmd_ablate(args) -> int:
    rows = run_ablation(channels=args.channels, kernel=args.kernel,
                        seed=args.seed, batch=args.batch,
                        resolution=args.resolution, reps=args.reps,
                        dry_run=args.dry_run)
    _emit(ablation_to_csv(rows), args.out)
    return 0


# ======================================================================
# analyze / complexity
# ======================================================================

def _load_operator_params(path, block: int) -> ATConvParams:
    """Accept either a bare operator checkpoint or a trainer checkpoint,
    pulling the requested block's mixer out of the latter."""
    from .atck import load_atck

    entries = load_atck(path)
    if "w_gen" not in entries:
        prefix = f"blocks.{block}.mixer."
        entries = {name[len(prefix):]: value for name, value in entries.items()
                   if name.startswith(prefix)}
        if not entries:
            raise ArgumentError(
                f"{path} holds neither operator parameters nor a "
                f"'{prefix}*' block")
    return ATConvParams.from_named(entries)


def _build_analyze_operator(args):
    rng = Rng(args.seed)
    if args.operator == "atconv":
        if args.load is not None:
            return ATConv(_load_operator_params(args.load, args.block),
                          ATConvConfig(kernel_mod=args.kernel_mod))
        return ATConv(ATConvParams.init(rng, args.channels, args.kernel),
                      ATConvConfig(kernel_mod=args.kernel_mod))
    if args.load is not None:
        raise ArgumentError("--load only applies to the atconv operator")
    return make_operator(args.operator, args.channels, args.kernel, rng, np.float64)


def _cmd_analyze(args) -> int:
    op = _build_analyze_operator(args)
    channels = args.channels
    if isinstance(op, ATConv):
        channels = op.params.channels  # a loaded checkpoint sets the width
    rng = Rng(args.seed + 1)
    x = rng.normal(0.0, 1.0, (1, channels, args.height, args.width))
    anchor = None
    if args.anchor is not None:
        parts = args.anchor.split(",")
        if len(parts) != 2:
            raise ArgumentError(f"anchor must be 'row,col', got {args.anchor!r}")
        anchor = (int(parts[0]), int(parts[1]))
    result = analysis.analyze_operator(op, x, anchor=anchor, r0=args.r0,
                                       sigma=args.sigma, quantile=args.quantile)
    maps = result.get("maps", {})
    for flag, key in (("dump_influence", "influence"), ("dump_inhibition", "inhibition")):
        path = getattr(args, flag)
        if path is not None:
            _emit(_map_to_csv(maps[key]), path)
    if not args.maps:
        result.pop("maps", None)
    result["operator"] = args.operator
    result["shape"] = list(x.shape)
    _print_json(result, args.out)
    return 0


def _map_to_csv(m) -> str:
    lines = ["h,w,value"]
    for h in range(m.shape[0]):
        for w in range(m.shape[1]):
            lines.append(f"{h},{w},{float(m[h, w])!r}")
    return "\n".join(lines) + "\n"


_ELT_BYTES = {"fp16": 2, "fp32": 4, "fp64": 8}


def _cmd_complexity(args) -> int:
    spec = ShapeSpec(batch=args.batch, channels=args.channels,
                     height=args.height, width=args.width,
                     kernel=args.kernel, elt_bytes=_ELT_BYTES[args.dtype])
    _print_json(report(spec), args.out)
    return 0


# ======================================================================
# train
# ======================================================================

def _cmd_train(args) -> int:
    if args.preset is not None:
        depths, widths = _PRESETS[args.preset]
        _print_json({
            "preset": args.preset,
            "blocks": list(depths),
            "channels": list(widths),
            "kernel": 3,
            "param_count": preset_param_count(args.preset),
            "note": "parameter count under this library's block layout; "
                    "the trainer itself runs a single-stage model",
        }, args.out)
        return 0

    if args.synthetic:
        train_set, test_set = synth_dataset(args.data_seed, args.n_train, args.n_test)
    else:
        paths = (args.train_images, args.train_labels,
                 args.test_images, args.test_labels)
        if any(p is None for p in paths):
            raise ArgumentError(
                "provide --synthetic or all four of --train-images, "
                "--train-labels, --test-images, --test-labels")
        train_set = IdxDataset.from_files(args.train_images, args.train_labels)
        test_set = IdxDataset.from_files(args.test_images, args.test_labels)

    config = MicroConfig(channels=args.channels, blocks=args.blocks,
                         patch=args.patch, kernel=args.kernel)
    settings = TrainSettings(
        epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
        hyper=AdamHyper(lr=args.lr, weight_decay=args.weight_decay),
        dtype=args.dtype, target_test_acc=args.target_acc)
    op_config = ATConvConfig(kernel_mod=args.kernel_mod)
    model, records = train(config, train_set, test_set, settings,
                           metrics_path=args.metrics,
                           checkpoint_path=args.checkpoint,
                           op_config=op_config)
    _print_json({
        "epochs_run": len(records),
        "param_count": model.param_count(),
        "final": records[-1] if records else None,
    }, args.out)
    return 0


def _cmd_version(args) -> int:
    _emit(__version__, args.out)
    return 0


# ======================================================================
# parser
# ======================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atconv",
        description="Attentive convolution: gradient checks, benchmarks, "
                    "analysis metrics, cost model, and a micro trainer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference audit, JSON report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("bench", help="latency/memory scaling benchmark, CSV")
    p.add_argument("--operators", default="atconv,toy_sa,static_dwconv,static_conv")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--resolutions", default="16,24,32,48")
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("analyze", help="influence/inhibition metrics, JSON")
    p.add_argument("--operator", choices=("atconv", "toy_sa", "static_dwconv",
                                          "static_conv", "identity"),
                   default="atconv")
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--height", type=int, default=16)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--kernel-mod", choices=KERNEL_MODS, default="dkm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--load", default=None,
                   help="ATCK checkpoint for atconv (operator file or "
                        "trainer checkpoint)")
    p.add_argument("--block", type=int, default=0,
                   help="which block's mixer to pull from a trainer checkpoint")
    p.add_argument("--anchor", default=None, help="row,col (default center)")
    p.add_argument("--r0", type=float, default=4.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--quantile", type=float, default=0.9)
    p.add_argument("--maps", action="store_true", help="include full maps")
    p.add_argument("--dump-influence", default=None, help="CSV path for the G map")
    p.add_argument("--dump-inhibition", default=None, help="CSV path for the D map")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("complexity", help="analytic FLOP/byte model, JSON")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--channels", type=int, default=384)
    p.add_argument("--height", type=int, default=28)
    p.add_argument("--width", type=int, default=28)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--dtype", choices=tuple(_ELT_BYTES), default="fp16")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("train", help="train the micro classifier")
    p.add_argument("--preset", choices=tuple(_PRESETS),
                   help="echo a reference budget's parameter count and exit")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--train-images")
    p.add_argument("--train-labels")
    p.add_argument("--test-images")
    p.add_argument("--test-labels")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--patch", type=int, default=4)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--kernel-mod", choices=KERNEL_MODS, default="dkm")
    p.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    p.add_argument("--target-acc", type=float, default=None)
    p.add_argument("--metrics", default=None, help="JSONL metrics path")
    p.add_argument("--checkpoint", default=None, help="ATCK checkpoint path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("ablate", help="structure roadmap grid, CSV")
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("version", help="print the package version")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_version)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Check float32 ``erf`` against the float64 path on every float32 input.

Run from the repository root:

    python3 tools/erf32_sweep.py               # every pattern, a few minutes
    python3 tools/erf32_sweep.py --stride 97   # every 97th pattern

It walks the float32 bit patterns from +0 to +inf in order: [0, 4], where
the float32 rational is evaluated, and the clamp region above 4, where it
reads erf(4). Each input's float32 result is compared with the float64
path (Cody's rational) on the same value, widened. The negative half is
covered by the odd-symmetry check: erf(-x) must be -erf(x) bit for bit,
so its errors are the positive half's. The report is one JSON object:

- ``max_ulp`` and ``max_abs``, with the inputs where they occur: ulp is
  one unit in the last place of the float32 binade that holds the exact
  (float64) result, 2^-149 at least;
- ``max_ulp_below_1e-30``: the same over inputs below 1e-30, subnormals
  included;
- ``above_one``: results with |erf| > 1;
- ``odd_mismatches``: inputs whose erf(-x) is not -erf(x) bit for bit;
- ``nan_ok``: NaN maps to NaN.

The exit status is 1 when a bound is broken (8 ulp, 5e-7 absolute, |erf|
<= 1, exact odd symmetry, NaN to NaN), else 0.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.abspath("src"))
os.environ.setdefault("ATCONV_THREADS", "1")

import numpy as np  # noqa: E402

from atconv.primitives import erf  # noqa: E402

MAX_ULP = 8.0
MAX_ABS = 5e-7
CHUNK = 1 << 20
LAST = int(np.array(np.inf, np.float32).view(np.uint32))  # +inf's pattern
TINY = 1e-30


def ulp32(ref):
    """One ulp of the float32 binade holding each exact value |ref|."""
    _, e = np.frexp(np.abs(ref))
    return np.ldexp(1.0, np.maximum(e - 24, -149))


def sweep(stride: int) -> dict:
    worst_ulp = worst_abs = worst_tiny = 0.0
    at_ulp = at_abs = 0.0
    above_one = odd_mismatches = count = 0
    step = CHUNK * stride
    for lo in range(0, LAST + 1, step):
        x = np.arange(lo, min(lo + step, LAST + 1), stride, dtype=np.uint32).view(np.float32)
        got = erf(x)
        odd_mismatches += int(np.count_nonzero(erf(-x).view(np.uint32)
                                               != np.negative(got).view(np.uint32)))
        above_one += int(np.count_nonzero(np.abs(got) > 1.0))
        ref = erf(x.astype(np.float64))
        err = np.abs(got.astype(np.float64) - ref)
        ulps = err / ulp32(ref)
        i = int(np.argmax(ulps))
        if ulps[i] > worst_ulp:
            worst_ulp, at_ulp = float(ulps[i]), float(x[i])
        i = int(np.argmax(err))
        if err[i] > worst_abs:
            worst_abs, at_abs = float(err[i]), float(x[i])
        tiny = x < TINY
        if tiny.any():
            worst_tiny = max(worst_tiny, float(ulps[tiny].max()))
        count += x.size
    nan = erf(np.array([np.nan, -np.nan], np.float32))
    return {"inputs": count, "stride": stride, "max_ulp": worst_ulp, "max_ulp_at": at_ulp,
            "max_abs": worst_abs, "max_abs_at": at_abs, "max_ulp_below_1e-30": worst_tiny,
            "above_one": above_one, "odd_mismatches": odd_mismatches,
            "nan_ok": bool(np.isnan(nan).all())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--stride", type=int, default=1,
                        help="take every STRIDE-th bit pattern (default 1: all of them)")
    args = parser.parse_args()
    if args.stride < 1:
        parser.error("--stride must be at least 1")
    t0 = time.perf_counter()
    report = sweep(args.stride)
    report["seconds"] = round(time.perf_counter() - t0, 1)
    ok = (report["max_ulp"] <= MAX_ULP and report["max_abs"] <= MAX_ABS
          and report["above_one"] == 0 and report["odd_mismatches"] == 0 and report["nan_ok"])
    report["ok"] = ok
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

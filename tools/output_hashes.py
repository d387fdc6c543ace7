"""Print sha256s of the package's deterministic outputs as one JSON object.

Run from the repository root:

    python3 tools/output_hashes.py > hashes.json

Two trees give the same bytes exactly when their objects are equal, so a
refactor meant to be bit for bit is checked by running this on both trees
and comparing the objects. It covers:

- the fixed-seed training checkpoints, f32 and f64, and each trained
  model's logits over one batch of 256 held-out images (``forward``, the
  path ``evaluate`` takes);
- ``atconv gradcheck --seed 0`` stdout and the ``atconv ablate --dry-run``
  CSV;
- ``atconv analyze --maps`` stdout for every operator it offers;
- ``influence_map`` for every operator ``analyze`` offers, f32 and f64,
  at a clipped corner anchor on a 30x17 map, where the pooling cells are
  uneven and the anchor's window is cut (k=3, and k=5 for ATConv too);
- a seeded kernel sweep in f32 and f64 at k in {1, 3, 5}: ``dyn_depthwise``
  y/gv/galpha, ``StaticDepthwise`` y/gx/gw and ``ATConv`` y/gx/grads;
- a seeded ATConv config sweep in f32 and f64 at k=3: y/gx/grads under
  every kernel modulation in ``KERNEL_MODS``, and with a static kernel in
  place of the generator (``use_kernel_generator=False``) under "none",
  whose kernel reaches the depthwise stage as a batch-broadcast view, and
  under "dkm";
- a seeded pooling sweep in f32 and f64 at k in {1, 3, 5} on 7x7, 30x17
  and 32x32 maps: ``adaptive_avg_pool_forward`` y and
  ``adaptive_avg_pool_backward`` gx;
- one training step's gradients at the acceptance config (B=64, C=32,
  2 blocks, 28x28 input), f32 and f64: ``MicroModel.forward_cached``
  then ``MicroModel.backward`` of a seeded cotangent, with a seeded head
  (the initial zero head passes no gradient into the blocks), gx and
  grads; and the same step with the mixer's value projection off
  (``micro.step.<dtype>.no_value_proj``), where the depthwise stage keeps
  norm1's output as its v;
- a seeded GLU sweep, ``glu_forward`` y and ``glu_backward`` gx/grads, in
  f32, f64 and f32 input with an f64 gradient, at the acceptance shape,
  at 256 and 45 samples of it (several chunks, not all of one size), and
  one odd shape;
- a seeded pointwise-conv sweep, ``conv1x1_backward`` gx/gw/gb in f32 and
  f64 at batch sizes of one sample, one gw block and one more sample (two
  blocks), and 205 samples (four near-equal blocks, not all of one
  length); and ``conv1x1_forward`` y with a bias in
  f32 and f64 at the GLU's hidden map (B=64 and 256) and the operator's
  B8 C64 32x32 map;
- ``gelu_forward`` y and CDF over erf's region edges scaled by sqrt(2),
  with the error message for each non-finite input;
- ``erf`` over a seeded sweep in f32 and f64, unscaled and scaled by
  1/sqrt(2), and at the f32 path's edges: ±4 with its neighbours, every
  f32 in the band [3.57, 4] that the final clip holds to 1, and a strided
  set of subnormals, each with both signs;
- the random stream at two seeds: ``Rng.u64``, ``uniform``, ``normal`` in
  f32 and f64, ``integers`` and ``permutation``, called in turn over one
  sequence of draw sizes that splits rounds and blocks, one hash per call
  kind over all its draws.

The package is imported from ``src`` and the CLI runs as a subprocess of
the same interpreter, with ``ATCONV_THREADS=1`` and every BLAS thread
variable set to 1 before numpy loads, whatever the caller's environment.

Many of these bits depend on the BLAS kernels that ran: the same OpenBLAS
picks other kernels under ``OPENBLAS_CORETYPE`` and moves about half the
entries. So the object also holds ``blas.core``, the kernel set numpy's
bundled OpenBLAS reports, and ``blas.version``, that library's version
(both null without one), and ``numpy.version``; two outputs compare only
at the same core and versions.

``tools/hashes/<core>.json`` is this output under
``OPENBLAS_CORETYPE=<core>``, and ``tests/test_bit_contract.py`` checks the
tree against each (SkylakeX and Haswell). A deliberate bit change
regenerates them:

    OPENBLAS_CORETYPE=SkylakeX python3 tools/output_hashes.py > tools/hashes/SkylakeX.json
    OPENBLAS_CORETYPE=Haswell python3 tools/output_hashes.py > tools/hashes/Haswell.json
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.abspath("src"))
# one BLAS thread whatever the caller set, before numpy starts its pool:
# some kernel sets (Haswell) round a GEMM otherwise on two threads
for var in ("ATCONV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from atconv import op as atconv_op  # noqa: E402
from atconv.analysis import influence_map  # noqa: E402
from atconv.baselines import StaticDepthwise  # noqa: E402
from atconv.bench import make_operator  # noqa: E402
from atconv.data import synth_dataset  # noqa: E402
from atconv.errors import NumericError  # noqa: E402
from atconv.micro import (GluParams, MicroConfig, MicroModel, glu_backward,  # noqa: E402
                          glu_forward)
from atconv.primitives import (INV_SQRT2, adaptive_avg_pool_backward,  # noqa: E402
                               adaptive_avg_pool_forward, conv1x1_backward,
                               conv1x1_forward, erf, gelu_forward)
from atconv.rng import Rng  # noqa: E402
from atconv.train import TrainSettings, train  # noqa: E402

ANALYZE_OPERATORS = ("atconv", "static_dwconv", "static_conv", "toy_sa", "identity")
# more planes than one tap-sum block holds, so the blocking is exercised
SWEEP_SHAPE = (4, 32, 32, 32)
EVAL_BATCH = 256  # train.evaluate's batch
# (B, C, H, W) and anchor of the influence sweep: uneven cells, cut window
INFLUENCE_SHAPE = (2, 12, 30, 17)
INFLUENCE_ANCHOR = (29, 1)
# (B, C) and (H, W) of the pooling sweep: an odd square, uneven and even cells
POOL_BC = (3, 8)
POOL_MAPS = ((7, 7), (30, 17), (32, 32))
# the acceptance config's GLU input (B=64, C=32, 7x7), evaluate's batch of
# it and a batch of 45 (several chunks each, not all of one size), and an
# odd shape
GLU_SHAPES = ((64, 32, 7, 7), (3, 24, 11, 13), (256, 32, 7, 7), (45, 32, 7, 7))
# (C_out, C_in, H, W) of the pointwise-conv sweep, and its batch sizes: gw
# sums 2^16 // (40 * 24) = 68 samples per block
CONV1X1_SHAPE = (40, 24, 5, 6)
CONV1X1_BATCHES = (1, 69, 205)
# (B, C_out, H, W) and C_in of the pointwise-conv forward sweep
CONV1X1_FORWARD = (((64, 128, 7, 7), 32), ((256, 128, 7, 7), 32), ((8, 64, 32, 32), 64))
# (x dtype, gy dtype)
GLU_DTYPES = ((np.float32, np.float32), (np.float64, np.float64),
              (np.float32, np.float64))
# elements of the erf sweep: more than one erf block, with a ragged tail
ERF_SWEEP = 70001
# seeds and draw sizes of the stream sweep: within a round, a round's
# remainder, whole rounds, and more than two of ``uniform``'s and
# ``normal``'s blocks, each call starting where the last one stopped
RNG_SEEDS = (0, 2903)
RNG_DRAWS = (1, 255, 3, 512, 1001, 30001)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_sha(a) -> str:
    """sha256 of an array's dtype, shape and bytes."""
    a = np.asarray(a)
    return sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def grads_sha(grads: dict) -> str:
    return sha("".join(f"{k}:{array_sha(v)};" for k, v in sorted(grads.items())).encode())


def toolchain() -> dict:
    """``blas.core``, the name of the kernel set numpy's bundled OpenBLAS
    runs, and ``blas.version``, its version, both asked of the library
    numpy loaded (None when numpy bundles no OpenBLAS); and
    ``numpy.version``."""
    out = {"blas.core": None, "blas.version": None, "numpy.version": np.__version__}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            corename, config = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_config64_
            corename.restype = config.restype = ctypes.c_char_p
            out["blas.core"] = corename().decode()
            # "OpenBLAS <version> <build options> <core> ..."
            out["blas.version"] = config().decode().split()[1]
            break
    return out


def cli_stdout(*argv) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    return subprocess.run([sys.executable, "-m", "atconv.cli", *argv], env=env,
                          check=True, capture_output=True).stdout


def trained_models(out: dict) -> None:
    config = MicroConfig(channels=32, blocks=2, patch=4, kernel=3, expansion=4)
    train_set, test_set = synth_dataset(0, 128, 64)
    eval_images = synth_dataset(1, EVAL_BATCH, 1)[0].images
    with tempfile.TemporaryDirectory() as tmp:
        for dtype in ("f32", "f64"):
            path = os.path.join(tmp, f"{dtype}.atck")
            settings = TrainSettings(epochs=2, batch_size=64, seed=0, dtype=dtype)
            model, _ = train(config, train_set, test_set, settings, checkpoint_path=path)
            with open(path, "rb") as f:
                out[f"checkpoint.{dtype}"] = sha(f.read())
            logits = model.forward(eval_images.astype(model.embed_w.dtype))
            out[f"eval_logits.{dtype}"] = array_sha(logits)


def cli_outputs(out: dict) -> None:
    out["gradcheck.seed0"] = sha(cli_stdout("gradcheck", "--seed", "0"))
    out["ablate.dry_run"] = sha(cli_stdout("ablate", "--dry-run"))
    for name in ANALYZE_OPERATORS:
        out[f"analyze.{name}"] = sha(cli_stdout("analyze", "--operator", name, "--maps"))


def influence_sweep(out: dict) -> None:
    for dtype in (np.float32, np.float64):
        for name in ANALYZE_OPERATORS:
            for k in (3, 5) if name == "atconv" else (3,):
                rng = Rng(4000 + k)
                op = make_operator(name, INFLUENCE_SHAPE[1], k, rng, dtype)
                x = rng.normal(0, 1, INFLUENCE_SHAPE, dtype)
                tag = f"influence.{name}.{np.dtype(dtype).name}.k{k}"
                out[tag] = array_sha(influence_map(op, x, INFLUENCE_ANCHOR))


def kernel_sweep(out: dict) -> None:
    b_, c_, h_, w_ = SWEEP_SHAPE
    for dtype in (np.float32, np.float64):
        for k in (1, 3, 5):
            tag = f"{np.dtype(dtype).name}.k{k}"
            rng = Rng(1000 + k)
            x = rng.normal(0, 1, SWEEP_SHAPE, dtype)
            gy = rng.normal(0, 1, SWEEP_SHAPE, dtype)

            alpha = rng.normal(0, 1, (b_, c_, k, k), dtype)
            y, cache = atconv_op.dyn_depthwise_forward(x, alpha)
            gv, galpha = atconv_op.dyn_depthwise_backward(gy, cache)
            out[f"dyn_depthwise.{tag}.y"] = array_sha(y)
            out[f"dyn_depthwise.{tag}.gv"] = array_sha(gv)
            out[f"dyn_depthwise.{tag}.galpha"] = array_sha(galpha)

            sd = StaticDepthwise.init(rng, c_, k, dtype)
            y, cache = sd.forward_cached(x)
            gx, gw = sd.backward(gy, cache)
            out[f"static_dwconv.{tag}.y"] = array_sha(y)
            out[f"static_dwconv.{tag}.gx"] = array_sha(gx)
            out[f"static_dwconv.{tag}.gw"] = array_sha(gw)

            op = atconv_op.ATConv(atconv_op.ATConvParams.init(rng, c_, k, dtype))
            y, cache = op.forward_cached(x)
            gx, grads = op.backward(gy, cache)
            out[f"atconv.{tag}.y"] = array_sha(y)
            out[f"atconv.{tag}.gx"] = array_sha(gx)
            out[f"atconv.{tag}.grads"] = grads_sha(grads)


def config_sweep(out: dict) -> None:
    k = 3
    c_ = SWEEP_SHAPE[1]
    for dtype in (np.float32, np.float64):
        rng = Rng(3000)
        x = rng.normal(0, 1, SWEEP_SHAPE, dtype)
        gy = rng.normal(0, 1, SWEEP_SHAPE, dtype)
        params = atconv_op.ATConvParams.init(rng, c_, k, dtype)
        static = rng.normal(0, 1, (c_, k * k), dtype)
        configs = {f"mod_{mod}": atconv_op.ATConvConfig(kernel_mod=mod)
                   for mod in atconv_op.KERNEL_MODS}
        for mod in ("none", "dkm"):
            configs[f"static_{mod}"] = atconv_op.ATConvConfig(
                use_kernel_generator=False, kernel_mod=mod, static_kernel=static)
        for name, config in configs.items():
            tag = f"atconv.{name}.{np.dtype(dtype).name}.k{k}"
            op = atconv_op.ATConv(params, config)
            y, cache = op.forward_cached(x)
            gx, grads = op.backward(gy, cache)
            out[f"{tag}.y"] = array_sha(y)
            out[f"{tag}.gx"] = array_sha(gx)
            out[f"{tag}.grads"] = grads_sha(grads)


def pool_sweep(out: dict) -> None:
    for dtype in (np.float32, np.float64):
        for hw in POOL_MAPS:
            for k in (1, 3, 5):
                tag = f"adaptive_avg_pool.{np.dtype(dtype).name}.{hw[0]}x{hw[1]}.k{k}"
                rng = Rng(5000 + 10 * k + hw[0])
                x = rng.normal(0, 1, POOL_BC + hw, dtype)
                y, cache = adaptive_avg_pool_forward(x, k)
                gy = rng.normal(0, 1, y.shape, dtype)
                out[f"{tag}.y"] = array_sha(y)
                out[f"{tag}.gx"] = array_sha(adaptive_avg_pool_backward(gy, cache))


def micro_step(out: dict) -> None:
    config = MicroConfig(channels=32, blocks=2, patch=4, kernel=3, expansion=4)
    for suffix, op_config in (("", None),
                              (".no_value_proj", atconv_op.ATConvConfig(use_value_proj=False))):
        for dtype in (np.float32, np.float64):
            rng = Rng(8000)
            model = MicroModel.init(rng, config, op_config, dtype)
            model.set_parameter("head_w", rng.normal(0, 1, model.head_w.shape, dtype))
            x = rng.normal(0, 1, (64, 1, 28, 28), dtype)
            logits, cache = model.forward_cached(x)
            gx, grads = model.backward(rng.normal(0, 1, logits.shape, dtype), cache)
            tag = f"micro.step.{np.dtype(dtype).name}{suffix}"
            out[f"{tag}.gx"] = array_sha(gx)
            out[f"{tag}.grads"] = grads_sha(grads)


def glu_sweep(out: dict) -> None:
    for shape in GLU_SHAPES:
        for xdt, gdt in GLU_DTYPES:
            tag = "x".join(map(str, shape)) + f".{np.dtype(xdt).name}.{np.dtype(gdt).name}"
            rng = Rng(2000 + sum(shape))
            p = GluParams.init(rng, shape[1], 4, xdt)
            x = rng.normal(0, 1, shape, xdt)
            gy = rng.normal(0, 1, shape, gdt)
            y, cache = glu_forward(x, p)
            gx, grads = glu_backward(gy, cache)
            out[f"glu.{tag}.y"] = array_sha(y)
            out[f"glu.{tag}.gx"] = array_sha(gx)
            out[f"glu.{tag}.grads"] = grads_sha(grads)


def conv1x1_sweep(out: dict) -> None:
    c_out, c_in, h_, w_ = CONV1X1_SHAPE
    for dtype in (np.float32, np.float64):
        for b_ in CONV1X1_BATCHES:
            tag = f"conv1x1.{np.dtype(dtype).name}.B{b_}"
            rng = Rng(7000 + b_)
            x = rng.normal(0, 1, (b_, c_in, h_, w_), dtype)
            w = rng.normal(0, 1, (c_out, c_in), dtype)
            bias = rng.normal(0, 1, (c_out,), dtype)
            _, cache = conv1x1_forward(x, w, bias)
            gx, gw, gb = conv1x1_backward(rng.normal(0, 1, (b_, c_out, h_, w_), dtype), cache)
            out[f"{tag}.gx"] = array_sha(gx)
            out[f"{tag}.gw"] = array_sha(gw)
            out[f"{tag}.gb"] = array_sha(gb)
        for shape, c_in in CONV1X1_FORWARD:
            b_, c_out, h_, w_ = shape
            rng = Rng(7500 + sum(shape))
            x = rng.normal(0, 1, (b_, c_in, h_, w_), dtype)
            w = rng.normal(0, 1, (c_out, c_in), dtype)
            bias = rng.normal(0, 1, (c_out,), dtype)
            tag = f"conv1x1.{np.dtype(dtype).name}." + "x".join(map(str, shape))
            out[f"{tag}.y"] = array_sha(conv1x1_forward(x, w, bias)[0])


def gelu_edges(dtype) -> np.ndarray:
    """erf's region edges (0.46875, 4, 6) times sqrt(2) with their
    nextafter neighbours, ±0, ±subnormal, ±27 and ±(largest finite)."""
    finfo = np.finfo(dtype)
    vals = [0.0, -0.0, 27.0, -27.0, finfo.smallest_subnormal, -finfo.smallest_subnormal,
            finfo.max, -finfo.max]
    for edge in (0.46875, 4.0, 6.0):
        for sign in (1.0, -1.0):
            v = dtype(sign * edge * np.sqrt(2.0))
            vals += [v, np.nextafter(v, dtype(0.0)), np.nextafter(v, dtype(sign * np.inf))]
    return np.array(vals, dtype=dtype)


def gelu_sweep(out: dict) -> None:
    for dtype in (np.float32, np.float64):
        name = np.dtype(dtype).name
        y, cache = gelu_forward(gelu_edges(dtype))
        out[f"gelu.{name}.edges.y"] = array_sha(y)
        out[f"gelu.{name}.edges.cdf"] = array_sha(cache.cdf)
        for bad in ("inf", "-inf", "nan"):
            try:
                with np.errstate(invalid="ignore"):
                    gelu_forward(np.array([1.0, float(bad)], dtype=dtype))
                message = "no error"
            except NumericError as e:
                message = str(e)
            out[f"gelu.{name}.{bad}.error"] = sha(message.encode())


def f32_patterns(lo: float, hi: float, stride: int = 1) -> np.ndarray:
    """Every ``stride``-th float32 bit pattern in [lo, hi], 0 <= lo <= hi."""
    start, stop = np.array([lo, hi], dtype=np.float32).view(np.uint32)
    return np.arange(start, stop + 1, stride, dtype=np.uint32).view(np.float32)


def erf_sweep(out: dict) -> None:
    for dtype in (np.float32, np.float64):
        name = np.dtype(dtype).name
        x = Rng(6000).normal(0, 3, (ERF_SWEEP,), dtype)
        out[f"erf.{name}.sweep"] = array_sha(erf(x))
        out[f"erf.{name}.sweep_scaled"] = array_sha(erf(x, INV_SQRT2))
    four = np.float32(4.0)
    edges = {"four": np.array([np.nextafter(four, np.float32(0)), four,
                               np.nextafter(four, np.float32(np.inf))], np.float32),
             "clip_band": f32_patterns(3.57, 4.0),
             "subnormal": f32_patterns(0.0, np.finfo(np.float32).tiny, 4099)}
    for tag, x in edges.items():
        out[f"erf.float32.{tag}"] = array_sha(erf(np.concatenate([x, -x])))


def rng_sweep(out: dict) -> None:
    for seed in RNG_SEEDS:
        rng = Rng(seed)
        kinds = {"u64": rng.u64,
                 "uniform.float32": lambda n: rng.uniform(-2.5, 3.25, n, np.float32),
                 "uniform.float64": lambda n: rng.uniform(-2.5, 3.25, n),
                 "normal.float32": lambda n: rng.normal(0.3, 1.7, n, np.float32),
                 "normal.float64": lambda n: rng.normal(0.3, 1.7, n),
                 "integers": lambda n: rng.integers(1000, n),
                 "permutation": rng.permutation}
        hashes = {name: hashlib.sha256() for name in kinds}
        for n in RNG_DRAWS:
            for name, draw in kinds.items():
                hashes[name].update(array_sha(draw(n)).encode())
        for name, h in hashes.items():
            out[f"rng.seed{seed}.{name}"] = h.hexdigest()


def main() -> int:
    out = toolchain()
    trained_models(out)
    cli_outputs(out)
    influence_sweep(out)
    kernel_sweep(out)
    config_sweep(out)
    pool_sweep(out)
    micro_step(out)
    glu_sweep(out)
    conv1x1_sweep(out)
    gelu_sweep(out)
    erf_sweep(out)
    rng_sweep(out)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

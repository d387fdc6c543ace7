"""The gradcheck table: what it covers, the dtypes its entries keep, and
the operator check it shares with the ablation grid."""

import importlib

import numpy as np
import pytest

from atconv import micro, op, primitives
from atconv.bench import ABLATION_STAGES, run_ablation
from atconv.cli import gradcheck_report as cli_gradcheck_report
from atconv.gradcheck import check_table, gradcheck_report
from atconv.op import KERNEL_MODS

gradcheck_mod = importlib.import_module("atconv.gradcheck")
bench_mod = importlib.import_module("atconv.bench")

TABLE = check_table(0)


def _public_backwards(module):
    return {name: fn for name, fn in vars(module).items()
            if name.endswith("_backward") and not name.startswith("_")
            and callable(fn) and fn.__module__ == module.__name__}


def test_every_public_backward_has_a_table_entry():
    # block_backward and patch_embed_backward are left to the model-level
    # finite-difference check of the acceptance gate
    wanted = {**_public_backwards(primitives), **_public_backwards(op),
              "glu_backward": micro.glu_backward}
    covered = {c.backward for c in TABLE.values()}
    missing = sorted(name for name, fn in wanted.items() if fn not in covered)
    assert not missing


@pytest.mark.parametrize("name", list(TABLE))
def test_f32_input_gives_f32_output_and_input_gradient(name):
    check = TABLE[name]
    inputs = dict(check.inputs)  # float64 throughout
    first = next(iter(inputs))
    inputs[first] = inputs[first].astype(np.float32)
    y, cache = check.forward_cached(**inputs)
    gy = np.ones_like(y)
    out = check.backward(gy) if cache is None else check.backward(gy, cache)
    gx = out[0] if isinstance(out, tuple) else out
    assert y.dtype == np.float32
    assert gx.dtype == np.float32


def test_report_and_ablation_share_the_operator_check(monkeypatch):
    assert cli_gradcheck_report is gradcheck_report
    real = gradcheck_mod.atconv_check
    assert bench_mod.atconv_check is real
    seen = []

    def counted(config, kernel, seed):
        seen.append(config.kernel_mod)
        return real(config, kernel, seed)

    monkeypatch.setattr(gradcheck_mod, "atconv_check", counted)
    monkeypatch.setattr(bench_mod, "atconv_check", counted)
    rep = gradcheck_report(seed=0)
    assert seen == list(KERNEL_MODS)
    assert rep["pass"] is True
    seen.clear()
    rows = run_ablation(channels=4, kernel=3, seed=0, batch=1, resolution=4, dry_run=True)
    assert len(seen) == len(ABLATION_STAGES)
    assert all(r["gradcheck_pass"] is True for r in rows)

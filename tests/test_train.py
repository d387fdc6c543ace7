"""Training loop behavior on small synthetic problems."""

import importlib
import json

import numpy as np
import pytest

from atconv.atck import load_atck
from atconv.cli import main
from atconv.data import IdxDataset, save_idx_images, save_idx_labels, synth_dataset
from atconv.errors import ArgumentError, DimensionError, NumericError, TrainingDiverged
from atconv.bench import run_ablation
from atconv.micro import AdamHyper, MicroConfig, MicroModel, adam_init
from atconv.rng import Rng
from atconv.train import TrainSettings, evaluate, overfit_single_sample, train

# the package re-exports the train() function under the same name, so fetch
# the module itself for monkeypatching
train_mod = importlib.import_module("atconv.train")
bench_mod = importlib.import_module("atconv.bench")

TINY = MicroConfig(in_channels=1, channels=8, blocks=1, patch=4,
                   kernel=3, expansion=2, num_classes=10)


@pytest.fixture(scope="module")
def tiny_data():
    return synth_dataset(3, 80, 40)


def test_settings_validation():
    with pytest.raises(ArgumentError):
        TrainSettings(epochs=0).validate()
    with pytest.raises(ArgumentError):
        TrainSettings(batch_size=0).validate()
    with pytest.raises(ArgumentError):
        TrainSettings(dtype="f16").validate()


def _empty_set():
    return IdxDataset.from_arrays(np.zeros((0, 28, 28), np.uint8), np.zeros(0, np.uint8))


@pytest.mark.parametrize("empty", ("training", "test"))
def test_train_rejects_an_empty_set_before_the_first_step(tiny_data, monkeypatch, empty):
    # an empty training set divided by zero after its epoch; an empty test
    # set was found only by evaluate, after a whole epoch of steps
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(train_mod, "step", no_step)
    train_set, test_set = tiny_data
    sets = {"training": train_set, "test": test_set}
    sets[empty] = _empty_set()
    with pytest.raises(DimensionError, match=f"the {empty} set has no images"):
        train(TINY, sets["training"], sets["test"], TrainSettings(epochs=1, batch_size=16))


def test_evaluate_rejects_an_empty_set():
    model = MicroModel.init(Rng(6), TINY, dtype=np.float32)
    empty = _empty_set()
    with pytest.raises(DimensionError, match="the evaluation set has no images"):
        evaluate(model, empty.images, empty.labels)


@pytest.mark.parametrize("empty", ("training", "test"))
def test_cli_train_exits_1_on_an_empty_set(tiny_data, tmp_path, capsys, empty):
    sets = dict(zip(("training", "test"), tiny_data))
    args = ["train", "--epochs", "1", "--channels", "8", "--blocks", "1"]
    for name, flag in (("training", "train"), ("test", "test")):
        raw = (sets[name].images[:, 0] * 255).round().astype(np.uint8)
        labels = sets[name].labels.astype(np.uint8)
        if name == empty:
            raw, labels = raw[:0], labels[:0]
        save_idx_images(str(tmp_path / f"{flag}-images.idx"), raw)
        save_idx_labels(str(tmp_path / f"{flag}-labels.idx"), labels)
        args += [f"--{flag}-images", str(tmp_path / f"{flag}-images.idx"),
                 f"--{flag}-labels", str(tmp_path / f"{flag}-labels.idx")]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: the {empty} set has no images\n"


def test_zero_lr_leaves_parameters_at_init(tiny_data):
    train_set, test_set = tiny_data
    settings = TrainSettings(epochs=1, batch_size=16, seed=5,
                             hyper=AdamHyper(lr=0.0), dtype="f64")
    model, records = train(TINY, train_set, test_set, settings)
    fresh = MicroModel.init(Rng(5), TINY, dtype=np.float64)
    got = model.named_parameters()
    for name, ref in fresh.named_parameters().items():
        assert np.array_equal(got[name], ref), name
    assert len(records) == 1


def test_metrics_records_and_jsonl(tiny_data, tmp_path):
    train_set, test_set = tiny_data
    metrics_path = tmp_path / "metrics.jsonl"
    settings = TrainSettings(epochs=2, batch_size=20, seed=6)
    _, records = train(TINY, train_set, test_set, settings,
                       metrics_path=str(metrics_path))
    assert [r["epoch"] for r in records] == [0, 1]
    lines = metrics_path.read_text().strip().split("\n")
    assert len(lines) == 2
    for line, record in zip(lines, records):
        parsed = json.loads(line)
        assert set(parsed) == {"epoch", "train_loss", "train_acc",
                               "test_acc", "wall_ms"}
        assert parsed["epoch"] == record["epoch"]
        assert parsed["train_loss"] == pytest.approx(record["train_loss"])


def test_training_reduces_loss(tiny_data):
    train_set, test_set = tiny_data
    settings = TrainSettings(epochs=3, batch_size=16, seed=7,
                             hyper=AdamHyper(lr=3e-3))
    _, records = train(TINY, train_set, test_set, settings)
    assert records[-1]["train_loss"] < records[0]["train_loss"]


def test_early_stop_on_target_accuracy(tiny_data):
    train_set, test_set = tiny_data
    # any accuracy clears a target of 0, so the loop must stop after epoch 0
    settings = TrainSettings(epochs=5, batch_size=16, seed=8,
                             target_test_acc=0.0)
    _, records = train(TINY, train_set, test_set, settings)
    assert len(records) == 1


def test_checkpoint_roundtrip(tiny_data, tmp_path):
    train_set, test_set = tiny_data
    ckpt = tmp_path / "model.atck"
    settings = TrainSettings(epochs=1, batch_size=16, seed=9, dtype="f64")
    model, _ = train(TINY, train_set, test_set, settings,
                     checkpoint_path=str(ckpt))
    entries = load_atck(str(ckpt))
    params = model.named_parameters()
    assert set(entries) == set(params)
    for name, value in entries.items():
        assert np.array_equal(value, params[name]), name


def test_divergence_saves_last_good_params(tiny_data, tmp_path, monkeypatch):
    train_set, test_set = tiny_data
    ckpt = tmp_path / "rescue.atck"
    real_ce = train_mod.cross_entropy
    calls = {"n": 0}

    def sabotaged(logits, labels):
        calls["n"] += 1
        loss, dlogits = real_ce(logits, labels)
        if calls["n"] > 6:  # partway into epoch 1
            return float("nan"), dlogits
        return loss, dlogits

    monkeypatch.setattr(train_mod, "cross_entropy", sabotaged)
    settings = TrainSettings(epochs=3, batch_size=16, seed=10, dtype="f64")
    with pytest.raises(TrainingDiverged):
        train(TINY, train_set, test_set, settings, checkpoint_path=str(ckpt))
    entries = load_atck(str(ckpt))
    assert "head_w" in entries
    for value in entries.values():
        assert np.isfinite(value).all()


@pytest.mark.parametrize("failing, where", ((1, "epoch 0, sample 0"), (7, "epoch 1, sample 16")))
def test_a_forward_failure_rescues_the_parameters_that_entered_the_step_before(
        tiny_data, tmp_path, monkeypatch, failing, where):
    # the loss of step n goes NaN: steps 1..n-1 ran cleanly, so the rescue
    # is the parameters that entered step n-1, or the initial ones at n = 1
    train_set, test_set = tiny_data
    ckpt = tmp_path / "rescue.atck"
    real_ce, real_step = train_mod.cross_entropy, train_mod.adam_step
    entered = []

    def sabotaged(logits, labels):
        loss, dlogits = real_ce(logits, labels)
        return (float("nan") if len(entered) + 1 == failing else loss), dlogits

    def recorded(params, grads, state, hyper):
        entered.append({name: value.copy() for name, value in params.items()})
        return real_step(params, grads, state, hyper)

    monkeypatch.setattr(train_mod, "cross_entropy", sabotaged)
    monkeypatch.setattr(train_mod, "adam_step", recorded)
    settings = TrainSettings(epochs=3, batch_size=16, seed=10, dtype="f64")
    with pytest.raises(TrainingDiverged) as info:
        train(TINY, train_set, test_set, settings, checkpoint_path=str(ckpt))
    assert str(info.value) == f"loss became non-finite at {where}"
    assert len(entered) == failing - 1
    expected = (entered[-1] if entered
                else MicroModel.init(Rng(10), TINY, dtype=np.float64).named_parameters())
    entries = load_atck(str(ckpt))
    assert list(entries) == list(expected)
    for name, value in entries.items():
        assert value.dtype == expected[name].dtype, name
        assert value.tobytes() == expected[name].tobytes(), name


def test_real_divergence_ends_in_training_diverged(tiny_data, tmp_path):
    # lr=1e12 overflows the f32 activations a few steps in: the op that
    # goes non-finite raises NumericError inside the step, not the loss
    train_set, test_set = tiny_data
    ckpt = tmp_path / "rescue.atck"
    settings = TrainSettings(epochs=3, batch_size=16, seed=10,
                             hyper=AdamHyper(lr=1e12), dtype="f32")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train(TINY, train_set, test_set, settings, checkpoint_path=str(ckpt))
    cause = info.value.__cause__
    assert isinstance(cause, NumericError)
    op = str(cause).split()[0]
    assert op in str(info.value) and "non-finite" in str(info.value)
    entries = load_atck(str(ckpt))
    model = MicroModel.init(Rng(10), TINY, dtype=np.float32)
    assert set(entries) == set(model.named_parameters())
    for name, value in entries.items():
        assert np.isfinite(value).all(), name
        model.set_parameter(name, value)
    # the rescued parameters are those of the last clean step: they still
    # run forward on the training images without going non-finite
    model.forward(train_set.images[:16].astype(np.float32))


def test_non_finite_parameter_after_a_step_ends_in_training_diverged(tiny_data, tmp_path,
                                                                     monkeypatch):
    # gamma = +inf passes every forward (sigmoid(inf) = 1), so only a check
    # of the stepped parameters keeps it out of the final checkpoint
    train_set, test_set = tiny_data
    ckpt = tmp_path / "rescue.atck"
    real_step = train_mod.adam_step
    entered = []

    def poisoned(params, grads, state, hyper):
        # adam_step updates in place: keep copies of what entered each step
        entered.append({name: value.copy() for name, value in params.items()})
        out = real_step(params, grads, state, hyper)
        if len(entered) == 4:
            out["blocks.0.mixer.gamma"][...] = np.inf
        return out

    monkeypatch.setattr(train_mod, "adam_step", poisoned)
    settings = TrainSettings(epochs=2, batch_size=16, seed=13, dtype="f64")
    with pytest.raises(TrainingDiverged, match=r"blocks\.0\.mixer\.gamma") as info:
        train(TINY, train_set, test_set, settings, checkpoint_path=str(ckpt))
    assert isinstance(info.value.__cause__, NumericError)
    assert len(entered) == 4
    # only Adam's output went non-finite, so the parameters that entered
    # the poisoned step ran forward and backward cleanly: the rescue is
    # those, the newest clean ones
    entries = load_atck(str(ckpt))
    assert list(entries) == list(entered[3])
    for name, value in entries.items():
        assert value.dtype == entered[3][name].dtype, name
        assert value.tobytes() == entered[3][name].tobytes(), name


def test_step_rejects_a_non_finite_loss_before_any_change():
    model = MicroModel.init(Rng(14), TINY, dtype=np.float64)
    params = model.named_parameters()
    before = {name: value.copy() for name, value in params.items()}
    state = adam_init(params)
    x = synth_dataset(14, 2, 1)[0].images.astype(np.float64)

    def nan_loss(logits, labels):
        return float("nan"), np.zeros_like(logits)

    with pytest.raises(NumericError):
        train_mod.step(model, x, np.zeros(2, dtype=np.int64), nan_loss, params, state,
                       AdamHyper())
    assert state["t"] == 0
    for name, value in params.items():
        assert np.array_equal(value, before[name]), name


def test_every_training_loop_runs_through_step(tiny_data, monkeypatch):
    train_set, test_set = tiny_data
    real = train_mod.step
    calls = []

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    def forbidden(self, name, value):
        raise AssertionError(f"a training loop called set_parameter({name!r})")

    monkeypatch.setattr(train_mod, "step", counted)
    monkeypatch.setattr(MicroModel, "set_parameter", forbidden)
    train(TINY, train_set, test_set, TrainSettings(epochs=1, batch_size=16, seed=5))
    assert calls == [train_mod.cross_entropy] * 5  # 80 samples at batch 16
    calls.clear()
    losses, _ = overfit_single_sample(TINY, train_set.images[0], int(train_set.labels[0]),
                                      steps=3, lr=1e-4, seed=5)
    assert len(calls) == len(losses) == 3

    # the ablation's softmax probe: the same function, under bench's name
    assert bench_mod.step is real
    monkeypatch.setattr(bench_mod, "step", counted)
    calls.clear()
    run_ablation(channels=4, kernel=3, seed=0, batch=1, resolution=4, reps=3)
    assert len(calls) == 100

    def diverging(*args):
        raise NumericError("linear produced 1 non-finite element(s)")

    # a NumericError anywhere in a probe step counts as divergence
    monkeypatch.setattr(bench_mod, "step", diverging)
    assert bench_mod._softmax_probe(4, 3, 0) is True


def test_same_seed_gives_byte_identical_checkpoints(tiny_data, tmp_path):
    train_set, test_set = tiny_data
    blobs = []
    for run in range(2):
        ckpt = tmp_path / f"run{run}.atck"
        settings = TrainSettings(epochs=2, batch_size=16, seed=12, dtype="f32")
        train(TINY, train_set, test_set, settings, checkpoint_path=str(ckpt))
        blobs.append(ckpt.read_bytes())
    assert blobs[0] == blobs[1]


def test_evaluate_on_known_predictions():
    class Fixed:
        def forward(self, x):
            logits = np.zeros((x.shape[0], 3))
            logits[:, 1] = 1.0  # always predicts class 1
            return logits

    images = np.zeros((8, 1, 4, 4), dtype=np.float32)
    labels = np.array([1, 1, 0, 1, 2, 1, 1, 1])
    assert evaluate(Fixed(), images, labels) == 6 / 8


class _NoForward:
    def forward(self, x):
        raise AssertionError("evaluate ran the model on bad arguments")


@pytest.mark.parametrize("batch_size", (0, -1))
def test_evaluate_rejects_a_batch_size_below_one(batch_size):
    # 0 raised range()'s bare ValueError and -1 returned accuracy 0.0
    images = np.zeros((6, 1, 4, 4), dtype=np.float32)
    with pytest.raises(ArgumentError, match="batch_size must be positive"):
        evaluate(_NoForward(), images, np.zeros(6, dtype=np.int64), batch_size)


@pytest.mark.parametrize("count", (1, 3, 7))
def test_evaluate_rejects_a_label_count_other_than_the_image_count(count):
    # one label broadcast over six images and read accuracy 1.0; three
    # raised numpy's broadcast error
    images = np.zeros((6, 1, 4, 4), dtype=np.float32)
    with pytest.raises(DimensionError, match=r"labels must be \(6,\)"):
        evaluate(_NoForward(), images, np.zeros(count, dtype=np.int64))


def test_overfit_single_sample_converges():
    train_set, _ = synth_dataset(11, 10, 10)
    losses, hit = overfit_single_sample(
        TINY, train_set.images[0], int(train_set.labels[0]),
        steps=200, lr=1e-2, seed=11)
    assert hit is not None
    assert losses[hit] < 0.01
    assert losses[0] > 1.0


def test_overfit_stops_after_the_forward_that_hits_the_target(monkeypatch):
    # the step whose loss hits the target runs no backward; its losses and
    # hit step are those of the loop that still stepped after it
    train_set, _ = synth_dataset(11, 10, 10)
    args = (TINY, train_set.images[0], int(train_set.labels[0]), 200, 1e-2, 11)
    real_backward, real_step = MicroModel.backward, train_mod.step
    backwards = []

    def counted(self, gy, cache):
        backwards.append(1)
        return real_backward(self, gy, cache)

    monkeypatch.setattr(MicroModel, "backward", counted)
    losses, hit = overfit_single_sample(*args)
    assert hit is not None and len(losses) == hit + 1
    assert len(backwards) == hit

    monkeypatch.setattr(train_mod, "step", lambda *a: real_step(*a[:7]))  # no loss_target
    backwards.clear()
    assert overfit_single_sample(*args) == (losses, hit)
    assert len(backwards) == hit + 1

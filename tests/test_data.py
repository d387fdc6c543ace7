"""IDX file handling and the synthetic digit generator."""

import struct
import tracemalloc

import numpy as np
import pytest

from atconv.data import (
    IdxDataset,
    load_idx_images,
    load_idx_labels,
    save_idx_images,
    save_idx_labels,
    synth_dataset,
    synth_digits,
)
from atconv.errors import ArgumentError, DataConsistencyError, FormatError
from atconv.rng import Rng


def _image_bytes(arr):
    n, rows, cols = arr.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + arr.tobytes()


def _label_bytes(arr):
    return struct.pack(">II", 0x00000801, arr.shape[0]) + arr.tobytes()


# ----------------------------------------------------------------------
# IDX parsing
# ----------------------------------------------------------------------

def test_load_images_from_crafted_bytes(tmp_path):
    arr = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    path = tmp_path / "imgs.idx"
    path.write_bytes(_image_bytes(arr))
    out = load_idx_images(str(path))
    assert out.dtype == np.uint8
    assert np.array_equal(out, arr)


def test_load_labels_from_crafted_bytes(tmp_path):
    arr = np.array([0, 5, 9, 3], dtype=np.uint8)
    path = tmp_path / "labels.idx"
    path.write_bytes(_label_bytes(arr))
    assert np.array_equal(load_idx_labels(str(path)), arr)


def test_load_images_rejects_wrong_magic(tmp_path):
    arr = np.zeros((1, 2, 2), dtype=np.uint8)
    raw = struct.pack(">IIII", 0x00000802, 1, 2, 2) + arr.tobytes()
    path = tmp_path / "bad.idx"
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        load_idx_images(str(path))


def test_load_labels_rejects_image_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">II", 0x00000803, 0))
    with pytest.raises(FormatError):
        load_idx_labels(str(path))


def test_load_images_truncated_payload(tmp_path):
    arr = np.zeros((2, 4, 4), dtype=np.uint8)
    path = tmp_path / "short.idx"
    path.write_bytes(_image_bytes(arr)[:-7])
    with pytest.raises(OSError):
        load_idx_images(str(path))


def test_load_images_truncated_header(tmp_path):
    path = tmp_path / "stub.idx"
    path.write_bytes(b"\x00\x00\x08\x03\x00")
    with pytest.raises(OSError):
        load_idx_images(str(path))


@pytest.mark.parametrize("dims", [(2**30, 2**30, 2**30), (2**20, 2**10, 2**10)],
                         ids=["overflow", "memory"])
def test_load_images_checks_header_sizes_against_the_file(tmp_path, dims):
    # 2**90 bytes overflowed the read and 2**40 ran out of memory
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, *dims) + bytes(16))
    with pytest.raises(OSError, match=r"truncated inside pixel payload \(16/"):
        load_idx_images(str(path))


def test_load_labels_checks_the_count_before_reading(tmp_path):
    # a 2**31 - 1 count asked for a 2 GiB buffer before the file was found short
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">II", 0x00000801, 2**31 - 1) + bytes(16))
    tracemalloc.start()
    try:
        with pytest.raises(OSError, match=r"truncated inside label payload \(16/"):
            load_idx_labels(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_image_roundtrip(tmp_path):
    rng = Rng(160)
    arr = rng.integers(256, (5, 6, 7)).astype(np.uint8)
    path = tmp_path / "rt.idx"
    save_idx_images(str(path), arr)
    assert np.array_equal(load_idx_images(str(path)), arr)


def test_label_roundtrip(tmp_path):
    arr = np.array([1, 2, 3, 4, 5], dtype=np.uint8)
    path = tmp_path / "rt.idx"
    save_idx_labels(str(path), arr)
    assert np.array_equal(load_idx_labels(str(path)), arr)


def test_save_images_rejects_wrong_rank():
    with pytest.raises(ArgumentError):
        save_idx_images("/tmp/never-written.idx", np.zeros((2, 2), dtype=np.uint8))


# ----------------------------------------------------------------------
# dataset wrapper
# ----------------------------------------------------------------------

def test_dataset_from_arrays_normalizes():
    imgs = np.full((3, 4, 4), 255, dtype=np.uint8)
    labels = np.array([0, 1, 2], dtype=np.uint8)
    ds = IdxDataset.from_arrays(imgs, labels)
    assert ds.images.shape == (3, 1, 4, 4)
    assert ds.images.dtype == np.float32
    assert float(ds.images.max()) == 1.0
    assert ds.labels.dtype == np.int64
    assert len(ds) == 3


def test_dataset_count_mismatch():
    imgs = np.zeros((3, 4, 4), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    with pytest.raises(DataConsistencyError):
        IdxDataset.from_arrays(imgs, labels)


def test_dataset_label_out_of_range():
    imgs = np.zeros((2, 4, 4), dtype=np.uint8)
    labels = np.array([0, 10], dtype=np.uint8)
    with pytest.raises(DataConsistencyError):
        IdxDataset.from_arrays(imgs, labels)


def test_dataset_negative_label():
    # loaded without error once, and training then failed in cross_entropy
    imgs = np.zeros((2, 4, 4), dtype=np.uint8)
    with pytest.raises(DataConsistencyError, match="label -1 is negative"):
        IdxDataset.from_arrays(imgs, np.array([-1, 3]))


def test_dataset_from_files(tmp_path):
    imgs = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
    labels = np.array([7, 2], dtype=np.uint8)
    ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
    save_idx_images(str(ipath), imgs)
    save_idx_labels(str(lpath), labels)
    ds = IdxDataset.from_files(str(ipath), str(lpath))
    assert len(ds) == 2
    assert ds.labels.tolist() == [7, 2]


# ----------------------------------------------------------------------
# synthetic digits
# ----------------------------------------------------------------------

def test_synth_digits_shapes_and_ranges():
    imgs, labels = synth_digits(Rng(161), 40)
    assert imgs.shape == (40, 28, 28)
    assert imgs.dtype == np.uint8
    assert labels.shape == (40,)
    assert labels.min() >= 0 and labels.max() <= 9


def test_synth_digits_balanced_classes():
    _, labels = synth_digits(Rng(162), 50)
    counts = np.bincount(labels, minlength=10)
    assert counts.tolist() == [5] * 10


def test_synth_digits_deterministic():
    a_imgs, a_labels = synth_digits(Rng(163), 20)
    b_imgs, b_labels = synth_digits(Rng(163), 20)
    assert np.array_equal(a_imgs, b_imgs)
    assert np.array_equal(a_labels, b_labels)


def test_synth_digits_are_recognizable_glyphs():
    imgs, labels = synth_digits(Rng(164), 30)
    # each image should have substantial foreground, not pure noise
    for img in imgs:
        assert (img > 100).sum() > 40


def test_synth_digits_rejects_nonpositive_count():
    with pytest.raises(ArgumentError):
        synth_digits(Rng(165), 0)


def test_synth_dataset_split():
    train, test = synth_dataset(0, 100, 40)
    assert len(train) == 100
    assert len(test) == 40
    assert train.images.dtype == np.float32
    # deterministic given the seed
    train2, test2 = synth_dataset(0, 100, 40)
    assert np.array_equal(train.images, train2.images)
    assert np.array_equal(test.labels, test2.labels)
    # a different seed changes the pixels
    train3, _ = synth_dataset(1, 100, 40)
    assert not np.array_equal(train.images, train3.images)

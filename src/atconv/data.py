"""Dataset ingestion: IDX image/label files and a procedural digit corpus.

The IDX layout is the classic big-endian one: a 4-byte magic whose low
byte is the axis count (0x00000803 for N x rows x cols ubyte images,
0x00000801 for N ubyte labels), one big-endian u32 per axis, then the raw
ubyte payload.

The environment ships no handwriting data, so ``synth_digits`` renders a
deterministic corpus from 7x5 pixel glyphs: upscaled x3, jittered around
the canvas, scaled in intensity, and perturbed with Gaussian noise. A
small convnet separates it easily, which is exactly what a smoke-level
training target needs, and the corpus flows through the same IDX files a
real one would.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataConsistencyError, FormatError
from .rng import Rng

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def _read_exact(f, n: int, what: str) -> bytes:
    """``n`` bytes from ``f``; a header-declared ``n`` is checked against
    the bytes left in the file before any buffer is asked for."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise OSError(f"file truncated inside {what} ({left}/{n} bytes)")
    return f.read(n)


def load_idx_images(path) -> np.ndarray:
    """(N, rows, cols) uint8 array from an IDX image file."""
    with open(path, "rb") as f:
        magic, = struct.unpack(">i", _read_exact(f, 4, "magic"))
        if magic != IMAGE_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}")
        n, rows, cols = struct.unpack(">iii", _read_exact(f, 12, "dimensions"))
        if min(n, rows, cols) < 0:
            raise FormatError(f"negative dimension in header: {(n, rows, cols)}")
        payload = _read_exact(f, n * rows * cols, "pixel payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(n, rows, cols)


def load_idx_labels(path) -> np.ndarray:
    """(N,) uint8 label array from an IDX label file."""
    with open(path, "rb") as f:
        magic, = struct.unpack(">i", _read_exact(f, 4, "magic"))
        if magic != LABEL_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}")
        n, = struct.unpack(">i", _read_exact(f, 4, "count"))
        if n < 0:
            raise FormatError(f"negative count in header: {n}")
        payload = _read_exact(f, n, "label payload")
    return np.frombuffer(payload, dtype=np.uint8).copy()


def save_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images)
    if images.ndim != 3 or images.dtype != np.uint8:
        raise ArgumentError(f"images must be (N, rows, cols) uint8, got "
                            f"{images.shape} {images.dtype}")
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IMAGE_MAGIC, *images.shape))
        f.write(np.ascontiguousarray(images).tobytes())


def save_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ArgumentError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) > 255:
        raise ArgumentError("labels must fit in a ubyte")
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


@dataclass
class IdxDataset:
    """Paired images and labels, scaled to [0, 1] floats."""

    images: np.ndarray  # (N, 1, H, W) float32
    labels: np.ndarray  # (N,) int64

    @classmethod
    def from_files(cls, image_path, label_path, num_classes: int = 10) -> "IdxDataset":
        return cls.from_arrays(load_idx_images(image_path),
                               load_idx_labels(label_path), num_classes)

    @classmethod
    def from_arrays(cls, raw: np.ndarray, labels: np.ndarray,
                    num_classes: int = 10) -> "IdxDataset":
        if raw.shape[0] != labels.shape[0]:
            raise DataConsistencyError(
                f"{raw.shape[0]} images but {labels.shape[0]} labels")
        if labels.size and int(labels.min()) < 0:
            raise DataConsistencyError(f"label {int(labels.min())} is negative")
        if labels.size and int(labels.max()) >= num_classes:
            raise DataConsistencyError(
                f"label {int(labels.max())} out of range for {num_classes} classes")
        images = (np.asarray(raw).astype(np.float32) / 255.0)[:, None, :, :]
        return cls(images=images, labels=np.asarray(labels).astype(np.int64))

    def __len__(self) -> int:
        return self.images.shape[0]


# 7x5 digit glyphs; rows are strings of 0/1.
_GLYPHS = [
    ("01110", "10001", "10001", "10001", "10001", "10001", "01110"),
    ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    ("01110", "10001", "00001", "00110", "01000", "10000", "11111"),
    ("11110", "00001", "00001", "01110", "00001", "00001", "11110"),
    ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
]

_GLYPH_BANK = np.array(
    [[[int(ch) for ch in row] for row in glyph] for glyph in _GLYPHS],
    dtype=np.float64)

CANVAS = 28
_SCALE = 3
_GH, _GW = 7 * _SCALE, 5 * _SCALE  # 21 x 15 after upscaling


def synth_digits(rng: Rng, n: int) -> tuple:
    """Render ``n`` noisy digit images; returns (uint8 images, labels).

    Labels cycle 0..9 then get shuffled, so classes stay balanced. Each
    image places its x3-upscaled glyph at a jittered offset with a random
    intensity in [0.65, 1.0] plus sigma=0.08 Gaussian pixel noise.
    """
    if n < 1:
        raise ArgumentError(f"sample count must be positive, got {n}")
    labels = np.tile(np.arange(10, dtype=np.int64), -(-n // 10))[:n]
    labels = labels[rng.permutation(n)]
    big = np.kron(_GLYPH_BANK, np.ones((_SCALE, _SCALE)))  # (10, 21, 15)
    row_off = rng.integers(CANVAS - _GH + 1, n)
    col_off = rng.integers(CANVAS - _GW + 1, n)
    intensity = rng.uniform(0.65, 1.0, n)
    noise = rng.normal(0.0, 0.08, (n, CANVAS, CANVAS))
    images = np.zeros((n, CANVAS, CANVAS), dtype=np.float64)
    for i in range(n):
        r, c = int(row_off[i]), int(col_off[i])
        images[i, r:r + _GH, c:c + _GW] = big[labels[i]] * intensity[i]
    images = np.clip(images + noise, 0.0, 1.0)
    return (images * 255.0).round().astype(np.uint8), labels


def synth_dataset(seed: int, n_train: int, n_test: int) -> tuple:
    """Deterministic train/test datasets drawn from disjoint stream spans."""
    rng = Rng(seed)
    train_imgs, train_labels = synth_digits(rng, n_train)
    test_imgs, test_labels = synth_digits(rng, n_test)
    return (IdxDataset.from_arrays(train_imgs, train_labels),
            IdxDataset.from_arrays(test_imgs, test_labels))

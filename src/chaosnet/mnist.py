"""IDX dataset ingestion and deterministic split management.

Reads the big-endian IDX image/label pair (magics 2051 and 2049), with
gzip-compressed variants detected by file extension, into an immutable
in-memory dataset.  Also derives the seeded optimization subset used for
parameter-search fitness: 20% of the training base, stratified by digit
by default, validated against the full base.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
OPTIMIZATION_FRACTION = 0.2
N_CLASSES = 10

DATA_DIR_ENV = "CHAOSNET_DATA"
TRAIN_IMAGES_NAME = "train-images-idx3-ubyte"
TRAIN_LABELS_NAME = "train-labels-idx1-ubyte"
TEST_IMAGES_NAME = "t10k-images-idx3-ubyte"
TEST_LABELS_NAME = "t10k-labels-idx1-ubyte"


class IdxFormatError(ValueError):
    """Base for IDX parse failures; message names the file and byte offset."""


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


def _as_uint8(values, what: str) -> np.ndarray:
    """Integer input only; floats would round silently, so they are refused."""
    arr = np.asarray(values)
    if arr.dtype == np.uint8:
        return arr
    if arr.dtype.kind in "ui":
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ValueError(f"{what} values fall outside the uint8 range")
        return arr.astype(np.uint8)
    raise ValueError(f"{what} must be uint8 (or other integers), got dtype {arr.dtype}")


@dataclass(frozen=True)
class LabeledDataset:
    images: np.ndarray  # (N, 28, 28) uint8
    labels: np.ndarray  # (N,) uint8
    provenance: str = "unspecified"

    def __post_init__(self):
        images = _as_uint8(self.images, "images")
        labels = _as_uint8(self.labels, "labels")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)
        if images.ndim != 3 or images.shape[1:] != (28, 28):
            raise ValueError(f"images must be (N, 28, 28), got {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ValueError(
                f"images and labels disagree on length: {images.shape[0]} vs {labels.shape}"
            )
        if labels.size and labels.max() > 9:
            raise ValueError(f"labels must be digits 0-9, found {labels.max()}")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices, provenance: str) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.images[idx], self.labels[idx], provenance)


def _read_raw(path) -> bytes:
    path = os.fspath(path)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        return fh.read()


def _parse_images(raw: bytes, path) -> np.ndarray:
    # magic first: a wrong-kind file should be reported as such, not as short
    if len(raw) >= 4 and struct.unpack(">I", raw[:4])[0] != IMAGE_MAGIC:
        raise IdxMagicError(
            f"{path}: expected image magic {IMAGE_MAGIC} at offset 0, "
            f"found {struct.unpack('>I', raw[:4])[0]}"
        )
    if len(raw) < 16:
        raise IdxTruncatedError(f"{path}: image header needs 16 bytes, file has {len(raw)}")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise IdxTruncatedError(
            f"{path}: expected {expected} bytes for {count} images of {rows}x{cols}, "
            f"found {len(raw)} (data ends at offset {len(raw)})"
        )
    if (rows, cols) != (28, 28):
        raise IdxFormatError(f"{path}: expected 28x28 images, header says {rows}x{cols}")
    return np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows, cols)


def _parse_labels(raw: bytes, path) -> np.ndarray:
    if len(raw) >= 4 and struct.unpack(">I", raw[:4])[0] != LABEL_MAGIC:
        raise IdxMagicError(
            f"{path}: expected label magic {LABEL_MAGIC} at offset 0, "
            f"found {struct.unpack('>I', raw[:4])[0]}"
        )
    if len(raw) < 8:
        raise IdxTruncatedError(f"{path}: label header needs 8 bytes, file has {len(raw)}")
    magic, count = struct.unpack(">II", raw[:8])
    expected = 8 + count
    if len(raw) != expected:
        raise IdxTruncatedError(
            f"{path}: expected {expected} bytes for {count} labels, "
            f"found {len(raw)} (data ends at offset {len(raw)})"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=8)


def load_idx(images_path, labels_path, provenance: str = "unspecified") -> LabeledDataset:
    """Parse an IDX image/label file pair into a dataset."""
    images = _parse_images(_read_raw(images_path), images_path)
    labels = _parse_labels(_read_raw(labels_path), labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{labels_path}: {labels.shape[0]} labels for {images.shape[0]} images "
            f"in {images_path}"
        )
    return LabeledDataset(images, labels, provenance)


@dataclass(frozen=True)
class SplitPlan:
    optimization_fraction: float = OPTIMIZATION_FRACTION
    rng_seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.optimization_fraction <= 1.0:
            raise ValueError(
                f"optimization_fraction must be in (0, 1], got {self.optimization_fraction}"
            )


def split_indices(labels: np.ndarray, plan: SplitPlan) -> np.ndarray:
    """Seeded sample without replacement over ``labels``, ascending indices.

    Stratified mode takes an equal quota per class (target // 10, remainder
    assigned one each to the lowest class indices).  A split of no rows is
    refused, since nothing could be trained on it.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    target = round(plan.optimization_fraction * n)
    if target == 0:
        raise ValueError(f"a fraction {plan.optimization_fraction} of {n} rows is no rows")
    rng = np.random.default_rng(plan.rng_seed)
    if not plan.stratified:
        return np.sort(rng.choice(n, size=target, replace=False))
    quota, remainder = divmod(target, N_CLASSES)
    picks = []
    for digit in range(N_CLASSES):
        want = quota + (1 if digit < remainder else 0)
        pool = np.flatnonzero(labels == digit)
        if pool.size < want:
            raise ValueError(
                f"class {digit} has {pool.size} samples, fewer than the stratified quota {want}"
            )
        picks.append(rng.choice(pool, size=want, replace=False))
    return np.sort(np.concatenate(picks))


def default_data_dir() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, "data"))


def find_mnist(directory=None) -> dict[str, Path] | None:
    """Locate the four canonical files (optionally .gz); None if any is missing."""
    directory = Path(directory) if directory is not None else default_data_dir()
    found: dict[str, Path] = {}
    for key, name in (
        ("train_images", TRAIN_IMAGES_NAME),
        ("train_labels", TRAIN_LABELS_NAME),
        ("test_images", TEST_IMAGES_NAME),
        ("test_labels", TEST_LABELS_NAME),
    ):
        plain = directory / name
        gz = directory / (name + ".gz")
        if plain.exists():
            found[key] = plain
        elif gz.exists():
            found[key] = gz
        else:
            return None
    return found


def load_mnist(directory=None) -> tuple[LabeledDataset, LabeledDataset]:
    """(train, test) datasets from a directory holding the canonical files."""
    paths = find_mnist(directory)
    if paths is None:
        directory = Path(directory) if directory is not None else default_data_dir()
        raise FileNotFoundError(
            f"MNIST IDX files not found under {directory} "
            f"(set ${DATA_DIR_ENV} or pass a directory)"
        )
    train = load_idx(paths["train_images"], paths["train_labels"], "train60k")
    test = load_idx(paths["test_images"], paths["test_labels"], "test10k")
    return train, test


__all__ = [
    "LabeledDataset",
    "SplitPlan",
    "load_idx",
    "split_indices",
    "find_mnist",
    "load_mnist",
    "default_data_dir",
    "IdxFormatError",
    "IdxMagicError",
    "IdxTruncatedError",
    "IdxCountMismatchError",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "OPTIMIZATION_FRACTION",
]

"""IDX dataset ingestion and deterministic split management.

Reads the big-endian IDX image/label pair (magics 2051 and 2049), with
gzip-compressed variants detected by file extension, into an immutable
in-memory dataset.  Each file's header is read and checked first; its data
is then read straight into a read-only uint8 array of the final size, in
pieces of READ_PIECE_BYTES, so the loader holds the file's bytes once: a
47 MB image file costs its array plus one 1 MB piece.  Also derives the
seeded optimization subset used for parameter-search fitness: 20% of the
training base, stratified by digit by default, validated against the full
base.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
N_CLASSES = 10

DATA_DIR_ENV = "CHAOSNET_DATA"
TRAIN_IMAGES_NAME = "train-images-idx3-ubyte"
TRAIN_LABELS_NAME = "train-labels-idx1-ubyte"
TEST_IMAGES_NAME = "t10k-images-idx3-ubyte"
TEST_LABELS_NAME = "t10k-labels-idx1-ubyte"
READ_PIECE_BYTES = 1 << 20  # most bytes read or decompressed per call


class IdxFormatError(ValueError):
    """Base for IDX parse failures; message names the file and byte offset."""


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


class IdxMissingError(IdxFormatError):
    """The directory lacks one of the four IDX files."""


@dataclass(frozen=True)
class LabeledDataset:
    images: np.ndarray  # (N, 28, 28) uint8
    labels: np.ndarray  # (N,) uint8

    def __post_init__(self):
        images, labels = self.images, self.labels
        # the IDX reader hands over uint8; anything else is refused, not cast
        for what, values in (("images", images), ("labels", labels)):
            if getattr(values, "dtype", None) != np.uint8:
                kind = getattr(values, "dtype", type(values).__name__)
                raise ValueError(f"{what} must be a uint8 array, got {kind}")
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

    def subset(self, indices, provenance=None) -> "LabeledDataset":
        # provenance is ignored: perfbench/roadmap_table.py still passes one
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.images[idx], self.labels[idx])


def _fill(fh, data: np.ndarray) -> int:
    """Read ``fh`` into the 1-D uint8 ``data`` in pieces of READ_PIECE_BYTES.

    Returns the number of bytes the stream held: ``data.size`` unless it ends
    early or runs on past it.  Bytes past the array are counted, not kept.
    """
    view = memoryview(data)
    filled = 0
    while filled < data.size:
        got = fh.readinto(view[filled : filled + READ_PIECE_BYTES])
        if not got:
            return filled
        filled += got
    while piece := fh.read(READ_PIECE_BYTES):
        filled += len(piece)
    return filled


def _read_idx(path, kind: str) -> np.ndarray:
    """The data of an IDX ``kind`` file ("image" or "label") as a read-only
    uint8 array shaped by its header.

    The header is read and its magic checked first.  The array is then
    allocated at its final size and filled a piece at a time, so the file's
    bytes are held once: a whole-file read of a gzip stream would hold the
    decompressed bytes beside their array.  A file whose length disagrees
    with its header is reported with both byte counts.
    """
    magic, ndim = (IMAGE_MAGIC, 3) if kind == "image" else (LABEL_MAGIC, 1)
    header_size = 4 + 4 * ndim
    name = os.fspath(path)
    opener = gzip.open if name.endswith(".gz") else open
    try:
        with opener(name, "rb") as fh:
            header = fh.read(header_size)
            # magic first: a wrong-kind file should be reported as such, not as short
            if len(header) >= 4 and struct.unpack(">I", header[:4])[0] != magic:
                raise IdxMagicError(
                    f"{path}: expected {kind} magic {magic} at offset 0, "
                    f"found {struct.unpack('>I', header[:4])[0]}"
                )
            if len(header) < header_size:
                raise IdxTruncatedError(
                    f"{path}: {kind} header needs {header_size} bytes, file has {len(header)}"
                )
            dims = struct.unpack(f">{ndim}I", header[4:])
            size = math.prod(dims)
            try:
                data = np.empty(size, dtype=np.uint8)
            except (MemoryError, ValueError):  # a header claiming more than memory holds
                data = np.empty(0, dtype=np.uint8)
            found = header_size + _fill(fh, data)
    except (OSError, EOFError) as exc:  # a directory, not gzip, a cut gzip stream
        raise IdxFormatError(f"cannot read {name}: {exc}") from exc
    expected = header_size + size
    if found != expected:
        what = f"{dims[0]} labels" if ndim == 1 else f"{dims[0]} images of {dims[1]}x{dims[2]}"
        raise IdxTruncatedError(
            f"{path}: expected {expected} bytes for {what}, "
            f"found {found} (data ends at offset {found})"
        )
    if data.size != size:
        raise MemoryError(f"{path}: {size} bytes of {kind} data do not fit in memory")
    data.flags.writeable = False
    return data.reshape(dims)


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Parse an IDX image/label file pair into a dataset of at least one image."""
    images = _read_idx(images_path, "image")
    if images.shape[1:] != (28, 28):
        rows, cols = images.shape[1:]
        raise IdxFormatError(f"{images_path}: expected 28x28 images, header says {rows}x{cols}")
    if images.shape[0] == 0:  # nothing could be trained or scored on it
        raise IdxFormatError(f"{images_path}: holds no images")
    labels = _read_idx(labels_path, "label")
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{labels_path}: {labels.shape[0]} labels for {images.shape[0]} images "
            f"in {images_path}"
        )
    bad = np.flatnonzero(labels >= N_CLASSES)
    if bad.size:
        # the label data starts after the 8-byte header
        raise IdxFormatError(
            f"{labels_path}: label {labels[bad[0]]} at offset {8 + bad[0]} is not a digit 0-9"
        )
    return LabeledDataset(images, labels)


@dataclass(frozen=True)
class SplitPlan:
    optimization_fraction: float = 0.2
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
        raise IdxMissingError(
            f"MNIST IDX files not found under {directory} "
            f"(set ${DATA_DIR_ENV} or pass a directory)"
        )
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
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
    "IdxMissingError",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
]

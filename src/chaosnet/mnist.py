"""IDX dataset ingestion and deterministic split management.

Reads the big-endian IDX image/label pair (magics 2051 and 2049), with
gzip-compressed variants detected by file extension, with one reader,
:class:`_IdxReader`.  Each file's header is read and checked first; its data
is then read straight into read-only uint8 arrays of the final size, in
pieces of READ_PIECE_BYTES, so no copy of the file's bytes is held beside
them.  :func:`load_mnist` reads each pair whole into an immutable in-memory
dataset: a 47 MB image file costs its array plus one 1 MB piece.
:func:`open_mnist` reads the headers and the labels only and leaves the
images in their files, to be read one block at a time, as ``train`` reads
them so that it never holds an image stack.  Also derives the seeded
optimization subset used for parameter-search fitness: 20% of the training
base, stratified by digit by default, validated against the full base.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

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
    """Read ``fh`` into the 1-D uint8 ``data`` in pieces of READ_PIECE_BYTES;
    return the number of bytes read, ``data.size`` unless the stream ends first."""
    view = memoryview(data)
    filled = 0
    while filled < data.size:
        got = fh.readinto(view[filled : filled + READ_PIECE_BYTES])
        if not got:
            break
        filled += got
    return filled


class _IdxReader:
    """An open IDX ``kind`` file ("image" or "label") whose header is read
    and checked: ``dims`` are its dimensions.  :meth:`read` then reads its
    data in turn, a block of whole items at a time, and :meth:`finish` reads
    the rest of the file and checks its length against the header.

    A read or a check that fails raises an :class:`IdxFormatError` naming the
    file; a file whose length disagrees with its header is reported with both
    byte counts, whether its data ends early or runs on past the header's.
    """

    def __init__(self, path, kind: str):
        self.path, self.kind = path, kind
        magic, ndim = (IMAGE_MAGIC, 3) if kind == "image" else (LABEL_MAGIC, 1)
        header_size = 4 + 4 * ndim
        name = os.fspath(path)
        opener = gzip.open if name.endswith(".gz") else open
        with self._reading():
            self._fh = opener(name, "rb")
        try:
            with self._reading():
                header = self._fh.read(header_size)
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
        except BaseException:
            self._fh.close()
            raise
        self.dims = struct.unpack(f">{ndim}I", header[4:])
        self._expected = header_size + math.prod(self.dims)
        self._found = header_size  # bytes read so far

    def __enter__(self) -> "_IdxReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    @contextmanager
    def _reading(self):
        try:
            yield
        except (OSError, EOFError) as exc:  # a directory, not gzip, a cut gzip stream
            raise IdxFormatError(f"cannot read {os.fspath(self.path)}: {exc}") from exc

    def read(self, count: int) -> np.ndarray:
        """The next ``count`` items as a read-only uint8 array of shape
        ``(count, *dims[1:])``, read straight into an array of that size."""
        shape = (count, *self.dims[1:])
        size = math.prod(shape)
        try:
            data = np.empty(size, dtype=np.uint8)
        except (MemoryError, ValueError):  # a header claiming more than memory holds
            data = np.empty(0, dtype=np.uint8)
        with self._reading():
            got = _fill(self._fh, data)
        self._found += got
        if got < size:
            self.finish()  # the data ended early, or the rest shows how long the file is
            raise MemoryError(f"{self.path}: {size} bytes of {self.kind} data do not fit in memory")
        data.flags.writeable = False
        return data.reshape(shape)

    def finish(self) -> None:
        """Read the rest of the file, counting its bytes without keeping them;
        raise IdxTruncatedError if its length disagrees with the header."""
        with self._reading():
            while piece := self._fh.read(READ_PIECE_BYTES):
                self._found += len(piece)
        if self._found != self._expected:
            n, *grid = self.dims
            what = f"{n} images of {grid[0]}x{grid[1]}" if grid else f"{n} labels"
            raise IdxTruncatedError(
                f"{self.path}: expected {self._expected} bytes for {what}, "
                f"found {self._found} (data ends at offset {self._found})"
            )


def _read_idx(path, kind: str) -> np.ndarray:
    """The data of an IDX ``kind`` file ("image" or "label") as one read-only
    uint8 array shaped by its header, the file's length checked."""
    with _IdxReader(path, kind) as reader:
        data = reader.read(reader.dims[0])
        reader.finish()
    return data


def _check_images(path, dims) -> None:
    """Refuse image dimensions other than (N, 28, 28) with N at least 1."""
    if dims[1:] != (28, 28):
        raise IdxFormatError(f"{path}: expected 28x28 images, header says {dims[1]}x{dims[2]}")
    if dims[0] == 0:  # nothing could be trained or scored on it
        raise IdxFormatError(f"{path}: holds no images")


def _check_labels(images_path, count: int, labels_path, labels: np.ndarray) -> None:
    """Refuse labels that are not one digit 0-9 for each of ``count`` images."""
    if count != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{labels_path}: {labels.shape[0]} labels for {count} images in {images_path}"
        )
    bad = np.flatnonzero(labels >= N_CLASSES)
    if bad.size:
        # the label data starts after the 8-byte header
        raise IdxFormatError(
            f"{labels_path}: label {labels[bad[0]]} at offset {8 + bad[0]} is not a digit 0-9"
        )


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Parse an IDX image/label file pair into a dataset of at least one image."""
    images = _read_idx(images_path, "image")
    _check_images(images_path, images.shape)
    labels = _read_idx(labels_path, "label")
    _check_labels(images_path, len(images), labels_path, labels)
    return LabeledDataset(images, labels)


@dataclass(frozen=True)
class IdxImages:
    """The first ``count`` images (the header's count, or fewer) of an IDX
    file of 28x28 images whose header is checked (see :func:`open_mnist`),
    read later by :meth:`blocks`."""

    path: Path
    count: int

    def __len__(self) -> int:
        return self.count

    def blocks(self, bounds) -> Iterator[np.ndarray]:
        """Each ``(start, stop)`` of the sequence ``bounds``, which run on
        from 0 without a gap, as a read-only (stop - start, 28, 28) uint8
        array read from the file when requested.  The rest of the file is read
        before the last block is handed out, so a file whose length disagrees
        with its header raises IdxTruncatedError even if no more is asked."""
        with _IdxReader(self.path, "image") as reader:
            for k, (start, stop) in enumerate(bounds, 1):
                block = reader.read(stop - start)
                if k == len(bounds):
                    reader.finish()
                yield block


def _open_idx(images_path, labels_path) -> tuple[IdxImages, np.ndarray]:
    """The image file of an IDX pair, its header checked, and its labels, with
    every check of :func:`load_idx` but the length of the image file, which
    :meth:`IdxImages.blocks` checks before it hands out the last block."""
    with _IdxReader(images_path, "image") as reader:
        _check_images(images_path, reader.dims)
    labels = _read_idx(labels_path, "label")
    _check_labels(images_path, reader.dims[0], labels_path, labels)
    return IdxImages(images_path, reader.dims[0]), labels


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


def _mnist_paths(directory) -> dict[str, Path]:
    """The four canonical files under ``directory``; IdxMissingError if one is missing."""
    paths = find_mnist(directory)
    if paths is None:
        directory = Path(directory) if directory is not None else default_data_dir()
        raise IdxMissingError(
            f"MNIST IDX files not found under {directory} "
            f"(set ${DATA_DIR_ENV} or pass a directory)"
        )
    return paths


def load_mnist(directory=None) -> tuple[LabeledDataset, LabeledDataset]:
    """(train, test) datasets from a directory holding the canonical files."""
    paths = _mnist_paths(directory)
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    return train, test


def open_mnist(directory=None) -> tuple[tuple[IdxImages, np.ndarray], ...]:
    """The (images, labels) of the training set and of the test set, as
    :func:`load_mnist` finds them, with the images left in their files.

    The headers of all four files and both label files are read and checked
    first, as :func:`load_idx` checks them, so a fault in any of them is
    reported before an image is read.  Each image file's length is checked
    when its images are read, by :meth:`IdxImages.blocks`.
    """
    paths = _mnist_paths(directory)
    train = _open_idx(paths["train_images"], paths["train_labels"])
    test = _open_idx(paths["test_images"], paths["test_labels"])
    return train, test


__all__ = [
    "LabeledDataset",
    "SplitPlan",
    "load_idx",
    "split_indices",
    "find_mnist",
    "load_mnist",
    "open_mnist",
    "IdxImages",
    "default_data_dir",
    "IdxFormatError",
    "IdxMagicError",
    "IdxTruncatedError",
    "IdxCountMismatchError",
    "IdxMissingError",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
]

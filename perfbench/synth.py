"""Deterministic synthetic IDX files with MNIST's shapes.

MNIST is not shipped with the repository, so the benchmark writes its own
four gzipped IDX files (60k train / 10k test, uint8 28x28) from the
workload seed.  Each class is a fixed blob pattern drawn from the seed;
every image is its class pattern shifted by up to two pixels, scaled and
noised, with low values cut to zero so that about 80 % of pixels are 0
as in MNIST.  The writer is independent of the package under test, which
reads the files only through ``chaosnet.mnist.load_mnist``.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
SIDE = 28
MAX_SHIFT = 2
CHUNK = 10_000
# fast gzip level: the files are written at set-up on every run
GZIP_LEVEL = 1


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    protos = np.zeros((10, SIDE, SIDE), dtype=np.float32)
    for digit in range(10):
        for _ in range(4):
            cy, cx = rng.uniform(6, 22, size=2)
            sigma = rng.uniform(1.5, 3.0)
            protos[digit] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma * sigma))
        protos[digit] *= 255.0 / protos[digit].max()
    return protos


def _images(rng: np.random.Generator, protos: np.ndarray, count: int):
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    images = np.empty((count, SIDE, SIDE), dtype=np.uint8)
    padded = np.pad(protos, ((0, 0), (MAX_SHIFT, MAX_SHIFT), (MAX_SHIFT, MAX_SHIFT)))
    span = 2 * MAX_SHIFT + 1
    for start in range(0, count, CHUNK):
        lab = labels[start : start + CHUNK]
        dy = rng.integers(0, span, size=lab.size)
        dx = rng.integers(0, span, size=lab.size)
        block = np.empty((lab.size, SIDE, SIDE), dtype=np.float32)
        for oy in range(span):
            for ox in range(span):
                sel = (dy == oy) & (dx == ox)
                block[sel] = padded[lab[sel], oy : oy + SIDE, ox : ox + SIDE]
        block *= rng.uniform(0.6, 1.0, size=lab.size).astype(np.float32)[:, None, None]
        block += rng.integers(-20, 21, size=block.shape, dtype=np.int8)
        block[block < 40.0] = 0.0
        np.clip(block, 0.0, 255.0, out=block)
        images[start : start + lab.size] = block
    return images, labels


def make_dataset(seed: int, train_count: int, test_count: int):
    """(train_images, train_labels, test_images, test_labels) for ``seed``."""
    rng = np.random.default_rng(seed)
    protos = _prototypes(rng)
    train_images, train_labels = _images(rng, protos, train_count)
    test_images, test_labels = _images(rng, protos, test_count)
    return train_images, train_labels, test_images, test_labels


def _write_gz(path: Path, payload: bytes) -> None:
    with open(path, "wb") as fh:
        with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0,
                           compresslevel=GZIP_LEVEL) as gz:
            gz.write(payload)


def write_idx_dir(directory: Path, seed: int, train_count: int, test_count: int) -> None:
    """Write the four canonical ``*-ubyte.gz`` files into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    train_images, train_labels, test_images, test_labels = make_dataset(
        seed, train_count, test_count
    )
    for stem, images in (("train", train_images), ("t10k", test_images)):
        header = struct.pack(">IIII", IMAGE_MAGIC, images.shape[0], SIDE, SIDE)
        _write_gz(directory / f"{stem}-images-idx3-ubyte.gz", header + images.tobytes())
    for stem, labels in (("train", train_labels), ("t10k", test_labels)):
        header = struct.pack(">II", LABEL_MAGIC, labels.shape[0])
        _write_gz(directory / f"{stem}-labels-idx1-ubyte.gz", header + labels.tobytes())

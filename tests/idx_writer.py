"""IDX writers for test fixtures: the inverse of ``chaosnet.mnist.open_mnist``."""

import gzip
import os
import struct

import numpy as np

from chaosnet.mnist import IMAGE_MAGIC, LABEL_MAGIC, LabeledDataset


def serialize_images(images: np.ndarray) -> bytes:
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols) + images.tobytes()


def serialize_labels(labels: np.ndarray) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", LABEL_MAGIC, labels.shape[0]) + labels.tobytes()


def save_idx(dataset: LabeledDataset, images_path, labels_path) -> None:
    """Write the IDX pair; gzip container chosen by extension (mtime zeroed
    so equal datasets compress to equal files)."""
    for path, payload in (
        (images_path, serialize_images(dataset.images)),
        (labels_path, serialize_labels(dataset.labels)),
    ):
        path = os.fspath(path)
        if path.endswith(".gz"):
            with open(path, "wb") as fh:
                with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
                    gz.write(payload)
        else:
            with open(path, "wb") as fh:
                fh.write(payload)

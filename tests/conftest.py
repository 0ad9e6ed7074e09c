"""Shared fixtures: synthetic image sets, IDX files on disk, small trained models."""

import numpy as np
import pytest

from chaosnet.maps import MapParams
from chaosnet.mnist import LabeledDataset, find_mnist
from chaosnet.network import Architecture, TrainConfig, train
from chaosnet.reservoir import FillMethod, ReservoirConfig

from idx_writer import save_idx

# Orbit parameters used by most feature-level tests.  a1 = 0.9 sits in the
# chaotic band and none of the six filling methods overflow with it.
STABLE_PARAMS = MapParams(a1=0.9, a2=1.0, a3=1.51, a4=0.74, A=-0.81, B=0.51)

requires_mnist = pytest.mark.skipif(
    find_mnist() is None,
    reason="MNIST IDX files not found (set CHAOSNET_DATA or populate ./data)",
)


def make_band_images(count, seed, height=2, stride=2.8, value=230):
    """Ten synthetic classes: a horizontal bar of fixed height whose row offset
    encodes the label.  Every class has identical ink mass and identical
    even/odd pixel-index counts, so only the bar position separates them."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    images = np.zeros((count, 28, 28), dtype=np.uint8)
    for i, lab in enumerate(labels):
        top = int(round(lab * stride))
        images[i, top : top + height, :] = value
    return images, labels


def make_balanced_band_images(count, seed, **kwargs):
    """Same bar classes, but with an exactly uniform label histogram."""
    if count % 10:
        raise ValueError("count must be a multiple of 10")
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(10), count // 10)).astype(np.uint8)
    images = np.zeros((count, 28, 28), dtype=np.uint8)
    height = kwargs.get("height", 2)
    stride = kwargs.get("stride", 2.8)
    value = kwargs.get("value", 230)
    for i, lab in enumerate(labels):
        top = int(round(lab * stride))
        images[i, top : top + height, :] = value
    return images, labels


@pytest.fixture
def stable_params():
    return STABLE_PARAMS


@pytest.fixture
def reservoir_config():
    def _make(method_id=6, reservoir_size=25, params=STABLE_PARAMS, input_dim=785):
        return ReservoirConfig(
            method=FillMethod.from_id(method_id),
            params=params,
            reservoir_size=reservoir_size,
            input_dim=input_dim,
        )

    return _make


@pytest.fixture
def toy_dataset():
    """Fifty images, ten bar classes, random (mildly unbalanced) labels."""
    return make_band_images(50, seed=7)


@pytest.fixture(scope="session")
def synthetic_data_dir(tmp_path_factory):
    """A directory holding the four canonical IDX files with synthetic content
    (200 train / 50 test samples of the bar classes), gzip-compressed."""
    root = tmp_path_factory.mktemp("idxdata")
    train_images, train_labels = make_band_images(200, seed=11)
    test_images, test_labels = make_band_images(50, seed=12)
    save_idx(
        LabeledDataset(train_images, train_labels, provenance="synthetic-train"),
        root / "train-images-idx3-ubyte.gz",
        root / "train-labels-idx1-ubyte.gz",
    )
    save_idx(
        LabeledDataset(test_images, test_labels, provenance="synthetic-test"),
        root / "t10k-images-idx3-ubyte.gz",
        root / "t10k-labels-idx1-ubyte.gz",
    )
    return root


@pytest.fixture(scope="session")
def tiny_trained_model():
    """A fully trained model small enough for serialization and report tests."""
    images, labels = make_band_images(50, seed=7)
    config = ReservoirConfig(
        method=FillMethod.from_id(6),
        params=STABLE_PARAMS,
        reservoir_size=5,
    )
    settings = TrainConfig(max_epochs=2, learning_rate=0.5, batch_size=8, rng_seed=0)
    return train(images, labels, Architecture(5), config, settings)

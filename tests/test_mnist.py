"""IDX (de)serialization, byte-level determinism, and the stratified
optimization split."""

import gzip
import struct

import numpy as np
import pytest

from chaosnet.mnist import (
    DATA_DIR_ENV,
    IdxCountMismatchError,
    IdxFormatError,
    IdxMagicError,
    IdxTruncatedError,
    LabeledDataset,
    SplitPlan,
    find_mnist,
    load_idx,
    load_mnist,
    split_indices,
)

from idx_writer import save_idx, serialize_images, serialize_labels


def tiny_dataset(count=20, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=count, dtype=np.uint8)
    return LabeledDataset(images, labels, provenance="tiny")


# ---------------------------------------------------------------- serialization


def test_image_header_is_big_endian_idx3():
    ds = tiny_dataset(3)
    payload = serialize_images(ds.images)
    magic, count, rows, cols = struct.unpack(">iiii", payload[:16])
    assert (magic, count, rows, cols) == (2051, 3, 28, 28)
    assert len(payload) == 16 + 3 * 28 * 28
    assert payload[16:] == ds.images.tobytes()


def test_label_header_is_big_endian_idx1():
    labels = np.array([3, 1, 4], dtype=np.uint8)
    payload = serialize_labels(labels)
    magic, count = struct.unpack(">ii", payload[:8])
    assert (magic, count) == (2049, 3)
    assert payload[8:] == bytes([3, 1, 4])


def test_round_trip_plain_files(tmp_path):
    ds = tiny_dataset()
    images_path = tmp_path / "imgs-idx3-ubyte"
    labels_path = tmp_path / "labs-idx1-ubyte"
    save_idx(ds, images_path, labels_path)
    back = load_idx(images_path, labels_path, "roundtrip")
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)
    assert back.provenance == "roundtrip"


def test_round_trip_gzip_files(tmp_path):
    ds = tiny_dataset()
    images_path = tmp_path / "imgs-idx3-ubyte.gz"
    labels_path = tmp_path / "labs-idx1-ubyte.gz"
    save_idx(ds, images_path, labels_path)
    back = load_idx(images_path, labels_path)
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)


def test_gzip_output_is_deterministic(tmp_path):
    ds = tiny_dataset()
    paths = []
    for tag in ("a", "b"):
        ip = tmp_path / f"{tag}-imgs.gz"
        lp = tmp_path / f"{tag}-labs.gz"
        save_idx(ds, ip, lp)
        paths.append((ip, lp))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_gzip_content_equals_plain_content(tmp_path):
    ds = tiny_dataset()
    save_idx(ds, tmp_path / "p-imgs", tmp_path / "p-labs")
    save_idx(ds, tmp_path / "g-imgs.gz", tmp_path / "g-labs.gz")
    plain = (tmp_path / "p-imgs").read_bytes()
    unzipped = gzip.decompress((tmp_path / "g-imgs.gz").read_bytes())
    assert plain == unzipped


def test_resaved_file_is_byte_identical(tmp_path):
    ds = tiny_dataset()
    save_idx(ds, tmp_path / "one-imgs", tmp_path / "one-labs")
    back = load_idx(tmp_path / "one-imgs", tmp_path / "one-labs")
    save_idx(back, tmp_path / "two-imgs", tmp_path / "two-labs")
    assert (tmp_path / "one-imgs").read_bytes() == (tmp_path / "two-imgs").read_bytes()
    assert (tmp_path / "one-labs").read_bytes() == (tmp_path / "two-labs").read_bytes()


# ---------------------------------------------------------------- format errors


def test_swapped_files_raise_magic_error(tmp_path):
    ds = tiny_dataset(4)
    save_idx(ds, tmp_path / "imgs", tmp_path / "labs")
    with pytest.raises(IdxMagicError) as err:
        load_idx(tmp_path / "labs", tmp_path / "imgs")
    assert "labs" in str(err.value)


def test_truncated_image_file_raises(tmp_path):
    ds = tiny_dataset(4)
    save_idx(ds, tmp_path / "imgs", tmp_path / "labs")
    payload = (tmp_path / "imgs").read_bytes()
    (tmp_path / "imgs").write_bytes(payload[: len(payload) - 100])
    with pytest.raises(IdxTruncatedError) as err:
        load_idx(tmp_path / "imgs", tmp_path / "labs")
    assert "imgs" in str(err.value)


def test_count_mismatch_raises(tmp_path):
    ds = tiny_dataset(4)
    save_idx(ds, tmp_path / "imgs", tmp_path / "labs")
    short = LabeledDataset(ds.images[:3], ds.labels[:3], provenance="short")
    save_idx(short, tmp_path / "short-imgs", tmp_path / "short-labs")
    with pytest.raises(IdxCountMismatchError):
        load_idx(tmp_path / "imgs", tmp_path / "short-labs")


def test_unexpected_geometry_raises(tmp_path):
    images = np.zeros((2, 32, 32), dtype=np.uint8)
    header = struct.pack(">iiii", 2051, 2, 32, 32)
    (tmp_path / "imgs").write_bytes(header + images.tobytes())
    (tmp_path / "labs").write_bytes(
        struct.pack(">ii", 2049, 2) + bytes([0, 1])
    )
    with pytest.raises(IdxFormatError):
        load_idx(tmp_path / "imgs", tmp_path / "labs")


# ---------------------------------------------------------------- dataset type


def test_dataset_validates_shapes_and_types():
    with pytest.raises(ValueError):
        LabeledDataset(
            np.zeros((2, 28, 28), dtype=np.float64),
            np.zeros(2, dtype=np.uint8),
            provenance="bad",
        )
    with pytest.raises(ValueError):
        LabeledDataset(
            np.zeros((2, 28, 28), dtype=np.uint8),
            np.zeros(3, dtype=np.uint8),
            provenance="bad",
        )
    with pytest.raises(ValueError):
        LabeledDataset(
            np.zeros((2, 28, 28), dtype=np.uint8),
            np.array([0, 11], dtype=np.uint8),
            provenance="bad",
        )


def test_dataset_len_histogram_subset():
    images = np.zeros((6, 28, 28), dtype=np.uint8)
    labels = np.array([0, 0, 1, 2, 2, 2], dtype=np.uint8)
    ds = LabeledDataset(images, labels, provenance="base")
    assert len(ds) == 6
    hist = np.bincount(ds.labels, minlength=10)
    assert hist.tolist() == [2, 1, 3, 0, 0, 0, 0, 0, 0, 0]
    sub = ds.subset([2, 3], provenance="picked")
    assert len(sub) == 2
    assert sub.labels.tolist() == [1, 2]
    assert sub.provenance == "picked"


# ---------------------------------------------------------------- splits


def balanced_labels(per_class):
    return np.repeat(np.arange(10, dtype=np.uint8), per_class)


def test_split_is_deterministic():
    labels = balanced_labels(50)
    plan = SplitPlan(optimization_fraction=0.2, rng_seed=3)
    a = split_indices(labels, plan)
    b = split_indices(labels, plan)
    assert np.array_equal(a, b)
    different = split_indices(labels, SplitPlan(optimization_fraction=0.2, rng_seed=4))
    assert not np.array_equal(a, different)


def test_stratified_split_takes_equal_quota():
    labels = balanced_labels(6000)
    idx = split_indices(labels, SplitPlan(optimization_fraction=0.2, rng_seed=0))
    assert idx.shape == (12000,)
    assert np.array_equal(idx, np.sort(idx))
    assert len(np.unique(idx)) == 12000
    hist = np.bincount(labels[idx], minlength=10)
    assert np.all(hist == 1200)


def test_stratified_remainder_goes_to_lowest_classes():
    labels = balanced_labels(10)  # 100 samples
    idx = split_indices(labels, SplitPlan(optimization_fraction=0.23, rng_seed=1))
    hist = np.bincount(labels[idx], minlength=10)
    assert hist.tolist() == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_unstratified_split_is_sorted_sample():
    labels = balanced_labels(30)
    plan = SplitPlan(optimization_fraction=0.1, rng_seed=0, stratified=False)
    idx = split_indices(labels, plan)
    assert idx.shape == (30,)
    assert np.array_equal(idx, np.sort(idx))
    assert len(np.unique(idx)) == 30


def test_split_rejects_starved_class():
    labels = np.concatenate([balanced_labels(5), np.zeros(50, dtype=np.uint8)])
    with pytest.raises(ValueError):
        split_indices(labels, SplitPlan(optimization_fraction=0.9, rng_seed=0))


def test_split_plan_validation():
    with pytest.raises(ValueError):
        SplitPlan(optimization_fraction=0.0)
    with pytest.raises(ValueError):
        SplitPlan(optimization_fraction=1.2)


def test_split_of_no_rows_is_refused():
    labels = balanced_labels(1)[:2]  # a fraction 0.2 of 2 rows rounds to 0
    for stratified in (True, False):
        with pytest.raises(ValueError):
            split_indices(labels, SplitPlan(rng_seed=0, stratified=stratified))


def test_split_subset_is_the_optimization_subset_of_the_training_base():
    images = np.zeros((60000, 28, 28), dtype=np.uint8)
    labels = np.tile(np.arange(10, dtype=np.uint8), 6000)
    ds = LabeledDataset(images, labels, provenance="train60k")
    sub = ds.subset(split_indices(ds.labels, SplitPlan()), "optimization12k")
    assert len(sub) == 12000
    assert sub.provenance == "optimization12k"
    assert np.all(np.bincount(sub.labels, minlength=10) == 1200)


# ---------------------------------------------------------------- discovery


def test_find_mnist_missing_returns_none(tmp_path):
    assert find_mnist(tmp_path) is None


def test_find_mnist_locates_gz_files(synthetic_data_dir):
    found = find_mnist(synthetic_data_dir)
    assert found is not None
    assert set(found) == {"train_images", "train_labels", "test_images", "test_labels"}
    assert all(p.suffix == ".gz" for p in found.values())


def test_find_mnist_prefers_plain_over_gz(tmp_path, synthetic_data_dir):
    import shutil

    for name in (
        "train-images-idx3-ubyte.gz",
        "train-labels-idx1-ubyte.gz",
        "t10k-images-idx3-ubyte.gz",
        "t10k-labels-idx1-ubyte.gz",
    ):
        shutil.copy(synthetic_data_dir / name, tmp_path / name)
    plain = tmp_path / "train-images-idx3-ubyte"
    plain.write_bytes(gzip.decompress((tmp_path / "train-images-idx3-ubyte.gz").read_bytes()))
    found = find_mnist(tmp_path)
    assert found["train_images"] == plain
    assert found["train_labels"].suffix == ".gz"


def test_find_mnist_env_var_default(tmp_path, monkeypatch, synthetic_data_dir):
    monkeypatch.setenv(DATA_DIR_ENV, str(synthetic_data_dir))
    assert find_mnist() is not None
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    assert find_mnist() is None


def test_load_mnist_missing_raises_with_path(tmp_path):
    with pytest.raises(FileNotFoundError) as err:
        load_mnist(tmp_path)
    assert str(tmp_path) in str(err.value)


def test_load_mnist_reads_synthetic_corpus(synthetic_data_dir):
    train, test = load_mnist(synthetic_data_dir)
    assert len(train) == 200
    assert len(test) == 50
    assert train.provenance == "train60k"
    assert test.provenance == "test10k"

"""IDX (de)serialization, byte-level determinism, and the stratified
optimization split."""

import gzip
import itertools
import struct

import numpy as np
import pytest

from chaosnet.mnist import (
    DATA_DIR_ENV,
    IdxCountMismatchError,
    IdxFormatError,
    IdxImages,
    IdxMagicError,
    IdxMissingError,
    IdxTruncatedError,
    LabeledDataset,
    SplitPlan,
    find_mnist,
    load_mnist,
    open_mnist,
    split_indices,
)

from idx_writer import save_idx, serialize_images, serialize_labels


def tiny_dataset(count=20, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=count, dtype=np.uint8)
    return LabeledDataset(images, labels)


def save_mnist(directory, train, test=None, suffix=""):
    """Write ``train`` and ``test`` (by default ``train`` again) as the four
    canonical IDX files of ``directory``; their paths, keyed as
    :func:`find_mnist` keys them."""
    directory.mkdir(exist_ok=True)
    for prefix, ds in (("train", train), ("t10k", train if test is None else test)):
        save_idx(ds, directory / f"{prefix}-images-idx3-ubyte{suffix}",
                 directory / f"{prefix}-labels-idx1-ubyte{suffix}")
    return find_mnist(directory)


def read_training_set(directory):
    """The training images of ``directory``, read whole, and their labels."""
    (images, labels), _ = open_mnist(directory)
    return images.read(), labels


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
    save_mnist(tmp_path, ds)
    images, labels = read_training_set(tmp_path)
    assert np.array_equal(images, ds.images)
    assert np.array_equal(labels, ds.labels)


def test_round_trip_gzip_files(tmp_path):
    ds = tiny_dataset()
    save_mnist(tmp_path, ds, suffix=".gz")
    images, labels = read_training_set(tmp_path)
    assert np.array_equal(images, ds.images)
    assert np.array_equal(labels, ds.labels)


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
    one = save_mnist(tmp_path / "one", tiny_dataset())
    back = LabeledDataset(*read_training_set(tmp_path / "one"))
    save_idx(back, tmp_path / "two-imgs", tmp_path / "two-labs")
    assert one["train_images"].read_bytes() == (tmp_path / "two-imgs").read_bytes()
    assert one["train_labels"].read_bytes() == (tmp_path / "two-labs").read_bytes()


# ---------------------------------------------------------------- format errors


def test_swapped_files_raise_magic_error(tmp_path):
    paths = save_mnist(tmp_path, tiny_dataset(4))
    images, labels = paths["train_images"], paths["train_labels"]
    payloads = images.read_bytes(), labels.read_bytes()
    labels.write_bytes(payloads[0])
    images.write_bytes(payloads[1])  # the label file where the images belong
    with pytest.raises(IdxMagicError) as err:
        open_mnist(tmp_path)
    assert str(images) in str(err.value)


def test_truncated_image_file_raises(tmp_path):
    images = save_mnist(tmp_path, tiny_dataset(4))["train_images"]
    payload = images.read_bytes()
    images.write_bytes(payload[: len(payload) - 100])
    with pytest.raises(IdxTruncatedError) as err:
        read_training_set(tmp_path)
    assert str(images) in str(err.value)


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize("kind", ["images", "labels"])
def test_bytes_past_the_header_count_raise_truncated_with_both_counts(tmp_path, kind, suffix):
    ds = tiny_dataset(4)
    long = save_mnist(tmp_path, ds, suffix=suffix)[f"train_{kind}"]
    payload = serialize_images(ds.images) if kind == "images" else serialize_labels(ds.labels)
    long.write_bytes(gzip.compress(payload + b"tail") if suffix else payload + b"tail")
    with pytest.raises(IdxTruncatedError) as err:
        read_training_set(tmp_path)
    message = str(err.value)
    assert str(long) in message
    assert f"expected {len(payload)} bytes" in message
    assert f"found {len(payload) + 4}" in message


@pytest.mark.parametrize("count", [4, 3], ids=["header-count", "fewer"])
@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_a_long_image_file_raises_before_its_last_block_is_handed_out(tmp_path, suffix, count):
    """A consumer that takes only the blocks it asked for, as
    ``zip(bounds, images.blocks(bounds))`` does, still has the whole file's
    length checked, also when it asks for fewer images than the header's."""
    payload = serialize_images(tiny_dataset(4).images)
    long = tmp_path / f"long{suffix}"
    long.write_bytes(gzip.compress(payload + b"tail") if suffix else payload + b"tail")
    bounds = [(0, 2), (2, count)]
    blocks = IdxImages(long, count).blocks(bounds)
    with pytest.raises(IdxTruncatedError, match=f"found {len(payload) + 4} "):
        list(itertools.islice(blocks, len(bounds)))


@pytest.mark.parametrize("count", [4, 3], ids=["header-count", "fewer"])
def test_read_holds_count_images_and_checks_the_whole_file(tmp_path, count):
    ds = tiny_dataset(4)
    path = tmp_path / "imgs"
    path.write_bytes(serialize_images(ds.images))
    images = IdxImages(path, count).read()
    assert np.array_equal(images, ds.images[:count]) and not images.flags.writeable
    path.write_bytes(serialize_images(ds.images)[:-100])
    with pytest.raises(IdxTruncatedError, match=f"found {16 + 4 * 784 - 100} "):
        IdxImages(path, count).read()


@pytest.mark.parametrize(
    "dims",
    [(2**32 - 1, 28, 28), (2**32 - 1, 2**32 - 1, 2**32 - 1)],
    ids=["terabytes", "unaddressable"],
)
def test_a_header_claiming_more_than_memory_is_reported_as_truncated(tmp_path, dims):
    (tmp_path / "imgs").write_bytes(struct.pack(">IIII", 2051, *dims) + bytes(10))
    with pytest.raises(IdxTruncatedError, match="found 26 "):
        IdxImages(tmp_path / "imgs", dims[0]).read()


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_loaded_images_and_labels_are_read_only(tmp_path, suffix):
    save_mnist(tmp_path, tiny_dataset(3), suffix=suffix)
    for arr in read_training_set(tmp_path):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


def test_loading_60k_gzipped_images_holds_them_once(tmp_path):
    """The images are decompressed straight into their array, a bounded piece
    at a time: no copy of the file's bytes is held beside it."""
    import tracemalloc

    count = 60_000
    images = np.zeros((count, 28, 28), dtype=np.uint8)
    images[:, 14, :] = np.arange(count, dtype=np.uint8)[:, None]
    labels = (np.arange(count) % 10).astype(np.uint8)
    save_mnist(tmp_path, LabeledDataset(images, labels), tiny_dataset(), suffix=".gz")
    del images, labels
    tracemalloc.start()
    try:
        images, labels = read_training_set(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert images[123, 14, 5] == 123 and labels[-1] == 9
    size = images.nbytes
    assert peak < size + 4e6, f"peak {peak / 1e6:.1f} MB for {size / 1e6:.1f} MB of images"


def test_count_mismatch_raises(tmp_path):
    ds = tiny_dataset(4)
    labels = save_mnist(tmp_path, ds)["train_labels"]
    labels.write_bytes(serialize_labels(ds.labels[:3]))
    with pytest.raises(IdxCountMismatchError):
        open_mnist(tmp_path)


def test_a_label_above_9_raises_naming_file_offset_and_value(tmp_path):
    labels = save_mnist(tmp_path, tiny_dataset(6))["train_labels"]
    payload = bytearray(labels.read_bytes())
    payload[8 + 3] = 12  # the fourth label, after the 8-byte header
    labels.write_bytes(bytes(payload))
    with pytest.raises(IdxFormatError) as caught:
        open_mnist(tmp_path)
    assert str(caught.value) == f"{labels}: label 12 at offset 11 is not a digit 0-9"


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_a_pair_of_no_images_raises_naming_the_image_file(tmp_path, suffix):
    images = save_mnist(tmp_path, tiny_dataset(0), suffix=suffix)["train_images"]
    with pytest.raises(IdxFormatError) as caught:
        open_mnist(tmp_path)
    assert str(caught.value) == f"{images}: holds no images"


def test_unexpected_geometry_raises(tmp_path):
    images = save_mnist(tmp_path, tiny_dataset(2))["train_images"]
    header = struct.pack(">iiii", 2051, 2, 32, 32)
    images.write_bytes(header + np.zeros((2, 32, 32), dtype=np.uint8).tobytes())
    with pytest.raises(IdxFormatError):
        open_mnist(tmp_path)


# ---------------------------------------------------------------- dataset type


def test_dataset_validates_shapes_and_types():
    with pytest.raises(ValueError):
        LabeledDataset(
            np.zeros((2, 28, 28), dtype=np.float64),
            np.zeros(2, dtype=np.uint8),
        )
    with pytest.raises(ValueError):  # refused, not cast
        LabeledDataset(
            np.zeros((2, 28, 28), dtype=np.uint8),
            np.zeros(2, dtype=np.int64),
        )
    with pytest.raises(ValueError):
        LabeledDataset(
            np.zeros((2, 28, 28), dtype=np.uint8),
            np.zeros(3, dtype=np.uint8),
        )
    with pytest.raises(ValueError):
        LabeledDataset(
            np.zeros((2, 28, 28), dtype=np.uint8),
            np.array([0, 11], dtype=np.uint8),
        )


def test_dataset_len_histogram_subset():
    images = np.zeros((6, 28, 28), dtype=np.uint8)
    labels = np.array([0, 0, 1, 2, 2, 2], dtype=np.uint8)
    ds = LabeledDataset(images, labels)
    assert len(ds) == 6
    hist = np.bincount(ds.labels, minlength=10)
    assert hist.tolist() == [2, 1, 3, 0, 0, 0, 0, 0, 0, 0]
    sub = ds.subset([2, 3])
    assert len(sub) == 2
    assert sub.labels.tolist() == [1, 2]


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
    ds = LabeledDataset(images, labels)
    sub = ds.subset(split_indices(ds.labels, SplitPlan()))
    assert len(sub) == 12000
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
    # a data error, not an OSError: the CLI maps it to exit 3, while a
    # failed write stays a traceback
    with pytest.raises(IdxMissingError) as err:
        load_mnist(tmp_path)
    assert str(tmp_path) in str(err.value)


def test_load_mnist_reads_synthetic_corpus(synthetic_data_dir):
    train, test = load_mnist(synthetic_data_dir)
    assert len(train) == 200
    assert len(test) == 50

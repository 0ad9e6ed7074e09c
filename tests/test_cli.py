"""End-to-end runs of every subcommand against a synthetic IDX corpus,
plus the exit-code contract."""

import copy
import dataclasses
import gzip
import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import chaosnet
from chaosnet import analysis, footprint, mnist, network, rpso
from chaosnet.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_OVERFLOW,
    _apply_set,
    main,
    settings,
)
from chaosnet.mnist import SplitPlan
from chaosnet.network import TrainConfig

from conftest import fail_writing, make_band_images
from idx_writer import save_idx


def run(*args):
    return main(list(args))


def stamp(out, command):
    """The first line of every table a command writes into ``out``."""
    digest = hashlib.sha256((out / f"manifest-{command}.yaml").read_bytes()).hexdigest()
    return f"# chaosnet {chaosnet.__version__} manifest sha256:{digest[:16]}"


def common_flags(synthetic_data_dir, out_dir, *extra):
    return [
        "--data-dir",
        str(synthetic_data_dir),
        "--output-dir",
        str(out_dir),
        *extra,
    ]


def train_smoke_args(synthetic_data_dir, out_dir):
    return [
        "train",
        *common_flags(synthetic_data_dir, out_dir),
        "--set",
        "architecture.P=5",
        "--set",
        "params.a1=0.9",
        "--set",
        "train.max_epochs=2",
        "--set",
        "train.batch_size=8",
        "--subset",
        "80",
    ]


# ---------------------------------------------------------------- train


def test_train_smoke_writes_artifacts(synthetic_data_dir, tmp_path):
    out = tmp_path / "out"
    assert run(*train_smoke_args(synthetic_data_dir, out)) == EXIT_OK

    model_payload = json.loads((out / "model.json").read_text())
    assert model_payload["architecture"]["reservoir_size"] == 5

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["architecture"] == "784:5:10"
    assert metrics["method"] == 4
    assert 0.0 <= metrics["test_accuracy"] <= 1.0
    assert len(metrics["epoch_losses"]) == 2
    confusion = np.asarray(metrics["confusion"])
    assert confusion.shape == (10, 10)
    assert confusion.sum() == metrics["test_size"] == 50

    manifest_text = (out / "manifest-train.yaml").read_text()
    digest = hashlib.sha256(manifest_text.encode()).hexdigest()
    assert metrics["manifest_sha256"] == digest
    manifest = yaml.safe_load(manifest_text)
    assert manifest["artifact_version"] == chaosnet.__version__
    assert manifest["config"]["architecture"]["P"] == 5


def test_train_projects_each_dataset_once(synthetic_data_dir, tmp_path, monkeypatch):
    from chaosnet.reservoir import Reservoir

    projected = []
    original = Reservoir.preactivation

    def spy(self, inputs, mode="materialized"):
        projected.append(len(inputs))
        return original(self, inputs, mode)

    monkeypatch.setattr(Reservoir, "preactivation", spy)
    out = tmp_path / "out"
    assert run(*train_smoke_args(synthetic_data_dir, out)) == EXIT_OK
    # 80 training rows (statistics and features), then 50 test rows
    # (accuracy and confusion matrix)
    assert projected == [80, 50]
    metrics = json.loads((out / "metrics.json").read_text())
    confusion = np.asarray(metrics["confusion"])
    assert metrics["test_accuracy"] == np.trace(confusion) / metrics["test_size"]


def test_train_command_holds_no_image_stack(tmp_path):
    """``train`` (784:25:10, 1 epoch) on 60k/10k gzip IDX files holds the
    60k x 25 pre-activations and one projection buffer, not the 47 + 7.8 MB
    of uint8 images: the files are read one projection block at a time.
    Reading both stacks whole peaked at 76.7 MB."""
    import tracemalloc

    from chaosnet.reservoir import INPUT_DIM, PROJECTION_CHUNK_ROWS

    data = tmp_path / "data"
    data.mkdir()
    for prefix, count, seed in (("train", 60_000, 1), ("t10k", 10_000, 2)):
        images, labels = make_band_images(count, seed)
        save_idx(mnist.LabeledDataset(images, labels),
                 data / f"{prefix}-images-idx3-ubyte.gz", data / f"{prefix}-labels-idx1-ubyte.gz")
    del images, labels
    p = 25
    args = ["train", *common_flags(data, tmp_path / "out"),
            "--set", f"architecture.P={p}", "--set", "train.max_epochs=1"]
    tracemalloc.start()
    try:
        assert run(*args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * 60_000 * p + 8 * INPUT_DIM * PROJECTION_CHUNK_ROWS + 6e6
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_train_missing_data_dir_exits_3(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    code = run("train", "--data-dir", str(empty), "--output-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA


def test_train_creates_a_missing_model_parent(synthetic_data_dir, tmp_path):
    # as output_dir is created; the run used to train, then exit 3
    model = tmp_path / "missing" / "x" / "model.json"
    args = [*train_smoke_args(synthetic_data_dir, tmp_path / "out"), "--model", str(model)]
    assert run(*args) == EXIT_OK
    assert json.loads(model.read_text())["architecture"]["reservoir_size"] == 5


def test_a_failed_write_is_not_a_data_error(synthetic_data_dir, tmp_path, monkeypatch):
    # a write that fails after the checks stays a traceback (exit 1), not exit 3
    def fail(model, path):
        raise FileNotFoundError(2, "No such file or directory", str(path))

    monkeypatch.setattr(network, "save_model", fail)
    with pytest.raises(FileNotFoundError):
        run(*train_smoke_args(synthetic_data_dir, tmp_path / "out"))


def test_a_failed_metrics_write_keeps_the_earlier_run(synthetic_data_dir, tmp_path, monkeypatch):
    """A second train into an earlier run's directory whose write of
    metrics.json fails stays a traceback (exit 1): metrics.json and the
    manifest, written after it, keep the earlier run's bytes, and no
    temporary file is left.  The model, written before, is the new one."""
    out = tmp_path / "out"
    args = train_smoke_args(synthetic_data_dir, out)
    assert run(*args, "--set", "method=6") == EXIT_OK
    before = files_of(out)
    fail_writing(monkeypatch, "write", "metrics.json")
    with pytest.raises(OSError):
        run(*args, "--set", "method=4")
    after = files_of(out)
    assert set(after) == set(before)
    assert after["metrics.json"] == before["metrics.json"]
    assert after["manifest-train.yaml"] == before["manifest-train.yaml"]
    assert after["model.json"] != before["model.json"]


def test_train_overflowing_params_exit_4(synthetic_data_dir, tmp_path):
    args = train_smoke_args(synthetic_data_dir, tmp_path / "out")
    args[args.index("params.a1=0.9")] = "params.a1=3.0"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(*args) == EXIT_OVERFLOW


def test_train_divergent_learning_rate_exit_5(synthetic_data_dir, tmp_path):
    args = train_smoke_args(synthetic_data_dir, tmp_path / "out")
    args += ["--set", "train.learning_rate=1e308"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(*args) == EXIT_DIVERGENCE


def files_of(out):
    """Every file under ``out``, by relative path, with its bytes."""
    return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}


def test_failed_train_leaves_the_output_dir_as_it_was(synthetic_data_dir, tmp_path):
    """A run computes first and writes after, its manifest last: a run that
    overflows rewrites none of the files an earlier run left."""
    out = tmp_path / "out"
    args = train_smoke_args(synthetic_data_dir, out)
    assert run(*args, "--set", "method=6") == EXIT_OK
    before = files_of(out)
    assert {"model.json", "metrics.json", "manifest-train.yaml"} <= set(before)
    args[args.index("params.a1=0.9")] = "params.a1=2.0"
    assert run(*args, "--set", "method=4") == EXIT_OVERFLOW
    assert files_of(out) == before


@pytest.mark.parametrize("command", ["train", "optimize", "grid", "analyze", "report"])
def test_a_failed_run_leaves_no_output_dir(tmp_path, command):
    """A missing output directory is created when the first file is written,
    so a run that fails on its input leaves no empty directory behind."""
    empty = tmp_path / "nothing"
    empty.mkdir()
    out = tmp_path / "new" / "out"
    if command == "train":
        args = train_smoke_args(empty, out)
    elif command == "optimize":
        args = optimize_smoke_args(empty, out)
    elif command == "grid":
        args = grid_smoke_args(empty, out)
    elif command == "analyze":
        args = analyze_accuracy_args(empty, out)
    else:
        model = tmp_path / "model.json"
        model.write_text("{}")
        args = ["report", "--model", str(model), "--output-dir", str(out)]
    assert run(*args) == EXIT_DATA
    assert not (tmp_path / "new").exists()


def copy_of(synthetic_data_dir, folder):
    """``folder``, made to hold a copy of the synthetic IDX files."""
    folder.mkdir()
    for path in synthetic_data_dir.iterdir():
        (folder / path.name).write_bytes(path.read_bytes())
    return folder


def test_a_label_above_9_exits_3(synthetic_data_dir, tmp_path, capsys):
    folder = copy_of(synthetic_data_dir, tmp_path / "data")
    labels = folder / "t10k-labels-idx1-ubyte.gz"
    payload = bytearray(gzip.decompress(labels.read_bytes()))
    payload[8] = 12  # the first label, right after the 8-byte header
    labels.write_bytes(gzip.compress(bytes(payload)))
    out = tmp_path / "out"
    assert run(*train_smoke_args(folder, out)) == EXIT_DATA
    assert f"{labels}: label 12 at offset 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "optimize", "grid", "analyze"])
@pytest.mark.parametrize("empty", ["train", "t10k"])
def test_an_idx_pair_of_no_images_exits_3(synthetic_data_dir, tmp_path, capsys, empty, command):
    """A training or test set of 0 images is refused as it is read, before
    anything is trained: train used to train, then divide by the 0 test
    images (exit 1), and grid and analyze's accuracy column, and train on an
    empty training set, exited 1 on an empty dataset."""
    folder = copy_of(synthetic_data_dir, tmp_path / "data")
    images = folder / f"{empty}-images-idx3-ubyte.gz"
    nothing = mnist.LabeledDataset(np.zeros((0, 28, 28), np.uint8), np.zeros(0, np.uint8))
    save_idx(nothing, images, folder / f"{empty}-labels-idx1-ubyte.gz")
    out = tmp_path / "out"
    assert run(*data_command_args(command, folder, out)) == EXIT_DATA
    assert f"{images}: holds no images" in capsys.readouterr().err
    assert not out.exists()


def data_command_args(command, data_dir, out_dir):
    """The smoke-run arguments of ``command``, one of the four that read IDX
    data (``analyze`` with its accuracy column)."""
    return {
        "train": train_smoke_args, "optimize": optimize_smoke_args, "grid": grid_smoke_args,
        "analyze": analyze_accuracy_args,
    }[command](data_dir, out_dir)


@pytest.mark.parametrize("command", ["train", "optimize", "grid", "analyze"])
def test_every_data_command_reports_the_same_first_fault(
    synthetic_data_dir, tmp_path, capsys, command
):
    """A training image file cut 100 bytes short and a test label of 12:
    every command checks all four headers and both label files before it
    reads an image, so each reports the label.  Only train did; optimize,
    grid and analyze read the training images whole first and reported the
    cut file."""
    folder = copy_of(synthetic_data_dir, tmp_path / "data")
    rewrite(folder / "train-images-idx3-ubyte.gz", lambda b: b[:-100])
    labels = folder / "t10k-labels-idx1-ubyte.gz"
    rewrite(labels, lambda b: b[:8] + bytes([12]) + b[9:])
    out = tmp_path / "out"
    assert run(*data_command_args(command, folder, out)) == EXIT_DATA
    assert f"{labels}: label 12 at offset 8 is not a digit 0-9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subset", [None, 30], ids=["whole", "subset"])
@pytest.mark.parametrize(
    "command, read",
    [("optimize", ["train"]), ("grid", ["train", "t10k"])],
    ids=["optimize", "grid"],
)
def test_each_command_reads_the_images_it_scores_and_no_more(
    synthetic_data_dir, tmp_path, monkeypatch, command, read, subset
):
    """``optimize`` reads only the training images, ``grid`` both sets, and
    under ``--subset N`` only the first N images of a file go into an array.
    Both used to read both stacks whole, then copy the first N images."""
    reads = []
    blocks = mnist.IdxImages.blocks

    def spy(self, bounds):
        reads.append((self.path.name, list(bounds)))
        return blocks(self, bounds)

    monkeypatch.setattr(mnist.IdxImages, "blocks", spy)
    args = data_command_args(command, synthetic_data_dir, tmp_path / "out")
    at = args.index("--subset")
    if subset is None:
        del args[at : at + 2]
    else:
        args[at + 1] = str(subset)
    assert run(*args) == EXIT_OK
    counts = {"train": 200, "t10k": 50}
    assert reads == [
        (f"{prefix}-images-idx3-ubyte.gz", [(0, subset or counts[prefix])]) for prefix in read
    ]


def test_optimize_checks_the_test_files_but_never_reads_their_images(
    synthetic_data_dir, tmp_path
):
    """``optimize`` scores on the training base: the test files' headers and
    labels are checked (a test label of 12 exits 3, as the test above pins),
    but a test image file cut short goes unread.  It used to exit 3."""
    folder = copy_of(synthetic_data_dir, tmp_path / "data")
    rewrite(folder / "t10k-images-idx3-ubyte.gz", lambda b: b[:-100])
    assert run(*optimize_smoke_args(folder, tmp_path / "out")) == EXIT_OK


def rewrite(path, edit):
    """Replace the gzip IDX file ``path`` by ``edit`` of its uncompressed bytes."""
    path.write_bytes(gzip.compress(edit(gzip.decompress(path.read_bytes()))))


def recount(payload, count, item):
    """``payload`` cut to ``count`` items of ``item`` bytes, its header saying so."""
    header = 16 if item > 1 else 8
    return payload[:4] + count.to_bytes(4, "big") + payload[8:header + count * item]


MAGIC = {"images": mnist.IMAGE_MAGIC, "labels": mnist.LABEL_MAGIC}


@pytest.mark.parametrize("prefix", ["train", "t10k"])
@pytest.mark.parametrize(
    "kind, fault",
    [("images", "magic"), ("labels", "magic"), ("images", "no images"),
     ("images", "count"), ("labels", "count"), ("labels", "label 12")],
)
def test_train_refuses_a_header_or_label_fault_before_projecting(
    synthetic_data_dir, tmp_path, monkeypatch, capsys, prefix, kind, fault
):
    """The headers of all four files and both label files are checked before
    an image is projected, so a fault in the test files costs no training."""
    from chaosnet.reservoir import Reservoir

    folder = copy_of(synthetic_data_dir, tmp_path / "data")
    path = folder / f"{prefix}-{kind}-idx{3 if kind == 'images' else 1}-ubyte.gz"
    images = folder / f"{prefix}-images-idx3-ubyte.gz"
    labels = folder / f"{prefix}-labels-idx1-ubyte.gz"
    count = {"train": 200, "t10k": 50}[prefix]
    item = 784 if kind == "images" else 1
    if fault == "magic":
        other = MAGIC["labels" if kind == "images" else "images"]
        rewrite(path, lambda b: other.to_bytes(4, "big") + b[4:])
        expected = f"{path}: expected {kind[:-1]} magic {MAGIC[kind]} at offset 0, found {other}"
    elif fault == "no images":
        rewrite(path, lambda b: recount(b, 0, item))
        expected = f"{path}: holds no images"
    elif fault == "count":
        rewrite(path, lambda b: recount(b, count - 1, item))
        n_images, n_labels = (count - 1, count) if kind == "images" else (count, count - 1)
        expected = f"{labels}: {n_labels} labels for {n_images} images in {images}"
    else:
        rewrite(path, lambda b: b[:8] + bytes([12]) + b[9:])
        expected = f"{path}: label 12 at offset 8 is not a digit 0-9"
    projected = []
    original = Reservoir.preactivation
    monkeypatch.setattr(Reservoir, "preactivation",
                        lambda self, *args: projected.append(args) or original(self, *args))
    out = tmp_path / "out"
    assert run(*train_smoke_args(folder, out)) == EXIT_DATA
    assert expected in capsys.readouterr().err
    assert projected == []
    assert not out.exists()


@pytest.mark.parametrize("subset", [True, False], ids=["subset", "whole"])
@pytest.mark.parametrize(
    "prefix, fault", [("train", "cut"), ("t10k", "cut"), ("train", "long")]
)
def test_train_refuses_an_image_file_of_another_length(
    synthetic_data_dir, tmp_path, capsys, prefix, fault, subset
):
    """An image body cut short mid-file, or running on past its header's
    count, exits 3 when its images are read, with both byte counts; under
    ``--subset`` too, which reads only the first images of the training file
    but still the whole file."""
    folder = copy_of(synthetic_data_dir, tmp_path / "data")
    path = folder / f"{prefix}-images-idx3-ubyte.gz"
    length = len(gzip.decompress(path.read_bytes()))
    found = length - 100 if fault == "cut" else length + 4
    rewrite(path, lambda b: b[:-100] if fault == "cut" else b + b"tail")
    count = {"train": 200, "t10k": 50}[prefix]
    out = tmp_path / "out"
    args = train_smoke_args(folder, out)
    if not subset:
        del args[args.index("--subset") : args.index("--subset") + 2]
    assert run(*args) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {path}: expected {length} bytes for {count} images of 28x28, "
        f"found {found} (data ends at offset {found})\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------- report


@pytest.fixture
def trained_model_path(synthetic_data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run(*train_smoke_args(synthetic_data_dir, out)) == EXIT_OK
    return out / "model.json"


def test_report_counts_streaming_values(trained_model_path, tmp_path):
    out = tmp_path / "rep"
    code = run(
        "report",
        "--model",
        str(trained_model_path),
        "--output-dir",
        str(out),
    )
    assert code == EXIT_OK
    streaming = (out / "footprint-streaming.csv").read_text().splitlines()
    assert streaming[0].startswith("# chaosnet ")
    header = streaming[1].split(",")
    row = streaming[2].split(",")
    assert row[header.index("reservoir_parameter_count")] == "6"
    assert (out / "footprint-materialized.csv").exists()
    text = (out / "footprint.txt").read_text()
    assert "streaming" in text.lower() and "materialized" in text.lower()


@pytest.fixture(scope="module")
def report_p25(synthetic_data_dir, tmp_path_factory):
    """The report of a P = 25 model: 6 map scalars stream, 2 x 25 = 50
    normalization statistics, 26 x 10 = 260 head weights."""
    trained = tmp_path_factory.mktemp("p25")
    args = train_smoke_args(synthetic_data_dir, trained)
    args[args.index("architecture.P=5")] = "architecture.P=25"
    assert run(*args) == EXIT_OK
    out = trained / "rep"
    args = ["report", "--model", str(trained / "model.json"), "--output-dir", str(out)]
    assert run(*args) == EXIT_OK
    return out


def test_report_footprint_csv_layout(report_p25):
    lines = (report_p25 / "footprint-streaming.csv").read_text().splitlines()
    assert lines[0] == stamp(report_p25, "report")
    header = lines[1].split(",")
    assert "reservoir_parameter_count" in header
    assert "classifier_weight_count" in header
    row = lines[2].split(",")
    assert row[header.index("reservoir_parameter_count")] == "6"
    assert row[header.index("normalization_value_count")] == "50"
    assert row[header.index("classifier_weight_count")] == "260"
    assert row[header.index("estimated_bytes")] == str(316 * 8)


def test_report_footprint_text_mentions_both_counts(report_p25):
    text = (report_p25 / "footprint.txt").read_text()
    assert "6" in text
    assert "260" in text
    assert "normalization statistics:  50" in text
    assert "total stored values:       316" in text
    assert "streaming" in text.lower()


def test_report_without_model_exits_2(tmp_path):
    assert run("report", "--output-dir", str(tmp_path / "o")) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_report_corrupt_model_exits_3(tmp_path):
    bad = tmp_path / "model.json"
    bad.write_text('{"format_version": 1, "oops": true}')
    code = run("report", "--model", str(bad), "--output-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("reservoir", "input_dim", 784),
        ("architecture", "n_classes", 9),
        ("classifier", "output_size", 11),
    ],
)
def test_report_of_a_model_of_another_shape_exits_3(
    trained_model_path, tmp_path, section, key, value
):
    """Every model has 785 inputs and 10 classes; a file claiming another
    width or class count is a bad file, not a smaller model."""
    payload = json.loads(trained_model_path.read_text())
    payload[section][key] = value
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload))
    code = run("report", "--model", str(bad), "--output-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA


@pytest.mark.parametrize("key", ["z_min", "z_max"])
def test_report_of_a_model_without_statistics_exits_3(trained_model_path, tmp_path, key):
    """A trained model always has its statistics; a file with a null in
    their place is a bad file (report exited 0 on a null z_min)."""
    payload = json.loads(trained_model_path.read_text())
    payload["reservoir"][key] = None
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert run("report", "--model", str(bad), "--output-dir", str(out)) == EXIT_DATA
    assert not out.exists()


# ---------------------------------------------------------------- optimize


def optimize_smoke_args(synthetic_data_dir, out_dir):
    return [
        "optimize",
        *common_flags(synthetic_data_dir, out_dir),
        "--set",
        "architecture.P=5",
        "--set",
        "optimize.particles=6",
        "--set",
        "optimize.iterations=2",
        "--set",
        "train.max_epochs=1",
        "--set",
        "train.batch_size=16",
        "--set",
        "split.fraction=0.5",
        "--set",
        "split.stratified=false",
        "--subset",
        "60",
    ]


def test_optimize_smoke_writes_trace_and_best(synthetic_data_dir, tmp_path):
    out = tmp_path / "opt"
    assert run(*optimize_smoke_args(synthetic_data_dir, out)) == EXIT_OK

    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("# chaosnet ")
    assert lines[1].split(",")[:2] == ["iteration", "best_fitness"]
    records = [ln.split(",") for ln in lines[2:]]
    assert len(records) == 3  # init + two iterations
    fitness = [float(r[1]) for r in records]
    assert all(b >= a for a, b in zip(fitness, fitness[1:]))

    best = yaml.safe_load((out / "best_params.yaml").read_text())
    assert set(best) == {"A", "B", "a1", "a2", "a3", "a4", "fitness", "evaluations"}
    assert 0.0 <= best["fitness"] <= 1.0
    assert (out / "checkpoint.json").exists()
    assert (out / "manifest-optimize.yaml").exists()


def test_optimize_is_deterministic(synthetic_data_dir, tmp_path):
    out = tmp_path / "opt"
    args = optimize_smoke_args(synthetic_data_dir, out)
    assert run(*args) == EXIT_OK
    first = (out / "trace.csv").read_bytes()
    assert run(*args) == EXIT_OK
    assert (out / "trace.csv").read_bytes() == first


def test_optimize_trace_csv_contains_all_iterations(synthetic_data_dir, tmp_path):
    out = tmp_path / "opt"
    args = optimize_smoke_args(synthetic_data_dir, out) + ["--set", "optimize.iterations=6"]
    assert run(*args) == EXIT_OK
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == stamp(out, "optimize")
    header = lines[1].split(",")
    assert header[0] == "iteration"
    assert len(lines) == 2 + 7


def interrupt_after_the_first_checkpoint(args, monkeypatch):
    """Run ``optimize`` with ``args`` and stop it right after it saves the
    checkpoint of iteration 1."""
    save = rpso.save_checkpoint

    def save_then_interrupt(swarm, path):
        save(swarm, path)
        raise KeyboardInterrupt

    monkeypatch.setattr(rpso, "save_checkpoint", save_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(*args)
    monkeypatch.undo()


def test_optimize_resume_from_checkpoint(synthetic_data_dir, tmp_path, monkeypatch):
    full_out = tmp_path / "full"
    assert run(*optimize_smoke_args(synthetic_data_dir, full_out)) == EXIT_OK
    final = yaml.safe_load((full_out / "best_params.yaml").read_text())

    # interrupted right after the checkpoint of iteration 1 of 2
    out = tmp_path / "opt"
    args = optimize_smoke_args(synthetic_data_dir, out)
    interrupt_after_the_first_checkpoint(args, monkeypatch)
    assert not (out / "trace.csv").exists()

    assert run(*args, "--resume", str(out / "checkpoint.json")) == EXIT_OK
    assert yaml.safe_load((out / "best_params.yaml").read_text()) == final
    # every iteration's row, the ones before the interruption included; the
    # comment line cites the manifest, which names the output directory
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2"]
    assert rows == (full_out / "trace.csv").read_text().splitlines()[1:]


def test_optimize_resume_into_another_output_dir_keeps_its_input(
    synthetic_data_dir, tmp_path, monkeypatch
):
    source = tmp_path / "a"
    args = optimize_smoke_args(synthetic_data_dir, source)
    interrupt_after_the_first_checkpoint(args, monkeypatch)
    interrupted = (source / "checkpoint.json").read_bytes()

    target = tmp_path / "b"
    args = optimize_smoke_args(synthetic_data_dir, target)
    assert run(*args, "--resume", str(source / "checkpoint.json")) == EXIT_OK
    # the input checkpoint is read, not written; the continued swarm lands in b/
    assert (source / "checkpoint.json").read_bytes() == interrupted
    assert rpso.load_checkpoint(target / "checkpoint.json").iteration == 2


def test_optimize_resume_with_another_config_exits_2(synthetic_data_dir, tmp_path):
    out = tmp_path / "opt"
    args = optimize_smoke_args(synthetic_data_dir, out) + ["--set", "optimize.iterations=1"]
    assert run(*args) == EXIT_OK

    resumed_out = tmp_path / "resumed"
    resumed = args + [
        "--resume", str(out / "checkpoint.json"), "--set", "optimize.iterations=4"
    ]
    resumed[resumed.index(str(out))] = str(resumed_out)
    resumed[resumed.index(str(synthetic_data_dir))] = str(tmp_path / "no-data")
    # refused before the manifest is written or the (here missing) data is read
    assert run(*resumed) == EXIT_CONFIG
    assert not (resumed_out / "manifest-optimize.yaml").exists()


@pytest.mark.parametrize("payload", ["not json {", '{"a": 1}'])
def test_optimize_resume_from_malformed_checkpoint_exits_3(
    synthetic_data_dir, tmp_path, payload
):
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(payload)
    out = tmp_path / "opt"
    args = optimize_smoke_args(synthetic_data_dir, out)
    assert run(*args, "--resume", str(checkpoint)) == EXIT_DATA
    assert not (out / "manifest-optimize.yaml").exists()


@pytest.mark.parametrize(
    "key, edit",
    [
        ("positions", lambda payload: [[1.0, 2.0]]),
        ("velocities", lambda payload: payload["velocities"][:1]),
        ("pbest_fitness", lambda payload: payload["pbest_fitness"][:2]),
        ("trace", lambda payload: [{**rec, "position": [0.5]} for rec in payload["trace"]]),
        ("gbest_index", lambda payload: 7),
        ("iteration", lambda payload: -3),
        ("iteration", lambda payload: 3),
        ("trace", lambda payload: []),
        ("immigrant_counts", lambda payload: []),
        # each resumed with exit 0 and wrote "fitness: .nan"
        ("pbest_fitness", lambda payload: ["nan"] * len(payload["pbest_fitness"])),
        ("trace", lambda payload: [{**rec, "fitness": "nan"} for rec in payload["trace"]]),
        # the global best is the holder's personal best, which is always scored
        ("pbest_fitness", lambda payload: [
            "-inf" if i == payload["gbest_index"] else v
            for i, v in enumerate(payload["pbest_fitness"])
        ]),
    ],
    ids=[
        "positions", "velocities", "pbest_fitness", "trace_position",
        "gbest_index", "iteration_below_0", "iteration_past_the_end", "trace",
        "immigrant_counts", "pbest_fitness_nan", "trace_fitness_nan", "gbest_holder_unscored",
    ],
)
def test_optimize_resume_from_a_checkpoint_its_config_cannot_reach_exits_3(
    synthetic_data_dir, tmp_path, monkeypatch, key, edit
):
    """A checkpoint of 3 particles in 6 dimensions at iteration 1 of 2, with
    one entry edited, is refused before any data is read (it used to fail
    with exit 1 or to run on with exit 0).  The unedited checkpoint holds
    -inf personal bests of immigrants, which stay valid."""
    out = tmp_path / "opt"
    args = optimize_smoke_args(synthetic_data_dir, out)
    args += ["--set", "optimize.particles=3", "--set", "method=6"]
    interrupt_after_the_first_checkpoint(args, monkeypatch)
    payload = json.loads((out / "checkpoint.json").read_text())
    assert payload["iteration"] == 1 and "-inf" in payload["pbest_fitness"]
    payload[key] = edit(payload)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    before = files_of(out)
    assert run(*args, "--resume", str(edited)) == EXIT_DATA
    assert files_of(out) == before


def test_optimize_with_an_empty_split_exits_3(synthetic_data_dir, tmp_path):
    # a fraction 0.2 of 2 rows rounds to no rows to train on
    out = tmp_path / "opt"
    assert run("optimize", *common_flags(synthetic_data_dir, out), "--subset", "2") == EXIT_DATA


# ---------------------------------------------------------------- analyze


def analyze_smoke_args(out_dir):
    return [
        "analyze",
        "--output-dir",
        str(out_dir),
        "--set",
        "sweep.lo=0.85",
        "--set",
        "sweep.hi=0.95",
        "--set",
        "sweep.step=0.05",
        "--set",
        "sweep.series_length=300",
        "--set",
        "sweep.transient=200",
        "--set",
        "sweep.record_count=20",
        "--set",
        "analysis.poincare_count=50",
        "--set",
        "analysis.poincare_transient=100",
    ]


def test_analyze_smoke_writes_bundle(tmp_path):
    out = tmp_path / "ana"
    assert run(*analyze_smoke_args(out)) == EXIT_OK
    for name in ("bifurcation.csv", "entropy_accuracy.csv", "poincare.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("# chaosnet ")
    bif = (out / "bifurcation.csv").read_text().splitlines()
    assert len(bif) == 2 + 3 * 20  # three sweep values, twenty iterates each
    table = (out / "entropy_accuracy.csv").read_text().splitlines()
    assert len(table) == 2 + 3
    summary = (out / "summary.txt").read_text()
    assert "sweep_points: 3" in summary
    assert "not computed" in summary  # no accuracy column without a dataset


def test_analyze_overflowing_sweep_is_flagged_not_fatal(tmp_path):
    out = tmp_path / "ana"
    args = analyze_smoke_args(out) + ["--set", "sweep.hi=3.0", "--set", "sweep.step=2.15"]
    assert run(*args) == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "overflowed_points: 1" in summary


def test_analyze_bifurcation_csv_layout(tmp_path):
    out = tmp_path / "ana"
    sets = ["sweep.lo=0.9", "sweep.hi=3.0", "sweep.step=2.1", "sweep.record_count=5", "method=6"]
    assert run(*analyze_smoke_args(out), *[a for e in sets for a in ("--set", e)]) == EXIT_OK
    lines = (out / "bifurcation.csv").read_text().splitlines()
    assert lines[0] == stamp(out, "analyze")
    assert lines[1] == "param,iterate_index,y"
    first_fields = [float(ln.split(",")[0]) for ln in lines[2:]]
    stable = [ln for ln, v in zip(lines[2:], first_fields) if abs(v - 0.9) < 1e-12]
    assert len(stable) == 5
    overflow = [ln for ln, v in zip(lines[2:], first_fields) if abs(v - 3.0) < 1e-12]
    assert len(overflow) == 1
    assert overflow[0].endswith(",nan")


def test_analyze_entropy_csv_layout(tmp_path):
    out = tmp_path / "ana"
    sets = ["sweep.lo=0.9", "sweep.hi=0.95", "sweep.step=0.1"]
    assert run(*analyze_smoke_args(out), *[a for e in sets for a in ("--set", e)]) == EXIT_OK
    lines = (out / "entropy_accuracy.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[0] == "param"
    assert "apen_m2_r0.025" in header
    assert "accuracy" in header
    assert len(lines) == 3


def test_analyze_poincare_csv_layout(tmp_path):
    out = tmp_path / "ana"
    assert run(*analyze_smoke_args(out), "--set", "analysis.poincare_count=8") == EXIT_OK
    lines = (out / "poincare.csv").read_text().splitlines()
    assert lines[0] == stamp(out, "analyze")
    assert lines[1] == "x,y"
    assert len(lines) == 10
    # every value round-trips
    config = yaml.safe_load((out / "manifest-analyze.yaml").read_text())["config"]
    pairs = analysis.poincare_pairs(settings(config).poincare_params, 8)
    assert [[float(v) for v in ln.split(",")] for ln in lines[2:]] == pairs.tolist()


def test_analyze_overflowing_poincare_orbit_exits_4(tmp_path, capsys):
    """The Poincare section iterates the configured map itself: at a1 = 2.0
    method 4, which does not clamp, overflows, so analyze exits 4 and writes
    nothing, though its sweep flags an overflowing point and goes on."""
    out = tmp_path / "ana"
    assert run(*analyze_smoke_args(out), "--set", "params.a1=2.0") == EXIT_OVERFLOW
    assert "map overflow: map iterate 19 is non-finite" in capsys.readouterr().err
    assert not out.exists()


def analyze_accuracy_args(synthetic_data_dir, out_dir, *extra):
    # four sweep points, each trained on the optimization split
    return analyze_smoke_args(out_dir) + [
        "--data-dir", str(synthetic_data_dir),
        "--set", "sweep.with_accuracy=true",
        "--set", "sweep.hi=1.0",
        *extra,
    ]


def test_analyze_without_its_data_leaves_the_output_dir_as_it_was(tmp_path):
    """The accuracy column needs data; an analyze that cannot read it exits
    3 before it writes its tables or its manifest."""
    out = tmp_path / "ana"
    assert run(*analyze_smoke_args(out)) == EXIT_OK
    before = files_of(out)
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run(*analyze_accuracy_args(empty, out)) == EXIT_DATA
    assert files_of(out) == before


def test_analyze_constant_accuracy_column_computes_no_spearman(synthetic_data_dir, tmp_path):
    # one epoch on the bar images scores the same at every sweep point; the
    # rank correlation of a constant column is undefined, not NaN
    out = tmp_path / "ana"
    args = analyze_accuracy_args(synthetic_data_dir, out, "--set", "train.max_epochs=1")
    assert run(*args) == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "spearman_apen_m2_r0.025_vs_accuracy: not computed (constant column)" in summary


@pytest.mark.parametrize(
    "with_accuracy, line",
    [
        ("false", "not computed (needs accuracy column)"),
        # said "needs accuracy column", though the column was computed
        ("true", "not computed (2 of 2 points have both values, needs 3)"),
    ],
    ids=["accuracy_off", "accuracy_on"],
)
def test_analyze_summary_names_why_spearman_is_missing(
    synthetic_data_dir, tmp_path, with_accuracy, line
):
    out = tmp_path / "ana"
    args = analyze_accuracy_args(synthetic_data_dir, out, "--set", "sweep.hi=0.9")
    assert run(*args, "--set", f"sweep.with_accuracy={with_accuracy}") == EXIT_OK
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[1] == "sweep_points: 2"
    assert summary[-1] == f"spearman_apen_m2_r0.025_vs_accuracy: {line}"


def test_analyze_scores_a_diverging_point_0_as_the_search_does(synthetic_data_dir, tmp_path):
    out = tmp_path / "ana"
    args = analyze_accuracy_args(synthetic_data_dir, out, "--set", "train.learning_rate=1e308")
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(*args) == EXIT_OK
    rows = (out / "entropy_accuracy.csv").read_text().splitlines()[2:]
    assert [row.split(",")[-1] for row in rows] == ["0"] * 4
    summary = (out / "summary.txt").read_text()
    assert "overflowed_points: 0" in summary
    assert "not computed (constant column)" in summary


# ---------------------------------------------------------------- grid


def grid_smoke_args(synthetic_data_dir, out_dir):
    return [
        "grid",
        *common_flags(synthetic_data_dir, out_dir),
        "--set",
        "grid.methods=[4]",
        "--set",
        "grid.architectures=[[3,null]]",
        "--set",
        "train.max_epochs=1",
        "--set",
        "params.a1=0.9",
        "--subset",
        "40",
    ]


def test_grid_smoke(synthetic_data_dir, tmp_path):
    out = tmp_path / "grid"
    assert run(*grid_smoke_args(synthetic_data_dir, out)) == EXIT_OK
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[1] == "architecture,method,accuracy"
    assert len(lines) == 3
    arch, method, acc = lines[2].split(",")
    assert arch == "784:3:10"
    assert method == "4"
    assert 0.0 <= float(acc) <= 1.0
    md = (out / "grid.md").read_text().splitlines()
    assert md[1] == "| architecture | method 4 |"
    assert md[3].startswith("| 784:3:10 |")


def test_grid_scores_an_overflowing_method_0_as_the_search_does(synthetic_data_dir, tmp_path):
    """Each cell is trained and scored by the search's objective, so at
    a1 = 2.0 the overflowing method 6 is a 0 in the table (the run used to
    exit 4 with nothing written), and the other cells are unchanged."""

    def grid(out, methods):
        args = grid_smoke_args(synthetic_data_dir, out)
        args += ["--set", f"grid.methods={methods}", "--set", "params.a1=2.0"]
        assert run(*args) == EXIT_OK
        return (out / "grid.csv").read_text().splitlines()[2:], (out / "grid.md").read_text()

    cells, md = grid(tmp_path / "with", [5, 3, 6])
    cells_without, md_without = grid(tmp_path / "without", [5, 3])
    assert cells == [*cells_without, "784:3:10,6,0"]
    assert md.splitlines()[-1] == md_without.splitlines()[-1] + " 0.00% |"


# ---------------------------------------------------------------- every table


@pytest.mark.parametrize(
    "command, names",
    [
        ("optimize", ["trace.csv", "best_params.yaml"]),
        ("analyze", ["bifurcation.csv", "entropy_accuracy.csv", "poincare.csv", "summary.txt"]),
        ("report", ["footprint-streaming.csv", "footprint-materialized.csv", "footprint.txt"]),
        ("grid", ["grid.csv", "grid.md"]),
        ("train", ["model.json", "metrics.json"]),
    ],
)
def test_every_table_cites_its_manifest(
    synthetic_data_dir, tmp_path, request, capsys, command, names
):
    out = tmp_path / command
    if command == "train":
        args = train_smoke_args(synthetic_data_dir, out)
    elif command == "optimize":
        args = optimize_smoke_args(synthetic_data_dir, out)
    elif command == "analyze":
        args = analyze_smoke_args(out)
    elif command == "report":
        model = request.getfixturevalue("trained_model_path")
        args = ["report", "--model", str(model), "--output-dir", str(out)]
    else:
        args = grid_smoke_args(synthetic_data_dir, out)
    capsys.readouterr()
    assert run(*args) == EXIT_OK
    assert "sha256" not in capsys.readouterr().out  # the stamp is in the files only
    for name in names:
        expected = stamp(out, command)
        if name.endswith(".json"):  # the whole hash, in a field
            payload = json.loads((out / name).read_text())
            cited = payload.get("training_meta", payload)["manifest_sha256"]
            manifest = (out / f"manifest-{command}.yaml").read_bytes()
            assert cited == hashlib.sha256(manifest).hexdigest(), name
            continue
        if name.endswith(".md"):  # a comment that markdown does not render
            expected = f"<!-- {expected[2:]} -->"
        assert (out / name).read_text().splitlines()[0] == expected, name


# ---------------------------------------------------------------- config layers


def test_default_swarm_is_the_library_map_search_box():
    # pins the CLI defaults to the library's default objects
    s = settings(DEFAULT_CONFIG)
    assert s.train == TrainConfig(rng_seed=0)
    assert s.split == SplitPlan()
    sweep_defaults = [f for f in dataclasses.fields(analysis.SweepConfig)
                      if f.default is not dataclasses.MISSING]
    assert {f.name for f in sweep_defaults} == {"series_length", "transient", "record_count"}
    for f in sweep_defaults:
        assert getattr(s.sweep, f.name) == f.default, f.name
    by_default = inspect.signature(footprint.footprint).parameters["bytes_per_value"].default
    assert s.bytes_per_value == by_default
    swarm = s.swarm
    library = rpso.SwarmConfig(rpso.MAP_LOWER_BOUNDS, rpso.MAP_UPPER_BOUNDS)
    assert swarm.as_dict() == library.as_dict()
    assert swarm.particle_count == 150
    assert swarm.iterations == 100
    assert swarm.omega == 0.5
    assert swarm.c1 == 2.0 and swarm.c2 == 2.0
    assert swarm.immigrant_fraction == 0.7
    assert swarm.dimensions == 6


def test_config_file_applies_and_set_wins(tmp_path):
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump({"sweep": {"lo": 0.5, "hi": 0.6, "step": 0.05}}))
    out = tmp_path / "ana"
    args = analyze_smoke_args(out)[:3] + [
        "--config",
        str(config_path),
        "--set",
        "sweep.lo=0.55",
        "--set",
        "sweep.series_length=300",
        "--set",
        "sweep.record_count=10",
        "--set",
        "analysis.poincare_count=20",
    ]
    assert run(*args) == EXIT_OK
    manifest = yaml.safe_load((out / "manifest-analyze.yaml").read_text())
    assert manifest["config"]["sweep"]["lo"] == 0.55  # --set beats the file
    assert manifest["config"]["sweep"]["hi"] == 0.6  # file beats the default


def test_seed_flag_lands_in_manifest(tmp_path):
    out = tmp_path / "ana"
    assert run(*analyze_smoke_args(out), "--seed", "9") == EXIT_OK
    manifest = yaml.safe_load((out / "manifest-analyze.yaml").read_text())
    assert manifest["config"]["seed"] == 9


def test_manifest_digest_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(*analyze_smoke_args(out_a)) == EXIT_OK
    assert run(*analyze_smoke_args(out_b)) == EXIT_OK
    text_a = (out_a / "manifest-analyze.yaml").read_text()
    text_b = (out_b / "manifest-analyze.yaml").read_text()
    # identical apart from the differing output_dir line
    keep = lambda text: [ln for ln in text.splitlines() if "output_dir" not in ln]
    assert keep(text_a) == keep(text_b)


def test_manifest_records_numpy_version_and_blas_threads(tmp_path):
    """The projection's last bits depend on both, so the hash must cover them."""
    out = tmp_path / "ana"
    assert run(*analyze_smoke_args(out)) == EXIT_OK
    manifest = yaml.safe_load((out / "manifest-analyze.yaml").read_text())
    assert manifest["numpy"] == np.__version__
    threads = manifest["blas_threads"]
    assert threads is None or (isinstance(threads, int) and threads >= 1)


def test_float_keys_take_ints_and_numeric_strings():
    config = copy.deepcopy(DEFAULT_CONFIG)
    for expression in ("train.learning_rate=1e-3", "params.a1=1", "split.fraction='0.25'"):
        _apply_set(config, expression)
    assert config["train"]["learning_rate"] == "1e-3"  # PyYAML's reading
    s = settings(config)
    assert s.train.learning_rate == 0.001
    assert s.reservoir.params.a1 == 1.0 and isinstance(s.reservoir.params.a1, float)
    assert s.split.optimization_fraction == 0.25


def test_path_keys_become_paths():
    config = copy.deepcopy(DEFAULT_CONFIG)
    s = settings(config)
    assert (s.data_dir, s.output_dir, s.model_path) == (None, Path("out"), None)
    config.update(data_dir="d", output_dir="o", model_path="m.json")
    s = settings(config)
    assert (s.data_dir, s.output_dir, s.model_path) == (Path("d"), Path("o"), Path("m.json"))


# ---------------------------------------------------------------- bad input


def test_missing_config_file_exits_2(tmp_path):
    code = run("analyze", "--config", str(tmp_path / "absent.yaml"))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "case, expected",
    [
        ("config-dir", EXIT_CONFIG),
        ("config-not-utf8", EXIT_CONFIG),
        ("resume-dir", EXIT_DATA),
        ("model-dir", EXIT_DATA),
        ("train-model-dir", EXIT_CONFIG),
        ("train-model-under-file", EXIT_CONFIG),
        ("idx-file-dir", EXIT_DATA),
        ("idx-file-not-gzip", EXIT_DATA),
        ("idx-file-cut-gzip", EXIT_DATA),
        ("output-dir-file", EXIT_CONFIG),
        ("output-dir-under-file", EXIT_CONFIG),
    ],
)
def test_an_unreadable_path_exits_2_or_3(synthetic_data_dir, tmp_path, case, expected):
    """A config or output path exits 2 and a data path 3, never 1 with a traceback."""
    folder = tmp_path / "folder"
    folder.mkdir()
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = tmp_path / "o"
    if case == "config-dir":
        args = ["analyze", "--config", str(folder), "--output-dir", str(out)]
    elif case == "config-not-utf8":
        blocker.write_bytes(b"\xff")
        args = ["analyze", "--config", str(blocker), "--output-dir", str(out)]
    elif case == "resume-dir":
        args = [*optimize_smoke_args(synthetic_data_dir, out), "--resume", str(folder)]
    elif case == "model-dir":
        args = ["report", "--model", str(folder), "--output-dir", str(out)]
    elif case.startswith("train-model-"):
        model = folder if case == "train-model-dir" else blocker / "model.json"
        args = [*train_smoke_args(synthetic_data_dir, out), "--model", str(model)]
    elif case.startswith("idx-file-"):
        for path in synthetic_data_dir.iterdir():
            (folder / path.name).write_bytes(path.read_bytes())
        images = folder / "train-images-idx3-ubyte.gz"
        if case == "idx-file-dir":
            # the plain name is looked up before the .gz one
            (folder / "train-images-idx3-ubyte").mkdir()
        elif case == "idx-file-not-gzip":
            images.write_bytes(b"not gzip")
        else:
            images.write_bytes(images.read_bytes()[:100])
        args = train_smoke_args(folder, out)
    else:
        out = blocker if case == "output-dir-file" else blocker / "o"
        args = train_smoke_args(synthetic_data_dir, out)
    before = blocker.read_bytes()
    assert run(*args) == expected
    assert blocker.read_bytes() == before
    if expected == EXIT_CONFIG:  # refused before anything is written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "folder"]
        assert list(folder.iterdir()) == []


def test_malformed_set_expression_exits_2(tmp_path):
    code = run("analyze", "--output-dir", str(tmp_path), "--set", "no-equals-sign")
    assert code == EXIT_CONFIG


def test_unknown_set_section_exits_2(tmp_path):
    # "training" is a typo for "train"; silently ignoring it would let the
    # run proceed with defaults the user thinks they overrode
    code = run("analyze", "--output-dir", str(tmp_path), "--set", "training.max_epochs=5")
    assert code == EXIT_CONFIG


def test_unknown_set_leaf_exits_2(tmp_path):
    code = run("analyze", "--output-dir", str(tmp_path), "--set", "train.epochs=5")
    assert code == EXIT_CONFIG


def test_set_cannot_replace_a_section_exits_2(tmp_path):
    code = run("analyze", "--output-dir", str(tmp_path), "--set", "train=5")
    assert code == EXIT_CONFIG


def test_config_file_with_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("sweep:\n  high: 1.2\n")
    code = run("analyze", "--output-dir", str(tmp_path / "o"), "--config", str(cfg))
    assert code == EXIT_CONFIG


def test_config_file_scalar_section_exits_2(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("train: 5\n")
    code = run("analyze", "--output-dir", str(tmp_path / "o"), "--config", str(cfg))
    assert code == EXIT_CONFIG


def test_bad_architecture_value_exits_2(synthetic_data_dir, tmp_path):
    code = run(
        "train",
        *common_flags(synthetic_data_dir, tmp_path / "o"),
        "--set",
        "architecture.P=0",
    )
    assert code == EXIT_CONFIG


def test_bad_swarm_size_exits_2(synthetic_data_dir, tmp_path):
    code = run(
        "optimize",
        *common_flags(synthetic_data_dir, tmp_path / "o"),
        "--set",
        "optimize.particles=0",
    )
    assert code == EXIT_CONFIG


def record_reads(monkeypatch) -> list:
    """The list to which each opening of the IDX files, the only way the
    commands read them, appends its arguments."""
    reads = []
    read = mnist.open_mnist
    monkeypatch.setattr(mnist, "open_mnist", lambda *args: reads.append(args) or read(*args))
    return reads


@pytest.mark.parametrize(
    "command, expression",
    [
        ("train", "mode=fast"),
        ("optimize", "mode=fast"),
        ("grid", "grid.methods=[7]"),
        ("grid", "grid.methods=[4, x]"),
        ("grid", "grid.methods=4"),
        ("train", "method=0"),
        ("train", "subset=abc"),
        ("train", "subset=0"),
        ("train", "subset=-5"),
        ("optimize", "split.fraction=abc"),
        ("optimize", "split.fraction=0"),
        ("optimize", "seed=abc"),
        ("grid", "grid.architectures=[[0, null]]"),
        ("grid", "grid.architectures=5"),
        ("analyze", "analysis.poincare_count=abc"),
        ("analyze", "analysis.poincare_count=0"),
        ("train", "train.max_epochs=abc"),
        ("train", "train.learning_rate=-1"),
        ("train", "architecture.H=0"),
        ("train", "params.a1=abc"),
        ("train", "seed=abc"),
        ("optimize", "architecture.P=0"),
        ("analyze", "sweep.step=0"),
        ("analyze", "sweep.series_length=4"),
        ("analyze", "analysis.poincare_transient=-1"),
        ("report", "report.bytes_per_value=0"),
        # each wrote its manifest, then exited 1 with a traceback
        ("optimize", "optimize.omega=.inf"),
        ("optimize", "optimize.c1=.nan"),
        ("optimize", "optimize.c2=-.inf"),
        ("optimize", "optimize.upper=[1.5, 10.0, 1.5, 1.5, 1.5, .inf]"),
        ("optimize", "optimize.lower=[-.inf, 0.1, 0.0, 0.0, 0.0, 0.0]"),
        ("analyze", "sweep.hi=.inf"),
        ("analyze", "sweep.step=1e-300"),
        ("train", "seed=-1"),
        # exited 3, as if the data could not be split
        ("optimize", "seed=-1"),
        # sine methods need B != 0; optimize reads no params, yet the whole
        # tree is checked for every command
        pytest.param("analyze", ["method=1", "params.B=0"], id="analyze-method=1-params.B=0"),
        pytest.param(
            "grid", ["grid.methods=[4, 1]", "params.B=0"], id="grid-grid.methods=[4, 1]-params.B=0"
        ),
        pytest.param("optimize", ["method=1", "params.B=0"], id="optimize-method=1-params.B=0"),
        # each wrote its manifest, then exited 1: a box of another size fails
        # to decode a position, and a sine method meets B = 0 mid-run
        pytest.param(
            "optimize",
            ["optimize.lower=[0, 0, 0, 0, 0]", "optimize.upper=[1, 1, 1, 1, 1]"],
            id="optimize-five-dimensional-box",
        ),
        pytest.param(
            "optimize",
            ["method=2", "optimize.lower=[0.01, 0.0, 0, 0, 0, 0]",
             "optimize.particles=6", "optimize.iterations=6"],
            id="optimize-method=2-B-interval-holds-0",
        ),
        pytest.param(
            "analyze",
            ["method=1", "sweep.parameter=B", "sweep.lo=-0.5", "sweep.hi=0.5", "sweep.step=0.5"],
            id="analyze-method=1-B-sweep-holds-0",
        ),
        # a B so near 0 that pi / B is infinite: analyze exited 1 with a math
        # domain error after writing files, train 4 as a map overflow, and
        # the search box and the sweep grid were accepted
        pytest.param(
            "analyze", ["method=1", "params.B=1e-310", "sweep.series_length=300"],
            id="analyze-method=1-params.B=1e-310",
        ),
        pytest.param(
            "train", ["method=1", "params.B=1e-310", "sweep.series_length=300"],
            id="train-method=1-params.B=1e-310",
        ),
        pytest.param(
            "optimize", ["method=1", "optimize.lower=[0.01, 1e-310, 0, 0, 0, 0]"],
            id="optimize-method=1-B-interval-reaches-1e-310",
        ),
        pytest.param(
            "analyze",
            ["method=1", "sweep.parameter=B", "sweep.lo=1e-310", "sweep.hi=0.5", "sweep.step=0.1"],
            id="analyze-method=1-B-sweep-holds-1e-310",
        ),
        # each wrote its manifest, then exited 5
        ("train", "train.learning_rate=.inf"),
        ("train", "train.learning_rate=1e400"),
    ],
)
def test_bad_value_under_valid_key_exits_2_before_reading_data(
    synthetic_data_dir, tmp_path, monkeypatch, command, expression
):
    out = tmp_path / "o"
    reads = record_reads(monkeypatch)
    sets = [expression] if isinstance(expression, str) else expression
    flags = [arg for e in sets for arg in ("--set", e)]
    code = run(command, *common_flags(synthetic_data_dir, out), *flags)
    assert code == EXIT_CONFIG
    # refused while resolving the config: no command started, so no manifest
    assert not (out / f"manifest-{command}.yaml").exists()
    assert not (out / "bifurcation.csv").exists()
    assert reads == []


def test_unknown_sweep_parameter_exits_2(tmp_path):
    code = run(
        "analyze",
        "--output-dir",
        str(tmp_path),
        "--set",
        "sweep.parameter=a9",
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, expression",
    [
        # checked, not coerced: each was read as another value
        ("analyze", "sweep.with_accuracy=maybe"),  # was true
        ("train", "split.stratified=1"),  # was true
        ("train", "architecture.P=2.7"),  # was 2
        ("train", "architecture.H=2.5"),  # was 2
        ("analyze", "analysis.poincare_count=10.7"),  # was 10
        ("train", "subset=2.5"),  # was 2
        ("train", "seed=1.5"),  # was 1
        ("train", "method=true"),  # was method 1
        ("train", "train.max_epochs=true"),  # was 1
        ("train", "params.a1=true"),  # was 1.0
        ("grid", "grid.methods=[4.5]"),  # was method 4
        ("grid", "grid.architectures=[[25.5, null]]"),  # was P = 25
        # escaped as an OverflowError traceback
        pytest.param("train", "params.a1=1" + "0" * 400, id="train-params.a1=1e400-as-int"),
        # path keys: each escaped as a TypeError, or opened file descriptor 5
        ("analyze", "output_dir=null"),
        ("analyze", "output_dir=[a]"),
        ("train", "data_dir=5"),
        ("train", "model_path=[m.json]"),
        ("report", "model_path=5"),
        ("train", "seed.x=1"),  # a mapping where a value belongs
    ],
)
def test_value_of_another_type_exits_2_before_reading_data(
    synthetic_data_dir, tmp_path, monkeypatch, command, expression
):
    out = tmp_path / "o"
    monkeypatch.chdir(tmp_path)
    reads = record_reads(monkeypatch)
    code = run(command, *common_flags(synthetic_data_dir, out), "--set", expression)
    assert code == EXIT_CONFIG
    assert reads == []
    assert not out.exists() and list(tmp_path.iterdir()) == []  # no manifest anywhere


def test_config_file_mapping_for_a_value_exits_2_before_reading_data(
    synthetic_data_dir, tmp_path, monkeypatch
):
    folder = tmp_path / "cfg"
    folder.mkdir()
    cfg = folder / "run.yaml"
    cfg.write_text("seed: {x: 1}\n")
    out = tmp_path / "o"
    monkeypatch.chdir(tmp_path)
    reads = record_reads(monkeypatch)
    code = run("train", *common_flags(synthetic_data_dir, out), "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert reads == []
    assert not out.exists() and list(tmp_path.iterdir()) == [folder]
    assert list(folder.iterdir()) == [cfg]

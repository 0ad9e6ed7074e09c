"""End-to-end runs of every subcommand against a synthetic IDX corpus,
plus the exit-code contract."""

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import chaosnet
from chaosnet import mnist, rpso
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


def run(*args):
    return main(list(args))


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


def test_train_missing_data_dir_exits_3(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    code = run("train", "--data-dir", str(empty), "--output-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA


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


def test_report_without_model_exits_2(tmp_path):
    assert run("report", "--output-dir", str(tmp_path / "o")) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_report_corrupt_model_exits_3(tmp_path):
    bad = tmp_path / "model.json"
    bad.write_text('{"format_version": 1, "oops": true}')
    code = run("report", "--model", str(bad), "--output-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA


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


def test_optimize_resume_from_checkpoint(synthetic_data_dir, tmp_path, monkeypatch):
    full_out = tmp_path / "full"
    assert run(*optimize_smoke_args(synthetic_data_dir, full_out)) == EXIT_OK
    final = yaml.safe_load((full_out / "best_params.yaml").read_text())

    save = rpso.save_checkpoint

    def save_then_interrupt(swarm, path):
        save(swarm, path)
        raise KeyboardInterrupt

    # interrupted right after the checkpoint of iteration 1 of 2
    out = tmp_path / "opt"
    args = optimize_smoke_args(synthetic_data_dir, out)
    monkeypatch.setattr(rpso, "save_checkpoint", save_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(*args)
    monkeypatch.undo()
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
    save = rpso.save_checkpoint

    def save_then_interrupt(swarm, path):
        save(swarm, path)
        raise KeyboardInterrupt

    source = tmp_path / "a"
    monkeypatch.setattr(rpso, "save_checkpoint", save_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(*optimize_smoke_args(synthetic_data_dir, source))
    monkeypatch.undo()
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


def analyze_accuracy_args(synthetic_data_dir, out_dir, *extra):
    # four sweep points, each trained on the optimization split
    return analyze_smoke_args(out_dir) + [
        "--data-dir", str(synthetic_data_dir),
        "--set", "sweep.with_accuracy=true",
        "--set", "sweep.hi=1.0",
        *extra,
    ]


def test_analyze_constant_accuracy_column_computes_no_spearman(synthetic_data_dir, tmp_path):
    # one epoch on the bar images scores the same at every sweep point; the
    # rank correlation of a constant column is undefined, not NaN
    out = tmp_path / "ana"
    args = analyze_accuracy_args(synthetic_data_dir, out, "--set", "train.max_epochs=1")
    assert run(*args) == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "spearman_apen_m2_r0.025_vs_accuracy: not computed (constant column)" in summary


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


def test_grid_smoke(synthetic_data_dir, tmp_path):
    out = tmp_path / "grid"
    code = run(
        "grid",
        *common_flags(synthetic_data_dir, out),
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
    )
    assert code == EXIT_OK
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[1] == "architecture,method,accuracy"
    assert len(lines) == 3
    arch, method, acc = lines[2].split(",")
    assert arch == "784:3:10"
    assert method == "4"
    assert 0.0 <= float(acc) <= 1.0
    md = (out / "grid.md").read_text().splitlines()
    assert md[0] == "| architecture | method 4 |"
    assert md[2].startswith("| 784:3:10 |")


# ---------------------------------------------------------------- config layers


def test_default_swarm_is_the_library_map_search_box():
    # pins the CLI defaults to the library's swarm defaults
    swarm = settings(DEFAULT_CONFIG).swarm
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
        ("analyze", "analysis.poincare_transient=-1"),
        ("report", "report.bytes_per_value=0"),
        # sine methods need B != 0; optimize reads no params, yet the whole
        # tree is checked for every command
        pytest.param("analyze", ["method=1", "params.B=0"], id="analyze-method=1-params.B=0"),
        pytest.param(
            "grid", ["grid.methods=[4, 1]", "params.B=0"], id="grid-grid.methods=[4, 1]-params.B=0"
        ),
        pytest.param("optimize", ["method=1", "params.B=0"], id="optimize-method=1-params.B=0"),
    ],
)
def test_bad_value_under_valid_key_exits_2_before_reading_data(
    synthetic_data_dir, tmp_path, monkeypatch, command, expression
):
    out = tmp_path / "o"
    reads = []
    load = mnist.load_mnist
    monkeypatch.setattr(mnist, "load_mnist", lambda *args: reads.append(args) or load(*args))
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
    ],
)
def test_value_of_another_type_exits_2_before_reading_data(
    synthetic_data_dir, tmp_path, monkeypatch, command, expression
):
    out = tmp_path / "o"
    monkeypatch.chdir(tmp_path)
    reads = []
    monkeypatch.setattr(mnist, "load_mnist", lambda *args: reads.append(args))
    code = run(command, *common_flags(synthetic_data_dir, out), "--set", expression)
    assert code == EXIT_CONFIG
    assert reads == []
    assert not out.exists() and list(tmp_path.iterdir()) == []  # no manifest anywhere

"""Command-line front end.

Subcommands: ``optimize`` (stage-1 parameter search: subset training
fitness, full-base validation), ``train`` (stage-2 full retrain plus test
evaluation and model export), ``analyze`` (bifurcation, entropy-accuracy
and Poincare CSV bundle), ``report`` (weight-storage footprint of a saved
model), ``grid`` (methods x architectures accuracy table).

Configuration is a single YAML tree; any leaf can be overridden from the
command line with ``--set dotted.path=value``.  :func:`settings` converts
the whole tree once, before any command runs, so a bad value under any key
exits 2 before a file is written or data is read.  Every command computes
first, then :func:`_publish` writes its outputs, creating a missing output
directory only then, and last a manifest with the fully resolved
configuration and seed; so a run that fails in its computation leaves its
output directory as it was, but for ``optimize``'s per-iteration checkpoint,
which ``--resume`` reads.  Each file is written whole or not at all by
``files.write_atomic``, the package's one writer.  Every table is formatted
by :func:`_csv`, whose first line cites the artifact version and the
manifest hash; the library modules format no tables.
``model.json`` and ``metrics.json`` carry the whole hash in a field.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import glob
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

import chaosnet
from chaosnet import analysis, footprint, mnist, network, rpso
from chaosnet.files import write_atomic
from chaosnet.maps import MAP_PARAM_NAMES, MapOverflowError, MapParams
from chaosnet.mnist import N_CLASSES, IdxFormatError, SplitPlan, split_indices
from chaosnet.network import Architecture, TrainConfig, TrainingDivergedError
from chaosnet.reservoir import MODES, FillMethod, ReservoirConfig, valid_sine_b

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_OVERFLOW = 4
EXIT_DIVERGENCE = 5


class ConfigError(ValueError):
    pass


def _default_config() -> dict:
    """The config tree.  A value the library also defaults is read from the
    library's default objects, so the CLI and the library cannot disagree."""
    train, split = TrainConfig(), SplitPlan()
    swarm = rpso.SwarmConfig(rpso.MAP_LOWER_BOUNDS, rpso.MAP_UPPER_BOUNDS)
    sweep = {f.name: f.default for f in fields(analysis.SweepConfig)}
    return {
        "seed": 0,
        "data_dir": None,  # None -> $CHAOSNET_DATA or ./data
        "output_dir": "out",
        "model_path": None,  # None -> <output_dir>/model.json
        "subset": None,  # int -> truncate datasets for smoke runs
        "mode": "materialized",  # reservoir evaluation mode
        "method": 4,
        "params": {"a1": 1.0, "a2": 1.0, "a3": 1.51, "a4": 0.74, "A": -0.81, "B": 0.51},
        "architecture": {"P": 25, "H": None},
        "train": {
            "max_epochs": train.max_epochs,
            "learning_rate": train.learning_rate,
            "batch_size": train.batch_size,
        },
        "split": {"fraction": split.optimization_fraction, "stratified": split.stratified},
        "optimize": {
            "particles": swarm.particle_count,
            "iterations": swarm.iterations,
            "omega": swarm.omega,
            "c1": swarm.c1,
            "c2": swarm.c2,
            "immigrant_fraction": swarm.immigrant_fraction,
            # leaves stay plain Python values, which yaml.safe_dump can write
            "lower": swarm.lower.tolist(),
            "upper": swarm.upper.tolist(),
        },
        "sweep": {
            "parameter": "a1",
            "lo": 0.1,
            "hi": 1.5,
            "step": 0.1,
            "series_length": sweep["series_length"],
            "transient": sweep["transient"],
            "record_count": sweep["record_count"],
            "with_accuracy": False,
        },
        "analysis": {"poincare_count": 1000, "poincare_transient": 1000},
        "report": {"bytes_per_value": footprint.DEFAULT_BYTES_PER_VALUE},
        "grid": {
            "methods": [1, 2, 3, 4, 5, 6],
            "architectures": [[25, None], [100, None], [200, None], [100, 60]],
        },
    }


DEFAULT_CONFIG: dict = _default_config()


# -- configuration plumbing ----------------------------------------------------


def _merge(config: dict, override: dict, prefix: str = "") -> None:
    """Merge ``override`` into ``config`` in place, walking both together.

    A key ``config`` lacks, a plain value for a section and a mapping for a
    value are refused: a typo'd key would otherwise be accepted and silently
    ignored.  ``config`` starts as a copy of DEFAULT_CONFIG, and every merge
    keeps its shape, so ``config`` itself is the schema.
    """
    for key, value in override.items():
        dotted = f"{prefix}{key}"
        if not isinstance(key, str) or key not in config:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(config[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {dotted!r} must be a mapping")
            _merge(config[key], value, f"{dotted}.")
        elif isinstance(value, dict):
            raise ConfigError(f"config key {dotted!r} takes a value, not a mapping")
        else:
            config[key] = value


def _apply_set(config: dict, expression: str) -> None:
    """Merge ``--set a.b=v`` into ``config`` as the mapping {a: {b: v}}."""
    if "=" not in expression:
        raise ConfigError(f"--set expects dotted.path=value, got {expression!r}")
    dotted, raw = expression.split("=", 1)
    keys = dotted.strip().split(".")
    if not all(keys):
        raise ConfigError(f"empty key component in {dotted!r}")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse value {raw!r}: {exc}") from exc
    for key in reversed(keys):
        value = {key: value}
    _merge(config, value)


def resolve_config(args: argparse.Namespace) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            loaded = yaml.safe_load(path.read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a mapping at top level")
        _merge(config, loaded)
    for flag, key in (
        ("data_dir", "data_dir"),
        ("output_dir", "output_dir"),
        ("seed", "seed"),
        ("model", "model_path"),
        ("subset", "subset"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            config[key] = value
    for expression in getattr(args, "set", None) or []:
        _apply_set(config, expression)
    return config


@dataclass(frozen=True)
class Settings:
    """Every library object a command reads, built from the config tree."""

    data_dir: Path | None  # None -> mnist.default_data_dir()
    output_dir: Path
    model_path: Path | None  # None -> <output_dir>/model.json
    subset: int | None
    mode: str
    method: FillMethod
    architecture: Architecture
    reservoir: ReservoirConfig
    train: TrainConfig
    split: SplitPlan
    swarm: rpso.SwarmConfig
    sweep: analysis.SweepConfig
    with_accuracy: bool
    poincare_params: MapParams
    poincare_count: int
    bytes_per_value: int
    grid_methods: list[FillMethod]
    grid_architectures: list[Architecture]


def _convert(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a bad value reported as a ConfigError
    naming ``key``."""
    try:
        return build(*args, **kwargs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def _float(value) -> float:
    # PyYAML reads 1e-3 as a string, so numeric strings count as numbers
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _optional_path(value) -> Path | None:
    """None for null or an empty string, else the path a string names."""
    return Path(_str(value)) if value not in (None, "") else None


_CHECKS = {bool: _bool, int: _int, float: _float, str: _str}


def _typed(node: dict, schema: dict, prefix: str = "") -> dict:
    """A copy of ``node`` with each leaf checked against the type of its
    default: a bool takes only a bool, an int an int (no bool, no fraction),
    a float also an int or a numeric string, which it converts.  Leaves whose
    default is None or a list are copied as they are."""
    typed = {}
    for key, value in node.items():
        default = schema[key]
        if isinstance(default, dict):
            typed[key] = _typed(value, default, f"{prefix}{key}.")
        elif type(default) in _CHECKS:
            typed[key] = _convert(prefix + key, _CHECKS[type(default)], value)
        else:
            typed[key] = value
    return typed


def _at_least(value, low: int = 1) -> int:
    number = _int(value)
    if number < low:
        raise ValueError(f"must be >= {low}, got {number}")
    return number


def _one_of(value, choices):
    if value not in choices:
        raise ValueError(f"must be one of {', '.join(choices)}, got {value!r}")
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"must be a list, got {value!r}")
    return value


def _architecture(P, H=None) -> Architecture:
    return Architecture(_int(P), None if H is None else _int(H))


def _search_box(method: FillMethod, **fields) -> rpso.SwarmConfig:
    """The swarm over the map's search box: one coordinate per map parameter,
    and under a sine method, which divides by B, no B in reach that
    :func:`valid_sine_b` refuses."""
    swarm = rpso.SwarmConfig(**fields)
    if swarm.dimensions != len(MAP_PARAM_NAMES):
        raise ValueError(
            f"lower and upper need {len(MAP_PARAM_NAMES)} coordinates "
            f"({', '.join(MAP_PARAM_NAMES)}), got {swarm.dimensions}"
        )
    b = MAP_PARAM_NAMES.index("B")
    lo, hi = swarm.lower[b], swarm.upper[b]
    nearest_0 = 0.0 if lo <= 0.0 <= hi else min(lo, hi, key=abs)
    if method.init_kind == "sine" and not valid_sine_b(nearest_0):
        raise ValueError(
            f"method {method.id} divides by B, so the B interval [{lo}, {hi}] "
            "must not hold 0 or a B so near 0 that pi / B overflows"
        )
    return swarm


def settings(config: dict) -> Settings:
    """Convert the resolved tree, every key of it, whichever command runs.

    Pure: it writes and reads nothing, so it runs before any command, and it
    is the one place a config value is converted.
    """
    c = _typed(config, DEFAULT_CONFIG)
    # every seeded config takes this one, and a generator refuses a negative seed
    seed = _convert("seed", _at_least, c["seed"], 0)
    method = _convert("method", FillMethod.from_id, c["method"])
    params = _convert("params", MapParams, **c["params"])
    architecture = _convert("architecture", _architecture, **c["architecture"])
    # a ReservoirConfig refuses a B that a sine method of the grid cannot use
    grid_methods = _convert("grid.methods", lambda: [
        ReservoirConfig(FillMethod.from_id(_int(m)), params, architecture.reservoir_size).method
        for m in _list(c["grid"]["methods"])
    ])
    # the other keys of both sections are the fields of their configs
    with_accuracy = c["sweep"].pop("with_accuracy")
    c["optimize"]["particle_count"] = c["optimize"].pop("particles")
    return Settings(
        data_dir=_convert("data_dir", _optional_path, c["data_dir"]),
        output_dir=Path(c["output_dir"]),
        model_path=_convert("model_path", _optional_path, c["model_path"]),
        subset=None if c["subset"] is None else _convert("subset", _at_least, c["subset"]),
        mode=_convert("mode", _one_of, c["mode"], MODES),
        method=method,
        architecture=architecture,
        reservoir=_convert(
            "params", ReservoirConfig, method, params, architecture.reservoir_size
        ),
        train=_convert("train", TrainConfig, **c["train"], rng_seed=seed),
        split=_convert(
            "split", SplitPlan, c["split"]["fraction"], seed, c["split"]["stratified"]
        ),
        swarm=_convert("optimize", _search_box, method, **c["optimize"], rng_seed=seed),
        sweep=_convert("sweep", analysis.SweepConfig, **c["sweep"], fixed=params, method=method),
        with_accuracy=with_accuracy,
        poincare_params=_convert(
            "analysis.poincare_transient",
            method.effective_params(params).replace,
            preliminary_iterations=c["analysis"]["poincare_transient"],
        ),
        poincare_count=_convert(
            "analysis.poincare_count", _at_least, c["analysis"]["poincare_count"]
        ),
        bytes_per_value=_convert(
            "report.bytes_per_value", _at_least, c["report"]["bytes_per_value"]
        ),
        grid_methods=grid_methods,
        grid_architectures=_convert(
            "grid.architectures",
            lambda: [_architecture(*pair) for pair in _list(c["grid"]["architectures"])],
        ),
    )


def _directory(path: Path, key: str) -> Path:
    """``path``, checked but not created: exit 2 if it, or the nearest of its
    ancestors that exists, is a file.  A command creates it with its parents
    when it writes its first file, so a run that fails before leaves none."""
    existing = path
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(f"{key} {path} is not a directory")
    return path


def _output_dir(s: Settings) -> Path:
    return _directory(s.output_dir, "output_dir")


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded (None when it is not OpenBLAS)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def manifest(config: dict, out: Path, command: str) -> tuple[Path, str, str]:
    """The path, text and sha256 of the manifest: resolved config + seed +
    version, hashed so outputs can cite it.  :func:`_publish` writes it last.

    The numpy version and the BLAS thread count are recorded too: the
    projection's last bits depend on both, so one hash means one arithmetic.
    """
    payload = {
        "artifact_version": chaosnet.__version__,
        "command": command,
        "config": config,
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
    }
    text = yaml.safe_dump(payload, sort_keys=True)
    return out / f"manifest-{command}.yaml", text, hashlib.sha256(text.encode()).hexdigest()


def _stamped(path: Path, digest: str, lines) -> tuple[Path, str]:
    """(path, text): ``lines`` under a comment line citing the version and the manifest."""
    stamp = f"chaosnet {chaosnet.__version__} manifest sha256:{digest[:16]}"
    # markdown reads "# ..." as a heading, so a markdown file gets an HTML comment
    stamp = f"<!-- {stamp} -->" if path.suffix == ".md" else f"# {stamp}"
    return path, "\n".join([stamp, *lines, ""])


def _cell(value) -> str:
    # %.17g round-trips a float, numpy's float64 included
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _csv(path: Path, digest: str, header, rows) -> tuple[Path, str]:
    """The one CSV format: the stamp, the header, then one line per row."""
    return _stamped(path, digest, [",".join(header), *(",".join(map(_cell, r)) for r in rows)])


def _publish(manifest: tuple[Path, str], files) -> None:
    """Write each ``(path, text)`` of ``files`` in order, then the manifest,
    creating a missing directory with the first file it holds.  Each file is
    whole, old or new; a run killed between two files can leave a mix."""
    for path, text in [*files, manifest]:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, text)


def _load_datasets(s: Settings):
    train, test = mnist.load_mnist(s.data_dir)
    if s.subset is not None:
        train = train.subset(np.arange(min(s.subset, len(train))))
        test = test.subset(np.arange(min(s.subset, len(test))))
    return train, test


def _search_objective(s: Settings, score_on_test: bool):
    """The swarm's accuracy objective: train on the optimization split of the
    training base, score on the whole base or on the test set."""
    train_ds, test_ds = _load_datasets(s)
    try:
        idx = split_indices(train_ds.labels, s.split)
    except ValueError as exc:
        raise IdxFormatError(f"cannot build the optimization split: {exc}") from exc
    subset_ds = train_ds.subset(idx)
    scored = test_ds if score_on_test else train_ds
    return rpso.make_accuracy_objective(
        s.method,
        s.architecture,
        subset_ds.images,
        subset_ds.labels,
        scored.images,
        scored.labels,
        s.train,
        mode=s.mode,
    )


# -- subcommands ---------------------------------------------------------------


def cmd_optimize(config: dict, s: Settings, resume_path: str | None = None) -> int:
    swarm = None
    if resume_path:
        try:
            swarm = rpso.load_checkpoint(resume_path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise IdxFormatError(f"cannot read checkpoint {resume_path}: {exc}") from exc
        # the manifest must describe the run the checkpoint continues
        saved = swarm.config.as_dict()
        wanted = s.swarm.as_dict()
        differ = sorted(k for k in wanted if saved[k] != wanted[k])
        if differ:
            raise ConfigError(
                f"checkpoint {resume_path} was written by another optimize config "
                f"(differs in {', '.join(differ)})"
            )
    out = _output_dir(s)
    manifest_path, text, digest = manifest(config, out, "optimize")
    objective = _search_objective(s, score_on_test=False)
    out.mkdir(parents=True, exist_ok=True)  # the checkpoint lands here every iteration
    checkpoint = out / "checkpoint.json"
    if swarm is not None:
        swarm = rpso.resume(objective, swarm, checkpoint_path=checkpoint)
    else:
        swarm = rpso.optimize(objective, s.swarm, checkpoint_path=checkpoint)

    trace_path = out / "trace.csv"
    columns = [f"best_x{i}" for i in range(swarm.gbest_position.size)]
    rows = ([i, rec.fitness, *rec.position] for i, rec in enumerate(swarm.trace))
    trace = _csv(trace_path, digest, ["iteration", "best_fitness", *columns], rows)
    best = rpso.params_from_position(swarm.gbest_position)
    best_path = out / "best_params.yaml"
    best_yaml = yaml.safe_dump(
        {
            **{name: getattr(best, name) for name in rpso.MAP_PARAM_NAMES},
            "fitness": swarm.gbest_fitness,
            "evaluations": swarm.evaluations,
        },
        sort_keys=True,
    )
    _publish((manifest_path, text), [trace, _stamped(best_path, digest, best_yaml.splitlines())])
    print(f"best fitness {swarm.gbest_fitness:.6f} after {swarm.evaluations} evaluations")
    print(f"wrote {trace_path}, {best_path}, {manifest_path}")
    return EXIT_OK


def cmd_train(config: dict, s: Settings) -> int:
    """Retrain on the training set, score the test set, save the model.

    The headers of the four IDX files and both label files are checked
    first (:func:`mnist.open_mnist`); :func:`network.train` and
    :meth:`NetworkModel.predict` then read the images from their files one
    block at a time, so neither image stack is ever held.
    """
    # the model's place is checked before anything is written or trained; a
    # missing parent is created with the model, as output_dir is
    model_path = s.model_path or s.output_dir / "model.json"
    if model_path.is_dir():
        raise ConfigError(f"model_path {model_path} is a directory")
    if s.model_path is not None:
        _directory(model_path.parent, "model_path's parent")
    out = _output_dir(s)
    manifest_path, text, digest = manifest(config, out, "train")
    (train_images, train_labels), (test_images, test_labels) = mnist.open_mnist(s.data_dir)
    train_labels, test_labels = train_labels[: s.subset], test_labels[: s.subset]
    train_images = replace(train_images, count=len(train_labels))
    test_images = replace(test_images, count=len(test_labels))

    model = network.train(
        train_images, train_labels, s.architecture, s.reservoir, s.train, mode=s.mode
    )
    # one projection of the test set gives both the confusion and the accuracy
    predictions = model.predict(test_images, s.mode)
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (test_labels.astype(np.int64), predictions), 1)
    accuracy = int(np.trace(confusion)) / len(test_labels)

    model.training_meta["manifest_sha256"] = digest  # the model cites its run, as metrics do
    model_path.parent.mkdir(parents=True, exist_ok=True)
    network.save_model(model, model_path)
    metrics = {
        "architecture": s.architecture.describe(),
        "method": s.method.id,
        "test_accuracy": accuracy,
        "test_size": len(test_labels),
        "train_size": len(train_labels),
        "epoch_losses": model.training_meta["epoch_losses"],
        "confusion": confusion.tolist(),
        "manifest_sha256": digest,
    }
    metrics_path = out / "metrics.json"
    _publish((manifest_path, text), [(metrics_path, json.dumps(metrics, indent=1))])
    print(f"test accuracy {accuracy:.4f} on {len(test_labels)} samples")
    print(f"wrote {model_path}, {metrics_path}, {manifest_path}")
    return EXIT_OK


def cmd_analyze(config: dict, s: Settings) -> int:
    out = _output_dir(s)
    manifest_path, text, digest = manifest(config, out, "analyze")

    bif_rows = analysis.bifurcation_sweep(s.sweep)
    accuracy_fn = None
    if s.with_accuracy:
        # the search's objective and failure policy, scored on the test set
        objective = _search_objective(s, score_on_test=True)

        def accuracy_fn(map_params: MapParams) -> float:
            return objective(rpso.position_from_params(map_params))

    table = analysis.entropy_accuracy_table(s.sweep, accuracy_fn)
    pairs = analysis.poincare_pairs(s.poincare_params, s.poincare_count)

    bif_path = out / "bifurcation.csv"
    # long format; an overflowed value is one row with the failing iteration
    bif_lines = []
    for row in bif_rows:
        if row.overflowed:
            bif_lines.append([row.value, row.error_iteration, "nan"])
        else:
            bif_lines += ([row.value, i, y] for i, y in enumerate(row.iterates))
    files = [_csv(bif_path, digest, ["param", "iterate_index", "y"], bif_lines)]
    table_path = out / "entropy_accuracy.csv"
    apen_keys = [(m, r) for m in analysis.TABLE_M_VALUES for r in analysis.TABLE_R_VALUES]
    header = ["param", *(f"apen_m{m}_r{r:g}" for m, r in apen_keys), "accuracy"]
    rows = ([row.value, *(row.apen[key] for key in apen_keys), row.accuracy] for row in table)
    files.append(_csv(table_path, digest, header, rows))
    poincare_path = out / "poincare.csv"
    files.append(_csv(poincare_path, digest, ["x", "y"], pairs))

    key = (2, 0.025)
    valid = [
        (row.apen[key], row.accuracy)
        for row in table
        if not row.overflowed and np.isfinite(row.apen[key]) and np.isfinite(row.accuracy)
    ]
    spearman_line = "spearman_apen_m2_r0.025_vs_accuracy: "
    rho = analysis.spearman_correlation(*zip(*valid)) if len(valid) >= 3 else None
    if not s.with_accuracy:
        spearman_line += "not computed (needs accuracy column)"
    elif rho is None:
        spearman_line += (
            f"not computed ({len(valid)} of {len(table)} points have both values, needs 3)"
        )
    elif math.isnan(rho):  # the rank correlation of a constant column is undefined
        spearman_line += "not computed (constant column)"
    else:
        spearman_line += f"{rho:.6f} over {len(valid)} points"
    summary_path = out / "summary.txt"
    summary = [
        f"sweep_points: {len(table)}",
        f"overflowed_points: {sum(1 for r in table if r.overflowed)}",
        f"bifurcation_rows: {sum(len(r.iterates) for r in bif_rows)}",
        spearman_line,
    ]
    _publish((manifest_path, text), [*files, _stamped(summary_path, digest, summary)])
    print(f"wrote {bif_path}, {table_path}, {poincare_path}, {summary_path}, {manifest_path}")
    print(spearman_line)
    return EXIT_OK


def cmd_report(config: dict, s: Settings) -> int:
    model_path = s.model_path
    if model_path is None:
        raise ConfigError("report needs model_path (or --model)")
    out = _output_dir(s)
    manifest_path, text, digest = manifest(config, out, "report")
    try:
        model = network.load_model(model_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise IdxFormatError(f"cannot read model file {model_path}: {exc}") from exc
    files, lines = [], []
    for mode in ("streaming", "materialized"):
        report = footprint.footprint(model, mode, s.bytes_per_value)
        files.append(_csv(
            out / f"footprint-{mode}.csv",
            digest,
            ["reservoir_parameter_count", "normalization_value_count",
             "classifier_weight_count", "streaming_mode", "bytes_per_value", "estimated_bytes"],
            [[report.reservoir_parameter_count, report.normalization_value_count,
              report.classifier_weight_count, int(report.streaming_mode),
              report.bytes_per_value, report.estimated_bytes]],
        ))
        lines += [
            f"reservoir mode:            {mode}",
            f"reservoir parameter count: {report.reservoir_parameter_count}",
            f"normalization statistics:  {report.normalization_value_count}",
            f"classifier weight count:   {report.classifier_weight_count}",
            f"total stored values:       {report.total_value_count}",
            f"bytes per value:           {report.bytes_per_value}",
            f"estimated bytes:           {report.estimated_bytes}",
            "",
        ]
    # the stamp goes into the file only; stdout shows the report itself
    _publish((manifest_path, text), [*files, _stamped(out / "footprint.txt", digest, lines[:-1])])
    print("\n".join(lines), end="")
    print(f"wrote {out / 'footprint.txt'}, CSVs, {manifest_path}")
    return EXIT_OK


def cmd_grid(config: dict, s: Settings) -> int:
    out = _output_dir(s)
    manifest_path, text, digest = manifest(config, out, "grid")
    train_ds, test_ds = _load_datasets(s)

    position = rpso.position_from_params(s.reservoir.params)
    rows: list[tuple[str, list[float]]] = []  # per architecture, one accuracy per method
    for architecture in s.grid_architectures:
        accuracies = []
        for method in s.grid_methods:
            # the search's objective and failure policy, scored on the test set
            objective = rpso.make_accuracy_objective(
                method, architecture, train_ds.images, train_ds.labels,
                test_ds.images, test_ds.labels, s.train, mode=s.mode,
            )
            accuracy = objective(position)
            accuracies.append(accuracy)
            print(f"{architecture.describe()} method {method.id}: {accuracy:.4f}")
        rows.append((architecture.describe(), accuracies))

    csv_path = out / "grid.csv"
    cells = [
        [arch, method.id, accuracy]
        for arch, accuracies in rows
        for method, accuracy in zip(s.grid_methods, accuracies)
    ]
    md_path = out / "grid.md"
    md = [
        "| architecture |" + "".join(f" method {m.id} |" for m in s.grid_methods),
        "|---|" + "---|" * len(s.grid_methods),
        *("| " + " | ".join([arch] + [f"{a * 100:.2f}%" for a in accuracies]) + " |"
          for arch, accuracies in rows),
    ]
    _publish((manifest_path, text), [
        _csv(csv_path, digest, ["architecture", "method", "accuracy"], cells),
        _stamped(md_path, digest, md),
    ])
    print(f"wrote {csv_path}, {md_path}, {manifest_path}")
    return EXIT_OK


COMMANDS = {"train": cmd_train, "analyze": cmd_analyze, "report": cmd_report, "grid": cmd_grid}


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaosnet",
        description="map-generated reservoir classifier: search, train, analyze, report",
    )
    parser.add_argument("--version", action="version", version=f"chaosnet {chaosnet.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("optimize", "stage-1 map-parameter search (subset fitness, full-base validation)"),
        ("train", "stage-2 full retrain, test evaluation, model export"),
        ("analyze", "bifurcation / entropy-accuracy / Poincare CSV bundle"),
        ("report", "weight-storage footprint of a saved model"),
        ("grid", "methods x architectures accuracy table"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="YAML config file")
        cmd.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config leaf, e.g. --set train.max_epochs=5")
        cmd.add_argument("--data-dir", dest="data_dir")
        cmd.add_argument("--output-dir", dest="output_dir")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--model", help="model file path")
        cmd.add_argument("--subset", type=int,
                         help="truncate datasets to this many samples (smoke runs)")
        if name == "optimize":
            cmd.add_argument("--resume", metavar="CHECKPOINT",
                             help="continue an interrupted run from its checkpoint file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        s = settings(config)
        if args.command == "optimize":
            return cmd_optimize(config, s, args.resume)
        return COMMANDS[args.command](config, s)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IdxFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MapOverflowError as exc:
        print(f"map overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except TrainingDivergedError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``optimize`` (stage-1 parameter search: subset training
fitness, full-base validation), ``train`` (stage-2 full retrain plus test
evaluation and model export), ``analyze`` (bifurcation, entropy-accuracy
and Poincare CSV bundle), ``report`` (weight-storage footprint of a saved
model), ``grid`` (methods x architectures accuracy table).

Configuration is a single YAML tree; any leaf can be overridden from the
command line with ``--set dotted.path=value``.  :func:`settings` converts
the whole tree once, before any command runs, so a bad value under any key
exits 2 before a file is written or data is read.  Every run writes a
manifest with the fully resolved configuration and seed; emitted CSVs
carry a comment line with the artifact version and the manifest hash.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import glob
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import chaosnet
from chaosnet import analysis, footprint, mnist, network, rpso
from chaosnet.maps import MapOverflowError, MapParams
from chaosnet.mnist import IdxFormatError, SplitPlan, split_indices
from chaosnet.network import Architecture, TrainConfig, TrainingDivergedError
from chaosnet.reservoir import MODES, FillMethod, ReservoirConfig
from chaosnet.rpso import OptimizationError

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_OVERFLOW = 4
EXIT_DIVERGENCE = 5


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG: dict = {
    "seed": 0,
    "data_dir": None,  # None -> $CHAOSNET_DATA or ./data
    "output_dir": "out",
    "model_path": None,  # None -> <output_dir>/model.json
    "subset": None,  # int -> truncate datasets for smoke runs
    "mode": "materialized",  # reservoir evaluation mode
    "method": 4,
    "params": {"a1": 1.0, "a2": 1.0, "a3": 1.51, "a4": 0.74, "A": -0.81, "B": 0.51},
    "architecture": {"P": 25, "H": None},
    "train": {"max_epochs": 20, "learning_rate": 0.1, "batch_size": 64},
    "split": {"fraction": 0.2, "stratified": True},
    "optimize": {
        "particles": 150,
        "iterations": 100,
        "omega": 0.5,
        "c1": 2.0,
        "c2": 2.0,
        "immigrant_fraction": 0.7,
        "lower": [0.01, 0.1, 0.0, 0.0, 0.0, 0.0],
        "upper": [1.5, 10.0, 1.5, 1.5, 1.5, 1.5],
    },
    "sweep": {
        "parameter": "a1",
        "lo": 0.1,
        "hi": 1.5,
        "step": 0.1,
        "series_length": 5000,
        "transient": 1000,
        "record_count": 100,
        "with_accuracy": False,
    },
    "analysis": {"poincare_count": 1000, "poincare_transient": 1000},
    "report": {"bytes_per_value": 8},
    "grid": {
        "methods": [1, 2, 3, 4, 5, 6],
        "architectures": [[25, None], [100, None], [200, None], [100, 60]],
    },
}


# -- configuration plumbing ----------------------------------------------------


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _check_mapping_known(loaded: dict, prefix: tuple[str, ...] = ()) -> None:
    node = DEFAULT_CONFIG
    for part in prefix:
        node = node[part]
    for key, value in loaded.items():
        if not isinstance(key, str) or key not in node:
            dotted = ".".join(prefix + (str(key),))
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(node[key], dict):
            if not isinstance(value, dict):
                dotted = ".".join(prefix + (key,))
                raise ConfigError(f"config section {dotted!r} must be a mapping")
            _check_mapping_known(value, prefix + (key,))


def _apply_set(config: dict, expression: str) -> None:
    if "=" not in expression:
        raise ConfigError(f"--set expects dotted.path=value, got {expression!r}")
    dotted, raw = expression.split("=", 1)
    keys = dotted.strip().split(".")
    if not all(keys):
        raise ConfigError(f"empty key component in {dotted!r}")
    # walk the defaults beside the config: a typo'd key would otherwise be
    # accepted and silently ignored
    node, schema = config, DEFAULT_CONFIG
    for depth, key in enumerate(keys):
        if not isinstance(schema, dict) or key not in schema:
            raise ConfigError(f"unknown config key {'.'.join(keys[: depth + 1])!r}")
        parent, node, schema = node, node[key], schema[key]
    if isinstance(schema, dict):
        raise ConfigError(f"--set targets a leaf value, but {dotted.strip()!r} is a section")
    try:
        parent[keys[-1]] = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse value {raw!r}: {exc}") from exc


def resolve_config(args: argparse.Namespace) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a mapping at top level")
        _check_mapping_known(loaded)
        config = _deep_merge(config, loaded)
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
    # per architecture, one reservoir config for each of grid_methods
    grid: list[tuple[Architecture, list[ReservoirConfig]]]


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


def _at_least_1(value) -> int:
    number = _int(value)
    if number < 1:
        raise ValueError(f"must be >= 1, got {number}")
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


def settings(config: dict) -> Settings:
    """Convert the resolved tree, every key of it, whichever command runs.

    Pure: it writes and reads nothing, so it runs before any command, and it
    is the one place a config value is converted.
    """
    c = _typed(config, DEFAULT_CONFIG)
    seed = c["seed"]
    method = _convert("method", FillMethod.from_id, c["method"])
    params = _convert("params", MapParams, **c["params"])
    architecture = _convert("architecture", _architecture, **c["architecture"])
    grid_methods = _convert(
        "grid.methods", lambda: [FillMethod.from_id(_int(m)) for m in _list(c["grid"]["methods"])]
    )
    grid_architectures = _convert(
        "grid.architectures",
        lambda: [_architecture(*pair) for pair in _list(c["grid"]["architectures"])],
    )
    # the other keys of both sections are the fields of their configs
    with_accuracy = c["sweep"].pop("with_accuracy")
    c["optimize"]["particle_count"] = c["optimize"].pop("particles")
    return Settings(
        data_dir=_convert("data_dir", _optional_path, c["data_dir"]),
        output_dir=Path(c["output_dir"]),
        model_path=_convert("model_path", _optional_path, c["model_path"]),
        subset=None if c["subset"] is None else _convert("subset", _at_least_1, c["subset"]),
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
        swarm=_convert("optimize", rpso.SwarmConfig, **c["optimize"], rng_seed=seed),
        sweep=_convert("sweep", analysis.SweepConfig, **c["sweep"], fixed=params, method=method),
        with_accuracy=with_accuracy,
        poincare_params=_convert(
            "analysis.poincare_transient",
            method.effective_params(params).replace,
            preliminary_iterations=c["analysis"]["poincare_transient"],
        ),
        poincare_count=_convert(
            "analysis.poincare_count", _at_least_1, c["analysis"]["poincare_count"]
        ),
        bytes_per_value=_convert(
            "report.bytes_per_value", _at_least_1, c["report"]["bytes_per_value"]
        ),
        grid_methods=grid_methods,
        grid=_convert(
            "grid.methods",
            lambda: [
                (arch, [ReservoirConfig(m, params, arch.reservoir_size) for m in grid_methods])
                for arch in grid_architectures
            ],
        ),
    )


def _output_dir(s: Settings) -> Path:
    s.output_dir.mkdir(parents=True, exist_ok=True)
    return s.output_dir


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


def write_manifest(config: dict, out: Path, command: str) -> tuple[Path, str]:
    """Resolved config + seed + version, hashed so outputs can cite it.

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
    digest = hashlib.sha256(text.encode()).hexdigest()
    path = out / f"manifest-{command}.yaml"
    path.write_text(text, encoding="ascii")
    return path, digest


def _csv_comment(digest: str) -> str:
    return f"chaosnet {chaosnet.__version__} manifest sha256:{digest[:16]}"


def _load_datasets(s: Settings):
    train, test = mnist.load_mnist(s.data_dir)
    if s.subset is not None:
        train = train.subset(np.arange(min(s.subset, len(train))), train.provenance)
        test = test.subset(np.arange(min(s.subset, len(test))), test.provenance)
    return train, test


def _search_objective(s: Settings, score_on_test: bool):
    """The swarm's accuracy objective: train on the optimization split of the
    training base, score on the whole base or on the test set."""
    train_ds, test_ds = _load_datasets(s)
    try:
        idx = split_indices(train_ds.labels, s.split)
    except ValueError as exc:
        raise IdxFormatError(f"cannot build the optimization split: {exc}") from exc
    subset_ds = train_ds.subset(idx, "optimization12k")
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
        except (ValueError, KeyError, TypeError) as exc:
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
    manifest_path, digest = write_manifest(config, out, "optimize")
    objective = _search_objective(s, score_on_test=False)
    checkpoint = out / "checkpoint.json"
    if swarm is not None:
        swarm = rpso.resume(objective, swarm, checkpoint_path=checkpoint)
    else:
        swarm = rpso.optimize(objective, s.swarm, checkpoint_path=checkpoint)

    trace_path = out / "trace.csv"
    rpso.write_trace_csv(swarm, trace_path, comment=_csv_comment(digest))
    best = rpso.params_from_position(swarm.gbest_position)
    best_path = out / "best_params.yaml"
    best_path.write_text(
        yaml.safe_dump(
            {
                "A": best.A, "B": best.B, "a1": best.a1, "a2": best.a2,
                "a3": best.a3, "a4": best.a4,
                "fitness": swarm.gbest_fitness,
                "evaluations": swarm.evaluations,
            },
            sort_keys=True,
        ),
        encoding="ascii",
    )
    print(f"best fitness {swarm.gbest_fitness:.6f} after {swarm.evaluations} evaluations")
    print(f"wrote {trace_path}, {best_path}, {manifest_path}")
    return EXIT_OK


def cmd_train(config: dict, s: Settings) -> int:
    out = _output_dir(s)
    manifest_path, digest = write_manifest(config, out, "train")
    train_ds, test_ds = _load_datasets(s)

    model = network.train(
        train_ds.images, train_ds.labels, s.architecture, s.reservoir, s.train, mode=s.mode
    )
    # one projection of the test set gives both the confusion and the accuracy
    predictions = model.predict(test_ds.images, s.mode)
    confusion = np.zeros((10, 10), dtype=np.int64)
    np.add.at(confusion, (test_ds.labels.astype(np.int64), predictions), 1)
    accuracy = int(np.trace(confusion)) / len(test_ds)

    model_path = s.model_path or out / "model.json"
    network.save_model(model, model_path)
    metrics = {
        "architecture": s.architecture.describe(),
        "method": s.method.id,
        "test_accuracy": accuracy,
        "test_size": len(test_ds),
        "train_size": len(train_ds),
        "epoch_losses": model.training_meta["epoch_losses"],
        "confusion": confusion.tolist(),
        "manifest_sha256": digest,
    }
    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps(metrics, indent=1), encoding="ascii")
    print(f"test accuracy {accuracy:.4f} on {len(test_ds)} samples")
    print(f"wrote {model_path}, {metrics_path}, {manifest_path}")
    return EXIT_OK


def cmd_analyze(config: dict, s: Settings) -> int:
    out = _output_dir(s)
    manifest_path, digest = write_manifest(config, out, "analyze")
    comment = _csv_comment(digest)

    bif_rows = analysis.bifurcation_sweep(s.sweep)
    bif_path = out / "bifurcation.csv"
    analysis.write_bifurcation_csv(bif_rows, bif_path, comment=comment)

    accuracy_fn = None
    if s.with_accuracy:
        # the search's objective and failure policy, scored on the test set
        objective = _search_objective(s, score_on_test=True)

        def accuracy_fn(map_params: MapParams) -> float:
            return objective(rpso.position_from_params(map_params))

    table = analysis.entropy_accuracy_table(s.sweep, accuracy_fn)
    table_path = out / "entropy_accuracy.csv"
    analysis.write_entropy_accuracy_csv(table, table_path, comment=comment)

    pairs = analysis.poincare_pairs(s.poincare_params, s.poincare_count)
    poincare_path = out / "poincare.csv"
    analysis.write_poincare_csv(pairs, poincare_path, comment=comment)

    key = (2, 0.025)
    valid = [
        (row.apen[key], row.accuracy)
        for row in table
        if not row.overflowed and np.isfinite(row.apen[key]) and np.isfinite(row.accuracy)
    ]
    spearman_line = "spearman_apen_m2_r0.025_vs_accuracy: "
    if len(valid) < 3:
        spearman_line += "not computed (needs accuracy column)"
    elif any(len(set(column)) == 1 for column in zip(*valid)):
        # the rank correlation of a constant column is undefined
        spearman_line += "not computed (constant column)"
    else:
        rho = analysis.spearman_correlation(*zip(*valid))
        spearman_line += f"{rho:.6f} over {len(valid)} points"
    summary_path = out / "summary.txt"
    summary_path.write_text(
        "\n".join(
            [
                f"# {comment}",
                f"sweep_points: {len(table)}",
                f"overflowed_points: {sum(1 for r in table if r.overflowed)}",
                f"bifurcation_rows: {sum(len(r.iterates) for r in bif_rows)}",
                spearman_line,
                "",
            ]
        ),
        encoding="ascii",
    )
    print(f"wrote {bif_path}, {table_path}, {poincare_path}, {summary_path}, {manifest_path}")
    print(spearman_line)
    return EXIT_OK


def cmd_report(config: dict, s: Settings) -> int:
    model_path = s.model_path
    if model_path is None:
        raise ConfigError("report needs model_path (or --model)")
    out = _output_dir(s)
    manifest_path, digest = write_manifest(config, out, "report")
    try:
        model = network.load_model(model_path)
    except (ValueError, KeyError, TypeError) as exc:
        raise IdxFormatError(f"cannot read model file {model_path}: {exc}") from exc
    lines = []
    for mode in ("streaming", "materialized"):
        report = footprint.footprint(model, mode, s.bytes_per_value)
        footprint.write_csv(report, out / f"footprint-{mode}.csv", comment=_csv_comment(digest))
        lines.append(footprint.render_text(report))
    text = "\n".join(lines)
    (out / "footprint.txt").write_text(text, encoding="ascii")
    print(text, end="")
    print(f"wrote {out / 'footprint.txt'}, CSVs, {manifest_path}")
    return EXIT_OK


def cmd_grid(config: dict, s: Settings) -> int:
    out = _output_dir(s)
    manifest_path, digest = write_manifest(config, out, "grid")
    train_ds, test_ds = _load_datasets(s)

    rows: list[tuple[str, list[float]]] = []  # per architecture, one accuracy per method
    for architecture, reservoir_configs in s.grid:
        accuracies = []
        for reservoir_config in reservoir_configs:
            model = network.train(
                train_ds.images, train_ds.labels, architecture, reservoir_config,
                s.train, mode=s.mode,
            )
            accuracy = network.evaluate(model, test_ds.images, test_ds.labels, mode=s.mode)
            accuracies.append(accuracy)
            print(f"{architecture.describe()} method {reservoir_config.method.id}: {accuracy:.4f}")
        rows.append((architecture.describe(), accuracies))

    csv_path = out / "grid.csv"
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write(f"# {_csv_comment(digest)}\n")
        fh.write("architecture,method,accuracy\n")
        for arch, accuracies in rows:
            for method, accuracy in zip(s.grid_methods, accuracies):
                fh.write(f"{arch},{method.id},{accuracy:.17g}\n")

    md_path = out / "grid.md"
    with open(md_path, "w", encoding="ascii") as fh:
        fh.write("| architecture |" + "".join(f" method {m.id} |" for m in s.grid_methods) + "\n")
        fh.write("|---|" + "---|" * len(s.grid_methods) + "\n")
        for arch, accuracies in rows:
            fh.write("| " + " | ".join([arch] + [f"{a * 100:.2f}%" for a in accuracies]) + " |\n")
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
    except (FileNotFoundError, IdxFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MapOverflowError as exc:
        print(f"map overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (TrainingDivergedError, OptimizationError) as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())

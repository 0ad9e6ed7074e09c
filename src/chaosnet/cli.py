"""Command-line front end.

Subcommands: ``optimize`` (stage-1 parameter search: subset training
fitness, full-base validation), ``train`` (stage-2 full retrain plus test
evaluation and model export), ``analyze`` (bifurcation, entropy-accuracy
and Poincare CSV bundle), ``report`` (weight-storage footprint of a saved
model), ``grid`` (methods x architectures accuracy table).

Configuration is a single YAML tree; any leaf can be overridden from the
command line with ``--set dotted.path=value``.  Every run writes a
manifest with the fully resolved configuration and seed; emitted CSVs
carry a comment line with the artifact version and the manifest hash.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
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


def _check_path_known(keys: list[str]):
    # a typo'd key would otherwise be accepted and silently ignored
    node = DEFAULT_CONFIG
    for depth, key in enumerate(keys):
        if not isinstance(node, dict) or key not in node:
            dotted = ".".join(keys[: depth + 1])
            raise ConfigError(f"unknown config key {dotted!r}")
        node = node[key]
    return node


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
    if isinstance(_check_path_known(keys), dict):
        raise ConfigError(f"--set targets a leaf value, but {dotted.strip()!r} is a section")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse value {raw!r}: {exc}") from exc
    node = config
    for key in keys[:-1]:
        node = node[key]  # structure mirrors DEFAULT_CONFIG once the path checks out
    node[keys[-1]] = value


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
    # bad values under valid keys are refused here, before any data is read
    config_mode(config)
    config_method(config)
    config_grid_methods(config)
    return config


def _require(config: dict, dotted: str):
    node = config
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"missing config key {dotted!r}")
        node = node[key]
    return node


def config_params(config: dict) -> MapParams:
    raw = _require(config, "params")
    try:
        return MapParams(
            a1=float(raw["a1"]), a2=float(raw["a2"]), a3=float(raw["a3"]),
            a4=float(raw["a4"]), A=float(raw["A"]), B=float(raw["B"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad map params: {exc}") from exc


def config_mode(config: dict) -> str:
    mode = _require(config, "mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    return mode


def config_method(config: dict) -> FillMethod:
    try:
        return FillMethod.from_id(int(_require(config, "method")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_grid_methods(config: dict) -> list[FillMethod]:
    raw = _require(config, "grid.methods")
    if not isinstance(raw, list):
        raise ConfigError(f"grid.methods must be a list of method ids, got {raw!r}")
    try:
        return [FillMethod.from_id(int(m)) for m in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid.methods: {exc}") from exc


def config_architecture(config: dict) -> Architecture:
    raw = _require(config, "architecture")
    try:
        hidden = raw.get("H")
        return Architecture(int(raw["P"]), None if hidden is None else int(hidden))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad architecture: {exc}") from exc


def config_train(config: dict) -> TrainConfig:
    raw = _require(config, "train")
    try:
        return TrainConfig(
            max_epochs=int(raw["max_epochs"]),
            learning_rate=float(raw["learning_rate"]),
            batch_size=int(raw["batch_size"]),
            rng_seed=int(_require(config, "seed")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad train config: {exc}") from exc


def config_reservoir(config: dict, architecture: Architecture) -> ReservoirConfig:
    try:
        return ReservoirConfig(
            method=config_method(config),
            params=config_params(config),
            reservoir_size=architecture.reservoir_size,
        )
    except ValueError as exc:
        raise ConfigError(f"bad reservoir config: {exc}") from exc


def _output_dir(config: dict) -> Path:
    out = Path(_require(config, "output_dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_manifest(config: dict, command: str) -> tuple[Path, str]:
    """Resolved config + seed + version, hashed so outputs can cite it."""
    out = _output_dir(config)
    payload = {
        "artifact_version": chaosnet.__version__,
        "command": command,
        "config": config,
    }
    text = yaml.safe_dump(payload, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    path = out / f"manifest-{command}.yaml"
    path.write_text(text, encoding="ascii")
    return path, digest


def _csv_comment(digest: str) -> str:
    return f"chaosnet {chaosnet.__version__} manifest sha256:{digest[:16]}"


def _load_datasets(config: dict):
    train, test = mnist.load_mnist(config.get("data_dir"))
    subset = config.get("subset")
    if subset is not None:
        subset = int(subset)
        train = train.subset(np.arange(min(subset, len(train))), train.provenance)
        test = test.subset(np.arange(min(subset, len(test))), test.provenance)
    return train, test


# -- subcommands ---------------------------------------------------------------


def cmd_optimize(config: dict, resume_path: str | None = None) -> int:
    seed = int(_require(config, "seed"))
    raw = _require(config, "optimize")
    try:
        swarm_config = rpso.SwarmConfig(
            lower=np.asarray(raw["lower"], dtype=np.float64),
            upper=np.asarray(raw["upper"], dtype=np.float64),
            particle_count=int(raw["particles"]),
            iterations=int(raw["iterations"]),
            omega=float(raw["omega"]),
            c1=float(raw["c1"]),
            c2=float(raw["c2"]),
            immigrant_fraction=float(raw["immigrant_fraction"]),
            rng_seed=seed,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimize config: {exc}") from exc
    if resume_path:
        # the manifest must describe the run the checkpoint continues
        saved = rpso.load_checkpoint(resume_path).config.as_dict()
        wanted = swarm_config.as_dict()
        differ = sorted(k for k in wanted if saved[k] != wanted[k])
        if differ:
            raise ConfigError(
                f"checkpoint {resume_path} was written by another optimize config "
                f"(differs in {', '.join(differ)})"
            )
    out = _output_dir(config)
    manifest_path, digest = write_manifest(config, "optimize")
    train_ds, _ = _load_datasets(config)
    architecture = config_architecture(config)
    method = config_method(config)
    train_config = config_train(config)

    plan = SplitPlan(
        optimization_fraction=float(_require(config, "split.fraction")),
        rng_seed=seed,
        stratified=bool(_require(config, "split.stratified")),
    )
    try:
        idx = split_indices(train_ds.labels, plan)
    except ValueError as exc:
        raise IdxFormatError(f"cannot build the optimization split: {exc}") from exc
    subset_ds = train_ds.subset(idx, "optimization12k")

    objective = rpso.make_accuracy_objective(
        method,
        architecture,
        subset_ds.images,
        subset_ds.labels,
        train_ds.images,
        train_ds.labels,
        train_config,
        mode=config_mode(config),
    )
    checkpoint = out / "checkpoint.json"
    if resume_path:
        result = rpso.resume(objective, resume_path, checkpoint_path=checkpoint)
    else:
        result = rpso.optimize(objective, swarm_config, checkpoint_path=checkpoint)

    trace_path = out / "trace.csv"
    rpso.write_trace_csv(result, trace_path, comment=_csv_comment(digest))
    best = rpso.params_from_position(result.best_position)
    best_path = out / "best_params.yaml"
    best_path.write_text(
        yaml.safe_dump(
            {
                "A": best.A, "B": best.B, "a1": best.a1, "a2": best.a2,
                "a3": best.a3, "a4": best.a4,
                "fitness": result.best_fitness,
                "evaluations": result.evaluations,
            },
            sort_keys=True,
        ),
        encoding="ascii",
    )
    print(f"best fitness {result.best_fitness:.6f} after {result.evaluations} evaluations")
    print(f"wrote {trace_path}, {best_path}, {manifest_path}")
    return EXIT_OK


def cmd_train(config: dict) -> int:
    out = _output_dir(config)
    manifest_path, digest = write_manifest(config, "train")
    train_ds, test_ds = _load_datasets(config)
    architecture = config_architecture(config)
    reservoir_config = config_reservoir(config, architecture)
    train_config = config_train(config)
    mode = config_mode(config)

    model = network.train(
        train_ds.images, train_ds.labels, architecture, reservoir_config, train_config, mode=mode
    )
    # one projection of the test set gives both the confusion and the accuracy
    predictions = model.predict(test_ds.images, mode)
    confusion = np.zeros((10, 10), dtype=np.int64)
    np.add.at(confusion, (test_ds.labels.astype(np.int64), predictions), 1)
    accuracy = int(np.trace(confusion)) / len(test_ds)

    model_path = Path(config.get("model_path") or out / "model.json")
    network.save_model(model, model_path)
    metrics = {
        "architecture": architecture.describe(),
        "method": config_method(config).id,
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


def cmd_analyze(config: dict) -> int:
    out = _output_dir(config)
    manifest_path, digest = write_manifest(config, "analyze")
    comment = _csv_comment(digest)
    method = config_method(config)
    params = config_params(config)
    raw = _require(config, "sweep")
    try:
        sweep = analysis.SweepConfig(
            parameter=str(raw["parameter"]),
            lo=float(raw["lo"]),
            hi=float(raw["hi"]),
            step=float(raw["step"]),
            fixed=params,
            method=method,
            series_length=int(raw["series_length"]),
            transient=int(raw["transient"]),
            record_count=int(raw["record_count"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep config: {exc}") from exc

    bif_rows = analysis.bifurcation_sweep(sweep)
    bif_path = out / "bifurcation.csv"
    analysis.write_bifurcation_csv(bif_rows, bif_path, comment=comment)

    accuracy_fn = None
    if raw.get("with_accuracy"):
        train_ds, test_ds = _load_datasets(config)
        architecture = config_architecture(config)
        train_config = config_train(config)
        plan = SplitPlan(
            optimization_fraction=float(_require(config, "split.fraction")),
            rng_seed=int(_require(config, "seed")),
            stratified=bool(_require(config, "split.stratified")),
        )
        try:
            idx = split_indices(train_ds.labels, plan)
        except ValueError as exc:
            raise IdxFormatError(f"cannot build the optimization split: {exc}") from exc
        subset_ds = train_ds.subset(idx, "optimization12k")
        mode = config_mode(config)

        def accuracy_fn(map_params: MapParams) -> float:
            reservoir_config = ReservoirConfig(
                method=method,
                params=map_params,
                reservoir_size=architecture.reservoir_size,
            )
            try:
                model = network.train(
                    subset_ds.images, subset_ds.labels, architecture, reservoir_config,
                    train_config, mode=mode,
                )
                return network.evaluate(model, test_ds.images, test_ds.labels, mode=mode)
            except (MapOverflowError, TrainingDivergedError):
                return float("nan")

    table = analysis.entropy_accuracy_table(sweep, accuracy_fn)
    table_path = out / "entropy_accuracy.csv"
    analysis.write_entropy_accuracy_csv(table, table_path, comment=comment)

    a_raw = _require(config, "analysis")
    poincare_params = method.effective_params(params).replace(
        preliminary_iterations=int(a_raw["poincare_transient"])
    )
    pairs = analysis.poincare_pairs(poincare_params, int(a_raw["poincare_count"]))
    poincare_path = out / "poincare.csv"
    analysis.write_poincare_csv(pairs, poincare_path, comment=comment)

    key = (2, 0.025)
    valid = [
        (row.apen[key], row.accuracy)
        for row in table
        if not row.overflowed and np.isfinite(row.apen[key]) and np.isfinite(row.accuracy)
    ]
    if len(valid) >= 3:
        rho = analysis.spearman_correlation([v[0] for v in valid], [v[1] for v in valid])
        spearman_line = f"spearman_apen_m2_r0.025_vs_accuracy: {rho:.6f} over {len(valid)} points"
    else:
        spearman_line = "spearman_apen_m2_r0.025_vs_accuracy: not computed (needs accuracy column)"
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


def cmd_report(config: dict) -> int:
    out = _output_dir(config)
    manifest_path, digest = write_manifest(config, "report")
    model_path = config.get("model_path")
    if not model_path:
        raise ConfigError("report needs model_path (or --model)")
    try:
        model = network.load_model(model_path)
    except FileNotFoundError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise IdxFormatError(f"cannot read model file {model_path}: {exc}") from exc
    bytes_per_value = int(_require(config, "report.bytes_per_value"))
    lines = []
    for mode in ("streaming", "materialized"):
        report = footprint.footprint(model, mode, bytes_per_value)
        footprint.write_csv(report, out / f"footprint-{mode}.csv", comment=_csv_comment(digest))
        lines.append(footprint.render_text(report))
    text = "\n".join(lines)
    (out / "footprint.txt").write_text(text, encoding="ascii")
    print(text, end="")
    print(f"wrote {out / 'footprint.txt'}, CSVs, {manifest_path}")
    return EXIT_OK


def cmd_grid(config: dict) -> int:
    out = _output_dir(config)
    manifest_path, digest = write_manifest(config, "grid")
    train_ds, test_ds = _load_datasets(config)
    raw = _require(config, "grid")
    train_config = config_train(config)
    params = config_params(config)
    mode = config_mode(config)
    methods = config_grid_methods(config)

    results: list[tuple[str, int, float]] = []
    for p, h in raw["architectures"]:
        architecture = Architecture(int(p), None if h is None else int(h))
        for method in methods:
            reservoir_config = ReservoirConfig(
                method=method, params=params, reservoir_size=architecture.reservoir_size
            )
            model = network.train(
                train_ds.images, train_ds.labels, architecture, reservoir_config,
                train_config, mode=mode,
            )
            accuracy = network.evaluate(model, test_ds.images, test_ds.labels, mode=mode)
            results.append((architecture.describe(), method.id, accuracy))
            print(f"{architecture.describe()} method {method.id}: {accuracy:.4f}")

    csv_path = out / "grid.csv"
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write(f"# {_csv_comment(digest)}\n")
        fh.write("architecture,method,accuracy\n")
        for arch, method_id, accuracy in results:
            fh.write(f"{arch},{method_id},{accuracy:.17g}\n")

    md_path = out / "grid.md"
    with open(md_path, "w", encoding="ascii") as fh:
        fh.write("| architecture |" + "".join(f" method {m.id} |" for m in methods) + "\n")
        fh.write("|---|" + "---|" * len(methods) + "\n")
        for p, h in raw["architectures"]:
            arch = Architecture(int(p), None if h is None else int(h)).describe()
            row = [arch]
            for m in methods:
                acc = next(a for ar, mi, a in results if ar == arch and mi == m.id)
                row.append(f"{acc * 100:.2f}%")
            fh.write("| " + " | ".join(row) + " |\n")
    print(f"wrote {csv_path}, {md_path}, {manifest_path}")
    return EXIT_OK


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command == "optimize":
            return cmd_optimize(config, resume_path=getattr(args, "resume", None))
        if args.command == "train":
            return cmd_train(config)
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "report":
            return cmd_report(config)
        if args.command == "grid":
            return cmd_grid(config)
        raise ConfigError(f"unknown command {args.command!r}")
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

"""The sha256 of every file the commands write on a tiny synthetic IDX set,
and the committed table they are checked against.

:func:`run_commands` writes the data under ``root/data`` and runs, from
``root/run``: ``train``, ``optimize``, ``analyze`` without data and with its
accuracy column, ``report`` on the trained model, and ``grid``.  From
``root/resumed`` it runs the same ``optimize`` again, interrupted right after
its checkpoint of iteration 1 and resumed from that checkpoint, and from
``root/legacy`` it resumes ``legacy_checkpoint.json``, that checkpoint as
the older format wrote it, with copies of the global best, the evaluation
count and each trace record's index.  Every path
on the command lines is relative, so the manifests, and the stamps that cite
them, do not depend on ``root``.  The trace's wall times in
``checkpoint.json`` are masked before hashing.

The digests depend on the numpy version and the BLAS thread count, which the
table records beside them.  To rewrite the table after a change that alters
outputs on purpose:

    PYTHONPATH=src python tests/output_digests.py
"""

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from chaosnet import cli, rpso
from chaosnet.mnist import LabeledDataset

from conftest import make_band_images
from idx_writer import save_idx

TABLE = Path(__file__).with_name("output_digests.json")
LEGACY_CHECKPOINT = Path(__file__).with_name("legacy_checkpoint.json")
WALL_TIME = re.compile(rb'"wall_time": [^,}]+')

DATA = ["--data-dir", "../data"]
OPTIMIZE = [
    "optimize", *DATA, "--output-dir", "optimize", "--subset", "120",
    "--set", "method=1", "--set", "architecture.P=8",
    "--set", "optimize.particles=6", "--set", "optimize.iterations=3",
    "--set", "train.max_epochs=4", "--set", "train.learning_rate=1.0",
    "--set", "train.batch_size=16",
    "--set", "split.fraction=0.5", "--set", "split.stratified=false",
]
ANALYZE = [
    "analyze", "--set", "sweep.lo=0.85", "--set", "sweep.hi=0.95", "--set", "sweep.step=0.05",
    "--set", "sweep.series_length=300", "--set", "sweep.transient=200",
    "--set", "sweep.record_count=20", "--set", "analysis.poincare_count=50",
    "--set", "analysis.poincare_transient=100",
]
COMMANDS = [
    [
        "train", *DATA, "--output-dir", "train", "--subset", "80",
        "--set", "architecture.P=5", "--set", "params.a1=0.9",
        "--set", "train.max_epochs=2", "--set", "train.batch_size=8",
    ],
    OPTIMIZE,
    [*ANALYZE, "--output-dir", "analyze"],
    [
        *ANALYZE, *DATA, "--output-dir", "analyze-accuracy", "--subset", "60",
        "--set", "sweep.with_accuracy=true", "--set", "train.max_epochs=1",
    ],
    ["report", "--model", "train/model.json", "--output-dir", "report"],
    [
        "grid", *DATA, "--output-dir", "grid", "--subset", "40",
        "--set", "grid.methods=[1,4]", "--set", "grid.architectures=[[3,null],[4,3]]",
        "--set", "train.max_epochs=1", "--set", "params.a1=0.9",
    ],
]


def environment() -> dict:
    """What the digests depend on beyond the code, as the manifest records it."""
    return {"numpy": np.__version__, "blas_threads": cli._blas_threads()}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "checkpoint.json":
        data = WALL_TIME.sub(b'"wall_time": 0', data)
    return hashlib.sha256(data).hexdigest()


def _digests(directory: Path) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): _digest(path)
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _run(cwd: Path, args) -> None:
    cwd.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        code = cli.main(list(args))
    finally:
        os.chdir(previous)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"chaosnet {' '.join(args)} exited {code}")


def _interrupted(cwd: Path, args) -> None:
    """Run ``args`` and stop it right after its first checkpoint."""
    save = rpso.save_checkpoint

    def save_then_interrupt(swarm, path):
        save(swarm, path)
        raise KeyboardInterrupt

    rpso.save_checkpoint = save_then_interrupt
    try:
        _run(cwd, args)
    except KeyboardInterrupt:
        return
    finally:
        rpso.save_checkpoint = save
    raise RuntimeError("the run was not interrupted")


def run_commands(root: Path) -> dict[str, dict[str, str]]:
    """The digests of every file written under ``root/run``, ``root/resumed``
    and ``root/legacy``, by those three names and the path relative to each."""
    data = root / "data"
    data.mkdir(parents=True)
    for prefix, count, seed in (("train", 200, 11), ("t10k", 50, 12)):
        save_idx(
            LabeledDataset(*make_band_images(count, seed=seed)),
            data / f"{prefix}-images-idx3-ubyte",
            data / f"{prefix}-labels-idx1-ubyte",
        )
    for args in COMMANDS:
        _run(root / "run", args)
    _interrupted(root / "resumed", OPTIMIZE)
    _run(root / "resumed", [*OPTIMIZE, "--resume", "optimize/checkpoint.json"])
    _run(root / "legacy", [*OPTIMIZE, "--resume", str(LEGACY_CHECKPOINT)])
    return {name: _digests(root / name) for name in ("run", "resumed", "legacy")}


def main(root: Path) -> None:
    digests = run_commands(root)["run"]
    table = {**environment(), "digests": digests}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))

"""The one file writer: a write that fails at any step leaves the previous
file byte-identical and no temporary file behind, for every kind of file
the package writes."""

import numpy as np
import pytest

from chaosnet.cli import _csv, _publish
from chaosnet.network import NetworkModel, save_model
from chaosnet.rpso import SwarmConfig, init_swarm, pso_step, save_checkpoint

from conftest import WRITE_STEPS, fail_writing, sphere


def write_checkpoint(directory, version, model):
    swarm = init_swarm(sphere, SwarmConfig(np.array([-1.0]), np.array([1.0]), particle_count=3))
    for _ in range(version):
        pso_step(swarm, sphere)
    save_checkpoint(swarm, directory / "checkpoint.json")
    return "checkpoint.json"


def write_model(directory, version, model):
    meta = {"manifest_sha256": str(version)}
    save_model(NetworkModel(model.reservoir, model.z_min, model.z_max, model.classifier, meta),
               directory / "model.json")
    return "model.json"


def publish(directory, version):
    """A run's stamped table, then its manifest, as every command writes them."""
    digest = f"{version:064x}"
    table = _csv(directory / "table.csv", digest, ["run"], [[version]])
    _publish((directory / "manifest-x.yaml", f"run: {version}\n"), [table])


def write_stamped_csv(directory, version, model):
    publish(directory, version)
    return "table.csv"


def write_manifest(directory, version, model):
    publish(directory, version)
    return "manifest-x.yaml"


@pytest.mark.parametrize("step", WRITE_STEPS)
@pytest.mark.parametrize(
    "write", [write_checkpoint, write_model, write_stamped_csv, write_manifest],
    ids=["checkpoint", "model", "stamped_csv", "manifest"],
)
def test_a_failed_write_keeps_the_previous_file(
    tmp_path, monkeypatch, tiny_trained_model, write, step
):
    name = write(tmp_path, 0, tiny_trained_model)
    before = (tmp_path / name).read_bytes()
    fail_writing(monkeypatch, step, name)
    with pytest.raises(OSError):
        write(tmp_path, 1, tiny_trained_model)
    monkeypatch.undo()
    assert (tmp_path / name).read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))
    # the same write, unhindered, replaces the file
    write(tmp_path, 1, tiny_trained_model)
    assert (tmp_path / name).read_bytes() != before

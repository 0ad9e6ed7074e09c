"""Smoke test of the benchmark at tiny size: every workload, traced and not.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from worker import WORKLOADS, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "train", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_overflow_oracle_agrees_with_the_package():
    from chaosnet.maps import MapOverflowError, MapParams
    from chaosnet.reservoir import FillMethod, ReservoirConfig, build_matrix

    rng = np.random.default_rng(0)
    seen = set()
    for method_id in (1, 4, 6):
        for a, b, *coeffs in rng.uniform([0.01, 0.1, 0, 0, 0, 0], [1.5, 10, 1.5, 1.5, 1.5, 1.5],
                                         size=(20, 6)).tolist():
            params = MapParams(*coeffs, A=a, B=b)
            config = ReservoirConfig(FillMethod.from_id(method_id), params, reservoir_size=5)
            try:
                build_matrix(config)
                overflowed = False
            except MapOverflowError:
                overflowed = True
            assert checks.matrix_overflows(method_id, a, b, coeffs, 5) == overflowed
            seen.add(overflowed)
    assert seen == {True, False}


def test_tail_has_ten_samples_beyond_it():
    assert tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)

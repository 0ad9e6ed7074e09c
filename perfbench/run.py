"""Benchmark of the chaosnet package: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search|train|stream|analyze --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its ``src``.  Set-up (synthetic IDX files, and
for ``stream`` a trained model) and the timed phase each run in a child
process under ``.bench_work/``, which is removed afterwards.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Lines before it give
each metric with its unit and the workload's settings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("search", "train", "stream", "analyze")
# a run must end within 180 s; leave room for start-up and clean-up
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def threads() -> int:
    """nproc: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads())
    # Whether numpy's large arrays get transparent huge pages depends on how
    # fragmented the host's memory is at the time, which drifted over hours
    # and moved run_s on search, train and analyze by up to half.  Without
    # the advice every run gets ordinary pages.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env.pop("CHAOSNET_DATA", None)
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; its last stdout line is a JSON object."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up before " + args[0])
    try:
        done = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish within {remaining:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{args[0]} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{args[0]} printed no result")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up and measure one workload; the worker's full result plus ``setup_s``."""
    if not (ROOT / "src" / "chaosnet" / "__init__.py").is_file():
        raise BenchError(f"no chaosnet package under {ROOT / 'src'}")
    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--size", size, "--work", str(work)]
    try:
        setup = run_child(["setup", *common], deadline)
        result = run_child(["measure", *common, "--seconds", str(seconds),
                            "--trace", str(int(trace))], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    result["setup"] = setup
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every workload and check in seconds (smoke test)")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": result["setup"]["setup_s"], "unit": "s"}, **metrics}
    moves = {}
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import METRICS

        moves = {name: f"  -> {target}" for name, _, target in METRICS}
    print(f"# workload {args.workload} seed {args.seed} size {args.size}: "
          + json.dumps(result["info"]))
    print("# machine " + json.dumps(result["machine"]))
    print("# setup " + json.dumps(result["setup"]))
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")
    print(f"# reference checked: {result['reference_checked']}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}{moves.get(name, '')}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
